import cmath
import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from pstchain import (QuadraticFermionHamiltonian, analytic_chain, basis_slater,
                      bell_fidelity_curve, bogoliubov_modes, certify_pst,
                      chain, diagonalize, entanglement_distribution_sim,
                      entanglement_generation, evolve_slater, gamma, initfree_transfer,
                      ising_from_pst, propagate, sequential_storage_chain,
                      sequential_storage_sim, slater_state, sort_to_site_order,
                      two_boson_transfer, uniform_chain)
from pstchain import fermionic, spectral
from pstchain.fermionic import REGISTER_CAP, _minors, entanglement_entropy_bits

from oracles import (SX, SZ, basis_index, expm_evolve, op_at, quadratic_dense,
                     random_pst_chain, reduced_density_matrix, slater_to_dense,
                     storage_dense, tridiagonal_dense, two_boson_dense, xx_dense)


# --- Slater calculus -------------------------------------------------------

def test_wedge_norm_identity():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        state = slater_state([a, b])
        assert state.norm ** 2 == pytest.approx(1.0 - abs(np.vdot(b, a)) ** 2, abs=1e-12)


def test_exclusion_principle_zero_state():
    a = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    state = slater_state([a, a])
    assert state.is_zero
    assert np.all(slater_to_dense(state) == 0)


def test_more_orbitals_than_sites_wedge_to_zero():
    rng = np.random.default_rng(3)
    state = slater_state(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    assert state.is_zero
    assert state.orbitals.shape == (4, 3) and np.all(state.orbitals == 0)


def test_exchange_antisymmetry():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    ab = slater_to_dense(slater_state([a, b]))
    ba = slater_to_dense(slater_state([b, a]))
    assert np.max(np.abs(ab + ba)) < 1e-12


def test_slater_to_dense_basis_convention():
    state = basis_slater(3, [2])
    dense = slater_to_dense(state)
    assert dense[basis_index(3, [2])] == 1.0  # |010>
    pair = slater_to_dense(basis_slater(3, [1, 3]))
    assert pair[basis_index(3, [1, 3])] == 1.0  # |101>, ascending order positive


def test_evolve_slater_single_orbital_transfer():
    spec = analytic_chain(5)
    out = evolve_slater(spec, basis_slater(5, [1]), math.pi)
    sorted_state, sites = sort_to_site_order(out)
    assert sites == (5,)
    assert abs(abs(sorted_state.coefficient) - 1.0) < 1e-10


def test_evolve_slater_exchange_sign_on_pair():
    spec = analytic_chain(4)
    cert = certify_pst(spec)
    out = evolve_slater(spec, basis_slater(4, [1, 2]), cert.t0)
    sorted_state, sites = sort_to_site_order(out, tol=1e-7)
    assert sites == (3, 4)
    # two independent transfers would give phase^2; the crossing adds -1
    expected = -cert.arrival_phase ** 2
    assert abs(sorted_state.coefficient - expected) < 1e-7


def test_evolve_slater_time_zero_identity():
    spec = analytic_chain(4)
    state = slater_state([np.array([0.5, 0.5, 0.5, 0.5]),
                          np.array([0.5, -0.5, 0.5, -0.5])])
    out = evolve_slater(spec, state, 0.0)
    assert np.allclose(out.orbitals, state.orbitals, atol=1e-14)
    assert out.coefficient == state.coefficient


def test_evolve_slater_rejects_bosonic():
    spec = chain([1.0], statistics="bosonic")
    with pytest.raises(ValueError):
        evolve_slater(spec, basis_slater(2, [1]), 1.0)


# --- minors of the propagator ------------------------------------------------

def _random_fielded_chain(seed, n):
    rng = np.random.default_rng(seed)
    return chain(rng.uniform(0.3, 1.4, n - 1), rng.uniform(-0.8, 0.8, n))


@settings(max_examples=60, deadline=None)
@given(st.builds(_random_fielded_chain, st.integers(0, 2 ** 32 - 1), st.integers(1, 8)),
       st.floats(0.0, 10.0))
@example(chain([0.7], [0.3, 0.3]), 2.1)
@example(chain([0.5]), math.pi)  # e^{-i (X/2) pi} = -i X on the one-excitation block
@example(chain([0.5], [0.2, -0.4]), 1.3)
def test_minors_of_the_propagator_are_the_pauli_evolution(spec, t):
    """The 2^N table of the minors of the N x N propagator is exp(-i t H) of
    the Pauli construction, and unitary. The vacuum is stationary, the full
    band takes the phase e^{-i t sum B}, and on two sites the one-excitation
    hop has its closed form."""
    step = _minors(propagate(diagonalize(spec), np.eye(spec.n), t))
    exact = scipy.linalg.expm(-1j * t * xx_dense(spec.couplings, spec.fields))
    assert np.max(np.abs(step - exact)) <= 1e-10
    assert np.max(np.abs(step.conj().T @ step - np.eye(1 << spec.n))) <= 1e-10
    assert step[0, 0] == 1.0
    assert abs(step[-1, -1] - cmath.exp(-1j * t * sum(spec.fields))) <= 1e-12
    if spec.n == 2:
        (b1, b2), (j,) = spec.fields, spec.couplings
        omega = math.hypot(j, (b1 - b2) / 2)
        hop = -1j * j / omega * math.sin(omega * t) * cmath.exp(-0.5j * (b1 + b2) * t)
        assert abs(step[basis_index(2, [2]), basis_index(2, [1])] - hop) <= 1e-12


def test_storage_refuses_registers_beyond_the_cap_before_solving(monkeypatch):
    def refuse(diag, off):
        raise AssertionError(f"solved a {len(diag)}-site chain")

    for name in ("_eigenvalue_solve", "_eigenvector_solve"):
        monkeypatch.setattr(spectral, name, refuse)
    spec = sequential_storage_chain(REGISTER_CAP + 2)
    with pytest.raises(ValueError, match=f"register cap \\({REGISTER_CAP}\\)"):
        sequential_storage_sim(spec, [np.array([1.0, 0.0])] * (REGISTER_CAP + 1), "same")


def test_slater_agrees_with_dense_on_random_cases():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        spec = chain(rng.uniform(0.3, 1.5, n - 1), rng.uniform(-1.0, 1.0, n))
        k = int(rng.integers(1, n + 1))
        raw = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        state = slater_state([row / np.linalg.norm(row) for row in raw])
        if state.is_zero:
            continue
        t = float(rng.uniform(0.0, 8.0))
        lhs = slater_to_dense(evolve_slater(spec, state, t))
        rhs = expm_evolve(xx_dense(spec.couplings, spec.fields), slater_to_dense(state), t)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


# --- protocols ---------------------------------------------------------------

def test_entanglement_generation_analytic_four():
    rep = entanglement_generation(analytic_chain(4))
    assert rep.entropy_bits == pytest.approx(1.0, abs=1e-6)
    assert rep.target_fidelity == pytest.approx(1.0, abs=1e-8)


def test_entanglement_generation_two_sites_vs_dense_oracle():
    spec = chain([0.5])
    rep = entanglement_generation(spec)
    plus = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)  # |+>|+> for n=2
    out = expm_evolve(xx_dense(spec.couplings, spec.fields), plus, math.pi)
    rho = np.outer(out, out.conj())
    assert np.max(np.abs(rho - rep.end_pair_rho)) < 1e-10
    assert rep.entropy_bits == pytest.approx(1.0, abs=1e-6)


def _entgen_oracle(spec, t):
    """End-pair rho, site-1 entropy and phase-corrected target fidelity of
    |+>|0..0>|+> evolved by the Kronecker-product Hamiltonian."""
    n = spec.n
    psi = np.zeros(1 << n, dtype=complex)
    for sites in ((), (1,), (n,), (1, n)):
        psi[basis_index(n, sites)] = 0.5
    out = expm_evolve(xx_dense(spec.couplings, spec.fields), psi, t)
    rho = reduced_density_matrix(out, [1, n], n)
    evals = np.linalg.eigvalsh(reduced_density_matrix(out, [1], n))
    evals = evals[evals > 1e-15]
    entropy = float(-np.sum(evals * np.log2(evals)))
    phase = np.conj(certify_pst(spec).arrival_phase)
    fix = np.diag([1.0, phase, phase, phase ** 2])
    target = 0.5 * np.array([1, 1, 1, -1], dtype=complex)
    fidelity = float(np.real(target.conj() @ fix @ rho @ fix.conj().T @ target))
    return rho, entropy, fidelity


@pytest.mark.parametrize("n", range(3, 9))
def test_entanglement_generation_matches_kronecker_oracle(n):
    rng = np.random.default_rng(40 + n)
    fielded = random_pst_chain(rng, n)
    while np.max(np.abs(fielded.field_array())) < 1e-3:  # a symmetric draw has none
        fielded = random_pst_chain(rng, n)
    for spec in (analytic_chain(n), fielded):
        t0 = certify_pst(spec).t0
        for t in (t0, 0.37 * t0, 1.9 * t0):
            rep = entanglement_generation(spec, t=t)
            rho, entropy, fidelity = _entgen_oracle(spec, t)
            assert np.max(np.abs(rep.end_pair_rho - rho)) <= 1e-10
            assert abs(rep.entropy_bits - entropy) <= 1e-10
            assert abs(rep.target_fidelity - fidelity) <= 1e-10


def test_entanglement_generation_half_time_entropy_below_one():
    rep = entanglement_generation(analytic_chain(6), t=math.pi / 2.0)
    assert rep.entropy_bits < 1.0 - 1e-3


def test_entanglement_generation_and_storage_refuse_a_bosonic_chain():
    # bosons carry no exchange sign, on which both protocols rest
    with pytest.raises(ValueError, match="fermionic statistics"):
        entanglement_generation(replace(analytic_chain(4), statistics="bosonic"))
    with pytest.raises(ValueError, match="fermionic statistics"):
        sequential_storage_sim(replace(sequential_storage_chain(4), statistics="bosonic"),
                               [np.array([1.0, 0.0])], "same")


def test_entanglement_generation_rejects_imperfect():
    with pytest.raises(ValueError):
        entanglement_generation(uniform_chain(4))


def test_initfree_clean_chain():
    rep = initfree_transfer(analytic_chain(4), 0.6, 0.8j, [0, 0])
    assert rep.fidelity >= 1.0 - 1e-8


def test_initfree_junk_pattern():
    rep = initfree_transfer(analytic_chain(6), 1 / math.sqrt(2), 1 / math.sqrt(2), "1010")
    assert rep.fidelity >= 1.0 - 1e-8


def test_initfree_all_junk_states_random_inputs():
    spec = analytic_chain(5)
    rng = np.random.default_rng(5)
    for pattern in range(8):
        bits = [(pattern >> i) & 1 for i in range(3)]
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z /= np.linalg.norm(z)
        rep = initfree_transfer(spec, z[0], z[1], bits)
        assert rep.fidelity >= 1.0 - 1e-8


def _initfree_oracle(spec, alpha, beta, bits):
    """Outcome probabilities and per-outcome fidelities of the readout on the
    full 2^N state evolved by the Kronecker-product Hamiltonian."""
    n = spec.n
    junk = [s for s, b in enumerate(bits, start=3) if b]
    psi = np.zeros(1 << n, dtype=complex)
    psi[basis_index(n, [1] + junk)] = beta   # ascending creation order: no sign
    psi[basis_index(n, [2] + junk)] = alpha
    out = expm_evolve(xx_dense(spec.couplings, spec.fields), psi, certify_pst(spec).t0)
    target = np.array([alpha, beta], dtype=complex)
    probs, fids = [], []
    for outcome in (+1, -1):
        proj = 0.5 * (out + outcome * op_at(SX, n - 1, n) @ out)
        prob = float(np.vdot(proj, proj).real)
        if outcome == -1:
            proj = op_at(SZ, n, n) @ proj
        rho = reduced_density_matrix(proj, [n], n) / prob
        probs.append(prob)
        fids.append(float(np.real(target.conj() @ rho @ target)))
    return probs, fids


@pytest.mark.parametrize("n", (5, 6))
def test_initfree_matches_dense_oracle_every_junk_string(n):
    spec = analytic_chain(n)
    rng = np.random.default_rng(50 + n)
    for pattern in range(1 << (n - 2)):
        bits = [(pattern >> i) & 1 for i in range(n - 2)]
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z /= np.linalg.norm(z)
        rep = initfree_transfer(spec, z[0], z[1], bits)
        probs, fids = _initfree_oracle(spec, z[0], z[1], bits)
        assert np.max(np.abs(np.subtract(rep.outcome_probabilities, probs))) <= 1e-10
        assert np.max(np.abs(np.subtract(rep.fidelity_by_outcome, fids))) <= 1e-10


def test_protocols_run_beyond_the_dense_cap():
    spec = analytic_chain(200)
    rep = entanglement_generation(spec)
    assert abs(rep.entropy_bits - 1.0) <= 1e-8
    assert rep.target_fidelity >= 1.0 - 1e-8
    rng = np.random.default_rng(9)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z /= np.linalg.norm(z)
    junk = rng.integers(0, 2, size=198)
    assert initfree_transfer(spec, z[0], z[1], junk).fidelity >= 1.0 - 1e-8


def test_initfree_validates_amplitudes():
    with pytest.raises(ValueError):
        initfree_transfer(analytic_chain(4), 1.0, 1.0, [0, 0])


# --- sequential storage -------------------------------------------------------

def test_storage_two_qubits_reverse_order():
    spec = sequential_storage_chain(2)
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    rep = sequential_storage_sim(spec, [zero, one], "reverse")
    assert rep.cz_pairs == ()
    assert rep.fidelity_vs_prediction >= 1.0 - 1e-8
    # outputs are the basis inputs themselves
    expected = np.kron(zero, one)
    assert abs(abs(np.vdot(expected, rep.output_state)) - 1.0) < 1e-8


def test_storage_reverse_order_returns_superpositions_exactly():
    spec = sequential_storage_chain(3)
    rng = np.random.default_rng(6)
    states = []
    for _ in range(3):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        states.append(z / np.linalg.norm(z))
    rep = sequential_storage_sim(spec, states, "reverse")
    assert rep.cz_pairs == ()
    product = states[0]
    for s in states[1:]:
        product = np.kron(product, s)
    assert abs(abs(np.vdot(product, rep.output_state)) - 1.0) < 1e-8


def test_storage_same_order_ghz():
    spec = sequential_storage_chain(3)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rep = sequential_storage_sim(spec, [plus] * 3, "same")
    assert rep.cz_pairs == ((0, 1), (0, 2), (1, 2))
    assert rep.fidelity_vs_prediction >= 1.0 - 1e-8
    # every single-qubit marginal of the output is maximally mixed
    for q in (1, 2, 3):
        rho = reduced_density_matrix(rep.output_state, [q], 3)
        assert entanglement_entropy_bits(rho) == pytest.approx(1.0, abs=1e-8)
    # explicit local-unitary map onto GHZ: local complementation at qubit 1
    # followed by Hadamards on the leaves
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    rx = _one_qubit_gate_on(_exp_i_pauli_x(math.pi / 4.0), 0, 3)
    rz2 = _one_qubit_gate_on(np.diag([1.0, 1j]), 1, 3)
    rz3 = _one_qubit_gate_on(np.diag([1.0, 1j]), 2, 3)
    hh = _one_qubit_gate_on(h, 1, 3) @ _one_qubit_gate_on(h, 2, 3)
    mapped = hh @ rx @ rz2 @ rz3 @ rep.output_state
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    assert abs(np.vdot(ghz, mapped)) ** 2 == pytest.approx(1.0, abs=1e-8)


def _exp_i_pauli_x(angle):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return math.cos(angle) * np.eye(2) + 1j * math.sin(angle) * sx


def _one_qubit_gate_on(gate, q, k):
    ops = [np.eye(2, dtype=complex)] * k
    ops[q] = gate
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def test_storage_single_input_any_order():
    spec = sequential_storage_chain(3)
    z = np.array([0.8, 0.6j])
    rep = sequential_storage_sim(spec, [z], [0])
    assert rep.cz_pairs == ()
    assert abs(abs(np.vdot(z, rep.output_state)) - 1.0) < 1e-8


def test_storage_arbitrary_order_matches_prediction():
    spec = sequential_storage_chain(4)
    rng = np.random.default_rng(7)
    states = []
    for _ in range(3):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        states.append(z / np.linalg.norm(z))
    rep = sequential_storage_sim(spec, states, [1, 0, 2])
    assert rep.fidelity_vs_prediction >= 1.0 - 1e-8
    # removing 1 first entangles it with the later-written 2 only; 0 then
    # entangles with 2 alone since 1 has already left the chain
    assert rep.cz_pairs == ((1, 2), (0, 2))


def test_storage_rejects_too_many_inputs():
    spec = sequential_storage_chain(2)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError):
        sequential_storage_sim(spec, [plus] * 3, "same")


def test_storage_rejects_non_storage_chain():
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError):
        sequential_storage_sim(analytic_chain(3), [plus], [0])


def test_storage_refuses_a_chain_that_drifts_off_its_nulls_after_one_period():
    """Couplings scaled by 1 + 1e-9 keep |gamma_11| below 1e-8 over the first
    N - 1 steps (3.3e-9 at N = 4), but reverse order reads 16 steps after the
    first write, where the off-target amplitude has grown to 1.7e-8."""
    spec = chain(np.array(sequential_storage_chain(4).couplings) * (1.0 + 1e-9))
    sd = diagonalize(spec)
    assert np.max(np.abs(gamma(sd, 1, 1, math.pi / 4 * np.arange(1, 4)))) < 1e-8
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match="null the input amplitude"):
        sequential_storage_sim(spec, [plus] * 4, "reverse")


def test_storage_refuses_revivals_that_fall_short(monkeypatch):
    """Every on-target entry of the revival table must reach |gamma_11| = 1
    within 1e-8; a table damped by 1e-7 (as a lossy chain would be) is
    refused, though its off-target entries stay near zero."""
    monkeypatch.setattr(fermionic, "gamma",
                        lambda *args: (1.0 - 1e-7) * spectral.gamma(*args))
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match="revive it at multiples of pi"):
        sequential_storage_sim(sequential_storage_chain(4), [plus] * 2, "same")


@pytest.mark.parametrize("order", ["sam", "foo", [0, 0], [0, 2], [0, "x"]])
def test_storage_names_the_readout_orders_it_takes(order):
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match='"same", "reverse" or a permutation'):
        sequential_storage_sim(sequential_storage_chain(3), [plus] * 2, order)


@functools.lru_cache(maxsize=None)
def _storage_step(n):
    """exp(-i t_r H) of the n-site storage chain's Pauli Hamiltonian, t_r = pi/n."""
    spec = sequential_storage_chain(n)
    return scipy.linalg.expm(-1j * math.pi / n * xx_dense(spec.couplings, spec.fields))


def _assert_storage_matches_the_oracle(n, inputs, order):
    rep = sequential_storage_sim(sequential_storage_chain(n), inputs, order)
    if order == "same":
        order = list(range(len(inputs)))
    elif order == "reverse":
        order = list(range(len(inputs)))[::-1]
    ref = storage_dense(_storage_step(n), inputs, order)
    assert ref["chain_weight"] <= 1e-12
    assert np.max(np.abs(rep.output_state - ref["output_state"])) <= 1e-12
    assert rep.cz_pairs == ref["cz_pairs"]
    assert rep.z_corrections == ref["z_corrections"]
    assert rep.readout_steps == ref["readout_steps"]
    assert abs(rep.fidelity_vs_prediction - ref["fidelity_vs_prediction"]) <= 1e-12
    assert np.max(np.abs(rep.predicted_state - ref["predicted_state"])) <= 1e-12
    return rep


@st.composite
def _storage_runs(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n))
    angles = draw(st.lists(st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)),
                           min_size=k, max_size=k))
    inputs = [np.array([math.cos(a / 2), cmath.exp(1j * b) * math.sin(a / 2)])
              for a, b in angles]
    order = draw(st.one_of(st.sampled_from(["same", "reverse"]),
                           st.permutations(range(k))))
    return n, inputs, order


@settings(max_examples=60, deadline=None)
@given(_storage_runs())
def test_storage_matches_the_joint_state_oracle(run):
    """The revival-matrix run gives the joint-state simulation's registers,
    schedule and fidelity to 1e-12."""
    _assert_storage_matches_the_oracle(*run)


def test_storage_of_six_qubits_on_ten_sites_in_reverse_matches_the_oracle():
    rng = np.random.default_rng(13)
    inputs = []
    for _ in range(6):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        inputs.append(z / np.linalg.norm(z))
    rep = _assert_storage_matches_the_oracle(10, inputs, "reverse")
    assert rep.cz_pairs == ()
    assert rep.fidelity_vs_prediction >= 1.0 - 1e-12


@pytest.mark.parametrize("n", [64, 1000])
@pytest.mark.parametrize("order", ["same", "reverse"])
def test_storage_runs_on_long_chains(n, order):
    rng = np.random.default_rng(n)
    inputs = []
    for _ in range(6):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        inputs.append(z / np.linalg.norm(z))
    rep = sequential_storage_sim(sequential_storage_chain(n), inputs, order)
    assert rep.fidelity_vs_prediction >= 1.0 - 1e-12
    expected = tuple(itertools.combinations(range(6), 2)) if order == "same" else ()
    assert rep.cz_pairs == expected
    assert max(rep.readout_steps) == (n + 5 if order == "same" else 6 * n)


# --- entanglement distribution ------------------------------------------------

def test_distribution_two_sites():
    rep = entanglement_distribution_sim(chain([0.5]))
    assert rep.bell_fidelity == pytest.approx(1.0, abs=1e-10)


def test_distribution_analytic_five():
    rep = entanglement_distribution_sim(analytic_chain(5))
    assert rep.bell_fidelity >= 1.0 - 1e-8


def test_distribution_uniform_four_stays_below_one():
    # quasi-periodic recurrences creep toward 1 on long horizons, so pin the
    # strict-inequality check to a short one where the gap is comfortable
    times = np.linspace(0.0, 30.0, 6001)
    fids = bell_fidelity_curve(uniform_chain(4), times)
    assert np.max(fids) < 1.0 - 1e-3


def test_distribution_rejects_imperfect():
    with pytest.raises(ValueError):
        entanglement_distribution_sim(uniform_chain(4))


# --- bosonic contrast ----------------------------------------------------------

def test_two_boson_transfer_has_no_exchange_sign():
    for n in (4, 6):
        spec = analytic_chain(n)
        cert = certify_pst(spec)
        phase = cert.arrival_phase
        bosonic = two_boson_transfer(
            chain(spec.couplings, spec.fields, statistics="bosonic"),
            (1, 2), (n - 1, n), cert.t0)
        assert abs(bosonic - phase ** 2) < 1e-8
        out = evolve_slater(spec, basis_slater(n, [1, 2]), cert.t0)
        sorted_state, sites = sort_to_site_order(out, tol=1e-7)
        assert sites == (n - 1, n)
        fermionic_amp = sorted_state.coefficient
        assert abs(fermionic_amp + phase ** 2) < 1e-7  # opposite sign


def test_two_boson_norm_conservation():
    spec = chain([0.9, 1.2, 0.7], statistics="bosonic")
    total = 0.0
    for i in range(1, 5):
        for j in range(i, 5):
            total += abs(two_boson_transfer(spec, (1, 2), (i, j), 1.7)) ** 2
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", range(2, 13))
def test_two_boson_matches_symmetric_subspace_oracle(n):
    rng = np.random.default_rng(100 + n)
    spec = chain(rng.uniform(0.3, 1.5, n - 1), rng.uniform(-0.8, 0.8, n),
                 statistics="bosonic")
    h2, index = two_boson_dense(tridiagonal_dense(spec.couplings, spec.fields))
    pairs = [(1, 1), (1, 2), (1, n), (n, n)]
    for t in (0.4, 1.7, 5.3):
        u2 = scipy.linalg.expm(-1j * t * h2)
        for src in pairs:
            for tgt in pairs:
                expected = u2[index[(tgt[0] - 1, tgt[1] - 1)], index[(src[0] - 1, src[1] - 1)]]
                got = two_boson_transfer(spec, src, tgt, t)
                assert abs(got - expected) <= 1e-12
                # pair order does not matter
                assert abs(two_boson_transfer(spec, src[::-1], tgt[::-1], t) - got) <= 1e-14


def test_two_boson_transfer_refuses_a_fermionic_chain():
    # the bosonic amplitude on analytic_chain(4) is -1 where the fermionic one is +1
    with pytest.raises(ValueError, match="requires bosonic statistics"):
        two_boson_transfer(analytic_chain(4), (1, 2), (3, 4), math.pi)


@pytest.mark.parametrize("source, target", [((0, 1), (1, 2)), ((-1, 2), (1, 2)),
                                            ((1, 5), (1, 2)), ((1, 2), (2, -1)),
                                            ((1, 2), (4, 5))])
def test_two_boson_rejects_sites_outside_the_chain(source, target):
    spec = chain([0.9, 1.2, 0.7], statistics="bosonic")
    with pytest.raises(ValueError, match="sites must lie in 1..4"):
        two_boson_transfer(spec, source, target, 1.0)


# --- Bogoliubov ------------------------------------------------------------------

def test_bogoliubov_number_conserving_reduces_to_spectrum():
    """With no pairing the modes are the single-particle levels: energies
    |lambda|, and eta rows that, times sqrt 2, are unit vectors in the span
    of the eigenvectors whose eigenvalues have that modulus. With a field of
    0.25 each modulus is one eigenvalue's, so the row is that eigenvector up
    to sign; the zero-field chain's moduli come in pairs +-lambda, and the
    SVD may return any unit vector of the pair's span."""
    for field in (0.0, 0.25):
        spec = chain(analytic_chain(4).couplings, [field] * 4)
        h1 = tridiagonal_dense(spec.couplings, spec.fields)
        modes = bogoliubov_modes(QuadraticFermionHamiltonian(a=h1, b=np.zeros((4, 4))))
        sd = diagonalize(spec)
        lam = sd.eigenvalues
        assert np.allclose(modes.energies, np.sort(np.abs(lam)), atol=1e-12)
        for mu, eta in zip(modes.energies, modes.eta):
            idx = np.flatnonzero(np.abs(np.abs(lam) - mu) < 1e-9)
            assert idx.size == (2 if field == 0.0 else 1)
            assert np.linalg.norm(eta) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)
            overlaps = math.sqrt(2.0) * sd.eigenvectors[:, idx].T @ eta
            assert np.linalg.norm(overlaps) == pytest.approx(1.0, abs=1e-10)


def test_bogoliubov_single_site():
    modes = bogoliubov_modes(QuadraticFermionHamiltonian(a=np.array([[-0.7]]),
                                                         b=np.zeros((1, 1))))
    assert modes.energies[0] == pytest.approx(0.7)


def test_bogoliubov_zero_mode_handling():
    spec = analytic_chain(3)  # spectrum {-1, 0, 1}
    h1 = tridiagonal_dense(spec.couplings, spec.fields)
    modes = bogoliubov_modes(QuadraticFermionHamiltonian(a=h1, b=np.zeros((3, 3))))
    assert np.allclose(modes.energies, [0.0, 1.0, 1.0], atol=1e-12)


def test_bogoliubov_canonical_sums_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        b = rng.standard_normal((n, n))
        b = 0.5 * (b - b.T)
        modes = bogoliubov_modes(QuadraticFermionHamiltonian(a=a, b=b))
        gp = modes.eta @ modes.eta.T + modes.chi @ modes.chi.T
        gm = modes.eta @ modes.eta.T - modes.chi @ modes.chi.T
        assert np.max(np.abs(gp - np.eye(n))) < 1e-10
        assert np.max(np.abs(gm)) < 1e-10
        assert np.all(modes.energies >= -1e-12)


def test_bogoliubov_resolves_a_small_mode_beside_large_ones():
    # a mode at 1e-6 of the largest is an ordinary singular value, not a zero mode
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    h = QuadraticFermionHamiltonian(a=q @ np.diag([3.0, 1.0, 1e-6, 0.5]) @ q.T,
                                    b=np.zeros((4, 4)))
    modes = bogoliubov_modes(h)
    assert np.max(np.abs(modes.energies - [1e-6, 0.5, 1.0, 3.0])) <= 1e-12
    vectors = np.hstack((modes.eta, modes.chi))  # one (eta; chi) per row
    residual = vectors @ h.block_matrix().T - modes.energies[:, None] * vectors
    assert np.max(np.abs(residual)) <= 1e-12


def _random_quadratic(seed, n, kind):
    """Random (A, B) on n modes: general, with B = 0, or with A - B of rank
    below n (kind 0, 1, 2)."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    if kind == 1:
        m = 0.5 * (m + m.T)
    elif kind == 2:
        u, s, vt = np.linalg.svd(m)
        s[:rng.integers(1, n + 1)] = 0.0
        m = (u * s) @ vt
    return QuadraticFermionHamiltonian(a=0.5 * (m + m.T), b=0.5 * (m.T - m))


@settings(max_examples=80, deadline=None)
@given(st.builds(_random_quadratic, st.integers(0, 2 ** 32 - 1), st.integers(1, 8),
                 st.integers(0, 2)))
def test_bogoliubov_energies_are_the_nonnegative_block_spectrum(h):
    """The energies are the nonnegative half of the block matrix's spectrum,
    which pairs +mu with -mu, and the modes keep the canonical sums."""
    modes = bogoliubov_modes(h)
    spectrum = np.linalg.eigvalsh(h.block_matrix())
    scale = max(1.0, float(np.max(np.abs(spectrum))))
    assert np.max(np.abs(modes.energies - spectrum[h.n:])) <= 1e-12 * scale
    assert np.all(np.diff(modes.energies) >= 0.0)
    gram_eta, gram_chi = modes.eta @ modes.eta.T, modes.chi @ modes.chi.T
    assert np.max(np.abs(gram_eta + gram_chi - np.eye(h.n))) <= 1e-12
    assert np.max(np.abs(gram_eta - gram_chi)) <= 1e-12


def test_bogoliubov_dense_oracle_spectrum():
    # mode energies reproduce the many-body spectrum: eigenvalues of the
    # dense 2^n matrix are sums of subsets of mu plus the ground energy
    rng = np.random.default_rng(9)
    n = 3
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    b = rng.standard_normal((n, n))
    b = 0.5 * (b - b.T)
    modes = bogoliubov_modes(QuadraticFermionHamiltonian(a=a, b=b))
    dense = quadratic_dense(a, b)
    evals = np.sort(np.linalg.eigvalsh(dense))
    e0 = evals[0]
    expected = sorted(e0 + sum(subset)
                      for subset in _subset_sums(modes.energies))
    assert np.allclose(evals, expected, atol=1e-9)


def _subset_sums(values):
    out = [[]]
    for v in values:
        out = out + [s + [v] for s in out]
    return out


def test_rejects_asymmetric_blocks():
    with pytest.raises(ValueError):
        QuadraticFermionHamiltonian(a=np.array([[0.0, 1.0], [0.5, 0.0]]),
                                    b=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        QuadraticFermionHamiltonian(a=np.eye(2), b=np.eye(2))


# --- transverse Ising ---------------------------------------------------------

def test_ising_from_two_site_chain():
    res = ising_from_pst(analytic_chain(2))
    assert res.fields == (0.5,)
    assert res.couplings == ()
    assert res.transfer_fidelity >= 1.0 - 1e-8


def test_ising_from_four_site_chain():
    res = ising_from_pst(analytic_chain(4))
    assert np.allclose(res.fields, [math.sqrt(3.0) / 2.0] * 2)
    assert np.allclose(res.couplings, [0.5])
    assert res.transfer_fidelity >= 1.0 - 1e-8


def test_ising_block_matrix_is_hopping_chain():
    spec = analytic_chain(6)
    res = ising_from_pst(spec)
    m = res.quadratic.block_matrix()
    # spectrum of the pairing matrix equals the 2N-site chain spectrum
    lam_chain = diagonalize(spec).eigenvalues
    assert np.allclose(np.sort(np.linalg.eigvalsh(m)), lam_chain, atol=1e-10)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_ising_transfer_matches_block_matrix_propagation(n):
    """The block matrix is the chain's matrix with chi_k on site 2k-1 and
    eta_k on site 2k, and the block-matrix propagation of a_1^dag onto
    a_N^dag gives the overlap reported from the chain."""
    spec = analytic_chain(2 * n)
    res = ising_from_pst(spec)
    m = res.quadratic.block_matrix()
    sites = np.ravel(np.column_stack((n + np.arange(n), np.arange(n))))
    assert np.array_equal(m[np.ix_(sites, sites)],
                          tridiagonal_dense(spec.couplings, spec.fields))
    start = np.zeros(2 * n)
    start[[0, n]] = 1.0 / math.sqrt(2.0)
    target = np.zeros(2 * n)
    target[[n - 1, 2 * n - 1]] = 1.0 / math.sqrt(2.0)
    overlap = target @ expm_evolve(m, start, res.t0)
    assert abs(overlap - res.arrival_phase * math.sqrt(res.transfer_fidelity)) <= 1e-10


def test_ising_dense_heisenberg_picture_oracle():
    res = ising_from_pst(analytic_chain(4))
    n = 2
    h = quadratic_dense(np.asarray(res.quadratic.a), np.asarray(res.quadratic.b))
    import scipy.linalg

    u = scipy.linalg.expm(-1j * res.t0 * h)
    from oracles import jw_majorana_ops

    a_ops = jw_majorana_ops(n)
    lhs = u @ a_ops[0].conj().T @ u.conj().T
    rhs = a_ops[n - 1].conj().T
    phase = np.trace(rhs.conj().T @ lhs) / np.trace(rhs.conj().T @ rhs)
    assert abs(abs(phase) - 1.0) < 1e-8
    assert np.max(np.abs(lhs - phase * rhs)) < 1e-8


def test_ising_rejects_odd_or_field_chains():
    with pytest.raises(ValueError):
        ising_from_pst(analytic_chain(3))
    with pytest.raises(ValueError):
        ising_from_pst(chain([1.0], [0.5, 0.5]))
