import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pstchain import (ClockProgram, NetworkSpec, amplifier_sim, analytic_chain,
                      chain, clock_computer, diagonalize, gamma, hypercube,
                      network_operator, product_network, rescale, spectral, star_network,
                      theta_entangler)
from pstchain.networks import DENSE_CAP
from pstchain.networks import (BitFlipOperator, amplifier_dense_check,
                               amplifier_dense_hamiltonian, clock_hamiltonian, lanczos_evolve,
                               w_phase_rotation, wall_basis_vector)

from oracles import amplifier_dense, expm_evolve, star_symmetric_sector, tridiagonal_dense


# --- product lattices ---------------------------------------------------------

def test_product_2x2_equals_hypercube_d2():
    n2 = analytic_chain(2)
    net = product_network(n2, n2)
    cube = hypercube(2)
    assert np.allclose(network_operator(net), network_operator(cube))


def test_product_3x2_corner_transfer_expm_oracle():
    net = product_network(analytic_chain(3), analytic_chain(2))
    op = network_operator(net)
    e = np.zeros(6, dtype=complex)
    e[0] = 1.0  # vertex (1,1)
    out = expm_evolve(op, e, math.pi)
    assert abs(abs(out[5]) - 1.0) < 1e-8  # vertex (3,2)
    # interior transfers mirror as well: (2,1) -> (2,2)
    e = np.zeros(6, dtype=complex)
    e[2] = 1.0
    out = expm_evolve(op, e, math.pi)
    assert abs(abs(out[3]) - 1.0) < 1e-8


def test_product_spectrum_additivity():
    a, b = analytic_chain(3), analytic_chain(4)
    net = product_network(a, b)
    lam_a = diagonalize(a).eigenvalues
    lam_b = diagonalize(b).eigenvalues
    expected = np.sort((lam_a[:, None] + lam_b[None, :]).ravel())
    got = np.sort(np.linalg.eigvalsh(network_operator(net)))
    assert np.max(np.abs(got - expected)) < 1e-10


@pytest.mark.parametrize("n, m", [(3, 4), (10, 10)])
def test_product_corner_amplitude_is_the_product_of_chain_amplitudes(n, m):
    net = product_network(analytic_chain(n), analytic_chain(m))
    e = np.zeros(n * m, dtype=complex)
    e[0] = 1.0
    corner = expm_evolve(network_operator(net), e, math.pi)[-1]
    expected = (gamma(diagonalize(analytic_chain(n)), 1, n, math.pi)
                * gamma(diagonalize(analytic_chain(m)), 1, m, math.pi))
    assert abs(corner - expected) <= 1e-12
    assert abs(abs(corner) - 1.0) < 1e-8


def test_product_rejects_mismatched_t0():
    fast = rescale(analytic_chain(2), 2.0)  # t0 = pi/2
    with pytest.raises(ValueError):
        product_network(analytic_chain(3), fast)


def test_product_rejects_fields():
    with pytest.raises(ValueError):
        product_network(chain([0.5], [0.1, 0.1]), analytic_chain(2))


# --- hypercube ------------------------------------------------------------------

def test_hypercube_d1_is_two_site_chain():
    net = hypercube(1)
    assert np.allclose(network_operator(net), [[0.0, 0.5], [0.5, 0.0]])


def test_hypercube_d3_antipodal_transfer():
    net = hypercube(3)
    op = network_operator(net)
    e = np.zeros(8, dtype=complex)
    e[0] = 1.0
    out = expm_evolve(op, e, math.pi)
    assert abs(abs(out[7]) - 1.0) < 1e-8


@pytest.mark.parametrize("d", [3, 8])
def test_hypercube_antipodal_amplitude_is_the_two_site_amplitude_to_the_d(d):
    net = hypercube(d)
    e = np.zeros(1 << d, dtype=complex)
    e[0] = 1.0
    antipode = expm_evolve(network_operator(net), e, math.pi)[-1]
    assert abs(antipode - gamma(diagonalize(chain([0.5])), 1, 2, math.pi) ** d) <= 1e-12
    assert abs(abs(antipode) - 1.0) < 1e-8


def test_hypercube_and_amplifier_refuse_sizes_beyond_the_dense_cap(monkeypatch):
    def refuse(diag, off):
        raise AssertionError(f"solved a {len(diag)}-site chain")

    for name in ("_eigenvalue_solve", "_eigenvector_solve"):
        monkeypatch.setattr(spectral, name, refuse)
    with pytest.raises(ValueError, match="dense cap"):
        hypercube(DENSE_CAP + 1)
    with pytest.raises(ValueError, match="dense cap"):
        amplifier_dense_hamiltonian(np.ones(DENSE_CAP))


# --- star networks -----------------------------------------------------------------

def test_star_single_branch_is_plain_transfer():
    rep = star_network(analytic_chain(4), 1)
    assert rep.w_state_fidelity >= 1.0 - 1e-8
    assert rep.network.n_vertices == 4


def test_star_two_branches_bell():
    rep = star_network(analytic_chain(4), 2)
    assert rep.w_state_fidelity >= 1.0 - 1e-8
    assert np.allclose(np.abs(rep.leaf_amplitudes), 1.0 / math.sqrt(2.0), atol=1e-8)


def test_star_three_branches_w_state_expm_oracle():
    rep = star_network(analytic_chain(2), 3)
    net = rep.network
    assert net.n_vertices == 4
    op = network_operator(net)
    e = np.zeros(4, dtype=complex)
    e[0] = 1.0
    out = expm_evolve(op, e, math.pi)
    assert np.allclose(np.abs(out[1:]), 1.0 / math.sqrt(3.0), atol=1e-8)
    assert abs(out[0]) < 1e-8


@pytest.mark.parametrize("n, m", [(2, 3), (5, 4), (10, 3)])
def test_star_leaf_amplitudes_match_expm_oracle(n, m):
    rep = star_network(analytic_chain(n), m)
    net = rep.network
    e = np.zeros(net.n_vertices, dtype=complex)
    e[0] = 1.0
    out = expm_evolve(network_operator(net), e, rep.t0)
    ends = [net.labels[f"end_{b}"] for b in range(m)]
    assert np.max(np.abs(rep.leaf_amplitudes - out[ends])) <= 1e-12
    assert rep.w_state_fidelity == pytest.approx(
        abs(np.sum(out[ends])) ** 2 / m, abs=1e-12)


def test_star_w_phase_rotation_traps_state():
    m = 3
    rep = star_network(analytic_chain(2), m)
    rotation = w_phase_rotation(m, 1)
    psi = np.zeros(rep.network.n_vertices, dtype=complex)
    psi[1:] = rotation * rep.leaf_amplitudes
    op = network_operator(rep.network)
    for t in (0.7, 2.0, math.pi):
        out = expm_evolve(op, psi, t)
        assert abs(out[0]) < 1e-8  # never couples back to the hub
        overlap = abs(np.vdot(psi, out))
        assert overlap == pytest.approx(1.0, abs=1e-8)  # eigenstate: trapped


def test_star_symmetric_sector_equals_branch():
    branch = analytic_chain(5)
    rep = star_network(branch, 4)
    projected = star_symmetric_sector(rep.network, branch, 4)
    want = tridiagonal_dense(branch.couplings, branch.fields)
    assert np.max(np.abs(projected - want)) < 1e-12


# --- theta entangler ------------------------------------------------------------------

def test_theta_quarter_pi_restores_transfer():
    rep = theta_entangler(analytic_chain(5), math.pi / 4.0)
    assert abs(rep.amplitude_first) < 1e-8
    assert abs(abs(rep.amplitude_last) - 1.0) < 1e-8
    # couplings restored exactly: sqrt(2) cos(pi/4) = 1
    op = network_operator(rep.network)
    spec = analytic_chain(5)
    assert np.max(np.abs(op - tridiagonal_dense(spec.couplings, spec.fields))) < 1e-12


def test_theta_eighth_pi_maximal_entanglement():
    rep = theta_entangler(analytic_chain(5), math.pi / 8.0)
    assert abs(abs(rep.amplitude_first) - 1.0 / math.sqrt(2.0)) < 1e-8
    assert abs(abs(rep.amplitude_last) - 1.0 / math.sqrt(2.0)) < 1e-8
    assert rep.residual_elsewhere < 1e-8


def test_theta_general_angle_amplitudes_and_oracle():
    theta = 0.3
    base = analytic_chain(5)
    rep = theta_entangler(base, theta)
    # sector bookkeeping: amplitudes (cos 2theta, sin 2theta) up to a phase
    assert abs(abs(rep.amplitude_first) - abs(math.cos(2 * theta))) < 1e-8
    assert abs(abs(rep.amplitude_last) - abs(math.sin(2 * theta))) < 1e-8
    norm = abs(rep.amplitude_first) ** 2 + abs(rep.amplitude_last) ** 2
    assert norm == pytest.approx(1.0, abs=1e-10)
    op = network_operator(rep.network)
    e = np.zeros(5, dtype=complex)
    e[0] = 1.0
    out = expm_evolve(op, e, math.pi)
    assert abs(out[0] - rep.amplitude_first) < 1e-8
    assert abs(out[4] - rep.amplitude_last) < 1e-8
    # the two amplitudes share the global phase: their ratio is real positive
    ratio = rep.amplitude_last / rep.amplitude_first
    assert abs(ratio.imag) < 1e-8


@pytest.mark.parametrize("n, theta", [(5, 0.3), (11, 0.3), (11, 1.2)])
def test_theta_amplitudes_match_expm_oracle(n, theta):
    rep = theta_entangler(analytic_chain(n), theta)
    e = np.zeros(n, dtype=complex)
    e[0] = 1.0
    out = expm_evolve(network_operator(rep.network), e, rep.t0)
    assert abs(out[0] - rep.amplitude_first) <= 1e-12
    assert abs(out[-1] - rep.amplitude_last) <= 1e-12
    assert abs(np.max(np.abs(out[1:-1])) - rep.residual_elsewhere) <= 1e-12


def test_theta_rejects_even_chains():
    with pytest.raises(ValueError):
        theta_entangler(analytic_chain(4), math.pi / 8.0)


# --- amplifier ------------------------------------------------------------------

def test_amplifier_analytic_six_peak_and_revival():
    spec = analytic_chain(6)
    t0 = math.pi
    res = amplifier_sim(spec, 1, np.asarray([t0, 2.0 * t0, 3.0 * t0]))
    assert res.target_probability[0] >= 1.0 - 1e-8
    assert abs(res.wall_amplitudes[1, 1]) ** 2 >= 1.0 - 1e-8  # revival of |~1>
    assert res.target_probability[2] >= 1.0 - 1e-8


def test_amplifier_two_site_rabi():
    res = amplifier_sim(np.asarray([1.0]), 1, np.linspace(0.0, 2.0 * math.pi, 9))
    # two-level flopping between walls 1 and 2 at frequency J
    expected = np.sin(np.linspace(0.0, 2.0 * math.pi, 9)) ** 2
    assert np.allclose(res.target_probability, expected, atol=1e-10)


def test_amplifier_wall_basis_matches_dense():
    worst = amplifier_dense_check(analytic_chain(8), 1,
                                  np.linspace(0.0, 2.0 * math.pi, 9))
    assert worst < 1e-9


def test_amplifier_dense_check_detects_wrong_wall_amplitudes(monkeypatch):
    import pstchain.networks as networks

    true_sim = networks.amplifier_sim

    def skewed(*args):
        res = true_sim(*args)
        amps = res.wall_amplitudes.copy()
        amps[:, 2] *= np.exp(1e-6j)
        return networks.AmplifierResult(res.times, amps, res.target_probability,
                                        res.mean_signal, res.majority_probability)

    times = np.asarray([0.7, 1.9])
    spec = analytic_chain(6)
    assert amplifier_dense_check(spec, 1, times) < 1e-12
    monkeypatch.setattr(networks, "amplifier_sim", skewed)
    assert amplifier_dense_check(spec, 1, times) > 1e-8


def test_amplifier_dense_hamiltonian_matches_pauli_construction():
    rng = np.random.default_rng(11)
    for n in range(3, 8):
        j = rng.uniform(0.3, 1.5, n - 1)
        h = amplifier_dense_hamiltonian(j)
        assert isinstance(h, BitFlipOperator)
        assert h.coef.shape == (n - 1, 1 << n)
        assert list(h.flips) == [1 << (n - m) for m in range(2, n + 1)]
        assert np.max(np.abs(h.toarray() - amplifier_dense(j))) < 1e-14


def test_amplifier_dense_closure():
    # the full Hamiltonian never maps a wall state out of the wall ladder
    j = analytic_chain(6).coupling_array()
    h = amplifier_dense_hamiltonian(j)
    n = 6
    ladder = np.stack([wall_basis_vector(n, w) for w in range(n + 1)])
    for w in range(n + 1):
        image = h @ wall_basis_vector(n, w)
        residue = image - ladder.T @ (ladder.conj() @ image)
        assert np.max(np.abs(residue)) < 1e-12


def _ladder(n):
    return (1 << n) - (1 << (n - np.arange(n + 1)))


def test_lanczos_state_matches_the_dense_oracle_on_every_amplitude():
    """The Lanczos state over all 2^N amplitudes, not only the wall ladder,
    against the matrix exponential of the Pauli construction."""
    rng = np.random.default_rng(2028)
    for n in range(3, 9):
        j = rng.uniform(0.3, 1.5, n - 1)
        dense = amplifier_dense(j)
        times = np.sort(rng.uniform(0.0, 3.0 * math.pi, 4))
        for wall in range(n + 1):
            start = wall_basis_vector(n, wall)
            psi, beta = lanczos_evolve(amplifier_dense_hamiltonian(j), start.real, times)
            assert beta < 1e-14
            for i, t in enumerate(times):
                assert np.max(np.abs(psi[i] - expm_evolve(dense, start, t))) < 1e-12, (n, wall, t)


def _leaky(eps):
    """The amplifier Hamiltonian plus eps X_N on every pair of states that are
    not both walls: a term with no matrix element inside the ladder."""
    true_build = amplifier_dense_hamiltonian

    def build(j):
        h = true_build(j)
        n = len(j) + 1
        extra = np.full(1 << n, eps)
        extra[_ladder(n)[-2:]] = 0.0  # X_N maps wall N to wall N - 1
        return BitFlipOperator(np.vstack([h.coef, extra]), np.append(h.flips, 1))
    return build


def test_amplifier_dense_check_counts_a_leak_out_of_the_ladder(monkeypatch):
    import pstchain.networks as networks

    spec = analytic_chain(6)
    times = np.asarray([0.7, 1.9, 3.0])
    start = wall_basis_vector(6, 1)
    for eps in (0.0, 1e-3):
        monkeypatch.setattr(networks, "amplifier_dense_hamiltonian", _leaky(eps))
        h = networks.amplifier_dense_hamiltonian(spec.coupling_array())
        assert np.max(np.abs(h.toarray() - h.toarray().T)) == 0.0
        exact = [expm_evolve(h.toarray(), start, t) for t in times]
        outside = max(1.0 - float(np.sum(np.abs(psi[_ladder(6)]) ** 2)) for psi in exact)
        worst = amplifier_dense_check(spec, 1, times)
        if eps == 0.0:
            assert worst < 1e-12
        else:
            assert outside > 1e-7
            assert worst >= outside - 1e-15  # the two weights agree up to rounding


def test_amplifier_dense_check_within_1e_12_on_analytic_and_random_chains():
    rng = np.random.default_rng(31)
    for n in range(2, DENSE_CAP + 1):
        times = np.sort(rng.uniform(0.0, 3.0 * math.pi, 3))
        assert amplifier_dense_check(analytic_chain(n), 1, times) < 1e-12, n
        j = rng.uniform(0.3, 1.5, n - 1)
        for wall in (0, 1, n // 2, n):
            assert amplifier_dense_check(j, wall, times) < 1e-12, (n, wall)


def test_amplifier_dense_check_refuses_bad_input():
    spec = analytic_chain(6)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError):
            amplifier_dense_check(spec, 1, np.asarray([0.5, t]))
    for wall in (-1, 7, 1.5):
        with pytest.raises(ValueError, match="wall index"):
            amplifier_dense_check(spec, wall, np.asarray([0.5]))
    with pytest.raises(ValueError, match="dense cap"):
        amplifier_dense_check(np.ones(DENSE_CAP), 1, np.asarray([0.5]))


def test_amplifier_dense_check_loads_no_scipy_sparse_or_linalg():
    """The 2^N check runs on numpy alone: a fresh process that runs it has
    loaded neither scipy.sparse nor scipy.linalg (the LAPACK extension that
    spectral loads from its file is allowed)."""
    import pstchain

    root = os.path.dirname(os.path.dirname(pstchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, math, numpy as np\n"
            "from pstchain import analytic_chain\n"
            "from pstchain.networks import amplifier_dense_check\n"
            "worst = amplifier_dense_check(analytic_chain(10), 1, np.linspace(0, math.pi, 5))\n"
            "print(worst < 1e-12, *(m in sys.modules for m in\n"
            "      ('scipy.sparse', 'scipy.sparse.linalg', 'scipy.linalg')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["True", "False", "False", "False"]


def test_amplifier_superposition_input():
    spec = analytic_chain(4)
    alpha, beta = 0.6, 0.8
    psi0 = np.zeros(5, dtype=complex)
    psi0[0] = alpha
    psi0[1] = beta
    res = amplifier_sim(spec, psi0, np.asarray([math.pi]))
    # |~0> is stationary; the signal component amplifies fully
    assert abs(res.wall_amplitudes[0, 0]) ** 2 == pytest.approx(alpha ** 2, abs=1e-10)
    assert res.target_probability[0] == pytest.approx(beta ** 2, abs=1e-8)


def test_amplifier_rejects_fields():
    with pytest.raises(ValueError):
        amplifier_sim(chain([1.0, 1.0], [0.2, 0.0, 0.2]), 1, np.asarray([1.0]))


# --- clock computer ------------------------------------------------------------

def test_clock_identity_gates_pure_transfer():
    n = 4
    gates = tuple(np.eye(2, dtype=complex) for _ in range(n - 1))
    psi = np.array([0.6, 0.8j])
    res = clock_computer(ClockProgram(chain=analytic_chain(n), gates=gates), psi)
    assert res.fidelity >= 1.0 - 1e-8
    assert abs(abs(np.vdot(psi, res.output)) - 1.0) < 1e-8
    assert res.dense_verified


def test_clock_two_steps_single_gate_dense_oracle():
    rng = np.random.default_rng(21)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(z)
    prog = ClockProgram(chain=analytic_chain(2), gates=(q,))
    psi = np.array([1.0, 0.0], dtype=complex)
    res = clock_computer(prog, psi)
    assert res.fidelity >= 1.0 - 1e-8
    assert abs(abs(np.vdot(q @ psi, res.output)) - 1.0) < 1e-8
    # independent dense check
    h = clock_hamiltonian(prog)
    start = np.zeros(4, dtype=complex)
    start[:2] = psi
    out = expm_evolve(h, start, math.pi)
    assert abs(abs(np.vdot(q @ psi, out[2:])) - 1.0) < 1e-8


def test_clock_gate_sequence_composition():
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    s = np.diag([1.0, 1j])
    gates = (h, s, h)
    psi = np.array([1.0, 0.0], dtype=complex)
    res = clock_computer(ClockProgram(chain=analytic_chain(4), gates=gates), psi)
    target = h @ s @ h @ psi
    assert res.fidelity >= 1.0 - 1e-8
    assert abs(abs(np.vdot(target, res.output)) - 1.0) < 1e-8


def test_clock_random_programs():
    rng = np.random.default_rng(22)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 5))
        gates = []
        for _ in range(n - 1):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(z)
            gates.append(q)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        res = clock_computer(ClockProgram(chain=analytic_chain(n), gates=tuple(gates)),
                             psi)
        target = psi
        for g in gates:
            target = g @ target
        assert abs(abs(np.vdot(target, res.output)) - 1.0) < 1e-8


def test_clock_rejects_non_unitary_gates():
    with pytest.raises(ValueError):
        ClockProgram(chain=analytic_chain(2), gates=(np.array([[1.0, 0.0], [0.0, 2.0]]),))


def test_network_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(n_vertices=2, edges=((0, 2, 1.0),), potentials=(0.0, 0.0), labels={})
    with pytest.raises(ValueError):
        NetworkSpec(n_vertices=2, edges=(), potentials=(0.0,), labels={})
    net = NetworkSpec(n_vertices=2, edges=((0, 1, 1.0 + 0.5j), (0, 1, 2.0)),
                      potentials=(0.0, 0.0), labels={})
    with pytest.raises(ValueError):
        network_operator(net)


def test_complex_phased_network_is_hermitian():
    net = NetworkSpec(n_vertices=3, edges=((0, 1, 1.0j), (1, 2, 1.0)),
                      potentials=(0.0, 0.0, 0.0), labels={})
    op = network_operator(net)
    assert np.max(np.abs(op - op.conj().T)) == 0.0
    sd = diagonalize(op)
    assert sd.eigenvalues.shape == (3,)
