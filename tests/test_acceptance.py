"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Tolerances are pinned
here and match the library's contracts; nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import scipy.linalg

from pstchain import (BathSpec, ClockProgram, amplifier_sim, analytic_chain,
                      bath_transfer_amplitude, certify_pst, chain,
                      chain_from_spectrum, clock_computer, coupling_family,
                      dephasing_avg_fidelity, diagonalize,
                      evolve_slater, gamma, hypercube, initfree_transfer,
                      ising_from_pst, near_uniform_chain, network_operator,
                      newton_iep, optimality_report, product_network,
                      sequential_storage_chain, sequential_storage_sim,
                      slater_state, star_network,
                      target_spectrum, theta_entangler, uniform_chain)
from pstchain.certify import ARRIVAL_TOL
from pstchain.design import TargetSpectrum
from pstchain.fermionic import entanglement_entropy_bits
from pstchain.networks import amplifier_dense_check

from test_noise import _kraus_oracle
from oracles import (expm_evolve, random_pst_chain, reduced_density_matrix,
                     slater_to_dense, storage_dense, uniform_path_gamma, xx_dense)


# Agreement the library's amplitude must reach with a closed-form oracle.
ORACLE_AMP_TOL = 1e-12


def _report(num, detail):
    print(f"criterion {num:2d}: PASS — {detail}")


def test_criterion_01_analytic_chain_pst():
    start = time.monotonic()
    worst_amp = 1.0
    for n in range(2, 65):
        spec = analytic_chain(n)
        cert = certify_pst(spec)
        assert cert.perfect, f"n={n}: {cert.reason}"
        assert abs(cert.t0 - math.pi) <= 1e-8, f"n={n}: t0={cert.t0}"
        assert cert.odd_integers == (0,) * (n - 1), f"n={n}: non-unit gaps"
        amp = abs(gamma(diagonalize(spec), 1, n, math.pi))
        assert amp >= 1.0 - 1e-8, f"n={n}: |gamma_N(pi)|={amp}"
        worst_amp = min(worst_amp, amp)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(1, f"n=2..64 perfect at t0=pi, worst |gamma_N(pi)| = {worst_amp:.12f}, "
               f"{elapsed:.2f}s")


def test_criterion_02_end_amplitude_law():
    worst = 0.0
    for n in (3, 8, 21):
        spec = analytic_chain(n)
        cert = certify_pst(spec)
        sd = diagonalize(spec)
        times = np.linspace(0.0, cert.t0, 1000)
        got = gamma(sd, 1, 1, times)
        law = np.cos(math.pi * times / (2.0 * cert.t0)) ** (n - 1)
        worst = max(worst, float(np.max(np.abs(got - law))))
    assert worst <= 1e-8
    _report(2, f"gamma_1 matches cos^(N-1)(pi t / 2 t0) to {worst:.2e} on 1000-point grids")


def test_criterion_03_iep_roundtrip():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_spec = 0.0
    worst_field = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 33))
        half = np.cumsum(rng.uniform(0.05, 1.0, n // 2)) + 0.02
        lam = (np.concatenate((-half[::-1], [0.0], half)) if n % 2
               else np.concatenate((-half[::-1], half)))
        spec = chain_from_spectrum(TargetSpectrum(tuple(lam), antisymmetric=True))
        achieved = diagonalize(spec).eigenvalues
        worst_spec = max(worst_spec, float(np.max(np.abs(achieved - lam))))
        worst_field = max(worst_field, float(np.max(np.abs(spec.field_array()))))
    elapsed = time.monotonic() - start
    assert worst_spec <= 1e-8
    assert worst_field <= 1e-9
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    _report(3, f"50 spectra reconstructed, spectrum error {worst_spec:.2e}, "
               f"field residue {worst_field:.2e}, {elapsed:.2f}s")


def test_criterion_04_newton_quadratic_convergence():
    target = target_spectrum(diagonalize(analytic_chain(8)).eigenvalues,
                             antisymmetric=True)
    result = newton_iep(coupling_family(8), target, np.ones(7), max_iter=8, tol=1e-10)
    assert result.converged
    assert result.iterations <= 8
    assert result.residuals[-1] <= 1e-10
    _report(4, f"residual {result.residuals[-1]:.2e} after {result.iterations} "
               f"iterations from the uniform start")


def test_criterion_05_optimality_saturation_and_margolus():
    for n in range(2, 65, 2):
        spec = analytic_chain(n)
        cert = certify_pst(spec)
        rep = optimality_report(spec, cert)
        assert abs(rep.j_half - n / 4.0) <= 1e-12 * (n / 4.0)
        assert abs(rep.j_half - rep.coupling_bound) <= 1e-12 * rep.coupling_bound
    # Margolus-Levitin: first orthogonalization time respects pi / (2 J_1)
    for n in range(2, 65):
        spec = analytic_chain(n)
        t_r = math.pi  # first zero of cos^(N-1)(t/2)
        assert abs(gamma(diagonalize(spec), 1, 1, t_r)) <= 1e-9
        assert t_r >= math.pi / (2.0 * spec.couplings[0]) - 1e-12
    for n in range(2, 17):
        spec = sequential_storage_chain(n)
        t_r = math.pi / n
        assert abs(gamma(diagonalize(spec), 1, 1, t_r)) <= 1e-9
        assert t_r >= math.pi / (2.0 * spec.couplings[0]) - 1e-12
    near, _ = near_uniform_chain(8, 0.5)
    sd = diagonalize(near)
    times = np.linspace(1e-4, certify_pst(near).t0, 50000)
    amps = np.abs(gamma(sd, 1, 1, times))
    hits = times[amps < 1e-3]
    if hits.size:
        assert hits[0] >= math.pi / (2.0 * near.couplings[0]) - 1e-3
    _report(5, "J_{N/2} = N/4 saturates the even-N bound (1e-12); "
               "t_r >= pi/(2 J_1) on all designed chains")


def test_criterion_06_free_fermion_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    worst = 0.0
    cases = 0
    while cases < 100:
        n = int(rng.integers(2, 9))
        spec = chain(rng.uniform(0.3, 1.5, n - 1), rng.uniform(-1.0, 1.0, n))
        k = int(rng.integers(1, n + 1))
        raw = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        state = slater_state([row / np.linalg.norm(row) for row in raw])
        if state.is_zero:
            continue
        t = float(rng.uniform(0.0, 10.0))
        lhs = slater_to_dense(evolve_slater(spec, state, t))
        rhs = expm_evolve(xx_dense(spec.couplings, spec.fields), slater_to_dense(state), t)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        cases += 1
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    _report(6, f"100 random Slater states, worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_07_initialization_free_transfer():
    spec = analytic_chain(6)
    rng = np.random.default_rng(103)
    worst = 1.0
    for pattern in range(16):
        bits = [(pattern >> i) & 1 for i in range(4)]
        for _ in range(10):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z /= np.linalg.norm(z)
            rep = initfree_transfer(spec, z[0], z[1], bits)
            worst = min(worst, rep.fidelity)
    assert worst >= 1.0 - 1e-8
    _report(7, f"16 junk strings x 10 inputs on n=6, min fidelity {worst:.12f}")


def test_criterion_08_sequential_storage():
    worst_zero = 0.0
    worst_weight = 0.0
    for n in range(2, 17):
        spec = sequential_storage_chain(n)
        sd = diagonalize(spec)
        t_r = math.pi / n
        zeros = np.abs(gamma(sd, 1, 1, t_r * np.arange(1, n)))
        worst_zero = max(worst_zero, float(np.max(zeros)))
        weights = sd.eigenvectors[0, :] ** 2
        worst_weight = max(worst_weight, float(np.max(np.abs(weights - 1.0 / n))))
    assert worst_zero <= 1e-9
    assert worst_weight <= 1e-9
    # GHZ generation on n=3 against the dense joint-state simulation
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    spec = sequential_storage_chain(3)
    rep = sequential_storage_sim(spec, [plus] * 3, "same")
    step = scipy.linalg.expm(-1j * math.pi / 3 * xx_dense(spec.couplings, spec.fields))
    ref = storage_dense(step, [plus] * 3, [0, 1, 2])
    deviation = float(np.max(np.abs(rep.output_state - ref["output_state"])))
    assert deviation <= ORACLE_AMP_TOL
    assert rep.cz_pairs == ref["cz_pairs"] == ((0, 1), (0, 2), (1, 2))
    assert rep.fidelity_vs_prediction >= 1.0 - 1e-8
    for q in (1, 2, 3):
        rho = reduced_density_matrix(rep.output_state, [q], 3)
        assert entanglement_entropy_bits(rho) >= 1.0 - 1e-6
    _report(8, f"n=2..16 revival zeros {worst_zero:.2e}, weight spread "
               f"{worst_weight:.2e}; n=3 GHZ within {deviation:.1e} of the dense "
               "joint-state oracle (expm and qubit SWAPs)")


def test_criterion_09_transverse_ising_transfer():
    worst = 1.0
    for two_n in (2, 4, 6, 8):
        res = ising_from_pst(analytic_chain(two_n))
        worst = min(worst, res.transfer_fidelity)
    assert worst >= 1.0 - 1e-8
    _report(9, f"mode transfer verified for 2N = 2,4,6,8; min fidelity {worst:.12f}")


def test_criterion_10_dephasing_closed_form():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        spec = random_pst_chain(rng, n)
        p = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 1.0)) * certify_pst(spec).t0
        rep = dephasing_avg_fidelity(spec, p, t)
        worst = max(worst, abs(rep.avg_fidelity - _kraus_oracle(spec, p, t)))
        assert rep.lower_bound - 1e-12 <= rep.avg_fidelity <= rep.upper_bound + 1e-12
    assert worst <= 1e-10
    exact_third = dephasing_avg_fidelity(analytic_chain(5), 1.0, 1.0)
    assert exact_third.avg_fidelity == 1.0 / 3.0
    _report(10, f"closed form vs Kraus oracle worst {worst:.2e}; p=1 gives exactly 1/3")


def test_criterion_11_bath_limits():
    spec = analytic_chain(4)
    t0 = certify_pst(spec).t0
    times = np.linspace(0.0, 2.0 * t0, 2001)
    free = bath_transfer_amplitude(BathSpec(chain=spec, coupling=0.0), times)
    assert np.max(np.abs(free.gamma_exact - free.gamma_bare)) < 1e-12
    strong = bath_transfer_amplitude(BathSpec(chain=spec, coupling=50.0), times)
    assert strong.max_strong_deviation <= 0.02
    errs = []
    for g in (0.02, 0.01, 0.005):
        rep = bath_transfer_amplitude(BathSpec(chain=spec, coupling=g),
                                      np.asarray([t0]))
        errs.append(abs(rep.gamma_exact[0] - rep.gamma_bare[0]))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5
    _report(11, f"G=0 exact; strong-coupling deviation {strong.max_strong_deviation:.4f}"
                f" <= 0.02; weak-coupling error ratios {errs[0]/errs[1]:.2f}, "
                f"{errs[1]/errs[2]:.2f} (quadratic)")


def test_criterion_12_networks():
    from oracles import expm_evolve

    for d in range(1, 7):
        net = hypercube(d)
        op = network_operator(net)
        e = np.zeros(1 << d, dtype=complex)
        e[0] = 1.0
        out = expm_evolve(op, e, math.pi)
        assert abs(out[-1]) >= 1.0 - 1e-8, f"d={d}"
    a, b = analytic_chain(3), analytic_chain(4)
    lam_a = diagonalize(a).eigenvalues
    lam_b = diagonalize(b).eigenvalues
    got = np.sort(np.linalg.eigvalsh(network_operator(product_network(a, b))))
    expected = np.sort((lam_a[:, None] + lam_b[None, :]).ravel())
    assert np.max(np.abs(got - expected)) <= 1e-10
    for m in (2, 3, 5):
        rep = star_network(analytic_chain(3), m)
        assert rep.w_state_fidelity >= 1.0 - 1e-8, f"M={m}"
    rep = theta_entangler(analytic_chain(5), math.pi / 8.0)
    assert abs(abs(rep.amplitude_first) - 1.0 / math.sqrt(2.0)) <= 1e-8
    assert abs(abs(rep.amplitude_last) - 1.0 / math.sqrt(2.0)) <= 1e-8
    _report(12, "hypercubes d<=6, product-lattice additivity 1e-10, "
                "star W states M=2,3,5, theta=pi/8 splitter all verified")


def test_criterion_13_gadgets():
    # amplifier: wall dynamics equals the dense model and reaches the target
    worst = amplifier_dense_check(analytic_chain(8), 1,
                                  np.linspace(0.0, math.pi, 7))
    assert worst <= 1e-9
    res = amplifier_sim(analytic_chain(8), 1, np.asarray([math.pi]))
    assert res.target_probability[0] >= 1.0 - 1e-8
    # figure-scale data at N=100 with peaks at odd multiples of t0
    n = 100
    k = np.arange(1.0, n)
    couplings = np.sqrt(k * (n - k))
    t0 = math.pi / 2.0
    probe = amplifier_sim(couplings, 1, np.asarray([t0, 2 * t0, 3 * t0, 4 * t0]))
    assert probe.target_probability[0] >= 1.0 - 1e-8
    assert probe.target_probability[2] >= 1.0 - 1e-8
    assert abs(probe.wall_amplitudes[1, 1]) ** 2 >= 1.0 - 1e-8
    assert abs(probe.wall_amplitudes[3, 1]) ** 2 >= 1.0 - 1e-8
    # clock computer vs direct gate composition
    rng = np.random.default_rng(105)
    worst_clock = 1.0
    for _ in range(50):
        n_clock = int(rng.integers(2, 7))
        d = int(rng.integers(2, 5))
        gates = []
        for _ in range(n_clock - 1):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(z)
            gates.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj())
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        res = clock_computer(ClockProgram(chain=analytic_chain(n_clock),
                                          gates=tuple(gates)), psi)
        target = psi
        for g in gates:
            target = g @ target
        worst_clock = min(worst_clock, abs(np.vdot(target, res.output)) ** 2)
    assert worst_clock >= 1.0 - 1e-8
    _report(13, f"amplifier N=8 dense check {worst:.2e}; N=100 peaks at odd "
                f"multiples of t0; 50 clock programs min fidelity {worst_clock:.10f}")


def test_criterion_14a_negative_control_certification():
    for n in range(4, 11):
        cert = certify_pst(uniform_chain(n))
        assert cert.verdict == "imperfect", f"n={n} certified {cert.verdict}"
    _report(14, "(a) uniform chains n=4..10 certify imperfect")


def _fidelity_upper_bound(sd, n, times):
    """Rigorous upper bound on max |gamma_N(t)|^2 over [times[0], times[-1]],
    from samples on a grid that holds both ends.

    f(t) = |gamma_N(t)|^2 with gamma_N = sum_k w_k exp(-i lambda_k t) and
    sum_k |w_k| <= 1 (Cauchy-Schwarz on two rows of the orthogonal
    eigenvector matrix), so |gamma| <= 1, |gamma'| <= rho, |gamma''| <= rho^2
    with rho = max |lambda_k|, and |f''| = |2 Re(gamma'' conj(gamma))
    + 2 |gamma'|^2| <= 4 rho^2. An interior maximum has f' = 0 and lies
    within h/2 of a sample, which therefore reads at most
    (4 rho^2 / 2) (h/2)^2 = rho^2 h^2 / 2 below it; a maximum at an end is a
    sample. The last term covers the rounding of the sampled amplitudes,
    which agree with the closed form to ORACLE_AMP_TOL on the uniform chains.
    """
    h = float(np.max(np.diff(times)))
    rho = float(np.max(np.abs(sd.eigenvalues)))
    sampled = float(np.max(np.abs(gamma(sd, 1, n, times)) ** 2))
    return sampled + rho ** 2 * h ** 2 / 2.0 + 2.0 * ORACLE_AMP_TOL


def test_criterion_14b_negative_control_fidelity_bound():
    """No uniform chain with n = 4..10 reaches perfect arrival at any time in
    t in [0, 100]: a rigorous upper bound on max |gamma_N(t)|^2 over the whole
    window stays below (1 - ARRIVAL_TOL)^2, the threshold under which
    ``certify_pst`` rejects an arrival.

    No fixed fidelity margin can be promised. The dynamics is quasi-periodic
    with incommensurate frequencies, and uniform paths with N + 1 = p, 2p or
    2^k have pretty good state transfer (Godsil, Kirkland, Severini, Smith,
    PRL 109, 050502, 2012): the supremum of the fidelity is 1, so any margin
    fails on a long enough window. Within [0, 100] the n = 4 and n = 5 chains
    already reach 0.99991 and 0.99970 near t ~ 47-54; the report line keeps
    these on record.

    The library's amplitude is checked against the closed form of the uniform
    path, so a program fault cannot pass as near-recurrence physics, and the
    same bound must report arrival on chains that do have perfect transfer,
    so the assertion can fail.
    """
    times = np.linspace(0.0, 100.0, 100_001)
    threshold = (1.0 - ARRIVAL_TOL) ** 2
    bounds = {}
    for n in range(4, 11):
        sd = diagonalize(uniform_chain(n))
        err = float(np.max(np.abs(gamma(sd, 1, n, times)
                                  - uniform_path_gamma(n, 1, n, times))))
        assert err <= ORACLE_AMP_TOL, f"n={n}: gamma differs from the closed form by {err:.2e}"
        bounds[n] = _fidelity_upper_bound(sd, n, times)

    controls = [("uniform", uniform_chain(2)), ("uniform", uniform_chain(3))]
    controls += [("analytic", analytic_chain(n)) for n in range(4, 11)]
    for kind, spec in controls:
        bound = _fidelity_upper_bound(diagonalize(spec), spec.n, times)
        assert bound >= threshold, (
            f"positive control {kind} n={spec.n}: bound {bound:.10f} misses arrival")

    arrived = {n: b for n, b in bounds.items() if b >= threshold}
    assert not arrived, (
        "upper bound on max |gamma_N|^2 over t in [0, 100] reaches perfect arrival "
        f"(threshold {threshold:.10f}): "
        + ", ".join(f"n={n}: {b:.10f}" for n, b in arrived.items()))
    _report(14, "(b) uniform chains n=4..10 never reach perfect arrival over t in "
                "[0, 100]; max |gamma_N|^2 <= "
                + ", ".join(f"{b:.7f} (n={n}, deficit {1.0 - b:.1e})"
                            for n, b in bounds.items())
                + "; the bound reports arrival on uniform n=2, 3 and analytic n=4..10")
