import math
import pickle
import re
import tracemalloc
from copy import deepcopy
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pstchain import (BathSpec, ClockProgram, QuadraticFermionHamiltonian, amplifier_sim,
                      amplitude_profile, analytic_chain, basis_slater, bath_transfer_amplitude, certify_pst, chain,
                      chain_from_spectrum, clock_computer,
                      dephasing_avg_fidelity, diagonalize, end_weights,
                      entanglement_distribution_sim, entanglement_generation, evolve_slater,
                      gamma, hypercube, initfree_transfer, ising_from_pst, near_uniform_chain,
                      optimality_report, product_network, propagate, rate_condition,
                      require_perfect,
                      rescale, revival_rate_report, sequential_storage_chain,
                      sequential_storage_sim, star_network, theta_entangler, timing_window,
                      target_spectrum, two_boson_transfer, uniform_chain, w_phase_rotation,
                      write_chain)
from pstchain import certify, spectral
from pstchain.certify import _gap_fractions, _gap_multipliers
from pstchain.chain import chain_to_dict
from pstchain.spectral import DegenerateSpectrumError, end_products, pair_weights

from oracles import (certify_by_eigenvectors, phase_sum_direct, random_pst_chain,
                     timing_window_bisection)


def test_analytic_chain_certifies_with_unit_gaps():
    cert = certify_pst(analytic_chain(5))
    assert cert.perfect
    assert cert.t0 == pytest.approx(math.pi, abs=1e-10)
    assert cert.odd_integers == (0, 0, 0, 0)
    assert cert.worst_gap_residual < 1e-12
    assert abs(cert.arrival_phase) == pytest.approx(1.0)
    assert cert.revival_magnitude >= 1.0 - 1e-10


def test_certificate_is_propagation_sound():
    for n in (2, 6, 13):
        spec = analytic_chain(n)
        cert = certify_pst(spec)
        sd = diagonalize(spec)
        assert abs(gamma(sd, 1, n, cert.t0)) >= 1.0 - 1e-8
        assert abs(gamma(sd, 1, 1, 2.0 * cert.t0)) >= 1.0 - 1e-8


def test_uniform_three_sites_is_perfect():
    cert = certify_pst(uniform_chain(3))
    assert cert.perfect
    assert cert.t0 == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-12)
    assert cert.odd_integers == (0, 0)


def test_uniform_three_t0_is_minimal_by_scan():
    spec = uniform_chain(3)
    sd = diagonalize(spec)
    times = np.arange(1e-3, 3.0, 1e-3)
    amps = np.abs(gamma(sd, 1, 3, times))
    first = times[np.nonzero(amps >= 1.0 - 1e-6)[0][0]]
    assert first == pytest.approx(math.pi / math.sqrt(2.0), abs=2e-3)


def test_uniform_chains_are_imperfect():
    for n in range(4, 9):
        cert = certify_pst(uniform_chain(n))
        assert cert.verdict == "imperfect"


def test_storage_chain_fails_mirror_precondition():
    cert = certify_pst(sequential_storage_chain(4))
    assert cert.verdict == "imperfect"
    assert "mirror" in cert.reason


def test_zero_coupling_is_rejected():
    cert = certify_pst(chain([1.0, 0.0, 0.0, 1.0]))
    assert cert.verdict == "imperfect"
    assert "zero coupling" in cert.reason


def test_negative_coupling_is_rejected():
    cert = certify_pst(chain([-0.5]))
    assert cert.verdict == "imperfect"
    assert "positive-J" in cert.reason


def test_wilkinson_chain_is_degenerate():
    n = 21
    fields = [abs(k - (n + 1) / 2.0) for k in range(1, n + 1)]
    cert = certify_pst(chain([1.0] * (n - 1), fields))
    assert cert.verdict == "degenerate-spectrum"


def test_even_multiplier_detected():
    # gaps 1 and 2: commensurate but not odd multiples
    from pstchain import chain_from_spectrum, target_spectrum

    spec = chain_from_spectrum(target_spectrum([0.0, 1.0, 3.0], antisymmetric=False))
    cert = certify_pst(spec)
    assert cert.verdict == "imperfect"
    assert "even gap multiplier" in cert.reason
    # a mirror-symmetric chain with gaps (2, 1, 2) fails the same way
    spec = chain_from_spectrum(target_spectrum([-2.5, -0.5, 0.5, 2.5]))
    assert certify_pst(spec).verdict == "imperfect"


def test_mixed_odd_multipliers_certify():
    from pstchain import chain_from_spectrum, target_spectrum

    spec = chain_from_spectrum(target_spectrum([-2.0, 1.0, 2.0], antisymmetric=False))
    cert = certify_pst(spec)
    assert cert.perfect
    assert cert.t0 == pytest.approx(math.pi, abs=1e-9)
    assert cert.odd_integers == (1, 0)  # gaps 3 and 1 at unit pi/t0


# --- end weights ---------------------------------------------------------

def test_end_weights_two_levels():
    assert np.allclose(end_weights([-0.5, 0.5]), [0.5, 0.5])


@pytest.mark.parametrize("x", [-3.0, 0.0, 2.5])
def test_end_weights_of_one_level_is_one(x):
    assert end_weights([x]).tolist() == [1.0]


def test_end_weights_analytic_four_matches_eigenvectors():
    w = end_weights([-1.5, -0.5, 0.5, 1.5])
    assert np.allclose(w, [1.0 / 8, 3.0 / 8, 3.0 / 8, 1.0 / 8], atol=1e-14)
    sd = diagonalize(analytic_chain(4))
    assert np.allclose(w, sd.eigenvectors[0, :] ** 2, atol=1e-12)


def test_end_weights_evenly_spaced_three():
    # the mirror-symmetric branch gives binomial weights, not the equal
    # weights of the (non-symmetric) storage chain with the same spectrum
    assert np.allclose(end_weights([-2.0, 0.0, 2.0]), [0.25, 0.5, 0.25])


def test_end_weights_rejects_degenerate():
    with pytest.raises(DegenerateSpectrumError):
        end_weights([0.0, 0.0, 1.0])


def test_end_weights_match_designed_chains():
    for n in (2, 5, 16, 33, 64):
        spec = analytic_chain(n)
        sd = diagonalize(spec)
        w = end_weights(sd.eigenvalues)
        assert np.max(np.abs(w - sd.eigenvectors[0, :] ** 2)) < 1e-9


# --- rate condition ------------------------------------------------------

def test_rate_condition_m1_is_trivially_equal():
    cert = certify_pst(analytic_chain(4))
    report = rate_condition(cert, 1)
    assert report.equal
    assert report.achievable_rate == pytest.approx(1.0 / (2.0 * cert.t0))


def test_rate_condition_analytic_three_m3_fails():
    cert = certify_pst(analytic_chain(3))
    report = rate_condition(cert, 3)
    assert not report.equal
    assert report.achievable_rate is None
    assert report.max_gamma_at_submultiples > 1e-3


@pytest.mark.parametrize("m", [2, 3, 4, 6, 11])
def test_revival_rate_report_checks_every_submultiple(m):
    """The cross-check is the largest |gamma_1| over all M - 1 sub-multiples
    2 t0 k / M, each summed here at its own scalar time."""
    rng = np.random.default_rng(m)
    lam = np.sort(rng.choice(40, size=9, replace=False)) - 20.0
    w = rng.uniform(0.0, 1.0, 9)
    w /= w.sum()
    report = revival_rate_report(lam, w, math.pi, m)
    want = max(abs(np.exp(-2j * math.pi * k / m * lam) @ w) for k in range(1, m))
    assert abs(report.max_gamma_at_submultiples - want) < 1e-12


def test_rate_condition_requires_perfect():
    cert = certify_pst(uniform_chain(4))
    with pytest.raises(ValueError):
        rate_condition(cert, 2)


def test_storage_chain_revival_rate():
    spec = sequential_storage_chain(4)
    sd = diagonalize(spec)
    weights = np.abs(sd.eigenvectors[0, :]) ** 2
    report = revival_rate_report(sd.eigenvalues, weights, math.pi / 2.0, 4)
    assert report.equal
    assert np.allclose(report.residue_sums, 0.25, atol=1e-9)
    assert report.achievable_rate == pytest.approx(4.0 / math.pi)
    assert report.max_gamma_at_submultiples < 1e-9


# --- optimality ----------------------------------------------------------

def test_optimality_analytic_four_saturates_bound():
    spec = analytic_chain(4)
    cert = certify_pst(spec)
    report = optimality_report(spec, cert)
    assert report.j_max == pytest.approx(1.0)
    assert report.coupling_bound == pytest.approx(1.0, abs=1e-12)
    assert report.bound_saturated


def test_optimality_margolus_analytic_three():
    spec = analytic_chain(3)
    report = optimality_report(spec, certify_pst(spec))
    assert report.margolus_bound == pytest.approx(math.pi / math.sqrt(2.0))
    assert report.timing_sensitivity == pytest.approx(0.5)


def test_optimality_two_level():
    spec = chain([0.5])
    cert = certify_pst(spec)
    report = optimality_report(spec, cert)
    assert report.j_max == 0.5
    assert cert.t0 == pytest.approx(math.pi)


def test_coupling_bound_theorem_holds_for_even_designs():
    rng = np.random.default_rng(11)
    from pstchain import chain_from_spectrum, target_spectrum

    for n in (4, 8, 16):
        spec = analytic_chain(n)
        cert = certify_pst(spec)
        rep = optimality_report(spec, cert)
        assert rep.j_half >= rep.coupling_bound - 1e-9
    for _ in range(5):
        n = 6
        half = np.sort(rng.uniform(0.3, 4.0, n // 2))
        half = half + 0.5 * np.arange(n // 2)  # enforce clear gaps
        lam = np.concatenate((-half[::-1], half))
        spec = chain_from_spectrum(target_spectrum(lam))
        cert = certify_pst(spec)
        if cert.perfect:  # random spectra are generically imperfect
            rep = optimality_report(spec, cert)
            assert rep.j_half >= rep.coupling_bound - 1e-9


def test_optimality_report_refuses_the_certificate_of_another_chain():
    cert = certify_pst(rescale(analytic_chain(10), 0.5))
    with pytest.raises(ValueError, match="another chain"):
        optimality_report(analytic_chain(8), cert)


# --- timing window -------------------------------------------------------

def test_timing_window_shrinks_with_epsilon():
    spec = analytic_chain(4)
    cert = certify_pst(spec)
    w_small = timing_window(spec, cert, 1e-6)
    w_large = timing_window(spec, cert, 0.05)
    assert 0.0 < w_small < w_large


def test_timing_window_two_level_closed_form():
    spec = chain([0.5])
    cert = certify_pst(spec)
    # |gamma_2|^2 = sin^2(t/2) >= 1/2 over a window of exactly pi
    assert timing_window(spec, cert, 0.5) == pytest.approx(math.pi, abs=1e-6)


def test_timing_window_analytic_beats_near_uniform():
    n = 31
    spec_a = analytic_chain(n)
    near, _ = near_uniform_chain(n, 0.5)
    cert_n = certify_pst(near)
    near_scaled = rescale(near, cert_n.t0 / math.pi)
    cert_ns = certify_pst(near_scaled)
    assert cert_ns.perfect
    w_analytic = timing_window(spec_a, certify_pst(spec_a), 0.05)
    w_near = timing_window(near_scaled, cert_ns, 0.05)
    assert w_analytic > w_near


def test_timing_window_epsilon_validation():
    spec = analytic_chain(3)
    cert = certify_pst(spec)
    with pytest.raises(ValueError):
        timing_window(spec, cert, 0.0)
    with pytest.raises(ValueError):
        timing_window(spec, cert, 1.0)


def _window_chain(kind, n, seed):
    """A perfect chain of about ``n`` sites: analytic, odd-gap from the
    inverse eigenvalue problem, or near-uniform rescaled to t0 = pi."""
    if kind == "analytic":
        return analytic_chain(n)
    if kind == "odd-gap":
        return random_pst_chain(np.random.default_rng(seed), n)
    near, _ = near_uniform_chain(n, 0.5)
    return rescale(near, certify_pst(near).t0 / math.pi)


_EPS = np.finfo(float).eps


def _window_tolerance(cert, epsilon):
    """How far two windows computed from differently rounded heights may lie
    apart, relative to the window. Near its edge the height falls at
    2 epsilon / delta (the peak is quadratic), so a height error h moves the
    crossing by h / (2 epsilon) of the window. Rounding moves a height near
    1 by a few eps, and the phase lambda_k t of each term by
    eps |lambda_k t|; at the edge the phases have spread by about
    sqrt(epsilon), so that moves the height by about eps max|lambda| t0
    sqrt(epsilon)."""
    phase = float(np.max(np.abs(cert.eigenvalues))) * cert.t0
    return 1e-12 + 8.0 * _EPS / epsilon * (1.0 + math.sqrt(epsilon) * phase)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["analytic", "odd-gap", "near-uniform"]), st.integers(2, 160),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-6, 1e-3, 0.05, 0.5]))
def test_timing_window_matches_the_bisection_oracle(kind, n, seed, epsilon):
    """The chunked scan and the secant find the oracle's window, to the
    rounding of the heights that decide either (see _window_tolerance)."""
    spec = _window_chain(kind, n, seed)
    cert = certify_pst(spec)
    want = timing_window_bisection(cert, epsilon)
    got = timing_window(spec, cert, epsilon)
    assert abs(got - want) <= _window_tolerance(cert, epsilon) * want


@pytest.mark.parametrize("kind, n", [("analytic", 2000), ("odd-gap", 1000), ("near-uniform", 200)])
def test_timing_window_matches_the_bisection_oracle_at_scale(kind, n):
    spec = _window_chain(kind, n, 26)
    cert = certify_pst(spec)
    for epsilon in (1e-6, 1e-3, 0.05):
        want = timing_window_bisection(cert, epsilon)
        got = timing_window(spec, cert, epsilon)
        assert abs(got - want) <= _window_tolerance(cert, epsilon) * want


@pytest.mark.parametrize("spec", [analytic_chain(2), analytic_chain(5), analytic_chain(8),
                                  random_pst_chain(np.random.default_rng(3), 6)],
                         ids=["analytic-2", "analytic-5", "analytic-8", "odd-gap-6"])
@pytest.mark.parametrize("epsilon", [1e-6, 1e-3, 0.05, 0.5])
def test_timing_window_is_the_exact_crossing(spec, epsilon):
    """Against the crossing of the certificate's own doubles found in 40-digit
    arithmetic, the window is off by at most the 4 eps / epsilon that the
    rounding of a height near 1 allows."""
    mpmath = pytest.importorskip("mpmath")
    cert = certify_pst(spec)
    got = timing_window(spec, cert, epsilon)
    with mpmath.workdps(40):
        lam = [mpmath.mpf(float(x)) for x in cert.eigenvalues]
        w = [mpmath.mpf(float(x)) for x in cert.end_products]
        t0, level = mpmath.mpf(cert.t0), 1 - mpmath.mpf(epsilon)

        def excess(delta):
            return min(abs(mpmath.fsum(wk * mpmath.expj(-lk * t) for wk, lk in zip(w, lam))) ** 2
                       for t in (t0 - delta, t0 + delta)) - level

        half = mpmath.findroot(excess, (mpmath.mpf(0.49 * got), mpmath.mpf(0.51 * got)),
                               solver="anderson")
        exact = float(2 * half)
    assert abs(got - exact) <= (1e-13 + 4.0 * _EPS / epsilon) * exact


@pytest.mark.parametrize("epsilon", [1e-6, 1e-3, 0.05, 0.5])
def test_transfer_holds_inside_the_timing_window(epsilon):
    for spec in (analytic_chain(7), analytic_chain(300), _window_chain("odd-gap", 40, 1),
                 _window_chain("near-uniform", 30, 0)):
        cert = certify_pst(spec)
        w = timing_window(spec, cert, epsilon)
        times = cert.t0 + 0.5 * w * (1.0 - 1e-6) * np.linspace(-1.0, 1.0, 201)
        heights = np.abs(phase_sum_direct(cert.eigenvalues, cert.end_products, times)) ** 2
        assert heights.min() >= 1.0 - epsilon


def test_timing_window_of_two_thousand_sites_takes_few_height_evaluations(monkeypatch):
    """At epsilon = 1e-3 the crossing lies a few grid steps out: a few scan
    calls and a secant of under ten offsets, against the 66 evaluations of
    a bisection."""
    calls = []
    heights = certify._window_heights

    def counted(lam, sides, deltas):
        calls.append(len(deltas))
        return heights(lam, sides, deltas)

    spec = analytic_chain(2000)
    cert = certify_pst(spec)
    monkeypatch.setattr(certify, "_window_heights", counted)
    w = timing_window(spec, cert, 1e-3)
    assert 0 < len(calls) <= 25
    assert abs(w - timing_window_bisection(cert, 1e-3)) <= 1e-11 * w


# --- one eigensolve per certified chain ---------------------------------------

class _Solves(list):
    """Sizes of the matrices passed to a solver, with their off-diagonals in
    ``offdiagonals``."""

    def __init__(self):
        super().__init__()
        self.offdiagonals = []


def _counted_solver(monkeypatch, module, name):
    """Sizes and off-diagonals of the matrices passed to ``module.<name>``."""
    solves = _Solves()
    true_solver = getattr(module, name)

    def counted(diag, off, *args, **kwargs):
        solves.append(len(diag))
        solves.offdiagonals.append(np.array(off))
        return true_solver(diag, off, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return solves


@pytest.fixture
def tridiagonal_solves(monkeypatch):
    """Sizes of the matrices passed to the tridiagonal eigenvector solver,
    LAPACK ``stevd``."""
    return _counted_solver(monkeypatch, spectral, "_eigenvector_solve")


@pytest.fixture
def eigenvalue_solves(monkeypatch):
    """Sizes of the matrices passed to the eigenvalue-only tridiagonal solver,
    LAPACK ``sterf``."""
    return _counted_solver(monkeypatch, spectral, "_eigenvalue_solve")


@pytest.fixture
def design_passes(monkeypatch):
    """Sizes and off-diagonals of the matrices passed to the pass that refines
    and checks a design spectrum in place of ``sterf``."""
    return _counted_solver(monkeypatch, spectral, "_design_pass")


@pytest.fixture
def lapack_solves(monkeypatch):
    """Sizes and off-diagonals of the matrices passed to LAPACK ``stevd`` and
    ``sterf`` in the module the library loads them from."""
    return (_counted_solver(monkeypatch, spectral._lapack(), "dstevd"),
            _counted_solver(monkeypatch, spectral._lapack(), "dsterf"))


def _nudged(spec):
    """The chain with its second coupling moved up by one unit in the last place:
    mirror symmetric to within any tolerance, but not exactly."""
    j = list(spec.couplings)
    j[1] = float(np.nextafter(j[1], np.inf))
    return chain(j, spec.fields)


def test_exactly_mirror_chain_reaches_the_solvers_folded(lapack_solves):
    """diagonalize solves the eigenvalues at once and the eigenvectors on
    their first read; a decomposition whose eigenvectors are not read solves
    the eigenvalues alone. The chain carries a field, so it has no chiral
    block, and both solvers get the whole operator with the chain's own
    couplings, none of them zero."""
    n = 130
    spec = chain(analytic_chain(n).couplings, [0.5] * n)
    diagonalize(replace(spec)).eigenvectors
    diagonalize(replace(spec)).eigenvalues
    vector_solves, value_solves = lapack_solves
    assert (vector_solves, value_solves) == ([n], [n, n])
    for off in vector_solves.offdiagonals + value_solves.offdiagonals:
        assert np.array_equal(off, spec.coupling_array()) and off.min() > 0.0


def test_even_zero_field_mirror_chain_reaches_sterf_as_one_block(lapack_solves, design_passes):
    """The chiral block: sterf solves the symmetric mirror block alone, n/2
    rows coupled by the chain's own couplings, while stevd gets the whole
    operator. A zero-field mirror chain of odd length reaches sterf whole.
    The chains are copies, which carry no design spectrum; the designed
    chains reach the design pass in place of sterf, with the same matrices."""
    n = 258
    diagonalize(replace(analytic_chain(n))).eigenvectors
    diagonalize(replace(analytic_chain(n))).eigenvalues
    vector_solves, value_solves = lapack_solves
    assert (vector_solves, value_solves) == ([n], [n // 2, n // 2])
    assert np.array_equal(vector_solves.offdiagonals[0], analytic_chain(n).coupling_array())
    for off in value_solves.offdiagonals:
        assert np.array_equal(off, analytic_chain(n).coupling_array()[:n // 2 - 1])
    diagonalize(replace(analytic_chain(n + 1))).eigenvalues
    assert value_solves[2:] == [n + 1]
    assert np.array_equal(value_solves.offdiagonals[2], analytic_chain(n + 1).coupling_array())
    diagonalize(analytic_chain(n)).eigenvalues
    diagonalize(analytic_chain(n + 1)).eigenvalues
    assert (value_solves[3:], design_passes) == ([], [n // 2, n + 1])
    block_off, whole_off = design_passes.offdiagonals
    assert np.array_equal(block_off, analytic_chain(n).coupling_array()[:n // 2 - 1])
    assert np.array_equal(whole_off, analytic_chain(n + 1).coupling_array())


def test_chiral_chain_refines_its_block(monkeypatch, design_passes):
    """The Newton step of an even zero-field mirror chain runs on the chiral
    block it solved, 1000 rows of the 2000-site analytic chain: the step of
    the design pass on the designed chain, and sturm_newton's on a copy,
    which carries no design spectrum."""
    steps = _counted_solver(monkeypatch, spectral, "sturm_newton")
    spec = analytic_chain(2000)
    assert certify_pst(spec).perfect
    assert certify_pst(replace(spec)).perfect
    assert (design_passes, steps) == ([1000], [1000])
    for off in design_passes.offdiagonals + steps.offdiagonals:
        assert np.array_equal(off, spec.coupling_array()[:999])


@pytest.mark.parametrize("spec", [sequential_storage_chain(130), _nudged(analytic_chain(130))],
                         ids=["storage", "nudged-analytic"])
def test_other_chains_reach_the_solvers_unfolded(lapack_solves, spec):
    # a chain is solved once per object, so each call gets its own equal chain
    diagonalize(replace(spec)).eigenvectors
    diagonalize(replace(spec)).eigenvalues
    vector_solves, value_solves = lapack_solves
    assert (vector_solves, value_solves) == ([spec.n], [spec.n, spec.n])
    for off in vector_solves.offdiagonals + value_solves.offdiagonals:
        assert np.array_equal(off, spec.coupling_array())


@pytest.fixture
def numpy_solves(monkeypatch):
    """The matrices passed to ``numpy.linalg.eigh`` and ``eigvalsh``."""
    solves = {"eigh": [], "eigvalsh": []}
    for name, matrices in solves.items():
        true_solver = getattr(np.linalg, name)

        def recorded(a, *args, _solver=true_solver, _matrices=matrices, **kwargs):
            _matrices.append(np.array(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return solves


@pytest.mark.parametrize("spec", [
    chain([], [0.7]), chain([0.5]), chain([0.5], [0.1, -0.2]), analytic_chain(3),
    analytic_chain(128), sequential_storage_chain(128),
], ids=["one-site", "two-site", "two-site-fields", "analytic-3", "analytic-128", "storage-128"])
def test_chains_of_every_size_reach_lapack_and_not_numpy(lapack_solves, numpy_solves, spec):
    """Every chain, of one site or many, reaches stevd whole and sterf as its
    chiral block if it has one and whole otherwise, with its own couplings; a
    one-row matrix, the one-site chain or the chiral block of a zero-field
    two-site chain, gets one zero coupling, the least the wrappers take.
    numpy.linalg's solvers are not called."""
    diagonalize(replace(spec)).eigenvectors
    diagonalize(replace(spec)).eigenvalues
    off = spec.coupling_array()
    block = spectral._chiral_block(spec.field_array(), off)
    rows = spec.n // 2 if block else spec.n
    vector_solves, value_solves = lapack_solves
    assert (vector_solves, value_solves) == ([spec.n], [rows, rows])
    assert vector_solves.offdiagonals[0].tolist() == (off.tolist() or [0.0])
    for solved in value_solves.offdiagonals:
        assert solved.tolist() == (off[:rows - 1].tolist() or [0.0])
    assert numpy_solves == {"eigh": [], "eigvalsh": []}


def _clock():
    gates = tuple(np.eye(2)[::-1] for _ in range(7))
    return clock_computer(ClockProgram(chain=analytic_chain(8), gates=gates),
                          np.array([1.0, 0.0]))


def _window():
    spec = analytic_chain(8)
    return timing_window(spec, certify_pst(spec), 1e-3)


@pytest.mark.parametrize("run, vector_solves", [
    (lambda: entanglement_generation(analytic_chain(8)), [8]),
    (lambda: initfree_transfer(analytic_chain(8), 0.6, 0.8, "101100"), [8]),
    (lambda: entanglement_distribution_sim(analytic_chain(8)), []),
    (_clock, [8]),
    (lambda: dephasing_avg_fidelity(analytic_chain(8), 0.1, np.linspace(0.0, math.pi, 5)),
     [8]),
    (_window, []),
    (lambda: product_network(analytic_chain(8), analytic_chain(8)), []),
    (lambda: certify_pst(chain_from_spectrum(target_spectrum(np.arange(8.0) - 3.5, True))),
     []),
    (lambda: near_uniform_chain(8, 0.5), []),
], ids=["entanglement_generation", "initfree_transfer", "entanglement_distribution_sim",
        "clock_computer", "dephasing_avg_fidelity", "certify_pst+timing_window",
        "product_network", "chain_from_spectrum+certify_pst", "near_uniform_chain"])
def test_certified_chain_is_diagonalized_once(tridiagonal_solves, eigenvalue_solves, run,
                                              vector_solves):
    """The chain is certified from one eigenvalue-only solve, of its 4-row
    chiral block; its eigenvectors are computed once, and only by the
    protocols that propagate states. A designed chain is certified on the
    solve of the design's residual check."""
    run()
    assert eigenvalue_solves == [4]
    assert tridiagonal_solves == vector_solves


# --- one decomposition per chain object ---------------------------------------

def test_a_chain_is_solved_once_per_object(eigenvalue_solves):
    spec = analytic_chain(8)
    assert diagonalize(spec) is diagonalize(spec)
    assert certify_pst(spec).spectrum is diagonalize(spec)
    assert eigenvalue_solves == [4]     # the chiral block


def test_the_decomposition_is_not_part_of_the_chain(eigenvalue_solves, tmp_path):
    """Equality, hashing, repr, chain files and pickles see the fields alone,
    and replace, copy and pickle make an equal chain that is not yet solved
    and carries no design spectrum."""
    solved, fresh = analytic_chain(8), analytic_chain(8)
    before = (repr(solved), hash(solved), chain_to_dict(solved))
    diagonalize(solved).eigenvectors
    assert solved == fresh and hash(solved) == hash(fresh)
    assert (repr(solved), hash(solved), chain_to_dict(solved)) == before
    write_chain(solved, tmp_path / "solved.json")
    write_chain(fresh, tmp_path / "fresh.json")
    assert (tmp_path / "solved.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
    assert pickle.dumps(solved) == pickle.dumps(fresh)
    for copy in (replace(solved), deepcopy(solved), pickle.loads(pickle.dumps(solved))):
        assert copy == solved and diagonalize(copy) is not diagonalize(solved)
        assert not hasattr(copy, "_design_spectrum")    # nor the design spectrum
    assert eigenvalue_solves == [4] * 4
    assert solved._design_spectrum.tolist() == [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5]


@pytest.fixture
def end_product_evaluations(monkeypatch):
    """Sizes of the spectra passed to ``spectral.end_products``."""
    sizes = []
    true_products = spectral.end_products

    def counted(couplings, eigenvalues):
        sizes.append(len(eigenvalues))
        return true_products(couplings, eigenvalues)

    monkeypatch.setattr(spectral, "end_products", counted)
    return sizes


@pytest.mark.parametrize("n", [8, 130])
def test_design_certify_simulate_solves_once(eigenvalue_solves, tridiagonal_solves,
                                             end_product_evaluations, n):
    """Certify, a gamma_N curve on diagonalize(spec) and the timing window
    share one eigenvalue solve and one evaluation of the end products, and
    solve no eigenvectors."""
    spec = analytic_chain(n)
    cert = certify_pst(spec)
    curve = gamma(diagonalize(spec), 1, n, np.linspace(0.0, 2.0 * cert.t0, 1001))
    timing_window(spec, cert, 1e-3)
    assert abs(curve[500]) >= 1.0 - 1e-9
    assert (eigenvalue_solves, tridiagonal_solves, end_product_evaluations) == ([n // 2], [], [n])


_CERTIFICATE_FIELDS = ("verdict", "reason", "t0", "odd_integers", "worst_gap_residual",
                       "arrival_amplitude", "arrival_phase", "revival_magnitude",
                       "eigenvalues", "end_products", "end_weights")


def _answers(spec, sd, times):
    """Every certificate field of ``spec`` and the amplitudes gamma_N and
    gamma_1 over ``times`` on its decomposition ``sd``, as bytes."""
    cert = certify_pst(spec)
    fields = [getattr(cert, name) for name in _CERTIFICATE_FIELDS]
    amps = [gamma(sd, 1, target, times) for target in (spec.n, 1)]
    return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in fields + amps]


order_cases = st.one_of(
    st.builds(analytic_chain, st.sampled_from([2, 3, 8, 64, 128, 130, 200])),
    st.builds(lambda seed, n: random_pst_chain(np.random.default_rng(seed), n),
              st.integers(0, 2 ** 32 - 1),
              st.integers(2, 24) | st.integers(129, 168)))


@settings(max_examples=40, deadline=None)
@given(order_cases)
def test_answers_do_not_depend_on_what_was_read_before(spec):
    """A certificate and the end amplitudes are the same bytes whether the
    chain's eigenvectors were read before certification, never read, or the
    chain is a fresh equal one."""
    times = np.linspace(0.0, 7.0, 51)
    read_first = replace(spec)
    sd = diagonalize(read_first)
    sd.eigenvectors
    want = _answers(read_first, sd, times)
    unread = replace(spec)
    assert _answers(unread, diagonalize(unread), times) == want
    fresh = replace(spec)
    assert _answers(fresh, diagonalize(fresh), times) == want


@pytest.fixture
def dense_solves(monkeypatch):
    """Sizes of the matrices passed to numpy's dense Hermitian eigensolvers."""
    sizes = []
    for name in ("eigh", "eigvalsh"):
        true_solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=true_solver, **kwargs):
            sizes.append(np.shape(a)[0])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return sizes


_TIMES = np.linspace(0.0, 2.0 * math.pi, 7)


@pytest.mark.parametrize("run, solves, eigenvalues", [
    (lambda: product_network(analytic_chain(8), analytic_chain(6)), [], [4, 3]),
    (lambda: hypercube(4), [], [1]),
    (lambda: star_network(analytic_chain(8), 3), [], [4]),
    (lambda: theta_entangler(analytic_chain(9), 0.3), [9], [9, 9]),
    (lambda: amplifier_sim(analytic_chain(8), 1, _TIMES), [8], [4]),
    (lambda: bath_transfer_amplitude(BathSpec(chain=analytic_chain(8), coupling=1.3),
                                     _TIMES), [], [4]),
    (lambda: two_boson_transfer(chain(analytic_chain(8).couplings, statistics="bosonic"),
                                (1, 2), (7, 8), math.pi), [8], [4]),
    (lambda: sequential_storage_sim(sequential_storage_chain(4), [np.array([0.6, 0.8j])] * 3,
                                    "reverse"), [4], [4]),
    (lambda: ising_from_pst(analytic_chain(6)), [6], [3]),
], ids=["product_network", "hypercube", "star_network", "theta_entangler",
        "amplifier_sim", "bath_transfer_amplitude", "two_boson_transfer",
        "sequential_storage_sim", "ising_from_pst"])
def test_structured_amplitudes_come_from_the_chain(dense_solves, tridiagonal_solves,
                                                   eigenvalue_solves, run, solves, eigenvalues):
    """Each construction reads its amplitude from the chain it is built of:
    one eigenvalue solve per distinct chain (of its chiral block, if it
    has one), at most one eigenvector solve,
    and no dense eigensolve. The amplitude at t0 comes from the certificate,
    and the end amplitudes of the bath from the chain's spectrum, with no
    eigenvectors. theta_entangler certifies its base chain and propagates the
    split one, two distinct chains. Sequential storage reads its k x k
    revival matrix from one gamma table of site 1 of its (not mirror
    symmetric) chain, which takes the eigenvectors, and the Ising fold
    propagates through the certified chain, not its pairing block matrix."""
    run()
    assert dense_solves == []
    assert tridiagonal_solves == solves
    assert eigenvalue_solves == eigenvalues


def test_require_perfect_returns_the_certificate_or_names_the_reason():
    cert = require_perfect(analytic_chain(5))
    assert cert.perfect and cert.t0 == pytest.approx(math.pi)
    reason = certify_pst(uniform_chain(5)).reason
    with pytest.raises(ValueError, match="does not transfer perfectly") as info:
        require_perfect(uniform_chain(5))
    assert str(info.value).endswith(reason)


# --- properties over random PST chains --------------------------------------

pst_chains = st.builds(lambda seed, n: random_pst_chain(np.random.default_rng(seed), n),
                       st.integers(0, 2 ** 32 - 1), st.integers(2, 24))


def _reversed(spec):
    return chain(spec.couplings[::-1], spec.fields[::-1])


def _detuned(spec, seed):
    """The chain with one coupling of its first half scaled by a random factor
    in [1.05, 1.5], which breaks its mirror symmetry."""
    rng = np.random.default_rng(seed)
    j = list(spec.couplings)
    j[int(rng.integers(len(j) // 2))] *= rng.uniform(1.05, 1.5)
    return chain(j, spec.fields)


@settings(max_examples=60, deadline=None)
@given(pst_chains, st.floats(0.05, 20.0))
def test_scaling_a_chain_by_kappa_divides_t0_by_kappa(spec, kappa):
    cert = certify_pst(spec)
    scaled = certify_pst(rescale(spec, kappa))
    assert cert.perfect and scaled.perfect
    assert scaled.t0 == pytest.approx(cert.t0 / kappa, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(pst_chains, st.integers(0, 2 ** 32 - 1))
def test_reversing_a_chain_leaves_verdict_and_t0_unchanged(spec, seed):
    cert, rev = certify_pst(spec), certify_pst(_reversed(spec))
    assert cert.perfect and rev.perfect
    assert rev.t0 == pytest.approx(cert.t0, rel=1e-9)
    if spec.n > 2:
        off = _detuned(spec, seed)
        cert, rev = certify_pst(off), certify_pst(_reversed(off))
        assert not cert.perfect
        assert (rev.verdict, rev.reason) == (cert.verdict, cert.reason)


# --- certification from the spectrum ------------------------------------------

def _mirrored(spec):
    """The chain made exactly mirror symmetric by averaging it with its reverse."""
    j, b = np.asarray(spec.couplings), np.asarray(spec.fields)
    return chain((j + j[::-1]) / 2.0, (b + b[::-1]) / 2.0)


def _mirror_detuned(spec, fraction, seed):
    """The chain with one coupling of its first half moved by ``fraction`` of
    the mirror tolerance of ``certify_pst``, so it still passes the mirror check."""
    rng = np.random.default_rng(seed)
    j = list(spec.couplings)
    scale = max(1.0, max(map(abs, spec.couplings)), max(map(abs, spec.fields)))
    j[int(rng.integers((len(j) + 1) // 2))] += fraction * 1e-9 * scale * rng.choice((-1, 1))
    return chain(j, spec.fields)


def _random_mirror_chain(seed, n):
    rng = np.random.default_rng(seed)
    return _mirrored(chain(rng.uniform(0.2, 2.0, n - 1), rng.uniform(-1.5, 1.5, n)))


def _figures_masked(reason):
    return None if reason is None else re.sub(r"\d\.\d+(e[-+]\d+)?", "#", reason)


oracle_cases = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(2, 24),
                         st.sampled_from(["pst", "exact-mirror", "detuned-0.45",
                                          "detuned-0.9", "random-mirror"]))


@settings(max_examples=150, deadline=None)
@given(oracle_cases)
def test_certify_agrees_with_the_eigenvector_oracle(case):
    """Certifying from the eigenvalues alone reaches the verdict, reason and
    multipliers of certifying from the full decomposition. The figures in a
    reason are compared apart: a gap residual scaled by large multipliers
    moves in its printed digits with the last bits of the eigenvalues."""
    seed, n, kind = case
    if kind == "random-mirror":
        spec = _random_mirror_chain(seed, n)
    else:
        spec = random_pst_chain(np.random.default_rng(seed), n)
        if kind == "exact-mirror":
            spec = _mirrored(spec)
        elif kind.startswith("detuned"):
            spec = _mirror_detuned(spec, float(kind.split("-")[1]), seed)
    cert, want = certify_pst(spec), certify_by_eigenvectors(spec)
    assert (cert.verdict, cert.odd_integers) == (want["verdict"], want["odd_integers"])
    assert _figures_masked(cert.reason) == _figures_masked(want["reason"])
    if kind != "random-mirror" and want["worst_gap_residual"] is not None:
        assert cert.worst_gap_residual == pytest.approx(want["worst_gap_residual"], abs=1e-12)
    if cert.perfect:
        assert cert.t0 == pytest.approx(want["t0"], rel=1e-13)
        assert abs(cert.arrival_amplitude - want["arrival_amplitude"]) < 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.booleans())
@example(seed=9405, n=40, mirror=True)
def test_end_products_match_the_eigenvector_end_rows(seed, n, mirror):
    """v_1k v_Nk = prod J / prod_{m != k} (lambda_k - lambda_m) on any chain
    with positive couplings, mirror symmetric or not. Both sides lose
    accuracy as eps * max|T| / (smallest gap), the eigenvectors of a close
    pair most of all. A solved spectrum with an exactly repeated eigenvalue,
    as the mirrored draw of seed 9405 has, raises DegenerateSpectrumError."""
    rng = np.random.default_rng(seed)
    spec = chain(rng.uniform(0.2, 2.0, n - 1), rng.uniform(-1.5, 1.5, n))
    if mirror:
        spec = _mirrored(spec)
    sd = diagonalize(spec)
    if np.any(np.diff(sd.eigenvalues) <= 0):
        with pytest.raises(DegenerateSpectrumError, match="strictly ascending"):
            end_products(spec.coupling_array(), sd.eigenvalues)
        return
    want = sd.eigenvectors[0, :] * sd.eigenvectors[-1, :]
    conditioning = max(1.0, 2.0 / float(np.min(np.diff(sd.eigenvalues))))
    assert np.max(np.abs(end_products(spec.coupling_array(), sd.eigenvalues) - want)) < (
        1e-13 * conditioning)


ratios = st.one_of(
    st.floats(1.0, 1e6),
    st.builds(lambda m, off: m + off, st.integers(1, 10 ** 6), st.floats(-1e-6, 1e-6)))


@settings(max_examples=300, deadline=None)
@given(st.lists(ratios, min_size=1, max_size=12), st.integers(1, 10 ** 7))
def test_gap_fractions_are_limit_denominator(values, max_denominator):
    got = list(_gap_fractions(np.asarray(values), max_denominator))
    assert got == [Fraction(v).limit_denominator(max_denominator) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(ratios, st.integers(1, 2 ** 60).map(float)), min_size=0, max_size=12),
       st.integers(1, 10 ** 7))
def test_gap_multipliers_are_the_fractions_over_their_common_denominator(values, max_denominator):
    """Where every ratio is near an integer the multipliers are read from
    np.rint, else from the fractions; either way they are the numerators
    over the common denominator, or None past the 2^52 guard."""
    values = [1.0] + values     # the smallest ratio is exactly 1
    fracs = [Fraction(v).limit_denominator(max_denominator) for v in values]
    lcm = math.lcm(*(f.denominator for f in fracs))
    mult = [f.numerator * (lcm // f.denominator) for f in fracs]
    got = _gap_multipliers(np.asarray(values), max_denominator)
    if lcm > 2 ** 52 or max(mult) > 2 ** 52:
        assert got is None
    else:
        assert got.tolist() == mult


def test_rationalizing_stops_where_the_multiplier_guard_trips(monkeypatch):
    drawn = []

    def counted(ratios, max_denominator):
        for f in _gap_fractions(ratios, max_denominator):
            drawn.append(f)
            yield f

    monkeypatch.setattr("pstchain.certify._gap_fractions", counted)
    cert = certify_pst(uniform_chain(1000))
    assert cert.reason == "no commensurate gap structure within max_denominator"
    assert 0 < len(drawn) < 10      # of 999 gaps


@pytest.fixture
def any_solves(tridiagonal_solves, eigenvalue_solves, dense_solves):
    return tridiagonal_solves, eigenvalue_solves, dense_solves


@pytest.mark.parametrize("couplings, reason", [
    (lambda j: j[:3] + [j[3] * 1.01] + j[4:], "not mirror symmetric"),
    (lambda j: j[:4999] + [0.0] + j[5000:], "zero coupling"),
    (lambda j: [-x for x in j], "negative coupling"),
], ids=["off-mirror", "zero-coupling", "negative-coupling"])
def test_o_n_rejections_solve_nothing(any_solves, couplings, reason):
    spec = chain(couplings(list(analytic_chain(10 ** 4).couplings)))
    cert = certify_pst(spec)
    assert cert.verdict == "imperfect" and cert.reason.startswith(reason)
    assert cert.eigenvalues is None
    assert any_solves == ([], [], [])


@pytest.mark.parametrize("n, full_solve_residual", [(1000, 1.7e-13), (2000, 4.5e-13)])
def test_refined_gap_residual_is_no_larger_than_the_full_eigensolve(n, full_solve_residual):
    """The full eigensolve (LAPACK stevd, eigenvectors included) left these
    gap residuals on the analytic chain."""
    cert = certify_pst(analytic_chain(n))
    assert cert.perfect
    assert cert.worst_gap_residual <= full_solve_residual


def test_ten_thousand_sites_certify_in_linear_memory(design_passes, eigenvalue_solves,
                                                    tridiagonal_solves):
    spec = analytic_chain(10 ** 4)
    tracemalloc.start()
    try:
        cert = certify_pst(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.perfect
    assert cert.t0 == pytest.approx(math.pi, abs=1e-12)
    assert cert.worst_gap_residual <= 1e-12
    assert abs(cert.arrival_amplitude) >= 1.0 - 1e-10
    assert peak < 100e6
    # one pass over the chiral block, from the design spectrum
    assert (design_passes, eigenvalue_solves, tridiagonal_solves) == ([10 ** 4 // 2], [], [])


def test_perfect_certificate_reports_closed_form_weights():
    """The end weights of the analytic chain are binomial(N-1, k) / 2^(N-1),
    far below what the eigenvector entries resolve."""
    n = 200
    cert = certify_pst(analytic_chain(n))
    exact = np.array([math.comb(n - 1, k) for k in range(n)], dtype=float) / 2.0 ** (n - 1)
    assert np.max(np.abs(cert.end_weights / exact - 1.0)) < 1e-11
    assert np.array_equal(cert.end_weights, np.abs(cert.end_products))


def test_rejected_certificate_reads_weights_from_the_decomposition(tridiagonal_solves):
    """A rejected mirror-symmetric chain takes |v_1k|^2 from the spectrum,
    within the a-priori bound of pair_weights, and solves no eigenvectors."""
    for n in (7, 64, 200):
        spec = uniform_chain(n)
        cert = certify_pst(spec)
        assert not cert.perfect
        weights = cert.end_weights
        assert tridiagonal_solves == []
        first_row = diagonalize(spec).eigenvectors[0]
        assert tridiagonal_solves == [n]
        tridiagonal_solves.clear()
        rho = (8.0 * (1.0 + math.log(n)) * n * np.finfo(float).eps * max(spec.couplings)
               / np.min(np.diff(cert.eigenvalues)))
        assert rho <= spectral.END_WEIGHT_RTOL
        assert np.max(np.abs(weights - first_row ** 2)) <= rho * np.max(weights)


def test_certificate_keeps_the_decomposition_it_solved(eigenvalue_solves, tridiagonal_solves):
    """Where pair_weights takes the end weights from the spectrum, the
    certificate's spectrum is the one decomposition it solved, and its arrival
    is gamma's on that decomposition, bit for bit, with no eigenvectors read."""
    specs = (analytic_chain(2), analytic_chain(64), analytic_chain(130), uniform_chain(6))
    for spec in specs:
        cert = certify_pst(spec)
        assert cert.spectrum.eigenvalues is cert.eigenvalues
        if cert.perfect:
            assert cert.arrival_amplitude == gamma(cert.spectrum, 1, spec.n, cert.t0)
    assert eigenvalue_solves == [1, 32, 65, 3]    # the chiral blocks
    assert tridiagonal_solves == []


def _wide_centre_gap_chain():
    """20 sites from the antisymmetric spectrum of unit gaps about a centre gap
    of 6e7 + 1: beside max|T| ~ 3e7 the unit gaps are too small for end weights
    from the spectrum (a-priori error about 4e-6, above END_WEIGHT_RTOL)."""
    pos = 0.5 * (6e7 + 1) + np.arange(10)
    return chain_from_spectrum(target_spectrum(np.concatenate((-pos[::-1], pos))))


def test_certify_reads_eigenvectors_where_spectrum_weights_are_refused(tridiagonal_solves):
    """Certification takes its end weights from pair_weights, so on a chain
    whose products from the spectrum are refused it reads the eigenvectors,
    once, and its arrival agrees with the eigenvector oracle. The products
    summed unguarded left |gamma_N(t0)| at 1 - 4.1e-13."""
    spec = _wide_centre_gap_chain()
    cert = certify_pst(spec)
    assert cert.perfect and cert.odd_integers == (0,) * 9 + (30000000,) + (0,) * 9
    assert tridiagonal_solves == [20]
    assert cert.spectrum.eigenvalues is cert.eigenvalues
    assert abs(cert.arrival_amplitude - certify_by_eigenvectors(spec)["arrival_amplitude"]) < 1e-12
    assert 1.0 - abs(cert.arrival_amplitude) < 1e-14


# --- inputs that are not numbers ----------------------------------------------

_NAN = math.nan


@pytest.mark.parametrize("call, message", [
    (lambda: certify_pst(analytic_chain(8), tol=_NAN), "tol must be non-negative"),
    (lambda: initfree_transfer(analytic_chain(6), _NAN, 0.0, "0000"), "normalized"),
    (lambda: sequential_storage_sim(sequential_storage_chain(4), [[_NAN, 0.0]], "same"),
     "normalized"),
    (lambda: entanglement_generation(analytic_chain(6), t=_NAN), "finite"),
    (lambda: amplifier_sim(analytic_chain(6), np.full(7, _NAN), [1.0]), "finite"),
    (lambda: BathSpec(chain=analytic_chain(4), coupling=_NAN), "finite"),
    (lambda: BathSpec(chain=analytic_chain(2), raw_couplings=((1.0,), (_NAN,))), "finite"),
    (lambda: QuadraticFermionHamiltonian(a=np.diag([_NAN, 1.0]), b=np.zeros((2, 2))),
     "finite"),
    (lambda: clock_computer(ClockProgram(chain=analytic_chain(300),
                                         gates=(np.diag([_NAN, 1.0]),) * 299), [1.0, 0.0]),
     "gates must be finite"),
    (lambda: clock_computer(ClockProgram(chain=analytic_chain(3), gates=(np.eye(2),) * 2),
                            [_NAN, 0.0]), "normalized"),
], ids=["certify-tol", "initfree-alpha", "storage-input", "entgen-time", "amplifier-walls",
        "bath-coupling", "bath-raw-coupling", "quadratic-hamiltonian", "clock-gate",
        "clock-input"])
def test_nan_inputs_raise_value_error(call, message):
    """NaN fails every comparison, so each of these once passed its range
    check and returned NaN (or an unrelated error) instead of refusing."""
    with pytest.raises(ValueError, match=message):
        call()


def _decomposition():
    return diagonalize(analytic_chain(6))


@pytest.mark.parametrize("call, message", [
    (lambda: gamma(_decomposition(), 1, 6, _NAN), "times must be finite"),
    (lambda: gamma(_decomposition(), 1, 1, [0.0, math.inf]), "times must be finite"),
    (lambda: propagate(_decomposition(), np.eye(6)[0], _NAN), "times must be finite"),
    (lambda: propagate(_decomposition(), np.eye(6)[0], [1.0, -math.inf]),
     "times must be finite"),
    (lambda: evolve_slater(analytic_chain(6), basis_slater(6, [1, 3]), _NAN),
     "times must be finite"),
    (lambda: two_boson_transfer(chain(analytic_chain(6).couplings, statistics="bosonic"),
                                (1, 2), (5, 6), _NAN), "times must be finite"),
    (lambda: amplifier_sim(analytic_chain(6), 1, [_NAN]), "times must be finite"),
    (lambda: bath_transfer_amplitude(BathSpec(chain=analytic_chain(6), coupling=0.3), [_NAN]),
     "times must be finite"),
    (lambda: revival_rate_report([0.0, 1.0, 2.0], [0.3, 0.4, 0.3], _NAN, 2),
     "t0 must be finite and positive"),
    (lambda: revival_rate_report([0.0, 1.0, 2.0], [0.3, 0.4, 0.3], -math.pi, 2),
     "t0 must be finite and positive"),
    (lambda: certify_pst(analytic_chain(9), max_denominator=0),
     "max_denominator must be a positive integer"),
    (lambda: certify_pst(analytic_chain(9), max_denominator=-3),
     "max_denominator must be a positive integer"),
    (lambda: certify_pst(analytic_chain(9), max_denominator=2.5),
     "max_denominator must be a positive integer"),
    (lambda: amplifier_sim(analytic_chain(6), -1, [0.0]),
     r"wall index must be an integer in 0\.\.6"),
    (lambda: amplifier_sim(analytic_chain(6), 99, [0.0]),
     r"wall index must be an integer in 0\.\.6"),
    (lambda: amplifier_sim(analytic_chain(6), 2.5, [0.0]),
     r"wall index must be an integer in 0\.\.6"),
    (lambda: end_weights([0.0, _NAN, 2.0]), "spectrum must be finite"),
    (lambda: end_weights([0.0, math.inf]), "spectrum must be finite"),
    (lambda: analytic_chain(2.5), "n must be an integer, got 2.5"),
    (lambda: sequential_storage_chain(2.5), "n must be an integer, got 2.5"),
    (lambda: uniform_chain(0), "n must be at least 1, got 0"),
    (lambda: uniform_chain(-5), "n must be at least 1, got -5"),
    (lambda: near_uniform_chain(4.5, 0.5), "n must be an integer, got 4.5"),
    (lambda: w_phase_rotation(3, 1.5), "k must be an integer, got 1.5"),
    (lambda: ClockProgram(chain=analytic_chain(3), gates=(np.zeros((0, 0)),) * 2),
     "register of dimension at least 1"),
    (lambda: hypercube(2.5), "d must be an integer, got 2.5"),
    (lambda: star_network(analytic_chain(4), 2.5), "m must be an integer, got 2.5"),
    (lambda: basis_slater(4, [1.5]), "sites must be an integer, got 1.5"),
    (lambda: basis_slater(4.5, [1]), "n must be an integer, got 4.5"),
    (lambda: basis_slater(4, [2, 0]), r"sites must lie in 1\.\.4, got 0"),
    (lambda: basis_slater(4, [5]), r"sites must lie in 1\.\.4, got 5"),
    (lambda: gamma(_decomposition(), 2.5, 3, 1.0), "sites must be an integer, got 2.5"),
    (lambda: gamma(_decomposition(), 1, 6.5, [0.0, 1.0]), "sites must be an integer, got 6.5"),
    (lambda: pair_weights(_decomposition(), "1", 6), "sites must be an integer, got '1'"),
    (lambda: amplitude_profile(_decomposition(), 1.5, 1.0), "sites must be an integer, got 1.5"),
    (lambda: two_boson_transfer(chain(analytic_chain(6).couplings, statistics="bosonic"),
                                (1, 2), (5.5, 6), 1.0), "sites must be an integer, got 5.5"),
    (lambda: revival_rate_report([0.0, 1.0, 2.0], [0.3, 0.4, 0.3], math.pi, 2.5),
     "M must be an integer, got 2.5"),
    (lambda: rate_condition(certify_pst(analytic_chain(6)), 2.5), "M must be an integer, got 2.5"),
    (lambda: timing_window(analytic_chain(8), certify_pst(analytic_chain(6)), 1e-3),
     "the certificate is for another chain"),
], ids=["gamma", "gamma-inf", "propagate", "propagate-times", "evolve_slater",
        "two_boson_transfer", "amplifier_sim", "bath_transfer_amplitude", "rate-t0-nan",
        "rate-t0-negative", "certify-max-den-0", "certify-max-den-negative",
        "certify-max-den-fraction", "amplifier-wall-negative", "amplifier-wall-past-n",
        "amplifier-wall-fraction", "end-weights-nan", "end-weights-inf",
        "analytic-fraction", "storage-fraction", "uniform-zero", "uniform-negative",
        "near-uniform-fraction", "w-phase-fraction", "clock-empty-register",
        "hypercube-fraction", "star-fraction", "basis-slater-site-fraction",
        "basis-slater-n-fraction", "basis-slater-site-zero", "basis-slater-site-past-n",
        "gamma-site-fraction", "gamma-end-site-fraction", "pair-weights-site-string",
        "amplitude-profile-site-fraction", "two-boson-site-fraction", "rate-report-m-fraction",
        "rate-condition-m-fraction", "timing-window-other-chain"])
def test_times_and_limits_out_of_range_raise_value_error(call, message):
    """Each of these once returned NaN, a meaningless report, state or chain
    or an unrelated error (ZeroDivisionError for a zero max_denominator,
    IndexError for a wall past N, TypeError for a fractional near-uniform
    size, hypercube dimension or star branch count, IndexError for a
    fractional or past-N Slater site, and site N for site 0; IndexError for
    a fractional site of an amplitude, TypeError for a fractional rate order,
    and another chain's window for a certificate of another chain)."""
    with pytest.raises(ValueError, match=message):
        call()


def test_integral_sizes_given_as_floats_build_the_same_chain():
    assert analytic_chain(4.0) == analytic_chain(4)
    assert sequential_storage_chain(np.float64(5.0)) == sequential_storage_chain(5)
    assert uniform_chain(np.int64(3)) == uniform_chain(3)
    assert near_uniform_chain(6.0, 0.5) == near_uniform_chain(6, 0.5)
    assert w_phase_rotation(3.0, 1.0).tolist() == w_phase_rotation(3, 1).tolist()


def test_integral_network_sizes_and_sites_given_as_floats_are_accepted():
    assert hypercube(4.0) == hypercube(4)
    branch = analytic_chain(4)
    assert star_network(branch, 4.0).network == star_network(branch, 4).network
    a, b = basis_slater(4.0, [1.0, np.int64(3)]), basis_slater(4, [1, 3])
    assert a.orbitals.tobytes() == b.orbitals.tobytes() and a.coefficient == b.coefficient


def test_integral_sites_and_rate_orders_given_as_floats_are_accepted():
    sd, times = _decomposition(), np.linspace(0.0, 3.0, 7)
    assert gamma(sd, 2.0, 3, times).tobytes() == gamma(sd, 2, 3, times).tobytes()
    assert gamma(sd, 1, np.float64(6.0), 1.0) == gamma(sd, 1, 6, 1.0)
    assert (amplitude_profile(sd, 2.0, 1.0).tobytes()
            == amplitude_profile(sd, 2, 1.0).tobytes())
    bosons = chain(analytic_chain(6).couplings, statistics="bosonic")
    assert (two_boson_transfer(bosons, (1.0, 2), (5, np.int64(6)), 1.0)
            == two_boson_transfer(bosons, (1, 2), (5, 6), 1.0))
    cert = certify_pst(analytic_chain(6))
    assert rate_condition(cert, 2.0).residue_sums.tolist() == (
        rate_condition(cert, 2).residue_sums.tolist())
