import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstchain import (analytic_chain, certify_pst, chain_from_spectrum,
                      coupling_family, diagonalize, end_weights, gamma,
                      mirror_symmetry_check, near_uniform_chain, newton_iep,
                      nnn_coupling_family, sequential_storage_chain, target_spectrum,
                      uniform_chain, validate_family)
from pstchain.design import ParametrizedFamily, TargetSpectrum, _givens_insertion
from pstchain.spectral import DegenerateSpectrumError, _is_mirror

from oracles import (_lanczos_from_weights, full_chain_from_spectrum, givens_insertion_guarded,
                     log_end_weights)


# --- analytic family ------------------------------------------------------

def test_analytic_two_sites():
    assert analytic_chain(2).couplings == (0.5,)


def test_analytic_four_sites():
    assert np.allclose(analytic_chain(4).couplings, [math.sqrt(3) / 2, 1.0, math.sqrt(3) / 2])


def test_analytic_six_central_coupling():
    assert analytic_chain(6).couplings[2] == pytest.approx(1.5)


def test_analytic_rejects_small_n():
    with pytest.raises(ValueError):
        analytic_chain(1)


@pytest.mark.parametrize("n", [2, 3, 8, 16, 33, 64, 128])
def test_analytic_unit_gap_lattice(n):
    lam = diagonalize(analytic_chain(n)).eigenvalues
    assert np.max(np.abs(np.diff(lam) - 1.0)) < 1e-8


# --- sequential storage ---------------------------------------------------

def test_storage_two_sites():
    spec = sequential_storage_chain(2)
    assert np.allclose(spec.couplings, [1.0])
    assert np.allclose(diagonalize(spec).eigenvalues, [-1.0, 1.0])


def test_storage_three_sites_spectrum():
    spec = sequential_storage_chain(3)
    j1, j2 = spec.couplings
    # oracle: B = 0 three-site chain has eigenvalues 0, +-sqrt(J1^2 + J2^2)
    edge = math.sqrt(j1 ** 2 + j2 ** 2)
    assert edge == pytest.approx(2.0)
    assert np.allclose(diagonalize(spec).eigenvalues, [-2.0, 0.0, 2.0], atol=1e-14)


def test_storage_equal_end_weights():
    for n in (3, 7, 12):
        sd = diagonalize(sequential_storage_chain(n))
        assert np.allclose(sd.eigenvectors[0, :] ** 2, 1.0 / n, atol=1e-9)


def test_storage_input_amplitude_zeros():
    for n in (2, 5, 9, 16):
        sd = diagonalize(sequential_storage_chain(n))
        t_r = math.pi / n
        times = t_r * np.arange(1, n)
        assert np.max(np.abs(gamma(sd, 1, 1, times))) < 1e-9
        assert abs(gamma(sd, 1, 1, math.pi)) == pytest.approx(1.0, abs=1e-9)


# --- spectrum reconstruction ----------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: target_spectrum([[1.0, 2.0], [3.0, 4.0]]),
    lambda: target_spectrum([-1.0, math.nan, 1.0]),
    lambda: TargetSpectrum((-1.0, math.nan, 1.0)),
    lambda: target_spectrum([-1.0, 0.0, math.inf]),
], ids=["two-dimensional", "nan", "nan-type", "infinite"])
def test_target_spectrum_must_be_one_dimensional_and_finite(build):
    with pytest.raises(ValueError, match="1-D sequence of finite numbers"):
        build()


@pytest.mark.parametrize("build, error, message", [
    (lambda: target_spectrum([]), ValueError, "needs at least two eigenvalues"),
    (lambda: target_spectrum(np.array([0.5])), ValueError, "needs at least two eigenvalues"),
    (lambda: target_spectrum([0.5], antisymmetric=True), ValueError,
     "needs at least two eigenvalues"),
    (lambda: TargetSpectrum(()), ValueError, "needs at least two eigenvalues"),
    (lambda: target_spectrum([-1.0, 1.0, 0.5]), DegenerateSpectrumError, "strictly ascending"),
    (lambda: target_spectrum([1.0, 1.0], antisymmetric=True), DegenerateSpectrumError,
     "strictly ascending"),
    (lambda: target_spectrum([-1.0, 0.0, 2.0], antisymmetric=True), ValueError,
     "does not satisfy"),
    (lambda: TargetSpectrum((-1.0, 0.0, 2.0), antisymmetric=True), ValueError,
     "does not satisfy"),
], ids=["empty", "one", "one-antisymmetric", "empty-type", "unsorted", "repeated",
        "not-antisymmetric", "not-antisymmetric-type"])
def test_target_spectrum_checks_size_then_order_then_antisymmetry(build, error, message):
    """An empty spectrum once raised numpy's error for a reduction over zero
    entries, from the antisymmetry test that ran before the size check."""
    with pytest.raises(error, match=message):
        build()


def test_target_spectrum_detects_antisymmetry_to_its_tolerance():
    assert target_spectrum([-1.0, 0.0, 1.0]).antisymmetric is True
    assert target_spectrum([-1.0, 1e-13, 1.0]).antisymmetric is True
    assert target_spectrum([-1.0, 1e-11, 1.0]).antisymmetric is False
    assert target_spectrum([-1.0, 0.0, 1.0], antisymmetric=False).antisymmetric is False
    assert TargetSpectrum((-1.0, 0.0, 1.0)).antisymmetric is False


def test_reconstruct_two_levels():
    spec = chain_from_spectrum(target_spectrum([-0.5, 0.5]))
    assert np.allclose(spec.couplings, [0.5])
    assert np.allclose(spec.fields, [0.0, 0.0])


def test_reconstruct_analytic_four():
    spec = chain_from_spectrum(target_spectrum([-1.5, -0.5, 0.5, 1.5]))
    assert np.allclose(spec.couplings, analytic_chain(4).couplings, atol=1e-12)
    assert np.allclose(spec.fields, 0.0, atol=1e-12)


def test_reconstruct_evenly_spaced_three_is_symmetric_chain():
    spec = chain_from_spectrum(target_spectrum([-2.0, 0.0, 2.0]))
    assert np.allclose(spec.couplings, [math.sqrt(2.0), math.sqrt(2.0)], atol=1e-12)
    # distinct from the equal-weight storage chain with the same spectrum
    assert not np.allclose(spec.couplings, sequential_storage_chain(3).couplings)


def test_reconstruction_roundtrip_random_antisymmetric():
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(2, 33))
        half = np.sort(rng.uniform(0.05, 3.0, n // 2))
        gaps = np.diff(np.concatenate(([0.0], half)))
        half = np.cumsum(np.maximum(gaps, 6e-3)) + 6e-3 * np.arange(1, n // 2 + 1)
        lam = np.concatenate((-half[::-1], [0.0], half)) if n % 2 else \
            np.concatenate((-half[::-1], half))
        spread = lam[-1] - lam[0]
        spec = chain_from_spectrum(TargetSpectrum(tuple(lam), antisymmetric=True))
        achieved = diagonalize(spec).eigenvalues
        assert np.max(np.abs(achieved - lam)) < 1e-8 * max(1.0, spread)
        assert np.max(np.abs(spec.field_array())) < 1e-9 * spread
        assert np.all(spec.coupling_array() > 0)
        assert mirror_symmetry_check(spec, tol=1e-7 * max(1.0, np.max(spec.coupling_array())))


def _moment_reconstruct(lam, weights):
    """Independent oracle: solve for fields/couplings from the moments
    <1|H^m|1> = sum_n w_n lam_n^m, peeling one new entry per moment order."""
    n = len(lam)
    moments = [float(np.sum(weights * lam ** m)) for m in range(2 * n)]
    fields = []
    couplings = []

    def mu_zero(m):
        t = np.zeros((n, n))
        for i, b in enumerate(fields):
            t[i, i] = b
        for i, j in enumerate(couplings):
            t[i, i + 1] = t[i + 1, i] = j
        v = np.zeros(n)
        v[0] = 1.0
        for _ in range(m):
            v = t @ v
        return v[0]

    for k in range(1, n + 1):
        prod = np.prod(np.array(couplings, dtype=float) ** 2) if couplings else 1.0
        fields.append(0.0)
        fields[-1] = (moments[2 * k - 1] - mu_zero(2 * k - 1)) / prod
        if k < n:
            couplings.append(0.0)
            j_sq = (moments[2 * k] - mu_zero(2 * k)) / prod
            couplings[-1] = math.sqrt(j_sq)
    return np.array(couplings), np.array(fields)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_reconstruction_matches_moment_oracle(n):
    rng = np.random.default_rng(30 + n)
    lam = np.sort(rng.uniform(-1.5, 1.5, n))
    while np.min(np.diff(lam)) < 0.2:
        lam = np.sort(rng.uniform(-1.5, 1.5, n))
    spec = chain_from_spectrum(target_spectrum(lam, antisymmetric=False))
    j_oracle, b_oracle = _moment_reconstruct(lam, end_weights(lam))
    assert np.max(np.abs(spec.coupling_array() - j_oracle)) < 1e-6
    assert np.max(np.abs(spec.field_array() - b_oracle)) < 1e-6


def _odd_gap_spectrum(n, rng):
    """Antisymmetric spectrum of even length with gaps 1 or 3 (centre gap 1)."""
    half = rng.choice((1.0, 3.0), size=n // 2 - 1)
    gaps = np.concatenate((half[::-1], [1.0], half))
    lam = np.concatenate(([0.0], np.cumsum(gaps)))
    return lam - lam[-1] / 2.0


def _assert_perfect_odd_gap_chain(spec, lam):
    assert mirror_symmetry_check(spec, tol=1e-9 * np.max(spec.coupling_array())).symmetric
    assert np.max(np.abs(diagonalize(spec).eigenvalues - lam)) <= 1e-8 * (lam[-1] - lam[0])
    cert = certify_pst(spec)
    assert cert.perfect
    assert abs(cert.t0 - math.pi) <= 1e-12


def test_reconstruction_of_subnormal_weights_certifies_perfect():
    # smallest end weight ~1e-319, a subnormal double; its square root is normal
    lam = _odd_gap_spectrum(1000, np.random.default_rng(20))
    assert 0.0 < end_weights(lam).min() < np.finfo(float).tiny
    spec = chain_from_spectrum(target_spectrum(lam, antisymmetric=True))
    _assert_perfect_odd_gap_chain(spec, lam)


def test_reconstruction_of_underflowed_weights_certifies_perfect():
    # smallest end weight ~1e-330 rounds to zero; its square root is normal
    lam = _odd_gap_spectrum(1000, np.random.default_rng(8))
    assert end_weights(lam).min() == 0.0
    spec = chain_from_spectrum(target_spectrum(lam, antisymmetric=True))
    _assert_perfect_odd_gap_chain(spec, lam)


def _assert_reconstructs_analytic_chain(n):
    """The unit-gap spectrum of n levels gives back the analytic chain, bitwise
    mirror symmetric, which transfers perfectly at pi."""
    lam = np.arange(float(n)) - (n - 1) / 2.0
    spec = chain_from_spectrum(target_spectrum(lam, antisymmetric=True))
    expected = analytic_chain(n).coupling_array()
    assert np.max(np.abs(spec.coupling_array() - expected)) <= 1e-10
    assert _is_mirror(spec.field_array(), spec.coupling_array())
    cert = certify_pst(spec)
    assert cert.perfect
    assert abs(cert.t0 - math.pi) <= 1e-12


def test_reconstruction_of_weights_whose_roots_underflow_certifies_perfect():
    # smallest end weight ~1e-662: even its square root underflows, and the
    # construction on the fold never forms it
    assert log_end_weights(np.arange(2200.0) - 1099.5).min() < 2.0 * np.log(
        np.finfo(float).smallest_subnormal)
    _assert_reconstructs_analytic_chain(2200)


def test_reconstruction_of_subnormal_roots_certifies_perfect():
    # smallest end weight ~1e-638: its square root is a subnormal double with
    # too few bits to place the far end of a chain built from the end weights
    lam = np.arange(2120.0) - 1059.5
    assert 0.0 < np.exp(0.5 * log_end_weights(lam)).min() < np.finfo(float).tiny
    _assert_reconstructs_analytic_chain(2120)


def test_reconstruction_keeps_equal_gap_chain_at_2000_sites():
    # smallest end weight ~1e-602: only its square root is a double
    lam = np.arange(2000.0) - 999.5
    spec = chain_from_spectrum(target_spectrum(lam, antisymmetric=True))
    expected = analytic_chain(2000).coupling_array()
    assert np.max(np.abs(spec.coupling_array() - expected)) <= 1e-10


def test_reconstruction_keeps_equal_gap_chain_with_subnormal_weights():
    lam = np.arange(1060.0) - 529.5
    assert end_weights(lam).min() < np.finfo(float).tiny
    spec = chain_from_spectrum(target_spectrum(lam, antisymmetric=True))
    assert mirror_symmetry_check(spec, tol=1e-10).symmetric
    expected = analytic_chain(1060).coupling_array()
    assert np.max(np.abs(spec.coupling_array() - expected)) < 1e-10


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=59), st.floats(0.1, 10.0),
       st.floats(-5.0, 5.0), st.booleans())
def test_givens_insertion_matches_lanczos_oracle(gaps, scale, offset, antisymmetric):
    n = len(gaps) + 1
    if antisymmetric:   # the upper half of the levels, reflected about 0
        half = scale * np.cumsum(gaps[: n // 2])
        lam = np.concatenate((-half[::-1], [0.0] * (n % 2), half))
    else:
        lam = offset + scale * np.concatenate(([0.0], np.cumsum(gaps)))
    spec = chain_from_spectrum(TargetSpectrum(tuple(lam), antisymmetric=antisymmetric))
    fields, couplings = _lanczos_from_weights(lam, end_weights(lam))
    if antisymmetric:
        fields = np.zeros_like(fields)
    spread = lam[-1] - lam[0]
    assert np.max(np.abs(spec.coupling_array() - couplings)) <= 1e-9 * spread
    assert np.max(np.abs(spec.field_array() - fields)) <= 1e-9 * spread


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=0, max_size=198), st.integers(0, 198),
       st.integers(-3, 3))
def test_odd_gap_spectra_round_trip_to_perfect_chains(multipliers, where, shift):
    multipliers.insert(where % (len(multipliers) + 1), 0)   # one unit gap: t0 = pi
    lam = np.concatenate(([0.0], np.cumsum([2 * k + 1 for k in multipliers])))
    lam += shift - 0.5 * lam[-1]
    spec = chain_from_spectrum(target_spectrum(lam, antisymmetric=False))
    assert spec.couplings == spec.couplings[::-1] and spec.fields == spec.fields[::-1]
    cert = certify_pst(spec)
    assert cert.perfect
    assert abs(cert.t0 - math.pi) <= 1e-12
    assert cert.odd_integers == tuple(multipliers)
    assert np.max(np.abs(diagonalize(spec).eigenvalues - lam)) <= 1e-8 * (lam[-1] - lam[0])


def test_thousand_site_odd_gap_chain_matches_lanczos_oracle_in_linear_memory():
    lam = _odd_gap_spectrum(1000, np.random.default_rng(10))
    target = target_spectrum(lam, antisymmetric=True)
    tracemalloc.start()
    try:
        spec = chain_from_spectrum(target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20      # an N x N array of doubles alone is 7.6 MB
    _, couplings = _lanczos_from_weights(lam, end_weights(lam))
    assert np.max(np.abs(spec.coupling_array() - couplings)) <= 1e-10 * np.max(couplings)


def test_givens_insertion_passes_over_pairs_of_zero_weight():
    # with two leading zero weights a chase meets planes where the coupling and
    # the bulge are both zero; there is nothing to rotate and nothing to divide by
    lam = np.array([-2.0, -0.5, 0.3, 1.0, 2.5, 3.0])
    fields, couplings = _givens_insertion(lam, np.array([0.0, 0.0, 0.5, 0.5, 0.5, 0.5]))
    assert np.all(np.isfinite(fields)) and np.all(np.isfinite(couplings))
    jacobi = np.diag(fields) + np.diag(couplings, 1) + np.diag(couplings, -1)
    assert np.max(np.abs(np.linalg.eigvalsh(jacobi) - lam)) < 1e-14


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.05, 3.0), min_size=0, max_size=80), st.floats(-5.0, 5.0),
       st.lists(st.integers(0, 80), max_size=4), st.integers(0, 2 ** 32 - 1))
def test_givens_insertion_is_the_guarded_chase_bitwise(gaps, offset, zeros, seed):
    """The chase takes its zero-rotation guard only where some r is 0, and is
    bitwise the chase that takes it on every step; weight vectors with exact
    zeros take the guard."""
    lam = offset + np.concatenate(([0.0], np.cumsum(gaps)))
    q = np.random.default_rng(seed).uniform(0.01, 1.0, lam.size)
    q[[z % lam.size for z in zeros]] = 0.0
    got = _givens_insertion(lam, q)
    want = givens_insertion_guarded(lam, q)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_givens_insertion_takes_the_guard_where_some_rotation_is_zero(monkeypatch):
    """Leading zero weights reach planes where r is 0 (see the test above), so
    the guarded branch runs and gives the guarded chase's bytes."""
    wheres = []
    real_where = np.where

    def counted(*args):
        wheres.append(1)
        return real_where(*args)

    lam = np.array([-2.0, -0.5, 0.3, 1.0, 2.5, 3.0])
    q = np.array([0.0, 0.0, 0.5, 0.5, 0.5, 0.5])
    want = givens_insertion_guarded(lam, q)
    monkeypatch.setattr(np, "where", counted)
    got = _givens_insertion(lam, q)
    assert wheres
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    wheres.clear()
    _givens_insertion(lam, np.full(6, 0.5))
    assert not wheres


def test_givens_insertion_of_one_pair_is_its_eigenvalue():
    fields, couplings = _givens_insertion(np.array([2.5]), np.array([1.0]))
    assert fields.tolist() == [2.5]
    assert couplings.size == 0


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(st.just("odd-gap"), st.lists(st.integers(0, 3), min_size=1, max_size=199),
              st.integers(-3, 3)),
    st.tuples(st.just("fields"), st.lists(st.floats(0.05, 1.0), min_size=1, max_size=199),
              st.floats(-5.0, 5.0), st.floats(0.1, 10.0))))
def test_folded_reconstruction_matches_the_full_size_oracle(draw):
    """The half-size construction on the fold agrees with the N-point Givens
    insertion from the end weights and its mirror average to 1e-12 max|J|
    (the worst of 1300 seeded draws of these kinds was 1.2e-15), and it is
    exactly mirror symmetric."""
    if draw[0] == "odd-gap":
        _, multipliers, shift = draw
        lam = np.concatenate(([0.0], np.cumsum([2 * k + 1 for k in multipliers])))
        lam += shift - 0.5 * lam[-1]
    else:
        _, gaps, offset, scale = draw
        lam = offset + scale * np.concatenate(([0.0], np.cumsum(gaps)))
    target = target_spectrum(lam)
    spec = chain_from_spectrum(target)
    fields, couplings = full_chain_from_spectrum(lam, target.antisymmetric)
    bound = 1e-12 * np.max(couplings)
    assert np.max(np.abs(spec.coupling_array() - couplings)) <= bound
    assert np.max(np.abs(spec.field_array() - fields)) <= bound
    assert _is_mirror(spec.field_array(), spec.coupling_array())


# --- near-uniform design ---------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_near_uniform_returns_the_perfect_uniform_chain(n):
    spec, deviation = near_uniform_chain(n, 0.37)
    assert spec == uniform_chain(n)
    assert deviation == 0.0
    assert certify_pst(spec).perfect


def test_near_uniform_five_sites():
    spec, deviation = near_uniform_chain(5, 0.5)
    cert = certify_pst(spec)
    assert cert.perfect
    # acceptance is the certificate; the deviation just has to stay modest
    assert deviation < 0.5
    assert np.max(np.abs(spec.field_array())) < 1e-9


def test_near_uniform_31_reproduces_figure_chain():
    spec, deviation = near_uniform_chain(31, 0.5)
    cert = certify_pst(spec)
    assert cert.perfect
    sd = diagonalize(spec)
    assert abs(gamma(sd, 1, 31, cert.t0)) >= 1.0 - 1e-8
    assert deviation < 0.5


@pytest.mark.parametrize("slack", [0.25, 0.5])
def test_near_uniform_certifies_at_2000_sites(slack):
    # the lattice unit is 3.7e-6 * slack / 0.5, so the reconstruction has to
    # place the edge eigenvalues to a few ulp
    spec, deviation = near_uniform_chain(2000, slack)
    cert = certify_pst(spec)
    assert cert.perfect
    assert cert.worst_gap_residual <= 1e-9
    assert deviation < 0.5


def test_near_uniform_deviation_shrinks_with_slack():
    _, dev_tight = near_uniform_chain(8, 0.1)
    _, dev_loose = near_uniform_chain(8, 0.5)
    assert dev_tight <= dev_loose + 1e-12


def test_near_uniform_rejects_bad_slack():
    with pytest.raises(ValueError):
        near_uniform_chain(5, 0.0)
    with pytest.raises(ValueError):
        near_uniform_chain(5, 1.5)


# --- Newton iteration -------------------------------------------------------

def test_newton_reaches_analytic_four_from_uniform():
    target = target_spectrum([-1.5, -0.5, 0.5, 1.5])
    family = coupling_family(4)
    result = newton_iep(family, target, np.ones(3), max_iter=8, tol=1e-10)
    assert result.converged
    assert result.iterations <= 8
    assert np.allclose(np.abs(result.parameters), analytic_chain(4).couplings, atol=1e-8)
    final = diagonalize(family.evaluate(result.parameters)).eigenvalues
    assert np.max(np.abs(final - np.asarray(target.eigenvalues))) <= 1e-10


def test_newton_fixed_point_takes_zero_iterations():
    family = coupling_family(5)
    r0 = np.array([0.7, 1.1, 1.1, 0.7])
    lam = diagonalize(family.evaluate(r0)).eigenvalues
    result = newton_iep(family, target_spectrum(lam, antisymmetric=False), r0)
    assert result.iterations == 0
    assert result.converged


def test_newton_next_nearest_family():
    rng = np.random.default_rng(42)
    family = nnn_coupling_family(5)
    r_star = np.concatenate((rng.uniform(0.8, 1.2, 4), [0.15]))
    lam = diagonalize(family.evaluate(r_star)).eigenvalues
    r0 = r_star + rng.normal(0.0, 1e-2, 5)
    result = newton_iep(family, target_spectrum(lam, antisymmetric=False), r0, tol=1e-9)
    assert result.converged
    final = diagonalize(family.evaluate(result.parameters)).eigenvalues
    assert np.max(np.abs(final - lam)) <= 1e-8
    # the spectrum does not pin the parameters exactly (gauge freedom along
    # the isospectral manifold); recovery is to the order of the perturbation
    assert np.max(np.abs(np.abs(result.parameters) - np.abs(r_star))) < 0.05


def test_newton_quadratic_convergence():
    target = target_spectrum(diagonalize(analytic_chain(8)).eigenvalues, antisymmetric=True)
    result = newton_iep(coupling_family(8), target, np.ones(7), tol=1e-12)
    res = [r for r in result.residuals if r > 1e-13]
    assert result.converged
    # once the error is small, each step squares it (up to a stable constant)
    small = [r for r in res if r < res[0] / 10.0]
    assert len(small) >= 2
    for r_k, r_next in zip(small, small[1:]):
        assert r_next <= 100.0 * r_k ** 2 / small[0] * small[0]  # C fitted at first small step
        assert r_next < 0.1 * r_k


def test_validate_family_checks_the_same_points_on_every_run():
    base = coupling_family(4)
    points = ([], [])
    for seen in points:
        family = ParametrizedFamily(
            dimension=4, n_params=3, derivative=base.derivative,
            evaluate=lambda r, _seen=seen: _seen.append(r.copy()) or base.evaluate(r))
        validate_family(family, np.ones(3))
    assert len(points[0]) == len(points[1]) == 3 * 3 * 2    # draws x parameters x sides
    assert all(np.array_equal(a, b) for a, b in zip(*points))


def test_validate_family_catches_wrong_derivative():
    base = coupling_family(3)
    bad = ParametrizedFamily(dimension=3, n_params=2, evaluate=base.evaluate,
                             derivative=lambda r, i: 2.0 * base.derivative(r, i))
    with pytest.raises(ValueError):
        validate_family(bad, np.ones(2))
