import importlib.machinery
import importlib.util
import math
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from pstchain import (HeisenbergSpec, analytic_chain, amplitude_profile, certify_pst, chain,
                      chain_from_spectrum, diagonalize, gamma, is_degenerate, near_uniform_chain,
                      propagate, rescale, sequential_storage_chain, target_spectrum,
                      uniform_chain)
from pstchain.certify import ARRIVAL_TOL
from pstchain.chain import _designed
from pstchain import spectral
from pstchain.spectral import _phase_sum, end_products, pair_weights, sturm_newton

from oracles import (dense_decomposition, end_products_full, expm_evolve, folded_eigenvalues,
                     log_abs_derivatives, phase_sum_direct, random_pst_chain,
                     sturm_full, sturm_newton_full, tridiagonal_dense, unfolded_decomposition,
                     unfolded_eigenvalues)


def test_one_site_decomposition_is_its_field():
    sd = diagonalize(chain([], [0.7]))
    assert sd.eigenvalues.tolist() == [0.7]
    assert sd.eigenvectors.tolist() == [[1.0]]
    assert sd.residual == 0.0


def test_two_level_eigenvalues():
    sd = diagonalize(chain([0.5]))
    assert np.allclose(sd.eigenvalues, [-0.5, 0.5])


def test_analytic_four_site_spectrum():
    sd = diagonalize(analytic_chain(4))
    assert np.allclose(sd.eigenvalues, [-1.5, -0.5, 0.5, 1.5], atol=1e-13)


def test_uniform_four_site_spectrum_value():
    sd = diagonalize(uniform_chain(4))
    expected = sorted(-2.0 * math.cos(k * math.pi / 5.0) for k in range(1, 5))
    assert np.allclose(sd.eigenvalues, expected, atol=1e-13)
    assert np.allclose(np.abs(sd.eigenvalues), [1.6180339887498949, 0.6180339887498949,
                                                0.6180339887498949, 1.6180339887498949][::1],
                       atol=1e-10)


def test_eigenvector_orthonormality():
    rng = np.random.default_rng(3)
    spec = chain(rng.uniform(0.2, 1.4, 15), rng.uniform(-1, 1, 16))
    sd = diagonalize(spec)
    v = sd.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(16))) < 1e-12


def test_reconstruction_quality():
    rng = np.random.default_rng(4)
    spec = chain(rng.uniform(0.2, 1.4, 31), rng.uniform(-1, 1, 32))
    m = tridiagonal_dense(spec.couplings, spec.fields)
    sd = diagonalize(spec)
    recon = sd.eigenvectors @ np.diag(sd.eigenvalues) @ sd.eigenvectors.T
    assert np.max(np.abs(recon - m)) <= 1e-10 * np.max(np.abs(m))


def test_residual_check_rejects_a_perturbed_eigenvector(monkeypatch):
    true_solver = spectral._eigenvector_solve

    def perturbed(diag, off):
        vec = true_solver(diag, off).copy()
        vec[2, 3] += 1e-6
        return vec

    diagonalize(analytic_chain(8)).eigenvectors
    monkeypatch.setattr(spectral, "_eigenvector_solve", perturbed)
    sd = diagonalize(analytic_chain(8))     # an equal chain, not yet solved
    with pytest.raises(ArithmeticError, match="residual"):
        sd.eigenvectors


def test_dense_input_requires_symmetry():
    with pytest.raises(ValueError):
        diagonalize(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.nan)])
def test_dense_input_refuses_non_finite_entries(bad):
    """A non-finite entry would pass the symmetry test and the residual check,
    which compare with '>', and give NaN eigenvalues and a NaN residual."""
    dense = np.array([[bad, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        diagonalize(dense)


def test_a_nan_residual_fails_its_check():
    with pytest.raises(ArithmeticError, match="residual"):
        spectral._checked(math.nan, 1.0)
    assert spectral._checked(1e-11, 1.0) == 1e-11


def test_diagonalize_takes_a_chain_or_a_square_array_only():
    heisenberg = HeisenbergSpec(n=2, couplings=(1.0,), anisotropies=(0.5,), fields=(0.0, 0.0))
    for operator in (heisenberg, np.array([0.0, 1.0]), np.zeros((2, 3)), None):
        with pytest.raises(ValueError, match="square matrix"):
            diagonalize(operator)
    spec = chain([0.3, 0.8], [0.1, -0.2, 0.4])
    dense = diagonalize(tridiagonal_dense(spec.couplings, spec.fields))
    assert np.allclose(diagonalize(spec).eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-14)


def test_degeneracy_detection():
    # two identical decoupled blocks share their spectrum
    m = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert is_degenerate(diagonalize(m).eigenvalues)
    assert not is_degenerate(diagonalize(uniform_chain(5)).eigenvalues)
    # one level has no gap to close; repeated levels with no spread are degenerate
    assert not is_degenerate([0.7])
    assert is_degenerate([0.7, 0.7, 0.7])


def test_certificate_eigenvalues_match_the_decomposition():
    """certify_pst solves a chain through diagonalize, so a certificate made
    after the solve carries its eigenvalues bit for bit, perfect or not."""
    for spec in (analytic_chain(2), analytic_chain(64), uniform_chain(5),
                 chain([0.9, 1.3, 0.9], [0.2, -1.0, -1.0, 0.2]),
                 analytic_chain(130), uniform_chain(130)):
        cert = certify_pst(spec)
        assert cert.eigenvalues.tobytes() == diagonalize(spec).eigenvalues.tobytes()
    assert diagonalize(chain([], [0.7])).eigenvalues.tolist() == [0.7]    # nothing to certify


def test_sturm_newton_refines_to_the_exact_spectrum():
    """The analytic chain has the half-integer (even N) or integer (odd N)
    spectrum -(N-1)/2 .. (N-1)/2; a field on every site shifts it. One step
    from the whole operator's sterf eigenvalues, with both parities and with
    and without the field, is accepted for every eigenvalue and lands within
    1e-13 of it."""
    for n, field in ((1000, 0.0), (1001, 0.0), (1000, 0.25), (1001, 0.25)):
        spec = chain(analytic_chain(n).couplings, [field] * n)
        exact = np.arange(n) - (n - 1) / 2.0 + field
        diag, off = spec.field_array(), spec.coupling_array()
        lam = unfolded_eigenvalues(spec)
        bound = n * np.finfo(float).eps * max(spec.couplings)
        refined, accepted = sturm_newton(diag, off, lam, bound)
        assert accepted.all()
        assert np.max(np.abs(refined - exact)) < 0.1 * np.max(np.abs(lam - exact))
        assert np.max(np.abs(refined - exact)) < 1e-13
        # the step bound: no eigenvalue moves further than it
        assert np.array_equal(sturm_newton(diag, off, lam, 0.0)[0], lam)
        # the gate is open here: the error bound is 1e-10 of the unit gap
        assert np.max(np.abs(diagonalize(spec).eigenvalues - exact)) < 1e-13
    # a start value that is an eigenvalue of a leading block, to the bit, makes
    # a pivot zero and its step NaN: 0 on a zero-field chain of odd length;
    # stepped again from one ulp higher, it is accepted and lands back on 0
    spec = analytic_chain(1001)
    diag, off = spec.field_array(), spec.coupling_array()
    exact = np.arange(1001) - 500.0
    assert np.isnan(spectral._sturm_sweep(diag, off, exact[500:501], 1)[0]).all()
    refined, accepted = sturm_newton(diag, off, exact, _step_bound(spec))
    assert accepted.all() and refined[500] == 0.0


def _random_mirror_chain(n, rng):
    """The analytic chain with its couplings scaled by seeded factors in
    [0.9, 1.1] and seeded fields in [-0.5, 0.5], mirrored. Its eigenvectors
    stay extended, so its spectrum keeps gaps of order 1; with strong
    disorder (couplings in [0.5, 1.5]) most chains of a few hundred sites
    localize, and their mirror pairs close to within 1e-9 of the spread,
    some to a few ulp."""
    scale = rng.uniform(0.9, 1.1, n // 2)
    fields = rng.uniform(-0.5, 0.5, (n + 1) // 2)
    scale = np.concatenate((scale, scale[::-1][1 - n % 2:]))
    return chain(analytic_chain(n).coupling_array() * scale,
                 np.concatenate((fields, fields[::-1][n % 2:])))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["analytic", "uniform", "odd-gap", "fields", "disordered", "off-mirror"]),
       st.integers(4, 300), st.integers(0, 2 ** 32 - 1))
def test_sturm_newton_is_the_full_recurrence(kind, n, seed):
    """The step runs the Sturm recurrence through every pivot of the matrix
    it is given, mirror symmetric or not, and its values and the ones it
    accepts equal the oracle's bit for bit. The disordered mirror chains
    (couplings in [0.5, 1.5], fields in [-0.5, 0.5]) have mirror pairs a few
    ulp apart, or equal."""
    rng = np.random.default_rng(seed)
    if kind == "analytic":
        spec = analytic_chain(n)
    elif kind == "uniform":
        spec = uniform_chain(n)
    elif kind == "odd-gap":
        spec = random_pst_chain(rng, n)
    elif kind == "disordered":
        spec = _disordered_mirror_chain(n, seed)
    else:
        spec = _random_mirror_chain(n, rng)
        if kind == "off-mirror":
            couplings = spec.coupling_array()
            couplings[0] *= 1.0 + 1e-3
            spec = chain(couplings, spec.fields)
    diag, off = spec.field_array(), spec.coupling_array()
    assert spectral._is_mirror(diag, off) == (kind != "off-mirror")
    lam = spectral._eigenvalue_solve(diag, off)
    error = n * np.finfo(float).eps * spectral._max_abs(diag, off)
    values, accepted = sturm_newton(diag, off, lam, error)
    want, want_accepted = sturm_newton_full(diag, off, lam, error)
    assert values.tobytes() == want.tobytes()
    assert accepted.tolist() == want_accepted.tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 300), st.sampled_from(["zero", "signed-zero", "chiral-block"]),
       st.integers(0, 2 ** 32 - 1))
def test_sturm_newton_on_zero_fields_is_the_full_recurrence(n, kind, seed):
    """Pivots whose field is +0.0 take ``B_i - lambda`` from one array formed
    once; the step equals the oracle's bit for bit on zero-field chains, on
    the chiral block of one (all +0.0 but its last field), and on chains whose
    fields are +0.0 and -0.0, from their eigenvalues; and so do the sweep's
    sums and counts at +0.0 and -0.0, where the sign of ``B_i - lambda``
    follows that of ``B_i``."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.5, 1.5, n - 1)
    diag = np.zeros(n)
    if kind == "signed-zero":
        diag[rng.random(n) < 0.5] = -0.0
    elif kind == "chiral-block":
        diag[-1] = off[-1]
        off = off[:-1]
        diag = diag[1:]
    if diag.size < 1:
        return
    lam = spectral._eigenvalue_solve(diag, off)
    error = diag.size * np.finfo(float).eps * spectral._max_abs(diag, off)
    values, accepted = sturm_newton(diag, off, lam, error)
    want, want_accepted = sturm_newton_full(diag, off, lam, error)
    assert values.tobytes() == want.tobytes()
    assert accepted.tolist() == want_accepted.tolist()
    for probe in ([0.0], [-0.0], [-0.0, 0.7]):
        probe = np.array(probe)
        total, count = sturm_full(diag, off, probe)
        assert spectral._sturm_sweep(diag, off, probe, probe.size)[0].tobytes() == total.tobytes()
        assert spectral._sturm_sweep(diag, off, probe, 0)[1].tolist() == count.tolist()


def test_propagate_identity_at_time_zero():
    sd = diagonalize(analytic_chain(5))
    v = np.arange(1.0, 6.0) + 1j
    v = v / np.linalg.norm(v)
    assert np.allclose(propagate(sd, v, 0.0), v, atol=1e-14)


def test_two_level_closed_form():
    sd = diagonalize(chain([0.5]))
    e1 = np.array([1.0, 0.0], dtype=complex)
    for t in (0.3, 1.0, 2.7, math.pi):
        out = propagate(sd, e1, t)
        assert np.allclose(out, [math.cos(t / 2.0), -1j * math.sin(t / 2.0)], atol=1e-12)


def test_analytic_three_site_transfer_at_pi():
    sd = diagonalize(analytic_chain(3))
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    out = propagate(sd, e1, math.pi)
    assert abs(abs(out[2]) - 1.0) < 1e-12
    assert np.max(np.abs(out[:2])) < 1e-12


def test_gamma_self_at_zero():
    sd = diagonalize(uniform_chain(6))
    assert gamma(sd, 2, 2, 0.0) == pytest.approx(1.0)


def test_gamma_analytic_end_amplitude_law():
    for n in (3, 6):
        sd = diagonalize(analytic_chain(n))
        times = np.linspace(0.0, math.pi, 301)
        got = gamma(sd, 1, 1, times)
        assert np.max(np.abs(got - np.cos(times / 2.0) ** (n - 1))) < 1e-12


def test_uniform_four_never_transfers_perfectly():
    sd = diagonalize(uniform_chain(4))
    times = np.arange(0.0, 50.0, 1e-3)
    assert np.max(np.abs(gamma(sd, 1, 4, times))) < 1.0 - 1e-3


def test_gamma_mirror_transpose_symmetry():
    sd = diagonalize(analytic_chain(7))
    times = np.linspace(0.1, 9.0, 40)
    assert np.allclose(gamma(sd, 2, 5, times), gamma(sd, 5, 2, times), atol=1e-12)


def test_unitarity_on_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        spec = chain(rng.uniform(0.2, 1.5, n - 1), rng.uniform(-1.0, 1.0, n))
        sd = diagonalize(spec)
        src = int(rng.integers(1, n + 1))
        for t in rng.uniform(0.0, 30.0, 20):
            profile = amplitude_profile(sd, src, t)
            assert abs(np.vdot(profile, profile).real - 1.0) < 1e-10


def test_spectral_propagation_matches_expm():
    rng = np.random.default_rng(8)
    for n in (3, 9, 16):
        spec = chain(rng.uniform(0.2, 1.5, n - 1), rng.uniform(-1.0, 1.0, n))
        m = tridiagonal_dense(spec.couplings, spec.fields)
        sd = diagonalize(spec)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = v / np.linalg.norm(v)
        for t in (0.5, 4.2):
            assert np.max(np.abs(propagate(sd, v, t) - expm_evolve(m, v, t))) < 1e-9


def test_out_of_range_site_raises():
    sd = diagonalize(uniform_chain(3))
    with pytest.raises(ValueError):
        gamma(sd, 0, 3, 1.0)
    with pytest.raises(ValueError):
        gamma(sd, 1, 4, 1.0)
    for source in (0, 4):
        with pytest.raises(ValueError, match="sites must lie in 1..3"):
            amplitude_profile(sd, source, 1.0)


# --- propagate: properties on random fielded chains --------------------------

fielded_chains = st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.2, 2.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)))
times = st.floats(-15.0, 15.0)


@settings(max_examples=60, deadline=None)
@given(fielded_chains, times, times)
def test_propagate_is_unitary_and_composes(params, t1, t2):
    spec = chain(*params)
    sd = diagonalize(spec)
    eye = np.eye(spec.n)
    u1 = propagate(sd, eye, t1)
    assert np.max(np.abs(u1.conj().T @ u1 - eye)) < 1e-12
    assert np.max(np.abs(propagate(sd, u1, t2) - propagate(sd, eye, t1 + t2))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(fielded_chains, times, st.integers(0, 2 ** 32 - 1))
def test_propagate_batched_shapes_match_the_scalar_path(params, t, seed):
    spec = chain(*params)
    sd = diagonalize(spec)
    n = spec.n
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    out = propagate(sd, block, t)
    assert out.shape == (n, 3)
    for k in range(3):
        assert np.max(np.abs(out[:, k] - propagate(sd, block[:, k], t))) < 1e-13
    grid = t + np.linspace(0.0, 2.0, 5)
    rows = propagate(sd, block[:, 0], grid)
    assert rows.shape == (5, n)
    for i, tk in enumerate(grid):
        assert np.max(np.abs(rows[i] - propagate(sd, block[:, 0], tk))) < 1e-13


def _phase_bound(lam, w, t):
    """The error bound documented on ``gamma``:
    8 (max|t| max|lambda| + N + sqrt T) eps sum|w|."""
    phase = float(np.max(np.abs(t), initial=0.0)) * np.max(np.abs(lam))
    return (8.0 * (phase + lam.size + math.sqrt(np.size(t))) * np.finfo(float).eps
            * np.sum(np.abs(w)))


# a grid is (T, first time, last time); linspace makes it descending when last < first
grids = st.tuples(st.integers(0, 5000), st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))


@settings(max_examples=60, deadline=None)
@given(fielded_chains, grids, st.integers(0, 2 ** 32 - 1))
@example(([0.7, 1.2], [0.1, -0.4, 0.3]), (0, 0.0, 1.0), 0)
@example(([0.7, 1.2], [0.1, -0.4, 0.3]), (1, 3.0, 3.0), 1)
@example(([0.7, 1.2], [0.1, -0.4, 0.3]), (2, -5.0, 2.0), 2)
@example(([0.7, 1.2], [0.1, -0.4, 0.3]), (3, 7.0, -7.0), 3)
@example(([1.5] * 11, [-1.5] * 12), (5000, -1e4, 1e4), 4)
@example(([1.5] * 11, [1.5] * 12), (5000, 1e4, -1e4), 5)
def test_phase_sums_meet_the_documented_bound(params, grid, seed):
    """gamma, and the phase sum with complex weights, against a direct sum in
    extended precision on evenly spaced grids."""
    count, first, last = grid
    t = np.linspace(first, last, count)
    spec = chain(*params)
    sd = diagonalize(spec)
    rng = np.random.default_rng(seed)
    source, target = (int(k) for k in rng.integers(1, spec.n + 1, 2))
    w = sd.eigenvectors[target - 1] * sd.eigenvectors[source - 1]
    got = gamma(sd, source, target, t)
    assert got.shape == t.shape
    bound = _phase_bound(sd.eigenvalues, w, t)
    assert np.max(np.abs(got - phase_sum_direct(sd.eigenvalues, w, t)), initial=0.0) <= bound
    n = int(rng.integers(1, 65))
    lam = rng.uniform(-50.0, 50.0, n)
    wc = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = _phase_sum(lam, wc, t)
    assert got.shape == t.shape
    bound = _phase_bound(lam, wc, t)
    assert np.max(np.abs(got - phase_sum_direct(lam, wc, t)), initial=0.0) <= bound


nearly_even = np.linspace(0.0, 5.0, 50)
nearly_even[17] += 1e-9


@pytest.mark.parametrize("t", [
    np.array([0.0, 1.0, 2.5, 2.75]),
    nearly_even,
    np.array([0.0, 1.0, np.nan, 3.0]),
    np.array([np.nan, 1.0, 2.0]),
    np.array([0.0, np.inf]),
    np.array([-np.inf, 0.0, 1.0, np.inf]),
    np.array([0.0, 0.5, 1.0, np.inf]),
    np.array([2.0]),
    1.25,
    np.float64(-3.0),
    np.linspace(0.0, 3.0, 12).reshape(3, 4),
    np.linspace(0.0, 3.0, 12).reshape(2, 3, 2),
], ids=["uneven", "nearly-even", "nan-inside", "nan-first", "inf-last", "infs-both-ends",
        "inf-after-even", "one-time", "scalar", "numpy-scalar", "2-d", "3-d"])
def test_other_times_are_summed_directly(t):
    """Every time array but an evenly spaced 1-D grid keeps the direct sum,
    bit for bit, in the shape of t; gamma, which sums through it, gives that
    sum for finite times and refuses the others."""
    sd = diagonalize(chain([0.7, 1.1, 0.4], [0.1, -0.2, 0.3, 0.0]))
    w = sd.eigenvectors[3] * sd.eigenvectors[1]
    with np.errstate(invalid="ignore"):
        direct = np.exp(-1j * np.multiply.outer(t, sd.eigenvalues)) @ w
        got = _phase_sum(sd.eigenvalues, w, t)
    assert np.shape(got) == np.shape(t)
    assert np.asarray(got).tobytes() == direct.tobytes()
    if np.isfinite(t).all():
        assert np.asarray(gamma(sd, 2, 4, t)).tobytes() == direct.tobytes()
    else:
        with pytest.raises(ValueError, match="times must be finite"):
            gamma(sd, 2, 4, t)


# a grid of 2 to 1e5 times, (T, first time, last time), with times up to 1e4
long_grids = st.tuples(st.sampled_from([2, 3, 1001, 100_000]) | st.integers(2, 100_000),
                       st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))


@settings(max_examples=30, deadline=None)
@given(long_grids, st.floats(-3.0, 3.0), st.integers(1, 16), st.integers(0, 2 ** 32 - 1))
@example((100_000, 0.0, 1.0), -3.0, 2, 0)       # tiny phases: the drift of the powers shows
@example((100_000, -1e4, 1e4), 3.0, 16, 1)
@example((100_000, 1e4, 0.0), 0.0, 16, 2)
@example((2, -1e4, 1e4), 3.0, 5, 3)
@example((3, 1e4, 9999.0), -3.0, 5, 4)
def test_phase_tables_meet_the_documented_bound_on_long_grids(grid, exponent, n, seed):
    """The phase tables, filled by multiplication, against a direct sum in
    extended precision, on grids of 2 to 1e5 times up to 1e4 and eigenvalues
    of moduli from 1e-3 to 1e3: within the bound documented on ``gamma``,
    whose sqrt T term covers the drift of the powers."""
    count, first, last = grid
    t = np.linspace(first, last, count)
    rng = np.random.default_rng(seed)
    lam = 10.0 ** exponent * rng.uniform(-1.0, 1.0, n)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = _phase_sum(lam, w, t)
    assert np.max(np.abs(got - phase_sum_direct(lam, w, t))) <= _phase_bound(lam, w, t)


@pytest.mark.parametrize("t", [np.array([0.0, 1.0, 2.5, 2.75]), nearly_even],
                         ids=["uneven", "nearly-even"])
def test_propagate_sums_uneven_times_directly(t):
    """An uneven grid takes one exponential per time and eigenvalue in
    propagate too, bit for bit."""
    sd = diagonalize(chain([0.7, 1.1, 0.4], [0.1, -0.2, 0.3, 0.0]))
    v = np.array([0.2, 0.5j, -0.3, 0.6])
    coeff = sd.eigenvectors.T @ v
    direct = np.exp(-1j * np.multiply.outer(t, sd.eigenvalues)) * coeff @ sd.eigenvectors.T
    assert propagate(sd, v, t).tobytes() == direct.tobytes()


def _count_elements(monkeypatch, name):
    """Record the size of the first argument of every call of ``np.<name>``."""
    sizes = []
    real = getattr(np, name)

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, name, counted)
    return sizes


def test_an_even_grid_takes_three_exponentials_per_eigenvalue(monkeypatch):
    """gamma over an evenly spaced 1001-point grid passes 3N elements to
    np.exp in all, and propagate over it as many; an uneven grid of the
    same length, T N."""
    sd = diagonalize(analytic_chain(2000))
    w = pair_weights(sd, 1, 2000)       # the end products, once per decomposition
    small = diagonalize(analytic_chain(200))
    small.eigenvectors
    grid = np.linspace(0.0, math.pi, 1001)
    sizes = _count_elements(monkeypatch, "exp")
    gamma(sd, 1, 2000, grid)
    assert sum(sizes) <= 3 * 2000 + 8
    sizes.clear()
    propagate(small, np.eye(200)[0], grid)
    assert sum(sizes) <= 3 * 200 + 8
    sizes.clear()
    uneven = grid.copy()
    uneven[500] += 1e-6
    _phase_sum(sd.eigenvalues, w, uneven)
    assert sum(sizes) == grid.size * 2000


def test_antisymmetric_log_sums_take_one_log_per_product(monkeypatch):
    """An exactly antisymmetric spectrum takes (N/2)^2 logs; one whose
    products could leave the normal doubles takes the N/2 x N logs of its
    differences, as does the nonnegative half of no other spectrum."""
    lam = diagonalize(analytic_chain(1000)).eigenvalues
    sizes = _count_elements(monkeypatch, "log")
    spectral._log_abs_derivatives(lam)
    assert sum(sizes) == 500 ** 2
    sizes.clear()
    spectral._log_abs_derivatives(1e160 * lam)
    assert sum(sizes) == 500 * 1000
    sizes.clear()
    spectral._log_abs_derivatives(lam + 0.25)
    assert sum(sizes) == 1000 ** 2


def _log_abs_derivatives_mp(lam):
    """The log-derivative sums of ``lam`` at 34 digits, and the sums of the
    moduli of their terms."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(34):
        x = [mpmath.mpf(float(v)) for v in lam]
        sums, sizes = [], []
        for k, xk in enumerate(x):
            terms = [mpmath.log(abs(xk - xm)) for m, xm in enumerate(x) if m != k]
            sums.append(float(mpmath.fsum(terms)))
            sizes.append(float(mpmath.fsum(abs(term) for term in terms)))
    return np.array(sums), np.array(sizes)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 50), st.sampled_from([-160.0, -150.0, 150.0, 155.0]) | st.floats(-150, 150),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@example(40, -160.0, 0.5, 0)    # products below the normal doubles: the differences' logs
@example(40, 155.0, 0.0, 1)     # products above them
@example(40, 150.0, 0.5, 2)
@example(40, -150.0, 0.0, 3)
@example(1, 0.0, 0.0, 4)
def test_log_sums_of_antisymmetric_spectra_match_mpmath(m, exponent, clustered, seed):
    """The log-derivative sums of an antisymmetric spectrum of N = 2m <= 100
    values of moduli near 10^exponent, a share ``clustered`` of its gaps a
    1e-12 part of the values, are finite and within 4 eps of the sum of the
    moduli of their terms of 34-digit sums; summed over every row, one log
    per difference, the library's sums came within 1.9 eps of it."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.5, 2.0, m)
    steps[rng.random(m) < clustered] = 1e-12 * (m + 1)
    mu = 10.0 ** exponent * np.cumsum(steps)
    lam = np.concatenate((-mu[::-1], mu))
    assume(np.all(np.diff(lam) > 0.0))
    got = spectral._log_abs_derivatives(lam)
    want, size = _log_abs_derivatives_mp(lam)
    assert np.isfinite(got).all()
    assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * size)


@settings(max_examples=40, deadline=None)
@given(fielded_chains)
def test_certificate_carries_the_decomposition(params):
    spec = chain(*params)
    cert = certify_pst(spec)
    sd = diagonalize(spec)
    assert np.array_equal(cert.spectrum.eigenvalues, sd.eigenvalues)
    assert np.array_equal(cert.spectrum.eigenvectors, sd.eigenvectors)


def test_propagate_rejects_mismatched_shapes():
    sd = diagonalize(analytic_chain(4))
    with pytest.raises(ValueError):
        propagate(sd, np.ones(3), 1.0)
    with pytest.raises(ValueError):
        propagate(sd, np.ones((4, 2)), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        propagate(sd, np.ones(4), np.ones((2, 2)))


# --- the mirror theorem: alternating eigenvector symmetry --------------------

def _mirrored(half_j, half_b, n):
    """Chain of n sites whose couplings and fields repeat in mirror order."""
    j = list(half_j[:n // 2]) + list(half_j[:(n - 1) // 2])[::-1]
    b = list(half_b[:(n + 1) // 2]) + list(half_b[:n // 2])[::-1]
    return chain(j, b)


def _random_mirror_chains(sizes):
    return sizes.flatmap(lambda n: st.builds(
        _mirrored,
        st.lists(st.floats(0.2, 2.0), min_size=n // 2, max_size=n // 2),
        st.lists(st.floats(-1.5, 1.5), min_size=(n + 1) // 2, max_size=(n + 1) // 2),
        st.just(n)))


random_mirror_chains = _random_mirror_chains(st.integers(2, 40))
long_mirror_chains = _random_mirror_chains(st.integers(129, 168))
lattice_chains = st.builds(
    lambda seed, n: random_pst_chain(np.random.default_rng(seed), n),
    st.integers(0, 2 ** 32 - 1), st.integers(2, 40))


def _resolved(lam):
    """The levels an eigenvector solve resolves to 1e-9, those further than
    1e-5 of the spread from both neighbours (an eigenvector is accurate to
    eps * |H| / gap; edge pairs of dimerized chains come closer)."""
    gaps = np.diff(lam)
    nearest = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    return nearest > 1e-5 * (lam[-1] - lam[0])


def _row_sum_norm(spec):
    """``||T||_inf`` of a chain's single-excitation matrix."""
    rows = np.abs(spec.field_array())
    rows[:-1] += np.abs(spec.coupling_array())
    rows[1:] += np.abs(spec.coupling_array())
    return float(np.max(rows))


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_mirror_chains, lattice_chains))
def test_mirror_chains_have_alternating_eigenvectors(spec):
    # Hochstadt 1974, Hald 1976: the eigenvector of the k-th lowest of the N
    # eigenvalues is symmetric when N - 1 - k is even and antisymmetric when
    # it is odd; certify_pst relies on this instead of checking it.
    assert spec.couplings == spec.couplings[::-1] and spec.fields == spec.fields[::-1]
    sd = diagonalize(spec)
    lam = sd.eigenvalues
    n = spec.n
    resolved = _resolved(lam)
    parity = (-1.0) ** (n - 1 - np.arange(n))
    asym = np.max(np.abs(sd.eigenvectors[::-1, :] - parity * sd.eigenvectors), axis=0)
    assert np.all(asym[resolved] < 1e-9)
    if resolved[-1]:
        top = sd.eigenvectors[:, -1]
        assert np.max(np.abs(top[::-1] - top)) < 1e-9
    cert = certify_pst(spec)
    if cert.perfect:
        e1 = np.eye(n)[:, 0]
        m = tridiagonal_dense(spec.couplings, spec.fields)
        arrival = expm_evolve(m, e1, cert.t0)[-1]
        assert abs(arrival) >= 1.0 - ARRIVAL_TOL


# --- mirror-symmetric chains ------------------------------------------------

def _cut(spec, k):
    """The chain with coupling ``k`` and its mirror image set to zero."""
    j = list(spec.couplings)
    j[k] = j[-1 - k] = 0.0
    return chain(j, spec.fields)


cut_mirror_chains = st.one_of(random_mirror_chains, lattice_chains).flatmap(
    lambda spec: st.builds(_cut, st.just(spec), st.integers(0, spec.n - 2)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_mirror_chains, _random_mirror_chains(st.integers(2, 3)),
                 lattice_chains, cut_mirror_chains, long_mirror_chains))
# the top two levels lie 2e-15 apart and come back with the antisymmetric one
# last, against the parity order of the mirror theorem
@example(_mirrored([2.0, 1.0, 1.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.5, 0.25],
                   [1.0] + [0.0] * 10, 21))
def test_folded_solves_match_the_unfolded_oracle(spec):
    lam, vec = unfolded_decomposition(spec)
    sd = diagonalize(spec)
    scale = max(np.max(np.abs(spec.coupling_array())), np.max(np.abs(spec.field_array())))
    assert np.max(np.abs(sd.eigenvalues - lam)) <= 1e-12 * scale
    assert np.array_equal(sd.eigenvectors, vec)
    # each sterf solve is off by up to about N eps ||T||; at N = 3 the unfolded
    # one alone exceeds N eps max|T|, so the bound takes the row-sum norm
    values = diagonalize(spec).eigenvalues
    assert np.max(np.abs(values - unfolded_eigenvalues(spec))) <= (
        2 * spec.n * np.finfo(float).eps * _row_sum_norm(spec))


# --- one solver at every size ---------------------------------------------------

def _random_chain(seed, n, mirror, fields):
    """A chain of n sites with couplings in [0.2, 2] and, if ``fields``,
    fields in [-1.5, 1.5]; if ``mirror``, repeated in mirror order."""
    rng = np.random.default_rng(seed)
    j = rng.uniform(0.2, 2.0, n - 1).tolist()
    b = rng.uniform(-1.5, 1.5, n).tolist() if fields else [0.0] * n
    return _mirrored(j, b, n) if mirror else chain(j, b)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 160), st.booleans(), st.booleans())
@example(0, 128, True, True)
@example(1, 129, True, False)
@example(2, 128, False, True)
def test_solves_of_every_size_match_the_unfolded_lapack_oracle(seed, n, mirror, fields):
    """The library's solves, of the chiral block or of the whole operator,
    give the eigenvalues of one unfolded sterf solve within 2 N eps
    ||T||_inf, the eigenvector columns of one unfolded stevd solve bit for
    bit, and end products that match the eigenvector end rows within
    1e-13 max(1, 2 / smallest gap)."""
    spec = _random_chain(seed, n, mirror, fields)
    lam, vec = unfolded_decomposition(spec)
    sd = diagonalize(spec)
    assert sd.eigenvalues.tobytes() == diagonalize(spec).eigenvalues.tobytes()
    assert np.max(np.abs(sd.eigenvalues - unfolded_eigenvalues(spec))) <= (
        2 * n * np.finfo(float).eps * _row_sum_norm(spec))
    assert np.array_equal(sd.eigenvectors, vec)
    gap = float(np.min(np.diff(sd.eigenvalues)))
    if gap > 0.0:           # the edge pairs of long mirror chains can coincide
        want = vec[0] * vec[-1]
        got = end_products(spec.coupling_array(), sd.eigenvalues)
        assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, 2.0 / gap)


def _chain_of_kind(kind, n, seed, fields):
    """A chain of n sites: the analytic or the storage chain (the bare site if
    n = 1), or a seeded random chain in or out of mirror order; with
    ``fields``, seeded fields, in mirror order but on the storage chain."""
    if kind in ("analytic", "storage"):
        design = analytic_chain if kind == "analytic" else sequential_storage_chain
        couplings = design(n).couplings if n > 1 else ()
        return chain(couplings, _random_chain(seed, n, kind == "analytic", fields).fields)
    return _random_chain(seed, n, kind == "mirror", fields)


@pytest.mark.parametrize("kind", ["analytic", "storage", "mirror", "off-mirror"])
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 130), st.integers(0, 2 ** 32 - 1), st.booleans())
@example(1, 0, False)
@example(1, 0, True)
@example(2, 0, False)
@example(2, 0, True)
def test_every_size_is_solved_within_the_dense_numpy_solve(kind, n, seed, fields):
    """LAPACK solves chains of every size, the one-site chain and the two-site
    chains among them; numpy.linalg, which the library never calls for a
    chain, solves the dense matrix as an independent oracle. The eigenvalues
    lie within 8 N eps max|T| of its eigvalsh, and the eigenvectors pass the
    residual bound of diagonalize, 1e-10 max|T|."""
    spec = _chain_of_kind(kind, n, seed, fields)
    dense = tridiagonal_dense(spec.couplings, spec.fields)
    scale = spectral._max_abs(spec.field_array(), spec.coupling_array())
    sd = diagonalize(spec)
    assert np.max(np.abs(sd.eigenvalues - np.linalg.eigvalsh(dense))) <= (
        8 * n * np.finfo(float).eps * scale)
    vec = sd.eigenvectors
    assert np.max(np.abs(dense @ vec - vec * sd.eigenvalues)) <= 1e-10 * scale
    assert sd.residual <= 1e-10 * scale


def test_lapack_loader_names_the_directory_it_searched(monkeypatch, tmp_path):
    """With no LAPACK extension where scipy should be, the loader raises
    ImportError; it has no other path to a solver."""
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: importlib.machinery.ModuleSpec(
        name, None, origin=str(tmp_path / "__init__.py")))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        spectral._lapack()


def test_decomposition_keeps_the_residual_it_was_checked_by():
    spec = analytic_chain(64)
    sd = diagonalize(spec)
    diag, off = spec.field_array(), spec.coupling_array()
    v, lam = sd.eigenvectors, sd.eigenvalues
    r = diag[:, None] * v
    r -= v * lam[None, :]
    r[:-1] += off[:, None] * v[1:]
    r[1:] += off[:, None] * v[:-1]
    assert sd.residual == float(np.max(np.abs(r)))
    assert sd.residual <= 1e-10 * np.max(off)


# --- the chiral fold of even zero-field mirror chains ---------------------------

def _odd_gap_chiral_chain(m, seed):
    """The chain of 2m sites designed from a seeded antisymmetric spectrum
    whose gaps, the centre gap included, are 1 or 3: perfect at t0 = pi."""
    rng = np.random.default_rng(seed)
    steps = np.cumsum(1 + 2 * rng.integers(0, 2, m - 1))
    pos = 0.5 * (1 + 2 * rng.integers(0, 2)) + np.concatenate(([0.0], steps))
    return chain_from_spectrum(target_spectrum(np.concatenate((-pos[::-1], pos)),
                                               antisymmetric=True))


def _chiral_chain(kind, m, seed):
    """An exactly mirror-symmetric chain of 2m sites with zero fields."""
    n = 2 * m
    if kind == "random":
        return _random_chain(seed, n, True, False)
    if kind == "analytic":
        return analytic_chain(n)
    if kind == "uniform":
        return uniform_chain(n)
    return _odd_gap_chiral_chain(m, seed)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["random", "analytic", "uniform"]), st.integers(1, 64),
       st.integers(0, 2 ** 32 - 1))
@example("analytic", 1, 0)
@example("random", 2, 0)
@example("uniform", 64, 0)
def test_even_zero_field_mirror_chains_of_any_length_solve_the_chiral_block(kind, m, seed):
    """Every even zero-field mirror chain, however short, passes only its
    m-row chiral block to the eigenvalue solver and hands out an exactly
    antisymmetric spectrum within 8 N eps max|T| of one unfolded sterf solve.
    On a designed chain where the Newton gate opens on the gaps of its design
    spectrum, the block goes to the Newton step alone, with no sterf; on any
    other, to sterf, and to the step where the gate opens on sterf's
    spectrum."""
    spec = _chiral_chain(kind, m, seed)
    sizes = {"_eigenvalue_solve": [], "sturm_newton": []}

    def counted(name):
        true_solve = getattr(spectral, name)

        def solve(diag, off, *args):
            sizes[name].append(diag.size)
            return true_solve(diag, off, *args)
        return solve

    with pytest.MonkeyPatch.context() as patched:
        for name in sizes:
            patched.setattr(spectral, name, counted(name))
        lam = diagonalize(spec).eigenvalues
    design = getattr(spec, "_design_spectrum", None)
    error = spec.n * np.finfo(float).eps * max(spec.couplings)
    gated = design is not None and error > spectral.NEWTON_GATE * np.min(np.diff(design))
    if gated:
        assert sizes == {"_eigenvalue_solve": [], "sturm_newton": [m]}
    else:
        assert sizes["_eigenvalue_solve"] == [m] and sizes["sturm_newton"] in ([], [m])
    assert lam.tobytes() == (-lam[::-1]).tobytes()
    bound = 8 * spec.n * np.finfo(float).eps * max(spec.couplings)
    assert np.max(np.abs(lam - unfolded_eigenvalues(spec))) <= bound


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["random", "analytic", "uniform", "odd-gap"]),
       st.integers(65, 200), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.3, 3.0, 7.5]))
@example("analytic", 500, 0, 3.0)
@example("odd-gap", 1000, 1, 0.3)
def test_chiral_fold_matches_the_full_spectrum_oracles(kind, m, seed, kappa):
    """An even zero-field mirror chain of over 128 sites hands out an exactly
    antisymmetric spectrum, within 2 N eps ||T||_inf of one unfolded sterf
    solve and of the solve of both mirror blocks. Solved by sterf, as a copy
    with no design spectrum is, it is the moduli of the eigenvalues of the
    chiral block, after the oracle's Newton step where the gate opens, and
    their negatives, bit for bit; a refined spectrum agrees with the oracle's
    step on the whole spectrum to 8 ulp of max|lambda| on every level that
    step accepts and an eigenvector solve resolves. A designed chain's
    spectrum is within N eps max|T| of its copy's. Its end products agree
    with the sums of every row, and the verdict does not depend on the energy
    scale."""
    spec = _chiral_chain(kind, m, seed)
    n = spec.n
    diag, off = spec.field_array(), spec.coupling_array()
    lam = diagonalize(replace(spec)).eigenvalues
    designed = diagonalize(spec).eigenvalues
    error = n * np.finfo(float).eps * spectral._max_abs(diag, off)
    assert designed.tobytes() == (-designed[::-1]).tobytes()
    assert np.max(np.abs(designed - lam)) <= error
    assert lam.tobytes() == (-lam[::-1]).tobytes()
    bound = 2 * n * np.finfo(float).eps * _row_sum_norm(spec)
    for got in (lam, designed):
        assert np.max(np.abs(got - unfolded_eigenvalues(spec))) <= bound
        assert np.max(np.abs(got - folded_eigenvalues(diag, off))) <= bound

    # the chiral block: the leading m rows, with J_m on the last diagonal entry;
    # folded_eigenvalues solves it as the library does a matrix of m rows
    block, block_off = np.zeros(m), off[:m - 1]
    block[-1] = off[m - 1]
    s = folded_eigenvalues(block, block_off)
    pos = np.sort(np.abs(s))
    refined = error > spectral.NEWTON_GATE * np.min(np.diff(np.concatenate((-pos[::-1], pos))))
    if refined:
        pos = np.sort(np.abs(sturm_newton_full(block, block_off, s, error)[0]))
    assert lam.tobytes() == np.concatenate((-pos[::-1], pos)).tobytes()
    # the mirror pairs of disordered chains come within a few ulp, where the
    # step on the whole spectrum resolves neither level, or accepts neither
    whole, accepted = sturm_newton_full(diag, off, unfolded_eigenvalues(spec), error)
    if refined:
        deviation = np.abs(lam - whole)[accepted & _resolved(lam)]
        assert np.max(deviation, initial=0.0) <= 8 * np.spacing(np.max(np.abs(lam)))

    gap = float(np.min(np.diff(lam)))
    if gap > 0.0:
        got = end_products(off, lam)
        assert np.max(np.abs(got - end_products_full(off, lam))) < 1e-13 * max(1.0, 2.0 / gap)

    cert = certify_pst(spec)
    scaled = certify_pst(rescale(spec, kappa))
    assert scaled.verdict == cert.verdict
    assert cert.perfect == (kind in ("analytic", "odd-gap"))
    if cert.perfect:
        assert scaled.t0 == pytest.approx(cert.t0 / kappa, rel=1e-12)


def _certify_by_the_fold_oracles(monkeypatch, spec):
    """The certificate of a fresh copy of ``spec`` solved whole: with the
    eigenvalues of both mirror blocks, the Newton step on the whole spectrum
    and the end products of every row's sum, as the library took them before
    the chiral fold."""
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_chiral_block", lambda diag, off: None)
        patched.setattr(spectral, "_eigenvalue_solve", folded_eigenvalues)
        patched.setattr(spectral, "_log_abs_derivatives", log_abs_derivatives)
        return certify_pst(replace(spec))


@pytest.mark.parametrize("spec", [
    analytic_chain(130), analytic_chain(1000), uniform_chain(130),
    near_uniform_chain(200, 0.5)[0], _odd_gap_chiral_chain(100, 7), _odd_gap_chiral_chain(500, 8),
], ids=["analytic-130", "analytic-1000", "uniform-130", "near-uniform-200", "odd-gap-200",
        "odd-gap-1000"])
def test_chiral_fold_keeps_the_verdicts_of_the_fold(monkeypatch, spec):
    """Verdict and reason are those of the solve of both mirror blocks, and
    a perfect chain keeps its t0 to 16 ulp."""
    want = _certify_by_the_fold_oracles(monkeypatch, spec)
    got = certify_pst(replace(spec))
    assert (got.verdict, got.reason) == (want.verdict, want.reason)
    if want.perfect:
        assert abs(got.t0 - want.t0) <= 16 * np.spacing(want.t0)


def _with_field(n, field):
    """The analytic chain of n sites with ``field`` on every site."""
    return chain(analytic_chain(n).couplings, [field] * n)


@pytest.mark.parametrize("spec", [
    analytic_chain(129), analytic_chain(131), analytic_chain(1001),
    _with_field(130, 0.25), _with_field(1000, 0.25),
    near_uniform_chain(201, 0.5)[0], random_pst_chain(np.random.default_rng(23), 201),
], ids=["analytic-129", "analytic-131", "analytic-1001", "field-130", "field-1000",
        "near-uniform-201", "odd-gap-201"])
def test_whole_operator_solve_keeps_the_verdicts_of_the_two_block_fold(monkeypatch, spec):
    """Mirror chains with no chiral block reach sterf whole; verdict and
    reason are those of the solve of both mirror blocks stacked, and a
    perfect chain keeps its t0 to 16 ulp."""
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_eigenvalue_solve", folded_eigenvalues)
        want = certify_pst(replace(spec))
    got = certify_pst(replace(spec))
    assert (got.verdict, got.reason) == (want.verdict, want.reason)
    if want.perfect:
        assert abs(got.t0 - want.t0) <= 16 * np.spacing(want.t0)


# --- eigenvalues at once, eigenvectors on first read ---------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 300), st.booleans(), st.booleans())
@example(0, 300, True, True)
@example(1, 300, False, False)
@example(2, 128, True, True)
def test_lazy_decomposition_matches_the_eager_oracle(seed, n, mirror, fields):
    """The eager oracle is one LAPACK stevd solve of the whole operator, which
    the first read must give bit for bit at every size, mirror symmetric or
    not; the dense numpy.linalg.eigh solve, an independent solver, must
    match it on resolved columns, each aligned to the stevd column's sign."""
    spec = _random_chain(seed, n, mirror, fields)
    lam, vec = unfolded_decomposition(spec)
    dense_lam, dense_vec = dense_decomposition(spec)
    # two solvers may return a column with either sign
    dense_vec = dense_vec * np.where(np.sum(dense_vec * vec, axis=0) < 0.0, -1.0, 1.0)
    error = np.max(np.abs(dense_vec - vec), axis=0)
    assert np.all(error[_resolved(dense_lam)] <= 1e-9)
    sd = diagonalize(spec)
    values = sd.eigenvalues.tobytes()
    assert np.max(np.abs(sd.eigenvalues - lam)) <= 2 * n * np.finfo(float).eps * (
        _row_sum_norm(spec))
    # the end products and the eigenvector rows both lose accuracy as
    # eps max|T| / (smallest gap), as in test_end_products_match_the_eigenvector_end_rows;
    # the edge pairs of long mirror chains can coincide in floating point
    gap = float(np.min(np.diff(sd.eigenvalues)))
    conditioning = max(1.0, 2.0 / gap) if gap > 0.0 else math.inf
    times = np.linspace(0.0, 20.0, 201)
    pairs = [(1, n), (n, 1)] + ([(1, 1), (n, n)] if mirror else [])
    for source, target in pairs:
        want = vec[target - 1] * vec[source - 1]
        assert np.max(np.abs(pair_weights(sd, source, target) - want)) < 1e-13 * conditioning
        got = gamma(sd, source, target, times)
        direct = phase_sum_direct(sd.eigenvalues, want, times)
        bound = 1e-13 * conditioning + _phase_bound(sd.eigenvalues, want, times)
        assert np.max(np.abs(got - direct)) <= bound
    scale = max(np.max(np.abs(spec.coupling_array())), np.max(np.abs(spec.field_array())))
    # the first read runs the eager solve and keeps the eigenvalues handed out
    assert np.array_equal(sd.eigenvectors, vec)
    assert sd.eigenvalues.tobytes() == values
    assert sd.residual <= 1e-10 * scale


@pytest.fixture
def no_eigenvector_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvector solve was made")

    monkeypatch.setattr(spectral, "_eigenvector_solve", refuse)
    monkeypatch.setattr(spectral._lapack(), "dstevd", refuse)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)


def test_end_amplitude_of_a_long_chain_reads_no_eigenvectors(no_eigenvector_solve):
    """gamma_N(t) = (-i sin(t/2))^(N-1) on the analytic chain, in O(N) memory:
    the N x N eigenvectors alone would take 32 MB."""
    n = 2000
    grid = np.linspace(0.0, 2.0 * math.pi, 1001)
    spec = analytic_chain(n)
    tracemalloc.start()
    try:
        amps = gamma(diagonalize(spec), 1, n, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert np.max(np.abs(amps - (-1j * np.sin(grid / 2.0)) ** (n - 1))) < 1e-10


@pytest.mark.parametrize("couplings, fields", [
    ([0.7, -1.1, 0.4, 0.9], [0.1, -0.2, 0.3, 0.0, 0.2]),
    ([0.7, 0.0, 0.4, 0.9], [0.1, -0.2, 0.3, 0.0, 0.2]),
    ([0.7, -1.1, -1.1, 0.7], [0.1, -0.2, 0.3, -0.2, 0.1]),
    ([0.7, 1.1, 0.0, 1.1, 0.7], [0.0] * 6),
], ids=["negative", "zero", "negative-mirror", "zero-mirror"])
def test_chains_without_positive_couplings_read_the_eigenvectors(monkeypatch, couplings,
                                                                 fields):
    solves = []
    true_solver = spectral._eigenvector_solve

    def counted(diag, off):
        solves.append(len(diag))
        return true_solver(diag, off)

    monkeypatch.setattr(spectral, "_eigenvector_solve", counted)
    spec = chain(couplings, fields)
    n = spec.n
    sd = diagonalize(spec)
    m = tridiagonal_dense(spec.couplings, spec.fields)
    times = np.linspace(0.0, 10.0, 41)
    for source, target in ((1, n), (n, 1), (1, 1), (n, n)):
        start = np.eye(n)[:, source - 1]
        want = [expm_evolve(m, start, t)[target - 1] for t in times]
        assert np.max(np.abs(gamma(sd, source, target, times) - want)) < 1e-12
    assert solves == [n]


def _corrupted_end_products(monkeypatch, corrupt):
    true_products = spectral.end_products

    def corrupted(couplings, eigenvalues):
        products = true_products(couplings, eigenvalues)
        corrupt(products)
        return products

    monkeypatch.setattr(spectral, "end_products", corrupted)


def test_a_corrupted_end_weight_trips_the_orthogonality_check(monkeypatch):
    def corrupt(products):
        products[3] *= 1.0 + 1e-6

    _corrupted_end_products(monkeypatch, corrupt)
    sd = diagonalize(chain([0.7, 1.1, 0.4, 0.9], [0.1, -0.2, 0.3, 0.0, 0.2]))
    with pytest.raises(ArithmeticError, match="orthogonal"):
        gamma(sd, 1, 5, 1.0)


def test_scaled_end_weights_trip_the_norm_check_of_a_mirror_chain(monkeypatch):
    """Scaling every product keeps rows 1 and N orthogonal, but not row 1 of
    unit length."""
    def corrupt(products):
        products *= 1.0 + 1e-6

    _corrupted_end_products(monkeypatch, corrupt)
    sd = diagonalize(analytic_chain(6))
    with pytest.raises(ArithmeticError, match="orthogonal"):
        gamma(sd, 1, 1, 1.0)


# --- eigenvectors as LAPACK returns them ----------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 80), st.booleans(), st.booleans())
@example(0, 2, True, False)
@example(1, 80, False, True)
def test_amplitudes_do_not_depend_on_the_signs_of_eigenvectors(seed, n, mirror, fields):
    """Negating column k negates each coefficient sum_s v_sk psi_s exactly,
    and (-a)(-b) rounds as ab, so the propagator and the amplitudes of a
    real chain come out bit for bit the same with any column signs: the
    library fixes no sign of an eigenvector."""
    sd = diagonalize(_random_chain(seed, n, mirror, fields))
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], n)
    flipped = spectral.SpectralDecomposition(sd.eigenvalues, sd.eigenvectors * signs,
                                             sd.residual)
    t = float(rng.uniform(-20.0, 20.0))
    grid = np.linspace(0.0, 20.0, 41)
    block = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    state = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    source = int(rng.integers(1, n + 1))
    for got, want in [(propagate(flipped, block, t), propagate(sd, block, t)),
                      (propagate(flipped, state, grid), propagate(sd, state, grid)),
                      (amplitude_profile(flipped, source, t), amplitude_profile(sd, source, t))]:
        assert got.tobytes() == want.tobytes()
    if n >= 3:      # an interior site reads the eigenvectors on both sides
        assert (gamma(flipped, 2, source, grid).tobytes()
                == gamma(sd, 2, source, grid).tobytes())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 80))
def test_amplitudes_of_a_hermitian_operator_do_not_depend_on_eigenvector_phases(seed, n):
    """Unit phases on the columns of a complex Hermitian operator cancel in
    V exp(-i L t) V^dag up to rounding."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = h + h.conj().T
    sd = diagonalize(h)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    phased = spectral.SpectralDecomposition(sd.eigenvalues, sd.eigenvectors * phases,
                                            sd.residual)
    t = float(rng.uniform(-20.0, 20.0))
    block = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    bound = 1e-13 * np.max(np.abs(h))
    assert np.max(np.abs(propagate(phased, block, t) - propagate(sd, block, t))) <= bound
    grid = np.linspace(0.0, 20.0, 41)
    assert np.max(np.abs(gamma(phased, 1, n, grid) - gamma(sd, 1, n, grid))) <= bound


# --- designed chains: the design spectrum in place of sterf --------------------

def _odd_gap_chain(n, seed):
    """The zero-field mirror chain of n sites designed from a seeded
    antisymmetric spectrum whose gaps are 1 or 3 (for odd n, 0 and values
    whose gaps, the one from 0 included, are 1 or 3): perfect at t0 = pi."""
    if n % 2 == 0:
        return _odd_gap_chiral_chain(n // 2, seed)
    rng = np.random.default_rng(seed)
    pos = np.cumsum(1 + 2 * rng.integers(0, 2, n // 2)).astype(float)
    return chain_from_spectrum(target_spectrum(np.concatenate((-pos[::-1], [0.0], pos)),
                                               antisymmetric=True))


_DESIGNERS = {
    "analytic": analytic_chain,
    "uniform": uniform_chain,
    "storage": sequential_storage_chain,
    "odd-gap": lambda n: _odd_gap_chain(n, n),
    "lattice": lambda n: random_pst_chain(np.random.default_rng(n), n),
    "near-uniform": lambda n: near_uniform_chain(n, 0.5)[0],
}


def _step_bound(spec):
    """``N eps max|T|``, the a-priori error of the eigenvalues and the bound
    on their Newton step."""
    return spec.n * np.finfo(float).eps * spectral._max_abs(spec.field_array(),
                                                            spec.coupling_array())


def _refuse_sterf(diag, off):
    raise AssertionError(f"sterf solved {diag.size} rows of a designed chain")


def _gate_opens(spec):
    """Whether the Newton gate opens on the gaps of the chain's design spectrum."""
    return _step_bound(spec) > spectral.NEWTON_GATE * np.min(np.diff(spec._design_spectrum))


@pytest.mark.parametrize("kind, n", [
    ("analytic", 136), ("analytic", 201), ("analytic", 1000), ("analytic", 1001),
    ("uniform", 52), ("uniform", 61), ("uniform", 100), ("uniform", 1000), ("uniform", 1001),
    ("uniform", 1008), ("uniform", 2000),
    ("storage", 136), ("storage", 201), ("storage", 1001),
    ("odd-gap", 200), ("odd-gap", 201), ("lattice", 200), ("lattice", 201),
    ("near-uniform", 100), ("near-uniform", 101),
])
def test_designed_chains_solve_no_sterf_where_the_gate_opens(monkeypatch, kind, n):
    """Every designer attaches the spectrum it designed the chain for, and
    where the Newton gate opens on its gaps, diagonalize checks and refines
    it with no sterf solve, even or odd N, and uniform chains with N + 1
    prime (53, 101, 1009) or not (62, 1001, 1002, 2001). A designer whose
    closed form breaks fails here, where diagonalize would fall back to sterf
    unseen. The eigenvalues lie within N eps max|T| of those of the sterf
    path, which a copy of the chain, with no design spectrum, takes."""
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_eigenvalue_solve", _refuse_sterf)
        spec = _DESIGNERS[kind](n)
        lam = diagonalize(spec).eigenvalues
    assert spec.n == n and _gate_opens(spec)
    assert np.max(np.abs(lam - diagonalize(replace(spec)).eigenvalues)) <= _step_bound(spec)


@pytest.mark.parametrize("design, n, kappa", [(analytic_chain, 2000, 0.5),
                                               (uniform_chain, 1000, -2.0)],
                         ids=["analytic-half", "uniform-negative"])
def test_a_rescaled_designed_chain_keeps_its_design(monkeypatch, design, n, kappa):
    """rescale scales the design spectrum with the chain, reversed for a
    negative kappa, so the rescaled chain is solved with no sterf, within
    N eps max|T| of a copy with no design spectrum."""
    scaled = rescale(design(n), kappa)
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_eigenvalue_solve", _refuse_sterf)
        lam = diagonalize(scaled).eigenvalues
    assert np.max(np.abs(lam - diagonalize(replace(scaled)).eigenvalues)) <= _step_bound(scaled)


def _set(lam, k, value):
    lam = lam.copy()
    lam[k] = value
    return lam


# each maps a design spectrum, an index into the values the pass starts from
# and the step bound to a corrupted design spectrum
_CORRUPTIONS = {
    "shift-by-a-gap": lambda lam, k, bound: _set(lam, k, lam[k] + (lam[k + 1] - lam[k])),
    "drop": lambda lam, k, bound: np.delete(lam, k),
    "duplicate": lambda lam, k, bound: np.insert(lam, k, lam[k]),
    "duplicate-in-place": lambda lam, k, bound: np.insert(lam, k, lam[k])[:-1],
    "nan": lambda lam, k, bound: _set(lam, k, math.nan),
    "offset-one": lambda lam, k, bound: _set(lam, k, lam[k] + 2.0 * bound),
    "offset-all": lambda lam, k, bound: lam + 2.0 * bound,
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
@pytest.mark.parametrize("kind, n", [("analytic", 1000), ("storage", 1000), ("uniform", 1001)],
                         ids=["chiral-block", "whole", "whole-odd"])
def test_a_corrupted_design_spectrum_falls_back_to_sterf(monkeypatch, corruption, kind, n):
    """A design spectrum that is not the chain's (a value moved by a gap or
    by twice the step bound, a value dropped, duplicated or NaN, or every
    value offset by twice the step bound) sends the chain to sterf, and its
    eigenvalues are those of the chain with no design spectrum, bit for bit.
    Index 501 is odd, so the chiral block starts from it."""
    spec = _DESIGNERS[kind](n)
    corrupted = _designed(replace(spec), _CORRUPTIONS[corruption](
        np.array(spec._design_spectrum), n // 2 + 1, _step_bound(spec)))
    sizes = []
    true_solve = spectral._eigenvalue_solve

    def counted(diag, off):
        sizes.append(diag.size)
        return true_solve(diag, off)

    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_eigenvalue_solve", counted)
        got = diagonalize(corrupted).eigenvalues
    assert sizes == [n // 2 if kind == "analytic" else n]
    assert got.tobytes() == diagonalize(replace(spec)).eigenvalues.tobytes()


@pytest.mark.parametrize("kind, n", [("analytic", 1000), ("storage", 1000), ("uniform", 1001)])
def test_a_design_off_by_less_than_the_step_bound_is_refined(monkeypatch, kind, n):
    """The fallback above is the checks' doing: every value offset by a
    quarter of the step bound is still refined, with no sterf, to within the
    bound of the sterf path."""
    spec = _DESIGNERS[kind](n)
    bound = _step_bound(spec)
    shifted = _designed(replace(spec), spec._design_spectrum + 0.25 * bound)
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_eigenvalue_solve", _refuse_sterf)
        got = diagonalize(shifted).eigenvalues
    assert np.max(np.abs(got - diagonalize(replace(spec)).eigenvalues)) <= bound


def test_sturm_newton_refuses_two_start_values_on_one_eigenvalue():
    """Start values that each lie within rounding of an eigenvalue, two of
    them of the same one, pass the step bound, but not the Sturm counts:
    one eigenvalue lies between no pair of separators, so at most one of the
    two is accepted, and every value whose separators the two do not move
    is."""
    spec = uniform_chain(300)
    diag, off = spec.field_array(), spec.coupling_array()
    lam = unfolded_eigenvalues(spec)
    bound = _step_bound(spec)
    assert sturm_newton(diag, off, lam, bound)[1].all()
    for k in (0, 150, 298):
        start = lam.copy()
        start[k], start[k + 1] = lam[k] - 1e-14, lam[k] + 1e-14
        accepted = sturm_newton(diag, off, start, bound)[1]
        assert not accepted[k:k + 2].all()
        assert accepted[:max(k - 1, 0)].all() and accepted[k + 3:].all()


def test_each_check_of_sturm_newton_refuses_on_its_own(monkeypatch):
    """The Sturm counts, the step bound and the intervals each refuse a start
    that the other two let through: counts a sweep reports off by one, which
    refuse the two values beside that separator and no other, and start
    values 0.45 of the unit gap high on the analytic chain, whose eigenvalues
    then still lie between their separators: their Newton steps break the
    step bound, and under an infinite bound those of the middle of the band,
    about 2 gaps, land outside their intervals. Too few values, or a NaN
    among them, accept none. A NaN pivot counts as -1, a zero one by its
    sign."""
    spec = analytic_chain(300)
    diag, off = spec.field_array(), spec.coupling_array()
    lam = unfolded_eigenvalues(spec)
    bound = _step_bound(spec)
    assert sturm_newton(diag, off, lam, bound)[1].all()
    assert sturm_newton(diag, off, lam, math.inf)[1].all()
    for start in (lam[:-1], _set(lam, 7, math.nan), lam[:1]):
        values, accepted = sturm_newton(diag, off, start, bound)
        assert values.tobytes() == start.tobytes() and not accepted.any()
    high = lam + 0.45
    sep = np.concatenate(([high[0] - 0.5], 0.5 * (high[:-1] + high[1:]), [high[-1] + 0.5]))
    assert spectral._sturm_sweep(diag, off, sep, 0)[1].tolist() == list(range(301))
    assert not sturm_newton(diag, off, high, bound)[1].any()                # the step bound
    assert not sturm_newton(diag, off, high, math.inf)[1][100:200].any()    # the intervals
    true_sweep = spectral._sturm_sweep

    def miscounted(*args):
        total, count = true_sweep(*args)
        count[150] += 1
        return total, count

    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_sturm_sweep", miscounted)
        values, accepted = sturm_newton(diag, off, lam, bound)      # the counts
    assert np.flatnonzero(~accepted).tolist() == [149, 150]
    assert values[149:151].tobytes() == lam[149:151].tobytes()
    # a zero coupling and a zero pivot give 0/0: the count is -1, not a number of pivots
    total, count = spectral._sturm_sweep(np.zeros(3), np.array([0.0, 1.0]),
                                         np.array([0.0, 0.5]), 0)
    assert count.tolist() == [-1, 2] and total.size == 0     # eigenvalues -1, 0, 1
    # zero pivots count by their sign bit: at 0, between the two halves of the
    # spectrum of an even zero-field chain whose fields are +0.0 or -0.0
    for zero in (0.0, -0.0):
        assert spectral._sturm_sweep(np.full(6, zero), np.ones(5), np.zeros(1), 0)[1] == [3]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["uniform", "disordered", "fields", "chiral-block"]), st.integers(2, 300),
       st.integers(0, 2 ** 32 - 1))
def test_sturm_counts_are_the_numbers_of_eigenvalues_below(kind, n, seed):
    """At points a hundred step bounds from every eigenvalue, the number of
    negative pivots is the number of eigenvalues of the unfolded sterf solve
    below the point, and counting points behind the refined ones leaves the
    refined ones' sums bit for bit as sturm_newton has them."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        spec = uniform_chain(n)
    elif kind == "disordered":
        spec = _mirrored(rng.uniform(0.5, 1.5, n // 2), np.zeros((n + 1) // 2), n)
    else:
        spec = _random_mirror_chain(n, rng)
    diag, off = spec.field_array(), spec.coupling_array()
    if kind == "chiral-block" and n >= 4:
        m = n // 2
        diag, off = np.zeros(m), off[:m - 1]
        diag[-1] = spec.couplings[m - 1]
    lam = np.linalg.eigvalsh(tridiagonal_dense(off, diag))
    points = rng.uniform(lam[0] - 1.0, lam[-1] + 1.0, 64)
    bound = diag.size * np.finfo(float).eps * spectral._max_abs(diag, off)
    points = points[np.min(np.abs(np.subtract.outer(points, lam)), axis=1) > 100 * bound]
    total, count = spectral._sturm_sweep(diag, off, np.concatenate((lam, points)), lam.size)
    assert count.tolist() == np.searchsorted(lam, points).tolist()
    alone, none = spectral._sturm_sweep(diag, off, lam, lam.size)
    assert total.tobytes() == alone.tobytes() and none.size == 0


def _disordered_mirror_chain(n, seed):
    """A mirror chain of n sites with seeded couplings in [0.5, 1.5] and
    fields in [-0.5, 0.5]. Most such chains of a few hundred sites localize,
    and their mirror pairs close to within 1e-9 of the spread, some to a few
    ulp, where sterf can return the two levels equal."""
    rng = np.random.default_rng([n, seed])
    return _mirrored(rng.uniform(0.5, 1.5, n // 2), rng.uniform(-0.5, 0.5, (n + 1) // 2), n)


def _sterf_step(spec):
    """sturm_newton's values and the ones it accepts, from the sterf
    eigenvalues of the whole chain, with the step bound N eps max|T|."""
    diag, off = spec.field_array(), spec.coupling_array()
    return sturm_newton(diag, off, spectral._eigenvalue_solve(diag, off), _step_bound(spec))


@pytest.mark.parametrize("n, seed", [(20, 0), (37, 1), (50, 2), (64, 3), (81, 4), (100, 5)])
def test_accepted_steps_on_disordered_chains_are_within_a_few_ulp_of_mpmath(n, seed):
    """Against mpmath's eigenvalues at 34 digits, every value sturm_newton
    accepts on a disordered mirror chain lies within 4 ulp of max|lambda|,
    and every value, accepted or kept from sterf, within N eps max|T|."""
    spec = _disordered_mirror_chain(n, seed)
    values, accepted = _sterf_step(spec)
    exact, mpmath = _mpmath_eigenvalues(spec)
    error = np.array([float(abs(mpmath.mpf(float(x)) - e)) for x, e in zip(values, exact)])
    assert accepted.any()
    assert np.max(error[accepted]) <= 4 * np.spacing(np.max(np.abs(values)))
    assert np.max(error) <= _step_bound(spec)


@pytest.mark.parametrize("n", [200, 211, 224, 237, 250, 263, 276, 289, 300])
def test_close_pairs_leave_the_other_eigenvalues_refined(n):
    """On a disordered mirror chain of 200-300 sites, whose close pairs no
    separator isolates, the Newton step still refines at least 70% of the
    eigenvalues, and diagonalize hands out exactly those values."""
    spec = _disordered_mirror_chain(n, 0)
    values, accepted = _sterf_step(spec)
    assert accepted.mean() >= 0.7
    assert diagonalize(spec).eigenvalues.tobytes() == values.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_DESIGNERS)), st.integers(136, 700))
@example("analytic", 1000)
@example("uniform", 1001)
def test_designed_eigenvalues_are_the_oracle_step_from_the_design(kind, n):
    """Where the gate opens on its design spectrum, a designed chain's
    eigenvalues are the oracle's step from that spectrum, with every value
    accepted, bit for bit: on the chiral block from its alternate values from
    the top, mirrored, or on the whole chain."""
    spec = _DESIGNERS[kind](n)
    assert _gate_opens(spec)
    diag, off = spec.field_array(), spec.coupling_array()
    design = np.array(spec._design_spectrum)
    chiral = n % 2 == 0 and not diag.any() and spectral._is_mirror(diag, off)
    if chiral:
        m = n // 2
        diag, off, design = np.zeros(m), off[:m - 1], design[1::2]
        diag[-1] = spec.couplings[m - 1]
    values, accepted = sturm_newton_full(diag, off, design, _step_bound(spec))
    assert accepted.all()
    if chiral:
        pos = np.sort(np.abs(values))
        values = np.concatenate((-pos[::-1], pos))
    assert diagonalize(spec).eigenvalues.tobytes() == values.tobytes()


def _certificate_agrees(spec):
    """The certificate of a designed chain has the verdict, reason and odd
    integers of a copy with no design spectrum, and t0 within 1e-14."""
    got, want = certify_pst(spec), certify_pst(replace(spec))
    assert (got.verdict, got.reason, got.odd_integers) == (want.verdict, want.reason,
                                                         want.odd_integers)
    if want.perfect:
        assert got.t0 == pytest.approx(want.t0, rel=1e-14)


@pytest.mark.parametrize("kind, n", [
    ("analytic", 4000), ("uniform", 4000), ("odd-gap", 4000), ("lattice", 4001),
    ("near-uniform", 2000), ("near-uniform", 2001),
])
def test_large_designed_chains_keep_the_sterf_verdicts(kind, n):
    spec = _DESIGNERS[kind](n)
    assert _gate_opens(spec)
    _certificate_agrees(spec)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_DESIGNERS)), st.integers(2, 700))
@example("uniform", 2)
@example("analytic", 2)
def test_designed_chains_keep_the_sterf_verdicts(kind, n):
    """Designed and undesigned, every chain of N = 2..700 gets the same
    verdict, reason and odd integers, and t0 to 1e-14, whether or not the
    gate opens (N up to 4000 above)."""
    _certificate_agrees(_DESIGNERS[kind](n))


def _mpmath_eigenvalues(spec):
    """The eigenvalues of the chain's matrix by mpmath's dense symmetric
    solver at 34 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(34):
        a = mpmath.zeros(spec.n, spec.n)
        for i, b in enumerate(spec.fields):
            a[i, i] = mpmath.mpf(b)
        for i, j in enumerate(spec.couplings):
            a[i, i + 1] = a[i + 1, i] = mpmath.mpf(j)
        return sorted(mpmath.eigsy(a, eigvals_only=True)), mpmath


@pytest.mark.parametrize("kind, n", [("uniform", 61), ("uniform", 64), ("near-uniform", 50),
                                     ("lattice", 80), ("odd-gap", 94)])
def test_designed_eigenvalues_are_within_the_step_bound_of_mpmath(kind, n):
    """At sizes where the gate opens on the design, N <= 100, the refined
    eigenvalues lie within N eps max|T| of mpmath's at 34 digits, as those
    of the sterf path do."""
    spec = _DESIGNERS[kind](n)
    assert _gate_opens(spec)
    exact, mpmath = _mpmath_eigenvalues(spec)
    bound = _step_bound(spec)
    for lam in (diagonalize(spec).eigenvalues, diagonalize(replace(spec)).eigenvalues):
        assert max(abs(mpmath.mpf(float(x)) - e) for x, e in zip(lam, exact)) <= bound
