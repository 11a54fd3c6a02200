"""Decide whether a chain supports perfect state transfer, find the minimal
transfer time, and evaluate rate and optimality properties.

The certification logic follows the eigenvalue characterization: a
mirror-symmetric chain with positive couplings and a non-degenerate
spectrum transfers perfectly iff all consecutive spectral gaps are odd
integer multiples of a common unit pi/t0. The eigenvectors of such a
Jacobi matrix alternate between symmetric and antisymmetric down the
spectrum (Hochstadt 1974; Hald 1976), so the review's alternation
condition follows from mirror symmetry and is not checked separately.

The O(N) checks (mirror symmetry, zero and negative couplings) run first,
and the rest works on the chain's one :func:`diagonalize` decomposition.
Floating-point spectra are never exactly rational, so commensurability is
decided by continued-fraction rationalization of gap ratios followed by a
phase-residual test at the candidate t0, and every "perfect" verdict is
re-verified through ``gamma_N(t0)`` and ``gamma_1(2 t0)`` before the
certificate is issued, summed over the end weights of :func:`pair_weights`:
for any Jacobi matrix
``v_1k v_Nk = prod_i J_i / prod_{m != k} (lambda_k - lambda_m)`` (Parlett,
*The Symmetric Eigenvalue Problem*, ch. 7), so where these products are
accurate, certification reads no eigenvectors and takes O(N^2) time and
O(N) memory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np

from .chain import ChainSpec, _integral, mirror_symmetry_check
from .spectral import (_EPS, SpectralDecomposition, _has_degenerate_gap,
                       _log_abs_derivatives, _phase_sum, diagonalize, pair_weights)

ARRIVAL_TOL = 1e-8
_MULTIPLIER_GUARD = 1 << 52
# timing_window: steps of the grid of offsets over [0, t0] that brackets the
# window's edge; the most exponentials one call of its scan takes (512 KB,
# larger chunks only spill out of cache); the most offsets its refinement
# takes; and how near the level an offset's height counts as the crossing
# (4 ulp of a height near 1, as far as rounding alone moves one).
WINDOW_GRID = 4000
_WINDOW_CHUNK = 1 << 15
_SECANT_STEPS = 60
_CROSSING = 2.0 * _EPS


@dataclass(frozen=True)
class PstCertificate:
    """Verdict plus the quantities that witness it.

    For a perfect verdict, gap ``i`` of ``eigenvalues`` equals
    ``(2 * odd_integers[i] + 1) * pi / t0`` and ``t0`` is minimal;
    ``end_products`` holds the weights ``v_1k v_Nk`` that
    :func:`pair_weights` gave for the pair (1, N) and the arrival was
    verified on, and ``arrival_amplitude`` is ``gamma_N(t0)``.
    ``eigenvalues`` is ``None`` when the chain was rejected before the
    eigenvalue solve (off mirror symmetry, a zero or a negative coupling).
    ``spectrum`` is ``diagonalize(chain)``, the chain's one decomposition,
    which certification solved and whose eigenvalues are ``eigenvalues``; a
    chain rejected before the solve is diagonalized on the first read of
    ``spectrum``.
    """

    verdict: str  # "perfect" | "imperfect" | "degenerate-spectrum"
    chain: ChainSpec
    eigenvalues: np.ndarray | None = None
    end_products: np.ndarray | None = None
    t0: float | None = None
    arrival_amplitude: complex | None = None
    arrival_phase: complex | None = None
    odd_integers: tuple[int, ...] | None = None
    worst_gap_residual: float | None = None
    revival_magnitude: float | None = None
    reason: str | None = None

    def __post_init__(self):
        for values in (self.eigenvalues, self.end_products):
            if values is not None:
                values.flags.writeable = False

    @property
    def spectrum(self) -> SpectralDecomposition:
        return diagonalize(self.chain)

    @cached_property
    def end_weights(self) -> np.ndarray:
        """End-site weights |v_1k|^2: the magnitudes of the end products on a
        perfect chain, else the self weights of site 1 in the decomposition,
        which :func:`pair_weights` takes from the spectrum where it can."""
        if self.perfect:
            w = np.abs(self.end_products)
        else:
            w = pair_weights(self.spectrum, 1, 1)
        w.flags.writeable = False
        return w

    @property
    def perfect(self) -> bool:
        return self.verdict == "perfect"


@dataclass(frozen=True)
class RateReport:
    """Residue-class sums of the end weights and the resulting revival rate."""

    M: int
    residue_sums: np.ndarray
    equal: bool
    achievable_rate: float | None
    max_gamma_at_submultiples: float


@dataclass(frozen=True)
class OptimalityReport:
    j_max: float
    j_half: float | None
    coupling_bound: float | None
    bound_saturated: bool | None
    margolus_bound: float
    timing_sensitivity: float


def _gap_fractions(ratios: np.ndarray, max_denominator: int) -> Iterator[Fraction]:
    """``Fraction(r).limit_denominator(max_denominator)`` of each ratio in
    turn, computed as the caller asks for it.

    A ratio within ``1 / (2 max_denominator)`` of an integer m is closer to
    m than to any other fraction p/q with q <= max_denominator (those lie at
    least 1/q from m), so it is m/1 without the continued fraction.
    """
    nearest = np.rint(ratios)
    near = np.abs(ratios - nearest) < 0.5 / max_denominator
    for r, m, ok in zip(ratios.tolist(), nearest.tolist(), near.tolist()):
        yield Fraction(int(m)) if ok else Fraction(r).limit_denominator(max_denominator)


def _gap_multipliers(ratios: np.ndarray, max_denominator: int) -> np.ndarray | None:
    """The integers ``m_i`` with ``ratios_i = m_i / m_0`` from the fractions of
    :func:`_gap_fractions`, as doubles; ``None`` where their common
    denominator or one of them exceeds ``_MULTIPLIER_GUARD``.

    Where every ratio is within ``1 / (2 max_denominator)`` of an integer,
    every fraction is m/1, so the multipliers are ``np.rint(ratios)`` with no
    fraction formed (integers up to 2^53 are exact doubles, so the guard
    reads the same on them)."""
    nearest = np.rint(ratios)
    if np.abs(ratios - nearest).max() < 0.5 / max_denominator:
        return None if nearest.max() > _MULTIPLIER_GUARD else nearest
    fracs = []
    lcm = 1
    for f in _gap_fractions(ratios, max_denominator):
        lcm = math.lcm(lcm, f.denominator)
        if lcm > _MULTIPLIER_GUARD:
            return None
        fracs.append(f)
    # the smallest ratio is exactly 1, so the multipliers share no factor
    mult = [f.numerator * (lcm // f.denominator) for f in fracs]
    return None if max(mult) > _MULTIPLIER_GUARD else np.asarray(mult, dtype=float)


def certify_pst(spec: ChainSpec, tol: float = 1e-9,
                max_denominator: int = 10 ** 6) -> PstCertificate:
    """Certify perfect state transfer from site 1 to site N.

    ``tol`` bounds the per-gap phase residual ``|gap * t0 / pi - odd|`` at
    the candidate transfer time; ``max_denominator`` limits the continued
    fraction rationalization of gap ratios. The eigenvalues are those of
    :func:`diagonalize`: where their a-priori error ``N * eps * max|T|`` could
    reach ``1e-12`` of the smallest gap, they have had one Newton step on the
    characteristic polynomial, from the ``sterf`` solve or, on a designed
    chain, from its design spectrum once Sturm counts have checked it. End
    weights that fail the orthogonality check of :func:`pair_weights` raise
    ``ArithmeticError``.
    """
    if spec.n < 2:
        raise ValueError("transfer needs at least two sites")
    if not (isinstance(max_denominator, numbers.Integral) and max_denominator >= 1):
        raise ValueError("max_denominator must be a positive integer")

    lam = None  # the O(N) rejections come before the eigenvalue solve

    def fail(verdict: str, reason: str, residual: float | None = None) -> PstCertificate:
        return PstCertificate(verdict=verdict, chain=spec, eigenvalues=lam,
                              reason=reason, worst_gap_residual=residual)

    # C-level passes over the stored tuples: cheaper at every size than
    # converting them to arrays first
    t_max = max(max(map(abs, spec.couplings)), max(map(abs, spec.fields)))
    mirror = mirror_symmetry_check(spec, tol=tol * max(1.0, t_max))
    if not mirror:
        return fail("imperfect",
                    f"not mirror symmetric (max violation {mirror.max_violation:.3e})")
    if spec.has_zero_coupling:
        return fail("imperfect", "zero coupling disconnects the chain")
    if min(spec.couplings) < 0.0:
        # signs only shift arrival phases; certification works on the
        # positive-coupling representative of the phase class
        return fail("imperfect", "negative coupling (use the positive-J convention)")
    sd = diagonalize(spec)
    lam, gaps = sd.eigenvalues, sd._gaps
    if _has_degenerate_gap(lam, gaps):
        return fail("degenerate-spectrum", "spectrum has (near-)degenerate eigenvalues")

    k = _gap_multipliers(gaps / gaps.min(), max_denominator)
    if k is None:
        return fail("imperfect", "no commensurate gap structure within max_denominator")

    unit = float(np.dot(gaps, k) / np.dot(k, k))
    residual = float(np.max(np.abs(gaps / unit - k)))
    if residual > tol:
        return fail("imperfect", f"gap residual {residual:.3e} exceeds tol", residual)
    parity = k % 2.0
    if parity.min() == 0.0:
        return fail("imperfect", f"even gap multiplier at gap index {int(parity.argmin())}",
                    residual)
    t0 = math.pi / unit

    products = pair_weights(sd, 1, spec.n)
    amp = complex(_phase_sum(lam, products, t0))
    if not abs(amp) >= 1.0 - ARRIVAL_TOL:
        return fail("imperfect",
                    f"arrival verification failed (|gamma_N(t0)| = {abs(amp):.12f})",
                    residual)
    # mirror symmetry makes |v_1k|^2 = |v_1k v_Nk|
    revival = abs(complex(_phase_sum(lam, np.abs(products), 2.0 * t0)))
    if not revival >= 1.0 - ARRIVAL_TOL:
        return fail("imperfect",
                    f"revival verification failed (|gamma_1(2 t0)| = {revival:.12f})",
                    residual)

    return PstCertificate(
        verdict="perfect",
        chain=spec,
        eigenvalues=lam,
        end_products=products,
        t0=t0,
        arrival_amplitude=amp,
        arrival_phase=amp / abs(amp),
        odd_integers=tuple(map(int, (k // 2.0).tolist())),   # (m - 1) / 2 of odd m
        worst_gap_residual=residual,
        revival_magnitude=revival,
    )


def verify_transfer(value: float, what: str) -> None:
    """Check a verified transfer, the modulus of an arrival amplitude or a
    fidelity, against the floor ``1 - ARRIVAL_TOL`` that certification holds
    arrival to; NaN fails. A miss raises ``ArithmeticError`` naming ``what``."""
    if not value >= 1.0 - ARRIVAL_TOL:
        raise ArithmeticError(f"{what} verification failed ({value:.12f})")


def require_perfect(spec: ChainSpec) -> PstCertificate:
    """Certificate of a chain that must transfer perfectly; a chain that
    does not raises ``ValueError`` naming the reason."""
    cert = certify_pst(spec)
    if not cert.perfect:
        raise ValueError(f"chain does not transfer perfectly: {cert.reason}")
    return cert


def end_weights(spectrum) -> np.ndarray:
    """End-site weights |alpha_n|^2 of the mirror-symmetric chain with the
    given spectrum, computed from the characteristic polynomial derivative
    B'(lambda_n) alone.

    ``(-1)^n B'(lambda_n)`` carries a constant sign for an ascending
    spectrum, so the weights reduce to normalized reciprocals of
    ``|B'(lambda_n)|``; they are evaluated in log space to keep large
    spectra inside the floating-point range. A spectrum that is not strictly
    ascending raises ``DegenerateSpectrumError``.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("spectrum must be a non-empty 1-D sequence")
    if not np.isfinite(lam).all():
        raise ValueError("spectrum must be finite")
    logw = -_log_abs_derivatives(lam)
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def revival_rate_report(eigenvalues, weights, t0: float, M: int) -> RateReport:
    """Rate condition for any system with integer gap offsets at scale pi/t0.

    Splits the spectrum into residue classes ``(t0/pi)(lambda_n - lambda_1)
    mod M`` and sums the end weights per class; the rate ``M / (2 t0)`` is
    achievable iff all class sums are equal. The verdict is cross-checked
    against gamma_1 summed over the spectrum at the sub-multiple times.
    """
    M = _integral(M, "M")
    if M < 1:
        raise ValueError("M must be a positive integer")
    if not 0.0 < t0 < math.inf:
        raise ValueError("t0 must be finite and positive")
    lam = np.asarray(eigenvalues, dtype=float)
    w = np.asarray(weights, dtype=float)
    offsets = (t0 / math.pi) * (lam - lam[0])
    rounded = np.rint(offsets)
    if np.max(np.abs(offsets - rounded)) > 1e-6:
        raise ValueError("spectrum offsets are not integers at scale pi/t0")
    classes = rounded.astype(int) % M
    sums = np.zeros(M)
    np.add.at(sums, classes, w)
    spread = float(sums.max() - sums.min())
    equal = spread <= 1e-9 * max(abs(sums).max(), 1e-300)
    times = 2.0 * t0 * np.arange(1, M) / M
    g1 = _phase_sum(lam, w, times)
    gmax = float(np.max(np.abs(g1), initial=0.0))
    return RateReport(M=M, residue_sums=sums, equal=equal,
                      achievable_rate=(M / (2.0 * t0) if equal else None),
                      max_gamma_at_submultiples=gmax)


def rate_condition(cert: PstCertificate, M: int) -> RateReport:
    """Rate condition evaluated on a perfect-transfer certificate."""
    if not cert.perfect:
        raise ValueError("rate condition requires a perfect certificate")
    return revival_rate_report(cert.eigenvalues, cert.end_weights, cert.t0, M)


def optimality_report(spec: ChainSpec, cert: PstCertificate) -> OptimalityReport:
    """Coupling-strength and speed bounds for a perfect chain.

    For even N the central coupling obeys ``J_{N/2} >= (N/4) (pi/t0)``; the
    orthogonalization-time bound on the input spin is reported with the
    field folded in, and the timing sensitivity is the curvature coefficient
    ``J_1^2 + B_1^2`` of the departure amplitude.
    """
    if not cert.perfect:
        raise ValueError("optimality report requires a perfect certificate")
    if cert.chain != spec:
        raise ValueError("the certificate is for another chain")
    j = spec.coupling_array()
    n = spec.n
    j_max = float(np.max(np.abs(j)))
    j_half = None
    bound = None
    saturated = None
    if n % 2 == 0:
        j_half = float(abs(j[n // 2 - 1]))
        bound = (n / 4.0) * (math.pi / cert.t0)
        saturated = abs(j_half - bound) <= 1e-12 * max(1.0, bound)
    j1 = spec.couplings[0]
    b1 = spec.fields[0]
    sensitivity = j1 ** 2 + b1 ** 2
    margolus = math.pi / (2.0 * math.sqrt(sensitivity))
    return OptimalityReport(j_max=j_max, j_half=j_half, coupling_bound=bound,
                            bound_saturated=saturated, margolus_bound=margolus,
                            timing_sensitivity=sensitivity)


def _window_heights(lam: np.ndarray, sides: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """``min(|gamma_N(t0 - delta)|^2, |gamma_N(t0 + delta)|^2)`` for every offset
    in ``deltas``, where the columns of ``sides`` are ``a`` and ``conj(a)``,
    ``a_k = w_k exp(-i lambda_k t0)``: ``gamma_N(t0 + delta)`` is
    ``sum_k a_k exp(-i lambda_k delta)`` and ``gamma_N(t0 - delta)`` the conjugate
    of the same sum over ``conj(a)``, so both sides take one exponential per
    offset and eigenvalue."""
    amps = np.exp(-1j * np.multiply.outer(deltas, lam)) @ sides
    return np.min(np.abs(amps) ** 2, axis=1)


def timing_window(spec: ChainSpec, cert: PstCertificate, epsilon: float) -> float:
    """Largest window w with |gamma_N(t)|^2 >= 1 - epsilon for |t - t0| <= w/2.

    The half-width is the first crossing of the level ``1 - epsilon`` by the
    lower of ``|gamma_N(t0 -+ delta)|^2``, both sides summed over the
    certificate's end products with one exponential per eigenvalue and
    offset (see :func:`_window_heights`). Mirror symmetry makes the window
    symmetric about t0. Near the edge a height falls at 2 epsilon / delta,
    so the rounding of the heights (a few eps) fixes the window only to
    about eps / epsilon of itself: 1e-10 at epsilon = 1e-6.

    - *Bracket.* The grid of ``WINDOW_GRID`` steps over [0, t0] is scanned
      in chunks of 1, 2, 4, ... offsets, up to the first offset below the
      level; a chunk holds at most ``_WINDOW_CHUNK`` exponentials. A
      crossing at grid step k costs at most 2k offsets, in log2(k) + 1
      calls while the chunks still double. A chain below the level at t0
      itself has window 0, and one above it at every grid offset 2 t0.
    - *Refinement.* The Illinois variant of regula falsi: each offset stays
      strictly inside the bracket (the midpoint where rounding would put it
      on an end), and an end kept twice running has its distance from the
      level halved, so both ends close in superlinearly. It stops at the
      first offset whose height is within ``_CROSSING`` of the level, where
      rounding alone decides the side, and returns twice that offset; else,
      after ``_SECANT_STEPS`` offsets or with no double left inside the
      bracket, twice its lower end. It takes one offset a call: 4 to 12 at
      epsilon = 1e-3, and at most 18 for epsilon from 1e-9 to 0.99, on
      analytic, odd-gap and near-uniform chains of 2 to 2000 sites.
    """
    if not cert.perfect:
        raise ValueError("timing window requires a perfect certificate")
    if cert.chain != spec:
        raise ValueError("the certificate is for another chain")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    lam, t0 = cert.eigenvalues, cert.t0
    level = 1.0 - epsilon
    a = cert.end_products * np.exp(-1j * t0 * lam)
    sides = np.stack((a, a.conj()), axis=1)

    deltas = np.linspace(0.0, t0, WINDOW_GRID + 1)
    widest = max(1, _WINDOW_CHUNK // lam.size)
    start, size, last = 0, 1, None
    while start <= WINDOW_GRID:
        heights = _window_heights(lam, sides, deltas[start:start + size])
        below = np.flatnonzero(~(heights >= level))
        if below.size:
            break
        last = heights[-1]
        start += size
        size = min(2 * size, widest)
    else:
        return 2.0 * t0
    j = int(below[0])
    k = start + j
    if k == 0:
        return 0.0
    lo, hi = float(deltas[k - 1]), float(deltas[k])
    f_lo = float(heights[j - 1] if j else last) - level
    f_hi = float(heights[j]) - level
    kept = 0     # +1 after lo moved, -1 after hi moved
    for _ in range(_SECANT_STEPS):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        f = float(_window_heights(lam, sides, np.array([x]))[0]) - level
        if abs(f) <= _CROSSING:
            return 2.0 * x
        if f > 0.0:
            lo, f_lo = x, f
            if kept > 0:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, f
            if kept < 0:
                f_lo *= 0.5
            kept = -1
    return 2.0 * lo
