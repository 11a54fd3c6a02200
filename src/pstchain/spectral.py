"""Eigendecomposition of single-excitation operators and exact unitary
propagation.

The spectral form ``exp(-i H t) = V exp(-i L t) V^dag`` is exact, so all
transfer amplitudes produced here are limited only by the accuracy of the
eigensolver. A chain, the package's one tridiagonal operator, and the block
below, of any size, are solved by LAPACK ``sterf`` or ``stevd`` from scipy's
extension ``scipy.linalg._flapack``, which :func:`_lapack` loads alone in about
4 ms (importing ``scipy.linalg`` costs a process 0.2-0.3 s); dense symmetric
(or Hermitian, for phased networks) operators go to ``numpy.linalg.eigh``.

A chain with zero fields is bipartite, so its spectrum is symmetric about
zero. An exactly mirror-symmetric (persymmetric) one of even N = 2m is
orthogonally similar to the direct sum of two m x m tridiagonal blocks, one
acting on the symmetric and one on the antisymmetric vectors (Cantoni and
Butler, Linear Algebra Appl. 13, 1976), and the sublattice sign flip
``diag((-1)^i)`` turns the symmetric block into minus the antisymmetric one.
Such a chain, of any length, is solved as the symmetric block alone,
:func:`_chiral_block`: its eigenvalues are found and refined on the block,
and their moduli and the negatives of those are the spectrum, exactly
antisymmetric, whose end products are summed on its nonnegative half and
mirrored. Every other eigenvalue solve, and every eigenvector solve, takes
the whole operator.

Where eigenvalues need a Newton step, :func:`sturm_newton` takes it from
start values with one run of the Sturm recurrence, and accepts a value's
step only where Sturm counts give it an eigenvalue of its own (Barth, Martin
and Wilkinson, Numer. Math. 9, 1967). A designed chain carries the spectrum
its designer built it for, which replaces ``sterf`` as the start where every
value is accepted; a design the chain's matrix does not bear out is set
aside, and the chain is solved as one without it.

A :class:`ChainSpec` is solved once per object: its first :func:`diagonalize`
keeps the decomposition on the chain, and every later call, from
certification, the certificate's ``spectrum``, the design's residual check or
a protocol, returns that same decomposition, with its eigenvectors and end
weights once they are computed. Nothing else is cached.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .chain import ChainSpec, _integral

SYMMETRY_TOL = 1e-12
DEGENERACY_RTOL = 1e-9
# Where the a-priori eigenvalue error N eps max|T| could reach this share of
# the smallest gap, the eigenvalues get one Newton step.
NEWTON_GATE = 1e-12
# Largest a-priori relative error of end weights taken from the spectrum.
END_WEIGHT_RTOL = 1e-6
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Columns per step of the residual check, rows per step of the log-derivative
# sums and kicks per propagation of a dephasing curve. Whole-matrix
# temporaries would add several N x N arrays to each call, and how much of
# that the allocator keeps resident depends on the order of earlier calls;
# blocks keep them at N x 128.
_BLOCK = 128


class DegenerateSpectrumError(ValueError):
    """Raised by operations that require a non-degenerate spectrum."""


class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns.

    ``residual`` is the ``max|M v - lambda v|`` that the eigenvectors were
    checked by, against ``eigenvalues``.

    The decomposition :func:`diagonalize` makes of a tridiagonal operator
    holds its eigenvalues from the start and solves for ``eigenvectors`` and
    ``residual`` on their first read. That solve keeps the eigenvalues
    already handed out. Whether or not the eigenvectors have been read,
    :func:`pair_weights` takes the weights of the pairs (1, N) and (N, 1) of
    a chain with positive couplings, and of (1, 1) and (N, N) of an exactly
    mirror-symmetric one, from the eigenvalues alone, where their a-priori
    relative error ``rho`` is at most ``END_WEIGHT_RTOL``, so an amplitude
    does not depend on what was read before it. In place of the residual
    they are checked against the orthogonality of rows 1 and N:
    ``|sum_k w_k| <= rho + 1e-12``, and ``|sum_k |w_k| - 1| <= rho + 1e-12``
    on a mirror-symmetric chain, or ``ArithmeticError``.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray, residual: float):
        eigenvalues.flags.writeable = False
        if eigenvectors is not None:
            eigenvectors.flags.writeable = False
        self.eigenvalues = eigenvalues
        self._eigenvectors = eigenvectors
        self._residual = residual
        # set by _of_tridiagonal: the operator's (diag, off), its max|T| and
        # the gaps of the eigenvalues, each computed once per decomposition
        self._tridiagonal = self._scale = self._gaps = None

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._eigenvectors is None:
            vec, self._residual = _tridiagonal_eigenvectors(*self._tridiagonal,
                                                            self.eigenvalues, self._scale)
            vec.flags.writeable = False
            self._eigenvectors = vec
        return self._eigenvectors

    @property
    def residual(self) -> float:
        self.eigenvectors       # the residual comes with the eigenvector solve
        return self._residual

    # _mirror and _end_products describe the tridiagonal operator of a
    # decomposition whose eigenvectors are solved on first read

    @cached_property
    def _mirror(self) -> bool:
        """Whether the operator equals its mirror image bitwise."""
        return _is_mirror(*self._tridiagonal)

    @cached_property
    def _end_products(self) -> np.ndarray | None:
        """The signed ``v_1k v_Nk`` of :func:`end_products`, checked; ``None``
        for a one-site operator, a coupling that is not positive, or an
        a-priori relative error ``rho`` above ``END_WEIGHT_RTOL``.

        Each ``log|lambda_k - lambda_m|`` moves by at most
        ``(d_k + d_m) / |lambda_k - lambda_m|`` when the eigenvalues move by
        ``d``, and the distances from one eigenvalue to the others are at
        least 1, 2, 3, ... times the smallest gap ``g`` on either side, so to
        first order the products carry a relative error of at most
        ``4 (1 + ln N) d / g``. With the solver error ``d = N eps max|T|``
        and a factor 2 of headroom that is
        ``rho = 8 (1 + ln N) N eps max|T| / g``.

        Rows 1 and N of an orthogonal matrix are orthogonal, so
        ``|sum_k w_k| <= rho + 1e-12`` must hold, and on a mirror-symmetric
        chain, where ``|w_k| = v_1k^2``, ``|sum_k |w_k| - 1| <= rho + 1e-12``
        too (``sum_k |w_k| <= 1`` in general, and the ``1e-12`` covers the
        rounding of the sums); a product that breaks either raises
        ``ArithmeticError``, as the residual check of the eigenvectors does.
        """
        off = self._tridiagonal[1]
        n = self.dimension
        # array methods: certify_pst takes this path on every chain it
        # solves, and on short ones numpy's function wrappers cost as much
        if n < 2 or not off.min() > 0.0:
            return None
        gap = float(self._gaps.min())
        rho_gap = 8.0 * (1.0 + math.log(n)) * n * _EPS * self._scale
        if not rho_gap <= END_WEIGHT_RTOL * gap:    # a zero gap fails here too
            return None
        products = end_products(off, self.eigenvalues)
        bound = rho_gap / gap + 1e-12
        deviation = abs(float(products.sum()))
        if self._mirror:
            deviation = max(deviation, abs(float(np.abs(products).sum()) - 1.0))
        if not deviation <= bound:
            raise ArithmeticError(f"end weights deviate from orthogonal rows by "
                                  f"{deviation:.3e}, above {bound:.3e}")
        products.flags.writeable = False
        return products


def _is_mirror(diag: np.ndarray, off: np.ndarray) -> bool:
    """Whether a tridiagonal matrix equals its mirror image bitwise."""
    return diag.tobytes() == diag[::-1].tobytes() and off.tobytes() == off[::-1].tobytes()


def _max_abs(diag: np.ndarray, off: np.ndarray) -> float:
    """``max|T|`` of a tridiagonal matrix."""
    return float(max(np.abs(diag).max(), np.abs(off).max(initial=0.0)))


def _chiral_block(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The symmetric mirror block of ``tridiag(off, diag, off)`` with N = 2m,
    an all-zero diagonal and ``diag`` and ``off`` equal to their reverses
    bitwise: its leading m rows, with ``J_m`` on the last diagonal entry;
    ``None`` for any other matrix (the split must be exact, so no tolerance
    is allowed)."""
    n = diag.size
    if n % 2 or diag.any() or not _is_mirror(diag, off):
        return None
    m = n // 2
    block = np.zeros(m)
    block[-1] = off[m - 1]
    return block, off[:m - 1]


def diagonalize(operator) -> SpectralDecomposition:
    """Diagonalize a single-excitation operator.

    Accepts a :class:`ChainSpec`, whose fields and couplings are the
    diagonal and off-diagonal of a tridiagonal operator (fast path), or a
    dense symmetric/Hermitian array with finite entries; anything else
    raises ``ValueError``.
    The residual ``max|M v - lambda v|`` is checked against
    ``1e-10 * max|M|`` and kept on the result.

    A :class:`ChainSpec` is solved once per object. The first call keeps the
    decomposition on the chain, outside its fields, so equality, hashing,
    ``repr`` and chain files do not see it and ``dataclasses.replace``
    returns an unsolved chain; every later call returns the same
    decomposition. Its eigenvectors, once read, stay in memory as long as
    the chain does (N^2 floats).

    A tridiagonal operator gets its eigenvalues at once, from
    :func:`_of_tridiagonal`, which solves and refines its chiral block if it
    has one, and the whole operator otherwise, each refined by
    :func:`sturm_newton` where the Newton gate opens; a designed chain, where
    the gate opens on its design spectrum, starts the step from that
    spectrum in place of the ``sterf`` solve. So the eigenvalues of a
    designed chain can differ in the last bits from those of an equal chain
    without a design spectrum, such as a copy or a chain read from a file:
    for the designers at N = 1000 and 4000, 0.6-6% of them differ, by at
    most 2.9e-14, less than a unit in the last place of ``max|lambda|``. Both
    lie within the a-priori error ``N * eps * max|T|`` of the exact ones.

    The eigenvectors come on their first read, from
    :func:`_eigenvector_solve`, LAPACK ``stevd`` (divide and conquer, O(N^3)
    in the worst case) on the whole operator, and their residual is checked
    against the eigenvalues handed out at once.
    :func:`gamma` between the end sites of a chain with positive couplings
    reads no eigenvectors (see :func:`pair_weights`), so it costs O(N^2) time
    and O(N) memory in all. A dense operator is solved at once.
    """
    if isinstance(operator, ChainSpec):
        sd = getattr(operator, "_decomposition", None)
        if sd is None:
            # the chain's floats were validated when it was made
            sd = _of_tridiagonal(operator.field_array(), operator.coupling_array(),
                                 getattr(operator, "_design_spectrum", None))
            object.__setattr__(operator, "_decomposition", sd)
        return sd
    dense = np.asarray(operator)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError("operator must be a square matrix")
    if not np.all(np.isfinite(dense)):
        raise ValueError("operator entries must be finite")
    scale = np.max(np.abs(dense))
    if np.max(np.abs(dense - dense.conj().T)) > SYMMETRY_TOL * max(1.0, scale):
        raise ValueError("operator is not symmetric/Hermitian")
    lam, vec = np.linalg.eigh(dense)
    residual = _checked(float(np.max(np.abs(dense @ vec - vec * lam[None, :]))), scale)
    return SpectralDecomposition(np.ascontiguousarray(lam, dtype=float), vec, residual)


def _checked(residual: float, scale: float) -> float:
    """The residual of an eigensolve, if it is at most ``1e-10 * scale``."""
    if not residual <= 1e-10 * max(scale, 1e-300):
        raise ArithmeticError(f"eigendecomposition residual {residual:.3e} too large")
    return residual


def _tridiagonal_eigenvectors(diag: np.ndarray, off: np.ndarray, eigenvalues: np.ndarray,
                              scale: float) -> tuple[np.ndarray, float]:
    """Eigenvectors of ``tridiag(off, diag, off)``, in the order of its
    ascending ``eigenvalues``, and their residual against them, checked
    against its ``max|T|``, ``scale``."""
    vec = _eigenvector_solve(diag, off)
    # M V from the three diagonals, O(N^2), a block of columns at a time
    residual = 0.0
    for c in range(0, vec.shape[1], _BLOCK):
        v = vec[:, c:c + _BLOCK]
        r = diag[:, None] * v
        r -= v * eigenvalues[None, c:c + _BLOCK]
        r[:-1] += off[:, None] * v[1:]
        r[1:] += off[:, None] * v[:-1]
        residual = max(residual, float(np.max(np.abs(r))))
    return vec, _checked(residual, scale)


def _lapack():
    """scipy's f2py module ``scipy.linalg._flapack``, if loaded; else its file in
    scipy's ``linalg`` directory, found without importing scipy (or ImportError),
    run and registered, so that a later ``import scipy.linalg`` takes it too."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError(f"no scipy package, whose {name} holds LAPACK", name="scipy")
        where = os.path.join(os.path.dirname(scipy.origin), "linalg")
        spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"no LAPACK extension _flapack in {where}", name=name)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _tridiagonal_lapack(routine: str, diag: np.ndarray, off: np.ndarray) -> list:
    """The outputs but ``info`` of LAPACK ``routine`` on ``tridiag(off, diag,
    off)``. The f2py wrappers take max(N - 1, 1) couplings, so a one-row
    matrix gets one zero coupling, which LAPACK does not read."""
    *out, info = getattr(_lapack(), routine)(diag, off if off.size else np.zeros(1))
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine[1:]} did not converge (info {info})")
    return out


def _eigenvalue_solve(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``tridiag(off, diag, off)``, any N, from LAPACK
    ``sterf`` (O(N^2) time, O(N) memory)."""
    return _tridiagonal_lapack("dsterf", diag, off)[0]


def _eigenvector_solve(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenvector columns of ``tridiag(off, diag, off)``, any N, from LAPACK
    ``stevd``, ascending by eigenvalue."""
    return _tridiagonal_lapack("dstevd", diag, off)[1]


def _of_tridiagonal(diag: np.ndarray, off: np.ndarray,
                    design: np.ndarray | None = None) -> SpectralDecomposition:
    """The decomposition of ``tridiag(off, diag, off)``, holding the ascending
    eigenvalues :func:`diagonalize` hands out at once.

    A matrix with a :func:`_chiral_block` is solved as that N/2-row block,
    and any other matrix whole; the solved matrix's eigenvalues are ``s``.
    Their a-priori error ``error = N * eps * max|T|`` gates a Newton step:
    where it could reach ``NEWTON_GATE`` of the smallest gap of the spectrum,
    ``s`` gets :func:`sturm_newton`'s step of at most ``error`` on that matrix.

    ``design``, the ascending spectrum a designer built the matrix for, is
    the start where the gate opens on its gaps (for a chiral block, the
    values of the block: the alternate values from the top where its last
    diagonal entry ``J_m`` is positive, as in a chain with positive
    couplings, and the others where it is negative, as in one rescaled by a
    negative factor), and ``s`` is its step, with no ``sterf``, where every
    value is accepted. Otherwise (no design, the gate shut on the design's
    gaps, or a value not accepted) ``s`` comes from :func:`_eigenvalue_solve`,
    with an absolute error of order ``error``, and gets the step where the
    gate opens on the gaps of its spectrum. The spectrum of a
    chiral block is ``sort(|s|)`` and its negatives (see
    :func:`_chiral_spectrum`), exactly antisymmetric; of a whole matrix, ``s``.
    """
    scale = _max_abs(diag, off)
    block = _chiral_block(diag, off)
    solved = block or (diag, off)
    error = diag.size * _EPS * scale
    lam = None
    if (design is not None
            and error > NEWTON_GATE * float((design[1:] - design[:-1]).min(initial=math.inf))):
        start = design
        if block:   # the top value and every second one below it, or the others where J_m < 0
            start = design[1::2] if block[0][-1] > 0.0 else design[::2]
        s, accepted = sturm_newton(*solved, start, error)
        if accepted.all():
            lam = _chiral_spectrum(s) if block else s
    if lam is None:
        s = _eigenvalue_solve(*solved)
        lam = _chiral_spectrum(s) if block else s
        if error > NEWTON_GATE * float((lam[1:] - lam[:-1]).min(initial=math.inf)):
            s = sturm_newton(*solved, s, error)[0]
            lam = _chiral_spectrum(s) if block else s
    gaps = lam[1:] - lam[:-1]
    gaps.flags.writeable = False
    sd = SpectralDecomposition(lam, None, None)
    sd._tridiagonal, sd._scale, sd._gaps = (diag, off), scale, gaps
    return sd


def _chiral_spectrum(s: np.ndarray) -> np.ndarray:
    """The spectrum of a matrix from the eigenvalues ``s`` of its
    :func:`_chiral_block`: ``pos = sort(|s|)`` and its negatives, ascending
    and exactly antisymmetric."""
    pos = np.sort(np.abs(s))
    return np.concatenate((-pos[::-1], pos))


def _sturm_sweep(diag: np.ndarray, off: np.ndarray, points: np.ndarray,
                 refined: int) -> tuple[np.ndarray, np.ndarray]:
    """The Sturm (LDL^T) recurrence ``d_i = (B_i - x) - J_{i-1}^2 / d_{i-1}`` of
    ``tridiag(off, diag, off)`` at every point ``x`` at once, O(N) per point.

    At the first ``refined`` points it returns ``p'/p``, the sum of ``d_i'/d_i``
    over the N pivots, where ``p`` is the characteristic polynomial and
    ``d_i' = J_{i-1}^2 d_{i-1}' / d_{i-1}^2 - 1``; at the others, the number of
    negative pivots, which is the number of eigenvalues below ``x`` (Barth,
    Martin and Wilkinson, Numer. Math. 9, 1967), or -1 where a pivot was NaN.
    A pivot counts as negative by its sign bit, so a zero pivot counts as a
    tiny one of its sign would, in a matrix a rounding away: the next pivot
    is infinite, of the other sign, and the one after it finite again. A
    pivot whose ``B_i`` is +0.0, as is every pivot of a zero-field chain but
    the last of its chiral block, takes ``B_i - x`` from one array formed
    once, with the same bits.
    """
    b2 = off ** 2
    rest = diag[1:]
    plus_zero = (rest == 0.0) & ~np.signbit(rest)
    counted = points.size > refined
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = diag[0] - points
        neg = 0.0 - points                  # B_i - x wherever B_i is +0.0
        r = np.empty_like(points)
        # views of the pivots at the points refined and at those counted
        head, head_r, tail = d[:refined], r[:refined], d[refined:]
        dd = np.full(refined, -1.0)         # d_1' = -1
        total = np.zeros(refined)           # the sum of d_i'/d_i
        ratio = np.empty(refined)
        count = np.zeros(points.size - refined, dtype=np.intp)
        below = np.empty(count.size, dtype=bool)
        for a, bb, zero in zip(rest.tolist(), b2.tolist(), plus_zero.tolist()):
            np.divide(dd, head, out=ratio)
            total += ratio
            if counted:
                np.signbit(tail, out=below)
                count += below
            np.divide(bb, d, out=r)
            np.multiply(head_r, ratio, out=dd)  # d_i' = J^2 d_{i-1}' / d_{i-1}^2 - 1
            dd -= 1.0
            if zero:
                np.subtract(neg, r, out=d)
            else:
                np.subtract(a, points, out=d)
                d -= r
        np.divide(dd, head, out=ratio)
        total += ratio
        if counted:
            np.signbit(tail, out=below)
            count += below
            count[np.isnan(tail)] = -1      # a NaN pivot stays NaN to the end
    return total, count


def sturm_newton(diag: np.ndarray, off: np.ndarray, start,
                 max_step: float) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step ``lambda - p(lambda) / p'(lambda)`` on the characteristic
    polynomial of ``tridiag(off, diag, off)`` from each of its ascending
    eigenvalues' ``start`` values, and which steps are ``accepted``: the
    refined value where accepted, the start value elsewhere.

    One :func:`_sturm_sweep` runs over the m start values and the m + 1
    points that separate them: the midpoints of neighbours, and half the
    outer gaps beyond the ends. It gives ``p'/p`` at each start value and the
    Sturm count at each separator. A floating-point count is exact for a
    matrix a few rounding errors away (Barth, Martin and Wilkinson, Numer.
    Math. 9, 1967), so counts of k and k + 1 at the separators around value
    k put one eigenvalue between them. Value k is accepted where they do, its
    step is finite and at most ``max_step``, and the refined value lies
    strictly inside its interval. Two equal start values share no interval,
    so neither is accepted; a size other than N, fewer than two values or a
    NaN among them accept none. A start value that is an eigenvalue of a
    leading block, to the bit, makes a pivot zero and its step NaN: 0 on a
    zero-field chain of odd length, or two values of ``uniform_chain(1000)``.
    Those values are stepped again from one unit in the last place of the
    largest start value higher, a point as good to start from and off the
    leading blocks' eigenvalues.
    """
    start = np.asarray(start, dtype=float)
    m = start.size
    if m != diag.size or m < 2 or np.isnan(start).any():
        return start, np.zeros(m, dtype=bool)
    gaps = start[1:] - start[:-1]
    points = np.empty(2 * m + 1)
    points[:m] = start
    sep = points[m:]
    sep[1:-1] = start[:-1] + 0.5 * gaps
    sep[0] = start[0] - 0.5 * gaps[0]
    sep[-1] = start[-1] + 0.5 * gaps[-1]
    total, count = _sturm_sweep(diag, off, points, m)
    at = start
    with np.errstate(divide="ignore"):
        step = 1.0 / total
        retry = ~np.isfinite(step)
        if retry.any():
            at = start.copy()
            at[retry] += np.spacing(np.abs(start).max())
            step[retry] = 1.0 / _sturm_sweep(diag, off, at[retry], int(retry.sum()))[0]
    refined = at - step
    below = np.arange(m)
    accepted = ((count[:-1] == below) & (count[1:] == below + 1)
                & (np.abs(step) <= max_step)            # NaN fails here too
                & (sep[:-1] < refined) & (refined < sep[1:]))
    accepted[:-1] &= gaps > 0.0
    accepted[1:] &= gaps > 0.0
    return np.where(accepted, refined, start), accepted


def _is_antisymmetric(lam: np.ndarray) -> bool:
    """Whether ``lam == -lam[::-1]`` bitwise; a centre entry never equals
    its negative bitwise, so only an even-length array can be."""
    return lam.tobytes() == (-lam[::-1]).tobytes()


def _log_abs_derivatives(lam: np.ndarray) -> np.ndarray:
    """``sum_{m != k} log|lambda_k - lambda_m|`` for every k, the log of
    ``|B'(lambda_k)|``, a block of rows at a time; a spectrum that is not
    strictly ascending raises :class:`DegenerateSpectrumError`, since a
    repeated eigenvalue makes a term infinite.

    Row ``N-1-k`` of an exactly antisymmetric spectrum (see
    :func:`_is_antisymmetric`) holds the terms of row k in another order,
    since ``|-lambda_k - lambda_m| = |lambda_k - lambda_{N-1-m}|``, so only the
    rows ``k >= N/2`` are summed and the others are their mirror. With ``mu``
    the nonnegative half, the terms of such a row pair up:
    ``sum_{m != k} log|(mu_k - mu_m)(mu_k + mu_m)| + log|2 mu_k|``, an
    (N/2) x (N/2) table of one log per product, half the logs of the N/2 x N
    table of differences. Where some product might not be a normal double
    (``max mu >= 2^510``, or ``min(2 mu_0, g (mu_0 + mu_1))`` below twice the
    smallest normal, ``g`` the smallest gap of ``mu``), the rows take one log
    per difference instead."""
    if (lam[1:] <= lam[:-1]).any():
        raise DegenerateSpectrumError("spectrum must be strictly ascending")
    n = lam.size
    out = np.empty(n)
    half = n // 2 if _is_antisymmetric(lam) else 0
    mu = lam[half:]
    if half and _products_are_normal(mu):
        for r in range(0, half, _BLOCK):
            rows = mu[r:r + _BLOCK]
            table = np.subtract.outer(rows, mu)
            table *= np.add.outer(rows, mu)
            table.ravel()[r::half + 1] = 2.0 * rows     # the entries m = k: |2 mu_k|
            np.abs(table, out=table)
            np.log(table, out=table)
            out[half + r:half + r + rows.size] = np.sum(table, axis=1)
    else:
        for r in range(half, n, _BLOCK):
            rows = lam[r:r + _BLOCK]
            diff = np.subtract.outer(rows, lam)
            diff.ravel()[r::n + 1] = 1.0        # the entries m = k
            np.abs(diff, out=diff)
            np.log(diff, out=diff)
            out[r:r + rows.size] = np.sum(diff, axis=1)
    if half:                            # an antisymmetric spectrum has even N = 2 half
        out[:half] = out[half:][::-1]
    return out


def _products_are_normal(mu: np.ndarray) -> bool:
    """Whether every ``|(mu_k - mu_m)(mu_k + mu_m)|``, m != k, and every
    ``2 mu_k`` of the ascending positive ``mu`` is a normal double: each is at
    least ``min(2 mu_0, g (mu_0 + mu_1))`` and below ``2 max(mu)^2``, with
    ``g`` the smallest gap; a factor 2 of headroom covers their rounding."""
    lowest = 2.0 * float(mu[0])
    if mu.size > 1:
        lowest = min(lowest, float((mu[1:] - mu[:-1]).min()) * float(mu[0] + mu[1]))
    return lowest >= 2.0 * _TINY and float(mu[-1]) < 2.0 ** 510


def end_products(couplings, eigenvalues) -> np.ndarray:
    """Signed end products ``v_1k v_Nk = prod_i J_i / prod_{m != k}
    (lambda_k - lambda_m)`` of a chain with positive couplings, from its
    ascending eigenvalues, evaluated in log space (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 7).

    The denominator has the sign ``(-1)^(N-1-k)`` (k 0-based), so the
    products alternate in sign down the spectrum. A spectrum that is not
    strictly ascending raises :class:`DegenerateSpectrumError`. Of an exactly
    antisymmetric spectrum, such as a :func:`_chiral_block` gives, only the
    log-derivative sums of the nonnegative half are formed, from one log
    per product of a difference and a sum of its values (see
    :func:`_log_abs_derivatives`), and mirrored, so ``|v_1k v_Nk|`` is
    symmetric bitwise.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    products = np.exp(np.sum(np.log(couplings)) - _log_abs_derivatives(lam))
    products[-2::-2] *= -1.0
    return products


def is_degenerate(eigenvalues) -> bool:
    """Whether two adjacent ascending eigenvalues are closer than
    ``DEGENERACY_RTOL`` times their spread."""
    lam = np.asarray(eigenvalues, dtype=float)
    return _has_degenerate_gap(lam, np.diff(lam))


def _has_degenerate_gap(lam: np.ndarray, gaps: np.ndarray) -> bool:
    """:func:`is_degenerate` of ``lam`` from its gaps ``np.diff(lam)``."""
    spread = lam[-1] - lam[0]
    if spread <= 0:
        return lam.size > 1
    return bool(np.any(gaps < DEGENERACY_RTOL * spread))


def _require_finite_times(t) -> None:
    """Raise ``ValueError`` unless every time in ``t`` is finite."""
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")


def propagate(sd: SpectralDecomposition, v, t) -> np.ndarray:
    """Evolve amplitudes ``v`` for time ``t``: V exp(-i L t) V^dag v.

    ``v`` of shape (n,) or (n, k) (one state per column) at a scalar ``t``,
    or ``v`` of shape (n,) at a 1-D array of times, one row per time. A
    time that is not finite raises ``ValueError``.

    On an evenly spaced grid the T x N phases are the products of the rows
    of :func:`_grid_tables`, O(N) exponentials and T N multiplications; other
    arrays of times take one exponential per time and eigenvalue. Either
    rounds differently from the scalar path, in the last bits.
    """
    _require_finite_times(t)
    v = np.asarray(v, dtype=complex)
    n = sd.dimension
    vec = sd.eigenvectors
    if np.ndim(t) == 0:
        if v.ndim not in (1, 2) or v.shape[0] != n:
            raise ValueError(f"amplitudes must have {n} rows")
        phases = np.exp(-1j * sd.eigenvalues * t)
        if v.ndim == 2:
            phases = phases[:, None]
        return vec @ (phases * (vec.conj().T @ v))
    times = np.asarray(t, dtype=float)
    if v.shape != (n,) or times.ndim != 1:
        raise ValueError(f"an array of times needs one amplitude vector of length {n}")
    coeff = vec.conj().T @ v
    tables = _grid_tables(sd.eigenvalues, coeff, times)
    if tables is None:
        phases = np.exp(-1j * np.multiply.outer(times, sd.eigenvalues)) * coeff
    else:
        outer, inner = tables
        phases = (outer[:, None, :] * inner[None, :, :]).reshape(-1, n)[:times.size]
    return phases @ vec.T


def _grid_tables(lam: np.ndarray, weights, t: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The phase tables of a 1-D array ``t`` of T >= 2 finite times that are
    evenly spaced to within rounding (``|t_j - t_0 - j D| <= 4 eps max|t|``,
    ``D = (t_{T-1} - t_0) / (T - 1)``), or ``None`` for any other ``t``.

    With ``j = a B + b`` and ``B = ceil(sqrt(T))``, they are
    ``outer[a, k] = w_k exp(-i lambda_k t_0) Z_k^a`` (A = ceil(T / B) rows)
    and ``inner[b, k] = z_k^b`` (B rows), with ``z = exp(-i lambda D)`` and
    ``Z = exp(-i lambda B D)``, so ``outer[a] * inner[b]`` is
    ``w exp(-i lambda t_j)``. The three exponentials per eigenvalue are the
    only ones taken; :func:`_powers` fills the rows by multiplication.
    """
    count = t.size
    if t.ndim != 1 or count < 2:
        return None
    step = (t[-1] - t[0]) / (count - 1)
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.max(np.abs(t - (t[0] + np.arange(count) * step)))
    # NaN in dev fails the comparison, so non-finite times are summed directly
    if not dev <= 4.0 * _EPS * max(abs(t[0]), abs(t[-1])):
        return None
    cols = math.isqrt(count - 1) + 1       # ceil(sqrt(T)) for T >= 2
    z, big_z, start = np.exp(-1j * np.multiply.outer((step, cols * step, t[0]), lam))
    inner = _powers(1.0, z, cols)
    outer = _powers(weights * start, big_z, -(-count // cols))
    return outer, inner


def _powers(first, base: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` rows ``first * base^j``, j = 0..count-1, filled by
    doubling: rows [h, 2h) are rows [0, h) times ``base^h``, which comes from
    ``base`` by squaring. That is one product per row and log2(count)
    squarings; row j carries about j times the relative error of ``base``,
    plus about ``3 j eps`` from the products, which hold the modulus of a
    unit ``base`` only to rounding."""
    table = np.empty((count, base.size), dtype=complex)
    table[0] = first
    h = 1
    while h < count:
        if h > 1:
            base = base * base
        np.multiply(table[:min(h, count - h)], base, out=table[h:2 * h])
        h *= 2
    return table


def _phase_sum(lam, weights, times) -> np.ndarray:
    """``sum_k w_k exp(-i lambda_k t)`` for every time in ``times``, in its shape.

    An evenly spaced 1-D grid of T >= 2 times is the one complex matrix
    product ``outer inner^T`` of its :func:`_grid_tables`, read row by row:
    3N exponentials and about 2 sqrt(T) N products fill the tables, and no
    T x N array is built. Any other ``times`` (a scalar, a
    multi-dimensional array, uneven or non-finite times) is summed directly,
    one exponential per time and eigenvalue.
    """
    t = np.asarray(times, dtype=float)
    tables = _grid_tables(lam, weights, t)
    if tables is not None:
        outer, inner = tables
        return (outer @ inner.T).ravel()[:t.size]
    return np.exp(-1j * np.multiply.outer(t, lam)) @ weights


def pair_weights(sd: SpectralDecomposition, source: int, target: int) -> np.ndarray:
    """Weights ``w_k = v_tk conj(v_sk)`` of the amplitude from 1-based site
    ``source`` to ``target``, ``gamma(t) = sum_k w_k exp(-i lambda_k t)``.

    On a tridiagonal decomposition, whether or not its eigenvectors have been
    read, the end pairs (1, N) and (N, 1) of a chain whose couplings are all
    positive take ``w_k = v_1k v_Nk`` from the eigenvalues alone
    (:func:`end_products`, computed once per decomposition), and so do the
    pairs (1, 1) and (N, N) of an exactly mirror-symmetric chain, where
    ``v_1k^2 = |v_1k v_Nk|``. That takes O(N^2) time and O(N) memory, and
    the choice rests on the decomposition alone, never on the order of
    earlier reads. The products are used where their a-priori relative
    error is at most ``END_WEIGHT_RTOL`` and are checked against the
    orthogonality of rows 1 and N (see
    ``SpectralDecomposition._end_products``). Every other pair, and a dense
    or one-site operator, a zero or negative coupling or a spectrum whose
    smallest gap is too small for the products, reads the eigenvectors.
    """
    n = sd.dimension
    source, target = _integral(source, "sites"), _integral(target, "sites")
    if not (1 <= source <= n and 1 <= target <= n):
        raise ValueError(f"sites must lie in 1..{n}")
    if (sd._tridiagonal is not None and {source, target} <= {1, n}
            and (source != target or sd._mirror)):
        products = sd._end_products
        if products is not None:
            return products if source != target else np.abs(products)
    vec = sd.eigenvectors
    return vec[target - 1, :] * np.conj(vec[source - 1, :])


def gamma(sd: SpectralDecomposition, source: int, target: int, t):
    """Transfer amplitude <target| exp(-i H t) |source> for 1-based sites.

    ``t`` may be a scalar or an array of finite times (else ``ValueError``);
    the return matches its shape.
    The weights come from :func:`pair_weights`: from the eigenvalues alone
    for the end pairs of a chain with positive couplings, so those
    amplitudes need no eigenvectors.

    For given eigenvalues and weights the absolute error over T times grows
    like ``(max|t| max|lambda| + N + sqrt T) eps sum_k |w_k|`` and stays below
    8 times that; ``w_k`` are the products of the two sites' eigenvector
    entries (``sum |w_k| <= 1``) and ``eps`` is the machine epsilon of
    doubles. The first term is the rounding of the phases ``lambda_k t`` and
    dominates at large ``t``: at ``max|t| max|lambda| = 1e7`` it is about
    2e-9. The second is the rounding of the sum over the spectrum. The third
    is the drift of the powers that fill the phase tables of an evenly
    spaced grid (see :func:`_powers`): a row j takes about j times the
    rounding of its base, and no row is further than about sqrt T from the
    start of its table. Weights
    from the spectrum add at most ``rho sum_k |w_k|``, with their a-priori
    relative error ``rho = 8 (1 + ln N) N eps max|T| / (smallest gap)``, at
    most ``END_WEIGHT_RTOL``; they pass the orthogonality check of
    :class:`SpectralDecomposition` first.
    """
    _require_finite_times(t)
    out = _phase_sum(sd.eigenvalues, pair_weights(sd, source, target), t)
    if out.ndim == 0:
        return complex(out)
    return out


def amplitude_profile(sd: SpectralDecomposition, source: int, t: float) -> np.ndarray:
    """All site amplitudes at time t for an excitation starting on ``source``."""
    source = _integral(source, "sites")
    if not 1 <= source <= sd.dimension:
        raise ValueError(f"sites must lie in 1..{sd.dimension}")
    e = np.zeros(sd.dimension, dtype=complex)
    e[source - 1] = 1.0
    return propagate(sd, e, t)
