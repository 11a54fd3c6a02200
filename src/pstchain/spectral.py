"""Eigendecomposition of single-excitation operators and exact unitary
propagation.

The spectral form ``exp(-i H t) = V exp(-i L t) V^dag`` is exact, so all
transfer amplitudes produced here are limited only by the accuracy of the
eigensolver. Tridiagonal operators take a dedicated fast path; dense
symmetric (or Hermitian, for phased networks) operators fall back to a
general solver. ``scipy.linalg`` is imported by the functions that solve,
since importing it is most of the start-up of a process that never does.

A perfect chain is mirror symmetric, and a mirror-symmetric (persymmetric)
tridiagonal matrix is orthogonally similar to the direct sum of two
half-size tridiagonal matrices, one acting on the symmetric and one on the
antisymmetric vectors (Cantoni and Butler, Linear Algebra Appl. 13, 1976).
The tridiagonal solves stack the two blocks into one matrix with an exact
zero coupling between them, where LAPACK splits the problem in two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, SingleExcitationMatrix, build_h1

SYMMETRY_TOL = 1e-12
DEGENERACY_RTOL = 1e-9
# Columns per step of the sign fix and the residual check. Whole-matrix
# temporaries would add several N x N arrays to each eigensolve, and how much
# of that the allocator keeps resident depends on the order of earlier calls;
# blocks keep them at N x 128.
_BLOCK = 128


class DegenerateSpectrumError(ValueError):
    """Raised by operations that require a non-degenerate spectrum."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns.

    The sign convention (first significant component of each eigenvector is
    real positive) makes end amplitudes reproducible across platforms.
    ``residual`` is the ``max|M v - lambda v|`` that the eigensolve was
    checked by.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        self.eigenvectors.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Give each column the sign convention in place, a block of columns at a time."""
    for c in range(0, vectors.shape[1], _BLOCK):
        block = vectors[:, c:c + _BLOCK]
        mags = np.abs(block)
        first = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
        pivot = block[first, np.arange(block.shape[1])]
        if np.iscomplexobj(block):
            block *= np.conj(pivot) / np.abs(pivot)
        else:
            block *= np.where(pivot < 0, -1.0, 1.0)
    return vectors


def _fold(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The two mirror blocks of an exactly mirror-symmetric tridiagonal
    matrix, stacked into one matrix of the same size with a zero coupling
    between them; ``None`` unless ``diag`` and ``off`` equal their reverses
    bitwise (the split must be exact, so no tolerance is allowed).

    With N = 2m the symmetric block is the leading m x m block with ``J_m``
    added to its last diagonal entry and the antisymmetric block the same
    with ``J_m`` subtracted. With N = 2m + 1 the symmetric block is the
    leading (m+1)-block with its last coupling scaled by sqrt 2 and the
    antisymmetric block the leading m x m block. The symmetric block comes
    first.
    """
    n = diag.size
    if (n < 2 or diag.tobytes() != diag[::-1].tobytes()
            or off.tobytes() != off[::-1].tobytes()):
        return None
    m = n // 2
    s = n - m       # the size of the symmetric block
    fdiag = np.concatenate((diag[:s], diag[:m]))
    foff = np.concatenate((off[:s - 1], (0.0,), off[:m - 1]))
    if n % 2:
        foff[m - 1] *= math.sqrt(2.0)
    else:
        fdiag[m - 1] += off[m - 1]
        fdiag[n - 1] -= off[m - 1]
    return fdiag, foff


def _unfold(vectors: np.ndarray) -> None:
    """Eigenvectors of a mirror-symmetric matrix from those of its
    :func:`_fold`, in place, a block of columns at a time.

    Each column lies in one row block of the fold (the solver splits at the
    zero coupling) and is exactly zero in the other, so the top half of the
    unfolded column is the sum of the two row blocks times sqrt(1/2) and the
    bottom half is the mirror of their difference times sqrt(1/2): the
    symmetric block's column is mirrored with a plus, the antisymmetric
    block's with a minus. The centre entry of an odd chain is the symmetric
    block's last entry, and stays where it is.
    """
    n = vectors.shape[0]
    m = n // 2
    half = math.sqrt(0.5)
    for c in range(0, vectors.shape[1], _BLOCK):
        sym = vectors[:m, c:c + _BLOCK]
        anti = vectors[n - m:, c:c + _BLOCK]
        top = sym + anti
        bottom = (sym - anti)[::-1]
        np.multiply(top, half, out=sym)
        np.multiply(bottom, half, out=anti)


def diagonalize(operator) -> SpectralDecomposition:
    """Diagonalize a single-excitation operator.

    Accepts a :class:`SingleExcitationMatrix` (tridiagonal fast path), a
    :class:`ChainSpec`, or a dense symmetric/Hermitian ndarray. The residual
    ``max|M v - lambda v|`` is checked against ``1e-10 * max|M|`` and kept on
    the result.

    A tridiagonal operator goes to LAPACK ``stevd`` (divide and conquer,
    O(N^3) in the worst case); an exactly mirror-symmetric one goes as its
    :func:`_fold`, which ``stevd`` solves as two N/2 problems, and the
    eigenvectors are unfolded before the sign fix and the residual check,
    which see the caller's operator.
    """
    if isinstance(operator, ChainSpec):
        operator = build_h1(operator)
    if isinstance(operator, SingleExcitationMatrix):
        diag = np.asarray(operator.diagonal, dtype=float)
        off = np.asarray(operator.offdiagonal, dtype=float)
        if operator.dimension == 1:
            lam = diag.copy()
            vec = np.ones((1, 1))
        else:
            import scipy.linalg
            fold = _fold(diag, off)
            lam, vec = scipy.linalg.eigh_tridiagonal(*(fold or (diag, off)),
                                                     lapack_driver="stevd")
            if fold is not None:
                _unfold(vec)
        vec = _fix_signs(vec)
        scale = max(np.max(np.abs(diag)), np.max(np.abs(off), initial=0.0))
        # M V from the three diagonals, O(N^2), a block of columns at a time
        residual = 0.0
        for c in range(0, vec.shape[1], _BLOCK):
            v = vec[:, c:c + _BLOCK]
            r = diag[:, None] * v
            r -= v * lam[None, c:c + _BLOCK]
            r[:-1] += off[:, None] * v[1:]
            r[1:] += off[:, None] * v[:-1]
            residual = max(residual, float(np.max(np.abs(r))))
    else:
        dense = np.asarray(operator)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("operator must be a square matrix")
        scale = np.max(np.abs(dense))
        if np.max(np.abs(dense - dense.conj().T)) > SYMMETRY_TOL * max(1.0, scale):
            raise ValueError("operator is not symmetric/Hermitian")
        lam, vec = np.linalg.eigh(dense)
        vec = _fix_signs(vec)
        residual = float(np.max(np.abs(dense @ vec - vec * lam[None, :])))
    if residual > 1e-10 * max(scale, 1e-300):
        raise ArithmeticError(f"eigendecomposition residual {residual:.3e} too large")
    lam = np.ascontiguousarray(lam, dtype=float)
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=vec, residual=residual)


def chain_eigenvalues(spec: ChainSpec) -> np.ndarray:
    """Ascending eigenvalues of a chain's single-excitation matrix, without
    eigenvectors.

    LAPACK ``sterf`` works in O(N^2) time and O(N) memory; its eigenvalues
    carry an absolute error of order ``N * eps * max|T|``, which
    :func:`sturm_newton` can reduce. An exactly mirror-symmetric chain goes
    as its :func:`_fold`, two N/2 problems, which halves the work.
    """
    import scipy.linalg
    diag, off = spec.field_array(), spec.coupling_array()
    # a ChainSpec holds finite values only
    return scipy.linalg.eigvalsh_tridiagonal(*(_fold(diag, off) or (diag, off)),
                                             lapack_driver="sterf", check_finite=False)


def sturm_newton(spec: ChainSpec, eigenvalues, max_step: float) -> np.ndarray:
    """One Newton step ``lambda - p(lambda) / p'(lambda)`` on the characteristic
    polynomial of a chain's single-excitation matrix, for every eigenvalue at
    once.

    ``p'/p`` is the sum of ``d_i'/d_i`` over the pivots of the Sturm (LDL^T)
    recurrence ``d_i = (B_i - lambda) - J_{i-1}^2 / d_{i-1}``, O(N) per
    eigenvalue. The step is guarded: an eigenvalue moves only where the step
    is finite and at most ``max_step``, and the eigenvalues are returned
    unchanged if the refined ones are not strictly ascending.
    """
    diag = spec.field_array()
    b2 = spec.coupling_array() ** 2
    lam = np.asarray(eigenvalues, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = diag[0] - lam
        ratio = -1.0 / d                    # d_1' / d_1, with d_1' = -1
        total = ratio.copy()
        r = np.empty_like(lam)
        dd = np.empty_like(lam)
        for a, bb in zip(diag[1:].tolist(), b2.tolist()):
            np.divide(bb, d, out=r)
            np.multiply(r, ratio, out=dd)   # d_i' = J^2 d_{i-1}' / d_{i-1}^2 - 1
            dd -= 1.0
            np.subtract(a, lam, out=d)
            d -= r
            np.divide(dd, d, out=ratio)
            total += ratio
        step = 1.0 / total
    ok = np.isfinite(step) & (np.abs(step) <= max_step)
    refined = np.where(ok, lam - step, lam)
    if np.any(np.diff(refined) <= 0):
        return lam
    return refined


def is_degenerate(eigenvalues, rtol: float = DEGENERACY_RTOL) -> bool:
    """Whether two adjacent ascending eigenvalues are closer than rtol * spread."""
    lam = np.asarray(eigenvalues, dtype=float)
    spread = lam[-1] - lam[0]
    if spread <= 0:
        return lam.size > 1
    return bool(np.any(np.diff(lam) < rtol * spread))


def propagate(sd: SpectralDecomposition, v, t) -> np.ndarray:
    """Evolve amplitudes ``v`` for time ``t``: V exp(-i L t) V^dag v.

    ``v`` of shape (n,) or (n, k) (one state per column) at a scalar ``t``,
    or ``v`` of shape (n,) at a 1-D array of times, one row per time.
    """
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
    # rounds differently from the scalar path, in the last bit; the written
    # amplifier curves come from this product and the dephasing curve from that one
    coeff = vec.conj().T @ v
    return np.exp(-1j * np.multiply.outer(times, sd.eigenvalues)) * coeff[None, :] @ vec.T


def _phase_sum(lam, weights, times) -> np.ndarray:
    """``sum_k w_k exp(-i lambda_k t)`` for every time in ``times``, in its shape.

    A 1-D array of T >= 2 finite times that are evenly spaced to within
    rounding (``|t_j - t_0 - j D| <= 4 eps max|t|``) is evaluated from two
    small tables. With ``j = a B + b`` and ``B = ceil(sqrt(T))``, the tables
    are ``E[b, k] = exp(-i lambda_k b D)`` (B x N) and
    ``F[a, k] = w_k exp(-i lambda_k t_{aB})`` (A x N), and the sums are the
    entries of the one product ``F E^T``, read row by row. That takes
    (A + B) N ~ 2 sqrt(T) N exponentials in place of T N, and builds no
    T x N array. ``F`` takes its phases from the grid's own times, so only the
    short offsets ``b D`` carry the rounding of ``D``. Any other ``times`` (a
    scalar, a multi-dimensional array, uneven or non-finite times) is summed
    directly, one exponential per time and eigenvalue.
    """
    t = np.asarray(times, dtype=float)
    count = t.size
    if t.ndim == 1 and count >= 2:
        step = (t[-1] - t[0]) / (count - 1)
        j = np.arange(count)
        with np.errstate(invalid="ignore", over="ignore"):
            dev = np.max(np.abs(t - (t[0] + j * step)))
        tol = 4.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
        # NaN in dev fails the comparison, so non-finite times are summed directly
        if dev <= tol:
            cols = math.isqrt(count - 1) + 1       # ceil(sqrt(T)) for T >= 2
            inner = np.exp(-1j * np.multiply.outer(j[:cols] * step, lam))
            outer = np.exp(-1j * np.multiply.outer(t[::cols], lam))
            outer *= weights
            return (outer @ inner.T).ravel()[:count]
    return np.exp(-1j * np.multiply.outer(t, lam)) @ weights


def gamma(sd: SpectralDecomposition, source: int, target: int, t):
    """Transfer amplitude <target| exp(-i H t) |source> for 1-based sites.

    ``t`` may be a scalar or an array of times; the return matches its shape.

    For a given decomposition the absolute error grows like
    ``(max|t| max|lambda| + N) eps sum_k |w_k|`` and stays below 8 times that;
    ``w_k`` are the products of the two sites' eigenvector entries
    (``sum |w_k| <= 1``) and ``eps`` is the machine epsilon of doubles. The
    first term is the rounding of the phases ``lambda_k t`` and dominates at
    large ``t``: at ``max|t| max|lambda| = 1e7`` it is about 2e-9.
    """
    n = sd.dimension
    if not (1 <= source <= n and 1 <= target <= n):
        raise ValueError(f"sites must lie in 1..{n}")
    w = sd.eigenvectors[target - 1, :] * np.conj(sd.eigenvectors[source - 1, :])
    out = _phase_sum(sd.eigenvalues, w, t)
    if out.ndim == 0:
        return complex(out)
    return out


def amplitude_profile(sd: SpectralDecomposition, source: int, t: float) -> np.ndarray:
    """All site amplitudes at time t for an excitation starting on ``source``."""
    e = np.zeros(sd.dimension, dtype=complex)
    e[source - 1] = 1.0
    return propagate(sd, e, t)
