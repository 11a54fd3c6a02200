"""Chain designers: the analytic transfer family, the sequential-storage
chain, spectrum-driven inverse-eigenvalue reconstruction, near-uniform
designs, and a Newton iteration for parametrized Hamiltonians.

A chain is reconstructed from its spectrum as a half-size inverse problem on
the mirror fold (Hochstadt 1974; Hald 1976; de Boor and Golub 1978): it is
mirror symmetric by construction, and with no end weight formed there is no
end-weight underflow refusal.

Designers emit spectra on integer lattices so the natural transfer time is
pi (pi/2 for the storage chain). Callers wanting other time scales rescale
couplings via :func:`pstchain.chain.rescale`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certify import certify_pst
from .chain import ChainSpec, _designed, _integral, chain, uniform_chain
from .spectral import _BLOCK, DegenerateSpectrumError, _tridiagonal_dense, diagonalize

# The finite-difference check of validate_family: the seed of its probe
# points, its central-difference step and the largest error it allows.
FD_SEED = 0
FD_STEP = 1e-6
FD_TOL = 1e-5


class ReconstructionError(ValueError):
    """Inverse-eigenvalue reconstruction missed its target tolerance."""


class DesignError(ValueError):
    """A design procedure produced an inadmissible intermediate result."""


class SingularSystemError(RuntimeError):
    """The Newton linear system could not be solved."""


class DivergenceError(RuntimeError):
    """The Newton iteration increased its residual on consecutive steps."""


def analytic_chain(n: int) -> ChainSpec:
    """Couplings J_k = sqrt(k (n-k)) / 2 with zero fields.

    The single-excitation matrix is the angular-momentum x-rotation
    generator for spin (n-1)/2, with unit-spaced spectrum k - (n-1)/2,
    k = 0..n-1, which the chain carries as its design spectrum, so transfer
    is perfect at t0 = pi for every n.
    """
    n = _integral(n, "n")
    if n < 2:
        raise ValueError("n must be at least 2")
    k = np.arange(1, n)
    return _designed(chain(0.5 * np.sqrt(k * (n - k))), np.arange(0.5 * (1 - n), 0.5 * n))


def sequential_storage_chain(n: int) -> ChainSpec:
    """Non-symmetric chain with equal end weights 1/n and spectrum
    -n+1, -n+3, ..., n-1, which it carries as its design spectrum.

    The input amplitude gamma_1 vanishes at every multiple of t_r = pi/n
    except full revivals at multiples of 2 t0 = pi, so n qubits can be
    stored sequentially through site 1.
    """
    n = _integral(n, "n")
    if n < 2:
        raise ValueError("n must be at least 2")
    k = np.arange(1, n)
    j_sq = k ** 2 * (n - k) * (n + k) / ((2 * k - 1.0) * (2 * k + 1.0))
    return _designed(chain(np.sqrt(j_sq)), np.arange(1.0 - n, n, 2.0))


def _spectrum_array(values) -> np.ndarray:
    lam = np.asarray(values, dtype=float)
    if lam.ndim != 1 or not np.all(np.isfinite(lam)):
        raise ValueError("target spectrum must be a 1-D sequence of finite numbers")
    return lam


@dataclass(frozen=True)
class TargetSpectrum:
    """Strictly ascending target eigenvalues, optionally antisymmetric
    (lambda_n = -lambda_{N+1-n}), which forces zero fields on the result;
    ``antisymmetric=None`` detects it, to 1e-12 of the spread."""

    eigenvalues: tuple[float, ...]
    antisymmetric: bool | None = False

    def __post_init__(self):
        lam = _spectrum_array(self.eigenvalues)
        object.__setattr__(self, "eigenvalues", tuple(float(x) for x in lam))
        if lam.size < 2:
            raise ValueError("target spectrum needs at least two eigenvalues")
        if np.any(np.diff(lam) <= 0):
            raise DegenerateSpectrumError("target spectrum must be strictly ascending")
        antisymmetric = bool(np.max(np.abs(lam + lam[::-1])) <= 1e-12 * (lam[-1] - lam[0]))
        if self.antisymmetric is None:
            object.__setattr__(self, "antisymmetric", antisymmetric)
        elif self.antisymmetric and not antisymmetric:
            raise ValueError("spectrum does not satisfy lambda_n = -lambda_{N+1-n}")


def target_spectrum(values, antisymmetric: bool | None = None) -> TargetSpectrum:
    """Build a target spectrum, auto-detecting antisymmetry when unspecified."""
    return TargetSpectrum(eigenvalues=values, antisymmetric=antisymmetric)


def _givens_insertion(lam: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fields and couplings of the Jacobi matrix with eigenvalues ``lam``
    whose eigenvectors start with ``q`` (Gragg and Harrod, Numer. Math. 44,
    1984), in O(N^2) time and O(N) memory.

    The matrix is the tridiagonal reduction of the bordered matrix
    ``[[0, q^T], [q, diag(lam)]]`` that keeps the border row. Pairs
    ``(lam_i, q_i)`` are inserted one at a time between the border and the
    Jacobi matrix of the pairs before; each insertion leaves one bulge two
    places off the diagonal, which Givens rotations chase down and off the
    end. The arrays hold the final (N+1)-square matrix with the border in
    row 0, and the pairs inserted so far occupy its last rows, so insertion
    i puts the border in row N - i and chases through the planes (p, p+1),
    p = N - i + 1, ..., N - 1. A rotation in plane p touches the slots
    p-1..p+2 only, so with insertion i started two steps after insertion
    i-1 its chase runs three planes behind, each slot sees its updates in
    the serial order, and all active chases advance together in one step on
    stride-3 slices: about 3N steps of O(N) work each.

    The rotations run in ``np.longdouble`` (a 64-bit significand on x86-64;
    where it is plain double, so are they) and the entries are rounded to
    doubles at the end. Each entry takes the rounding of up to N rotations:
    in double precision that moves the edge eigenvalues of a 2000-site
    near-uniform chain by 8e-15, while certifying it on its lattice (unit
    3.7e-6, ``tol`` 1e-9) needs its gaps to 4e-15.
    """
    n = lam.size
    lam = lam.astype(np.longdouble)
    q = q.astype(np.longdouble)
    d = np.zeros(n + 1, np.longdouble)      # d[j] = A[j, j]
    e = np.zeros(n + 1, np.longdouble)      # e[j] = A[j, j + 1]; e[n] stays 0
    bulge = np.zeros(n + 1, np.longdouble)  # bulge[p] = A[p - 1, p + 1], removed by plane p
    for step in range(3 * n - 2):   # step 2N - 2 inserts the last pair; its chase ends by 3N - 3
        i = step // 2 + 1
        if step % 2 == 0 and i <= n:
            top = n - i        # the border moves up one row
            e[top] = q[i - 1]
            d[top + 1] = lam[i - 1]
            bulge[top + 1] = e[top + 1]
            e[top + 1] = 0.0
        lo = n + 3 + step - 3 * min(i, n)   # plane of the newest active chase
        if lo > n - 1:
            continue
        x = e[lo - 1:n - 1:3]
        b = bulge[lo:n:3]
        r = np.hypot(x, b)
        if r.min() > 0.0:     # no r is 0 (or NaN), so the guard below is the identity
            c = x / r
            s = b / r
        else:
            nonzero = r > 0.0  # where both entries are zero: the identity rotation
            safe = np.where(nonzero, r, 1.0)
            c = np.where(nonzero, x / safe, 1.0)
            s = b / safe
        x[...] = r
        p = d[lo:n:3]
        g = d[lo + 1:n + 1:3]
        u = e[lo:n:3]
        # [[p, u], [u, g]] rotated: p + s h, g - s h and c h - u, where
        # h = s (g - p) + 2 c u (c^2 + s^2 = 1)
        h = s * (g - p)
        cu = c * u
        h += cu
        h += cu
        shift = s * h
        h *= c
        np.subtract(h, u, out=u)
        p += shift
        g -= shift
        below = e[lo + 1:n + 1:3]
        np.multiply(s, below, out=bulge[lo + 1:n + 1:3])
        below *= c
    return d[1:].astype(float), np.abs(e[1:n]).astype(float)


def chain_from_spectrum(target: TargetSpectrum) -> ChainSpec:
    """Unique mirror-symmetric positive-coupling chain with the given spectrum.

    Such a chain is fixed by its spectrum (Hochstadt, Linear Algebra Appl. 8,
    1974; Hald, Linear Algebra Appl. 14, 1976). It is orthogonally similar
    to the direct sum of two mirror blocks (Cantoni and Butler, Linear
    Algebra Appl. 13, 1976), which take the eigenvalues in turn from the top,
    the symmetric block first. For N = 2m the symmetric block is the leading
    m x m block with J_m added to its last field, and the antisymmetric block
    the same with J_m subtracted; for N = 2m + 1 the symmetric block is the
    leading (m+1)-block with its last coupling scaled by sqrt 2, and the
    antisymmetric block the leading m x m block. Read from the centre out,
    the two differ in their first site only. So the centre weights of the
    symmetric block come from the two interlacing spectra (de Boor and Golub,
    Linear Algebra Appl. 21, 1978), and the Gragg-Harrod Givens insertion
    (Numer. Math. 44, 1984) of those ~N/2 pairs, rotated in extended
    precision, builds that block in O(N^2) time and O(N) memory. The chain is
    the half and its mirror, exactly mirror symmetric. No end weight of the
    whole chain is formed, so there is no refusal for end weights that
    underflow. The result carries the target as its design spectrum, and is
    verified by its eigenvalues, which :func:`diagonalize` refines from the
    target where the target passes its checks; an antisymmetric target must
    give vanishing fields, which are then set to zero.
    """
    lam = np.asarray(target.eigenvalues, dtype=float)
    n = lam.size
    sym, anti = lam[(n - 1) % 2::2], lam[n % 2::2]
    gaps = sym[n % 2:] - anti   # from each antisymmetric eigenvalue to the one above
    # log w_k, w_k ~ prod_j |sym_k - anti_j| / prod_{j != k} |sym_k - sym_j|, as
    # a sum over the pairs of neighbours of -log1p(-gaps_j / (sym_k - anti_j)),
    # terms near 0, so no two large sums cancel; the pair whose upper end is
    # sym_k itself (its ratio is exactly 1) adds log gaps_j instead; a block of
    # rows at a time
    log_w = np.empty(sym.size)
    for r in range(0, sym.size, _BLOCK):
        t = np.subtract.outer(sym[r:r + _BLOCK], anti)
        np.divide(gaps, t, out=t)
        t[t == 1.0] = 0.0
        np.negative(t, out=t)
        log_w[r:r + _BLOCK] = -np.sum(np.log1p(t, out=t), axis=1)
    log_w[n % 2:] += np.log(gaps)
    if n % 2:   # the lowest symmetric eigenvalue has no antisymmetric one below it
        log_w[1:] -= np.log(sym[1:] - sym[0])
    w = np.exp(log_w - log_w.max())
    fields, couplings = _givens_insertion(sym, np.sqrt(w / w.sum()))
    if n % 2:   # the half starts at the centre site, coupled by sqrt 2 J_m
        couplings[0] /= math.sqrt(2.0)
        middle = ()
    else:       # the half's first field is B_m + J_m
        middle = (0.5 * float(np.sum(sym - anti)),)
        fields[0] -= middle[0]
    fields = np.concatenate((fields[::-1], fields[n % 2:]))
    couplings = np.concatenate((couplings[::-1], middle, couplings))
    spread = lam[-1] - lam[0]
    if target.antisymmetric:
        worst = float(np.max(np.abs(fields)))
        if worst > 1e-9 * spread:
            raise ReconstructionError(f"fields failed to vanish (max {worst:.3e})")
        fields = np.zeros_like(fields)
    result = _designed(chain(couplings, fields), lam)
    achieved = diagonalize(result).eigenvalues
    residual = float(np.max(np.abs(achieved - lam)))
    if residual > 1e-8 * max(1.0, spread):
        raise ReconstructionError(f"spectrum residual {residual:.3e} too large")
    return result


def _snap(value: float, parity: int) -> int:
    """Nearest integer of the given parity; ties break toward zero."""
    lo = parity + 2 * math.floor((value - parity) / 2.0)
    hi = lo + 2
    dlo, dhi = value - lo, hi - value
    if abs(dlo - dhi) < 1e-12:
        return lo if abs(lo) <= abs(hi) else hi
    return lo if dlo < dhi else hi


def near_uniform_chain(n: int, slack: float) -> tuple[ChainSpec, float]:
    """Perturb the uniform chain onto the nearest admissible transfer lattice.

    The uniform-chain eigenvalues -2 cos(k pi / (n+1)) move (each by at most
    the lattice unit ``slack * delta``, delta the minimal spacing) onto
    points whose consecutive gaps are odd multiples of the unit. Only the
    upper half is snapped, onto the integers (odd N) or half-integers (even
    N) whose integer parts alternate in parity, the first odd for odd N and
    the nearest for even N, ties toward the centre; antisymmetry is restored
    by reflection so the fields vanish. Returns the chain, which carries the
    snapped spectrum as its design spectrum (see :func:`chain_from_spectrum`),
    and the largest coupling deviation from 1. If the uniform chain already
    transfers perfectly (n <= 3) it is returned unchanged.
    """
    n = _integral(n, "n")
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 < slack <= 1.0:
        raise ValueError("slack must lie in (0, 1]")
    if n <= 3:
        return uniform_chain(n), 0.0
    lam = -2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))
    delta = float(np.min(np.diff(lam)))
    unit = slack * delta

    offset = 0.5 * (1 - n % 2)
    values = lam[(n + 1) // 2:] / unit - offset
    parity = 1 if n % 2 else math.ceil(values[0] - 0.5) % 2
    snapped = []
    for j, v in enumerate(values, start=1):
        point = _snap(v, (parity + j - 1) % 2) + offset
        if snapped and point <= snapped[-1]:
            raise DesignError(
                f"lattice rounding produced a non-monotone spectrum at index {j} "
                f"(slack {slack} too large)")
        if point <= 0:
            raise DesignError(f"lattice rounding collapsed eigenvalue {j} onto the centre")
        snapped.append(point)
    upper = unit * np.asarray(snapped)
    full = np.concatenate((-upper[::-1], [0.0] * (n % 2), upper))
    result = chain_from_spectrum(TargetSpectrum(tuple(full), antisymmetric=True))
    cert = certify_pst(result)
    if not cert.perfect:
        raise DesignError(f"snapped spectrum failed certification: {cert.reason}")
    deviation = float(np.max(np.abs(result.coupling_array() - 1.0)))
    return result, deviation


@dataclass(frozen=True)
class ParametrizedFamily:
    """Symmetric single-excitation matrix H(r) with analytic derivatives.

    ``evaluate(r)`` returns the matrix, ``derivative(r, i)`` its partial
    with respect to parameter i.
    """

    dimension: int
    n_params: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray, int], np.ndarray]


def coupling_family(n: int) -> ParametrizedFamily:
    """Tridiagonal family parametrized by its n-1 couplings; fields fixed at 0."""

    def evaluate(r: np.ndarray) -> np.ndarray:
        return _tridiagonal_dense(np.zeros(n), r)

    def derivative(r: np.ndarray, i: int) -> np.ndarray:
        m = np.zeros((n, n))
        m[i, i + 1] = 1.0
        m[i + 1, i] = 1.0
        return m

    return ParametrizedFamily(dimension=n, n_params=n - 1,
                              evaluate=evaluate, derivative=derivative)


def nnn_coupling_family(n: int) -> ParametrizedFamily:
    """Couplings plus a single next-nearest coupling between sites 1 and 3."""

    base = coupling_family(n)

    def evaluate(r: np.ndarray) -> np.ndarray:
        m = base.evaluate(r[: n - 1])
        m[0, 2] = m[2, 0] = r[n - 1]
        return m

    def derivative(r: np.ndarray, i: int) -> np.ndarray:
        if i < n - 1:
            return base.derivative(r[: n - 1], i)
        m = np.zeros((n, n))
        m[0, 2] = m[2, 0] = 1.0
        return m

    return ParametrizedFamily(dimension=n, n_params=n,
                              evaluate=evaluate, derivative=derivative)


def validate_family(family: ParametrizedFamily, r0) -> None:
    """Check the analytic derivatives against central finite differences of
    step ``FD_STEP`` to within ``FD_TOL``, at three points drawn about ``r0``
    from a generator seeded with ``FD_SEED``, the same points on every run."""
    rng = np.random.default_rng(FD_SEED)
    r0 = np.asarray(r0, dtype=float)
    for _ in range(3):
        r = r0 + 0.05 * rng.standard_normal(family.n_params)
        for i in range(family.n_params):
            e = np.zeros(family.n_params)
            e[i] = FD_STEP
            fd = (family.evaluate(r + e) - family.evaluate(r - e)) / (2.0 * FD_STEP)
            err = np.max(np.abs(fd - family.derivative(r, i)))
            if err > FD_TOL:
                raise ValueError(f"derivative {i} fails finite-difference check ({err:.3e})")


@dataclass(frozen=True)
class NewtonResult:
    parameters: np.ndarray
    residuals: tuple[float, ...]
    iterations: int
    converged: bool


def newton_iep(family: ParametrizedFamily, target: TargetSpectrum, r0,
               max_iter: int = 50, tol: float = 1e-10) -> NewtonResult:
    """Newton iteration driving the spectrum of H(r) onto the target.

    Each step solves M dr = b where b holds the eigenvalue errors and
    column i of M is the diagonal of U^T (dH/dr_i) U in the current
    eigenbasis; eigenvector corrections drop out of the diagonal. The
    linear solve is least-squares (mirror-symmetric families are
    rank-deficient but consistent). A step that increases the residual is
    halved up to 10 times; two consecutive increases abort.
    """
    validate_family(family, r0)
    lam_target = np.asarray(target.eigenvalues, dtype=float)
    if lam_target.size != family.dimension:
        raise ValueError("target size must match the family dimension")
    r = np.asarray(r0, dtype=float).copy()
    if r.size != family.n_params:
        raise ValueError("r0 size must match the family parameter count")

    def residual_of(params: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        sd = diagonalize(family.evaluate(params))
        return float(np.max(np.abs(sd.eigenvalues - lam_target))), sd.eigenvalues, sd.eigenvectors

    res, lam, u = residual_of(r)
    history = [res]
    increases = 0
    iterations = 0
    while res > tol and iterations < max_iter:
        b = lam_target - lam
        m = np.empty((family.dimension, family.n_params))
        for i in range(family.n_params):
            m[:, i] = np.einsum("ij,jk,ik->i", u.T, family.derivative(r, i), u.T)
        dr, _, rank, sv = np.linalg.lstsq(m, b, rcond=None)
        if not np.all(np.isfinite(dr)) or rank == 0:
            cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else math.inf
            raise SingularSystemError(f"linear system unusable (cond ~ {cond:.3e})")
        step = dr
        for _ in range(11):
            new_res, new_lam, new_u = residual_of(r + step)
            if new_res < res:
                break
            step = 0.5 * step
        if new_res >= res:
            increases += 1
            if increases >= 2:
                raise DivergenceError(
                    f"residual increased on consecutive steps (stuck at {res:.3e})")
        else:
            increases = 0
        r = r + step
        res, lam, u = new_res, new_lam, new_u
        history.append(res)
        iterations += 1
    return NewtonResult(parameters=r, residuals=tuple(history),
                        iterations=iterations, converged=res <= tol)
