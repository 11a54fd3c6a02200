"""Chain data model: an XX chain is its single-excitation matrix, and the
Heisenberg and harmonic-oscillator models map exactly onto the same chain.

Conventions used throughout the package:

* sites are labelled 1..n, matching couplings ``J_1..J_{n-1}`` and fields
  ``B_1..B_n``;
* ``fields`` are defined as the diagonal entries of the single-excitation
  matrix (the constant identity shift of the underlying spin Hamiltonian is
  dropped);
* a chain with ``statistics="bosonic"`` models a line of coupled harmonic
  oscillators; single-excitation dynamics is identical, and the flag only
  changes multi-excitation semantics (see :mod:`pstchain.fermionic`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import serialize

STATISTICS = ("fermionic", "bosonic")


class ChainFormatError(ValueError):
    """A chain document does not match the expected schema."""


def _floats(values) -> tuple[float, ...] | np.ndarray:
    """``values`` converted one element at a time to a tuple of floats, or a
    1-D float64 array as it is: no element of one can fail to convert."""
    if type(values) is np.ndarray and values.dtype == np.float64 and values.ndim == 1:
        return values
    return tuple(map(float, values))


def _finite_floats(values, name: str) -> tuple[float, ...]:
    """``values`` as a tuple of finite Python floats; a 1-D float64 array is
    checked and converted in one numpy pass each."""
    out = _floats(values)
    if type(out) is tuple:
        finite = all(map(math.isfinite, out))
    else:
        finite = np.isfinite(out).all()
        out = tuple(out.tolist())
    if not finite:
        raise ValueError(f"{name} must be finite")
    return out


@dataclass(frozen=True)
class ChainSpec:
    """An open chain of ``n`` sites with couplings J_1..J_{n-1} and fields B_1..B_n.

    It is also the package's one representation of the symmetric tridiagonal
    single-excitation matrix: ``fields`` is its diagonal and ``couplings``
    its off-diagonal. A zero coupling is representable but disconnects the
    chain (and with it any hope of end-to-end transfer); it is flagged via
    :attr:`has_zero_coupling`.
    """

    n: int
    couplings: tuple[float, ...]
    fields: tuple[float, ...]
    statistics: str = "fermionic"

    def __post_init__(self):
        n = _integral(self.n, "n")
        if n < 1:
            raise ValueError("chain needs at least one site")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "couplings", _finite_floats(self.couplings, "couplings"))
        object.__setattr__(self, "fields", _finite_floats(self.fields, "fields"))
        if len(self.couplings) != n - 1:
            raise ValueError(f"expected {n - 1} couplings, got {len(self.couplings)}")
        if len(self.fields) != n:
            raise ValueError(f"expected {n} fields, got {len(self.fields)}")
        if self.statistics not in STATISTICS:
            raise ValueError(f"statistics must be one of {STATISTICS}")

    def __reduce__(self):
        # copies and pickles carry the fields alone, not the decomposition
        # that spectral.diagonalize keeps on a solved chain
        return ChainSpec, (self.n, self.couplings, self.fields, self.statistics)

    @property
    def has_zero_coupling(self) -> bool:
        return 0.0 in self.couplings    # -0.0 == 0.0

    def coupling_array(self) -> np.ndarray:
        return np.asarray(self.couplings, dtype=float)

    def field_array(self) -> np.ndarray:
        return np.asarray(self.fields, dtype=float)


@dataclass(frozen=True)
class HeisenbergSpec:
    """Modulated anisotropic Heisenberg chain: couplings J_n, anisotropies
    Delta_n on the ZZ terms, and fields b_n."""

    n: int
    couplings: tuple[float, ...]
    anisotropies: tuple[float, ...]
    fields: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _integral(self.n, "n"))
        object.__setattr__(self, "couplings", _finite_floats(self.couplings, "couplings"))
        object.__setattr__(self, "anisotropies", _finite_floats(self.anisotropies, "anisotropies"))
        object.__setattr__(self, "fields", _finite_floats(self.fields, "fields"))
        if len(self.couplings) != self.n - 1 or len(self.anisotropies) != self.n - 1:
            raise ValueError("couplings and anisotropies must have length n-1")
        if len(self.fields) != self.n:
            raise ValueError("fields must have length n")


@dataclass(frozen=True)
class MirrorReport:
    """Outcome of a mirror-symmetry check with the worst violations found."""

    symmetric: bool
    max_violation: float
    max_coupling_violation: float
    max_field_violation: float

    def __bool__(self) -> bool:
        return self.symmetric


def chain(couplings, fields=None, statistics: str = "fermionic") -> ChainSpec:
    """Convenience constructor; ``fields`` defaults to zero. The couplings
    and then the fields are converted before either is checked, and a
    float64 array reaches :class:`ChainSpec` unconverted."""
    couplings = _floats(couplings)
    n = len(couplings) + 1
    fields = (0.0,) * n if fields is None else _floats(fields)
    return ChainSpec(n=n, couplings=couplings, fields=fields, statistics=statistics)


def _integral(value, name: str) -> int:
    """``value`` as an ``int`` if it is integral (4 and 4.0 are, 4.5, NaN and
    "4" are not); anything else raises ``ValueError`` naming it."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return whole


def _designed(spec: ChainSpec, eigenvalues) -> ChainSpec:
    """``spec``, carrying the ascending spectrum it was designed for.

    The spectrum is kept on the chain outside its fields, as
    ``spectral.diagonalize`` keeps a solved chain's decomposition, so
    equality, hashing, ``repr``, pickles, chain files and
    ``dataclasses.replace`` do not see it. ``diagonalize`` starts from it
    where it can check it on the chain's own matrix, and otherwise solves the
    chain as it would without it. A float array is kept as it is, made
    read-only."""
    lam = np.asarray(eigenvalues, dtype=float)
    lam.flags.writeable = False
    object.__setattr__(spec, "_design_spectrum", lam)
    return spec


def uniform_chain(n: int, coupling: float = 1.0) -> ChainSpec:
    """``n`` sites coupled by ``coupling`` with zero fields; designed for the
    spectrum ``2 J cos(k pi / (n + 1))``, k = 1..n, sorted."""
    n = _integral(n, "n")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    spec = chain([coupling] * (n - 1))
    j = spec.couplings[0] if n > 1 else 0.0     # one site has no coupling to check
    return _designed(spec, np.sort(2.0 * j * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))))


def rescale(spec: ChainSpec, kappa: float) -> ChainSpec:
    """Scale all energies by ``kappa``; every transfer time scales as 1/kappa.
    A designed chain's design spectrum is scaled with it (and reversed for a
    negative ``kappa``, so it stays ascending)."""
    scaled = replace(spec,
                     couplings=tuple(kappa * j for j in spec.couplings),
                     fields=tuple(kappa * b for b in spec.fields))
    design = getattr(spec, "_design_spectrum", None)
    if design is None:
        return scaled
    return _designed(scaled, kappa * (design[::-1] if kappa < 0 else design))


def heisenberg_to_h1(h: HeisenbergSpec) -> ChainSpec:
    """The XX chain with the one-excitation matrix of the anisotropic
    Heisenberg chain, so it can be certified and simulated as one.

    The ZZ terms shift the on-site energies; the effective field is
    ``B_n = b_n - (J_n*Delta_n + J_{n-1}*Delta_{n-1}) / 2`` with the boundary
    convention ``J_0 = J_N = 0``. The couplings are untouched.
    """
    j = np.asarray(h.couplings, dtype=float)
    d = np.asarray(h.anisotropies, dtype=float)
    b = np.asarray(h.fields, dtype=float)
    jd = np.concatenate(([0.0], j * d, [0.0]))
    eff = b - 0.5 * (jd[1:] + jd[:-1])
    return ChainSpec(n=h.n, couplings=h.couplings, fields=tuple(eff))


def mirror_symmetry_check(spec: ChainSpec, tol: float | None = None) -> MirrorReport:
    """Check J_n = J_{N-n} and B_n = B_{N+1-n} up to ``tol``.

    Couplings are compared directly (positive-J convention): sign or phase
    differences only alter the arrival phase, so designers emit positive J.
    """
    j = spec.coupling_array()
    b = spec.field_array()
    if tol is None:
        scale = max(1.0, float(np.max(np.abs(j), initial=0.0)),
                    float(np.max(np.abs(b), initial=0.0)))
        tol = 1e-9 * scale
    if not tol >= 0:
        raise ValueError("tol must be non-negative")
    cv = float(np.max(np.abs(j - j[::-1]), initial=0.0))
    fv = float(np.max(np.abs(b - b[::-1]), initial=0.0))
    worst = max(cv, fv)
    return MirrorReport(symmetric=bool(worst <= tol), max_violation=worst,
                        max_coupling_violation=cv, max_field_violation=fv)


def chain_to_dict(spec: ChainSpec) -> dict:
    return {
        "n": spec.n,
        "couplings": list(spec.couplings),
        "fields": list(spec.fields),
        "statistics": spec.statistics,
    }


def chain_from_dict(doc) -> ChainSpec:
    if not isinstance(doc, dict):
        raise ChainFormatError("chain document must be a JSON object")
    missing = {"n", "couplings", "fields"} - set(doc)
    if missing:
        raise ChainFormatError(f"chain document missing keys: {sorted(missing)}")
    if not isinstance(doc["n"], numbers.Integral) or isinstance(doc["n"], bool):
        raise ChainFormatError(f"n must be an integer, got {doc['n']!r}")
    for key in ("couplings", "fields"):
        if not isinstance(doc[key], list) or not all(
                isinstance(x, numbers.Real) and not isinstance(x, bool) for x in doc[key]):
            raise ChainFormatError(f"{key} must be a list of real numbers")
    try:
        return ChainSpec(
            n=int(doc["n"]),
            couplings=tuple(float(x) for x in doc["couplings"]),
            fields=tuple(float(x) for x in doc["fields"]),
            statistics=doc.get("statistics", "fermionic"),
        )
    except (TypeError, ValueError) as exc:
        raise ChainFormatError(f"invalid chain document: {exc}") from exc


def _parse_int(text: str):
    # write_chain renders -0.0 as "-0"; read it back as a float to keep its sign
    return -0.0 if text == "-0" else int(text)


def read_chain(path) -> ChainSpec:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=_parse_int)
    except (OSError, json.JSONDecodeError) as exc:
        raise ChainFormatError(f"cannot parse chain file {path}: {exc}") from exc
    return chain_from_dict(doc)


def write_chain(spec: ChainSpec, path) -> None:
    Path(path).write_text(serialize.dumps(chain_to_dict(spec)) + "\n", encoding="utf-8")
