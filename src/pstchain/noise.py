"""Noise analysis: single-kick dephasing in closed form, and the
independent-bath effective model with its weak- and strong-coupling
behavior.

The dephasing model applies independent Z errors with probability p on
every site at one instant during the transfer; the averaged fidelity then
has a closed form in the instantaneous amplitude profile. Continuous
(Lindblad) dephasing is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import require_perfect
from .chain import ChainSpec, _finite_floats
from .spectral import _phase_sum, amplitude_profile, diagonalize, gamma, pair_weights


@dataclass(frozen=True)
class DephasingReport:
    """Kick time(s) ``t`` with the matching fidelities: floats for a scalar
    kick time, arrays of its shape for an array."""

    p: float
    t: float | np.ndarray
    avg_fidelity: float | np.ndarray
    lower_bound: float
    upper_bound: float
    gamma_fourth_sum: float | np.ndarray

    def __post_init__(self):
        if not np.all((self.lower_bound - 1e-12 <= self.avg_fidelity)
                      & (self.avg_fidelity <= self.upper_bound + 1e-12)):
            raise ArithmeticError("average fidelity escaped its bounds")


def dephasing_avg_fidelity(spec: ChainSpec, p: float, t) -> DephasingReport:
    """Average transfer fidelity when every site suffers a Z error with
    probability p at time t during an otherwise perfect transfer.

    <F> = 1 - 2p(2-p)/3 + 2p(1-p)/3 * sum_n |gamma_n(t)|^4, bracketed by
    the fully-delocalized (sum = 1/N) and storage (sum = 1) extremes.
    ``t`` may be a scalar or an array of kick times; the chain is certified
    once either way.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    cert = require_perfect(spec)
    kicks = np.asarray(t, dtype=float)
    if not np.all((0.0 <= kicks) & (kicks <= cert.t0 + 1e-12)):
        raise ValueError("kick time must lie in [0, t0]")
    # one kick at a time: a batched product would move the fidelities in the last bit
    s4 = np.array([np.sum(np.abs(amplitude_profile(cert.spectrum, 1, tk)) ** 4)
                   for tk in kicks.ravel()]).reshape(kicks.shape)
    if kicks.ndim == 0:
        t, s4 = float(kicks), float(s4)
    else:
        t = kicks
    # single division keeps the p = 0, 1 endpoints exact in floating point
    avg = (3.0 - 2.0 * p * (2.0 - p) + 2.0 * p * (1.0 - p) * s4) / 3.0
    lower = (3.0 - 2.0 * p * (2.0 - p) + 2.0 * p * (1.0 - p) / spec.n) / 3.0
    upper = (3.0 - 2.0 * p) / 3.0
    return DephasingReport(p=p, t=t, avg_fidelity=avg, lower_bound=lower,
                           upper_bound=upper, gamma_fourth_sum=s4)


@dataclass(frozen=True)
class BathSpec:
    """Chain with every site coupled to its own bath.

    A bath of several spins attached to one site acts, within the
    one-excitation sector, like a single effective spin with coupling
    G_n^2 = sum_m (g_m^n)^2; ``raw_couplings`` holds the per-site g lists
    when the collapse is wanted explicitly. The closed-form level formula
    assumes a common G.
    """

    chain: ChainSpec
    coupling: float | None = None
    raw_couplings: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if (self.coupling is None) == (self.raw_couplings is None):
            raise ValueError("give either a common coupling G or raw per-site couplings")
        if self.raw_couplings is not None:
            raw = tuple(_finite_floats(site, "raw couplings") for site in self.raw_couplings)
            if len(raw) != self.chain.n:
                raise ValueError("need one raw coupling list per site")
            object.__setattr__(self, "raw_couplings", raw)
        elif not 0.0 <= self.coupling < math.inf:
            raise ValueError("G must be finite and non-negative")

    def effective_couplings(self) -> np.ndarray:
        if self.raw_couplings is not None:
            return np.array([math.sqrt(sum(g * g for g in site))
                             for site in self.raw_couplings])
        return np.full(self.chain.n, float(self.coupling))

    def common_coupling(self) -> float:
        g = self.effective_couplings()
        if np.max(g) - np.min(g) > 1e-9 * max(1.0, np.max(g)):
            raise ValueError("effective bath couplings are not equal across sites")
        return float(g[0])


@dataclass(frozen=True)
class BathModel:
    energies: np.ndarray          # ascending levels of the effective operator
    closed_form: np.ndarray       # E_n^k = (lambda_n + (-1)^k sqrt(4G^2+lambda_n^2))/2


def bath_model(b: BathSpec) -> BathModel:
    """Levels of the chain with one bath spin per site, each coupled with a
    common G: the effective 2N-site operator splits into one 2x2 block
    [[lambda_n, G], [G, 0]] per chain mode, so its levels are the closed
    form from the chain's eigenvalues."""
    g = b.common_coupling()
    lam = diagonalize(b.chain).eigenvalues
    disc = np.sqrt(4.0 * g * g + lam ** 2)
    closed = 0.5 * np.stack([lam + disc, lam - disc], axis=1)
    return BathModel(energies=np.sort(closed.ravel()), closed_form=closed)


@dataclass(frozen=True)
class BathTransferReport:
    times: np.ndarray
    gamma_exact: np.ndarray       # end amplitude of the bath-coupled chain
    gamma_bare: np.ndarray        # end amplitude of the bare chain
    strong_prediction: np.ndarray  # cos(G t) * gamma_bare(t/2)
    max_strong_deviation: float
    max_weak_deviation: float


def bath_transfer_amplitude(b: BathSpec, times) -> BathTransferReport:
    """End-to-end amplitude of the bath-coupled chain over a time grid,
    compared against the bare chain and the strong-coupling prediction
    cos(G t) gamma_N(t/2).

    With a common G the effective operator splits into one 2x2 block
    [[lambda_k, G], [G, 0]] per chain mode, so from one decomposition of the
    chain gamma(t) = sum_k v_Nk v_1k e^(-i lambda_k t/2) (cos(Omega_k t)
    - i r_k sin(Omega_k t)), Omega_k = sqrt(lambda_k^2 + 4G^2)/2 and
    r_k = lambda_k / (2 Omega_k). Each term is the sum of two phases, one per
    level of the block,
    (1 - r_k)/2 e^(-i (lambda_k/2 - Omega_k) t) + (1 + r_k)/2 e^(-i (lambda_k/2 + Omega_k) t),
    so the amplitude is one phase sum over 2N levels. The weights
    v_Nk v_1k come from :func:`pair_weights`, which on a chain with positive
    couplings reads no eigenvectors.
    """
    times = np.asarray(times, dtype=float)
    g = b.common_coupling()
    n = b.chain.n
    sd = diagonalize(b.chain)
    lam = sd.eigenvalues
    omega = 0.5 * np.sqrt(lam ** 2 + 4.0 * g * g)
    # Omega_k = 0 only where lambda_k = G = 0; the block is then zero
    ratio = np.divide(0.5 * lam, omega, out=np.zeros_like(lam), where=omega > 0.0)
    w = 0.5 * pair_weights(sd, 1, n)
    exact = _phase_sum(np.concatenate((0.5 * lam - omega, 0.5 * lam + omega)),
                       np.concatenate((w * (1.0 - ratio), w * (1.0 + ratio))), times)
    bare = gamma(sd, 1, n, times)
    strong = np.cos(g * times) * gamma(sd, 1, n, times / 2.0)
    return BathTransferReport(
        times=times, gamma_exact=exact, gamma_bare=bare, strong_prediction=strong,
        max_strong_deviation=float(np.max(np.abs(exact - strong))),
        max_weak_deviation=float(np.max(np.abs(exact - bare))),
    )
