"""Multi-excitation dynamics on chains.

The excitation-preserving chain maps onto non-interacting fermions, so a
k-excitation state is a wedge (Slater) combination of single-particle
amplitude vectors and evolves orbital by orbital under the one-excitation
propagator, up to exchange signs. This module carries that calculus, the
protocol simulations built on top (entanglement generation,
initialization-free transfer, sequential storage, entanglement
distribution), and the pairing transformation that diagonalizes general
quadratic fermion Hamiltonians, including the transverse-Ising
identification.

Entanglement generation and initialization-free transfer run in their
excitation sectors: the evolved state is read off N-component orbitals, so
they work at any chain length. Sequential storage runs on the k x k revival
matrix of its k registers, M[i, j] = gamma_11 between write j and read i:
its register transfer matrix is the table of minors of M (Wick;
Jordan-Wigner; Lieb, Schultz and Mattis, Ann. Phys. 16, 1961), so it too
works at any chain length, for at most ``REGISTER_CAP`` = 8 registers. No
2^N array is built. Every time evolution goes through ``spectral.propagate``
or ``spectral.gamma``.

Basis convention for dense vectors (the storage registers, and 2^N states
in the tests): site 1, or register 0, is the most significant bit, so the
basis index of a configuration with excited site set S is
``sum(2^(N-s) for s in S)``. Ascending-site ordered creation operators map
onto computational basis states with no extra sign.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .certify import require_perfect, verify_transfer
from .chain import ChainSpec, _integral
from .spectral import amplitude_profile, diagonalize, gamma, propagate

REGISTER_CAP = 8  # registers of the largest storage run; its table holds 4^k minors


def _require_fermionic(spec: ChainSpec) -> None:
    if spec.statistics != "fermionic":
        raise ValueError("operation requires fermionic statistics "
                         "(bosonic excitations carry no exchange signs)")


# ---------------------------------------------------------------------------
# Slater states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlaterState:
    """Antisymmetrized multi-excitation state.

    ``orbitals`` rows are orthonormal single-particle amplitude vectors in
    insertion order; ``coefficient`` carries the wedge norm of the raw
    constructor input together with every accumulated exchange/ordering
    phase. Linearly dependent input collapses to the zero state
    (``coefficient == 0``), the exclusion principle.
    """

    orbitals: np.ndarray  # (k, n) complex
    coefficient: complex = 1.0 + 0.0j

    def __post_init__(self):
        self.orbitals.flags.writeable = False

    @property
    def n_sites(self) -> int:
        return self.orbitals.shape[1]

    @property
    def n_orbitals(self) -> int:
        return self.orbitals.shape[0]

    @property
    def is_zero(self) -> bool:
        return self.coefficient == 0

    @property
    def norm(self) -> float:
        return abs(self.coefficient)

    @property
    def phase(self) -> complex:
        if self.is_zero:
            raise ValueError("zero state has no phase")
        return self.coefficient / abs(self.coefficient)


def slater_state(vectors, coefficient: complex = 1.0) -> SlaterState:
    """Wedge the given single-particle vectors into a SlaterState.

    Orbitals are orthonormalized by Gram-Schmidt; the removed norms multiply
    into the coefficient, so ``norm**2`` of a two-vector state equals
    ``1 - |<b|a>|^2`` for unit inputs.
    """
    raw = np.array([np.asarray(v, dtype=complex) for v in vectors])
    if raw.ndim != 2:
        raise ValueError("orbitals must share a common length")
    k, n = raw.shape
    q = np.zeros((k, n), dtype=complex)
    coef = complex(coefficient)
    for j in range(k):
        v = raw[j]
        for _ in range(2):
            v = v - q[:j].T @ (q[:j].conj() @ v)
        r = np.linalg.norm(v)
        if r <= 1e-12 * max(1.0, np.linalg.norm(raw[j])):
            return SlaterState(orbitals=np.zeros((k, n), dtype=complex), coefficient=0.0)
        q[j] = v / r
        coef *= r
    return SlaterState(orbitals=q, coefficient=coef)


def basis_slater(n: int, sites, coefficient: complex = 1.0) -> SlaterState:
    """Slater state with excitations on the given 1-based sites, in order; a
    site that is not an integer in 1..n raises ``ValueError``."""
    n = _integral(n, "n")
    vecs = []
    for s in sites:
        s = _integral(s, "sites")
        if not 1 <= s <= n:
            raise ValueError(f"sites must lie in 1..{n}, got {s}")
        e = np.zeros(n, dtype=complex)
        e[s - 1] = 1.0
        vecs.append(e)
    return slater_state(vecs, coefficient)


def sort_to_site_order(state: SlaterState, tol: float = 1e-8) -> tuple[SlaterState, tuple[int, ...]]:
    """Re-sort single-site orbitals into ascending site order.

    Requires every orbital to be supported on one site (within ``tol``).
    Per-orbital phases and the permutation sign move into the coefficient;
    returns the normalized state and the ascending 1-based site labels.
    """
    if state.is_zero:
        raise ValueError("cannot sort the zero state")
    sites = []
    phases = []
    for row in state.orbitals:
        idx = int(np.argmax(np.abs(row)))
        if abs(abs(row[idx]) - 1.0) > tol or np.linalg.norm(np.delete(row, idx)) > tol:
            raise ValueError("orbital is not supported on a single site")
        sites.append(idx)
        phases.append(row[idx])
    order = np.argsort(sites)
    sign = _permutation_sign(order)
    k, n = state.orbitals.shape
    orbitals = np.zeros((k, n), dtype=complex)
    for new, old in enumerate(order):
        orbitals[new, sites[old]] = 1.0
    coef = state.coefficient * sign * np.prod(phases)
    return (SlaterState(orbitals=orbitals, coefficient=coef),
            tuple(sites[o] + 1 for o in order))


def _permutation_sign(perm) -> int:
    perm = list(perm)
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def evolve_slater(spec: ChainSpec, state: SlaterState, t: float) -> SlaterState:
    """Propagate every orbital with the one-excitation propagator.

    Exact for the excitation-preserving chain: overlaps between orbitals are
    preserved, and the exchange structure rides along in the wedge.
    """
    _require_fermionic(spec)
    if state.n_sites != spec.n:
        raise ValueError("orbital length must match the chain")
    if state.is_zero:
        return state
    orbitals = propagate(diagonalize(spec), state.orbitals.T, t).T
    return SlaterState(orbitals=orbitals, coefficient=state.coefficient)


# ---------------------------------------------------------------------------
# Minors
# ---------------------------------------------------------------------------

def _minors(u: np.ndarray) -> np.ndarray:
    """The 2^k table of the minors det u[S', S] of a k x k matrix, between
    ascending index sets S' (rows) and S (columns) of equal size, and zero
    between sets of unequal size; the empty minor is 1. A set's index is
    ``sum(2^(k-1-s) for s in S)``. For the N x N one-excitation propagator it
    is the 2^N free-fermion evolution (Jordan-Wigner)."""
    k = u.shape[0]
    out = np.zeros((1 << k, 1 << k), dtype=complex)
    out[0, 0] = 1.0
    for p in range(1, k + 1):
        sets = np.array(list(itertools.combinations(range(k), p)))
        idx = (1 << (k - 1 - sets)).sum(axis=1)  # index 0 is the most significant bit
        out[np.ix_(idx, idx)] = np.linalg.det(u[sets[:, None, :, None], sets[None, :, None, :]])
    return out


def entanglement_entropy_bits(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits of a density matrix."""
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-15]
    return float(-np.sum(evals * np.log2(evals)))


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntanglementReport:
    t0: float
    end_pair_rho: np.ndarray
    entropy_bits: float
    target_fidelity: float


def entanglement_generation(spec: ChainSpec, t: float | None = None) -> EntanglementReport:
    """Evolve |+> |0..0> |+> for t0 and report the end-pair state.

    The two boundary excitations swap ends; only the doubly-excited
    component picks up the exchange sign, leaving the end pair in the
    maximally entangled state (|00>+|01>+|10>-|11>)/2 up to the local
    arrival phases, which are undone before the fidelity is computed.

    The state holds at most two excitations. With u1 and uN the propagated
    orbitals of sites 1 and N, its amplitude is 1/2 on the vacuum,
    (u1_i + uN_i)/2 on site i and the Slater determinant
    (u1_i uN_j - uN_i u1_j)/2 on sites i < j. The end-pair density matrix
    (basis index 2 b_1 + b_N) sums these over the O(N^2) configurations of
    the middle sites, so any chain length runs.
    """
    _require_fermionic(spec)
    cert = require_perfect(spec)
    n = spec.n
    if t is None:
        t = cert.t0
    u1 = amplitude_profile(cert.spectrum, 1, t)
    un = amplitude_profile(cert.spectrum, n, t)
    single = 0.5 * (u1 + un)
    pair = 0.5 * (np.outer(u1, un) - np.outer(un, u1))
    # one row per middle configuration (empty, then site r), columns 2 b_1 + b_N
    rows = np.zeros((n - 1, 4), dtype=complex)
    rows[0] = (0.5, single[-1], single[0], pair[0, -1])
    rows[1:, 0] = single[1:-1]
    rows[1:, 1] = pair[1:-1, -1]
    rows[1:, 2] = pair[0, 1:-1]
    rho = rows.T @ rows.conj()
    # both excitations in the middle; the antisymmetric sum counts each pair twice
    rho[0, 0] += 0.5 * np.sum(np.abs(pair[1:-1, 1:-1]) ** 2)
    phase = np.conj(cert.arrival_phase)
    correction = np.kron(np.diag([1.0, phase]), np.diag([1.0, phase]))
    rho_fixed = correction @ rho @ correction.conj().T
    target = 0.5 * np.array([1, 1, 1, -1], dtype=complex)
    fidelity = float(np.real(target.conj() @ rho_fixed @ target))
    site1 = np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    entropy = entanglement_entropy_bits(site1)
    return EntanglementReport(t0=cert.t0, end_pair_rho=rho,
                              entropy_bits=entropy, target_fidelity=fidelity)


@dataclass(frozen=True)
class InitFreeReport:
    fidelity: float
    fidelity_by_outcome: tuple[float, float]
    outcome_probabilities: tuple[float, float]


def initfree_transfer(spec: ChainSpec, alpha: complex, beta: complex,
                      junk) -> InitFreeReport:
    """Transfer alpha|01> + beta|10> encoded on sites (1, 2) regardless of
    the state of the rest of the chain.

    ``junk`` is a bit string (or sequence) of length N-2 giving the
    excitations on sites 3..N. Both excitation states of the encoding carry
    the same excitation parity, so the exchange phases against the junk
    register are common and the encoded qubit arrives clean on sites
    (N-1, N). Readout measures site N-1 in the X basis and applies Z on
    site N for the minus outcome; both outcomes are decoded and reported.

    The Slater state is evolved orbital by orbital and the readout acts on
    the 4x4 density matrix of sites (N-1, N), which the one-body
    correlations of the orbitals give in O(kN) for k excitations.
    """
    _require_fermionic(spec)
    cert = require_perfect(spec)
    n = spec.n
    if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-10:
        raise ValueError("input amplitudes must be normalized")
    bits = [int(b) for b in junk]
    if len(bits) != n - 2 or any(b not in (0, 1) for b in bits):
        raise ValueError("junk must be a bit string of length n - 2")
    junk_rows = [s + 2 for s, b in enumerate(bits) if b]  # sites 3..N, 0-based

    first = np.zeros(n, dtype=complex)
    first[1] = alpha
    first[0] = beta
    vectors = [first, *np.eye(n, dtype=complex)[junk_rows]]
    state = evolve_slater(spec, slater_state(vectors), cert.t0)
    rho = _adjacent_pair_rho(state, n - 1).reshape(2, 2, 2, 2)

    # The arrival phase and the exchange sign against the junk register are
    # common to both encoded components, hence global; no correction needed.
    target = np.array([alpha, beta], dtype=complex)
    fids = []
    probs = []
    for outcome in (+1, -1):
        proj = 0.5 * np.array([[1.0, outcome], [outcome, 1.0]])
        correction = np.diag([1.0, outcome])
        # X projection on site N-1 with that site traced out, then Z on N for -1
        site_n = correction @ np.einsum("ji,ikjl->kl", proj, rho) @ correction
        prob = float(np.trace(site_n).real)
        probs.append(prob)
        if prob < 1e-14:
            fids.append(1.0)
            continue
        fids.append(float(np.real(target.conj() @ site_n @ target)) / prob)
    return InitFreeReport(fidelity=min(fids), fidelity_by_outcome=tuple(fids),
                          outcome_probabilities=tuple(probs))


def _adjacent_pair_rho(state: SlaterState, site: int) -> np.ndarray:
    """Density matrix of sites (site, site + 1), basis index 2 b_site + b_{site+1}.

    With C = Phi^T conj(Phi) the one-body correlation matrix of the
    orthonormal orbital rows Phi, Wick's theorem gives
    P(11) = C_aa C_bb - |C_ab|^2, and the coherence from |01> to |10> is
    C_ab. The Jordan-Wigner strings of two adjacent sites cancel, and the
    excitation number is conserved, so no other entry survives.
    """
    phi = state.orbitals[:, site - 1:site + 1]
    c = phi.T @ phi.conj()
    caa, cbb, cab = c[0, 0].real, c[1, 1].real, c[0, 1]
    p11 = caa * cbb - abs(cab) ** 2
    rho = np.diag([1.0 - caa - cbb + p11, cbb - p11, caa - p11, p11]).astype(complex)
    rho[2, 1] = cab
    rho[1, 2] = np.conj(cab)
    return abs(state.coefficient) ** 2 * rho


@dataclass(frozen=True)
class StorageSimReport:
    output_state: np.ndarray          # joint state of the k output registers
    cz_pairs: tuple[tuple[int, int], ...]
    z_corrections: tuple[int, ...]    # Z power applied to each register at readout
    readout_steps: tuple[int, ...]    # removal time of each register, in units of t_r
    fidelity_vs_prediction: float
    predicted_state: np.ndarray


def sequential_storage_sim(spec: ChainSpec, inputs, readout_order) -> StorageSimReport:
    """Write qubits onto site 1 at multiples of t_r, read them back at chosen
    revivals, and compare against the controlled-phase prediction.

    ``readout_order`` is "same", "reverse", or a permutation of write
    indices. Removing a qubit applies a controlled phase with every qubit
    still stored that was written later; the revived |1> amplitude carries a
    known sign per full cycle, which the readout undoes (recorded in
    ``z_corrections``). Reverse order therefore returns the inputs exactly,
    and same order applies a controlled phase between every pair.

    Register j is written at step j and the i-th read in time order fires at
    step tau_i, one step being t_r = pi/N. A write swaps its register onto
    the empty site 1 (no Jordan-Wigner string), creating a fermion, and a
    read that fires annihilates it. So by Wick's theorem the amplitude from
    input registers b to output registers b', |b| = |b'| = p, is
    (-1)^(p(p-1)/2) det M[reads in b', writes in b], with the revival matrix
    M[i, j] = gamma_11((tau_i - j) t_r) read from one ``gamma`` table; no
    2^N state is formed, and ``REGISTER_CAP`` bounds the 4^k minors.

    The formula drops the swap terms (1 - n_1) at the writes and at the
    reads that do not fire, each weighted by an off-target gamma_11 (a step
    difference that is not a multiple of N). So the run refuses a chain on
    which any off-target entry of the table exceeds 1e-8 or any on-target
    one has 1 - |gamma_11| > 1e-8, and raises ``ArithmeticError`` if the
    squared norm of the register state is off 1 by more than 1e-8.
    """
    _require_fermionic(spec)
    n = spec.n
    states = [np.asarray(s, dtype=complex) for s in inputs]
    k = len(states)
    if k == 0 or k > n:
        raise ValueError(f"number of inputs must lie in 1..{n}")
    if k > REGISTER_CAP:
        raise ValueError(f"{k} registers exceed the register cap ({REGISTER_CAP})")
    for s in states:
        if s.shape != (2,) or not abs(np.linalg.norm(s) - 1.0) <= 1e-10:
            raise ValueError("inputs must be normalized single-qubit states")
    if isinstance(readout_order, str) and readout_order in ("same", "reverse"):
        order = list(range(k))[::1 if readout_order == "same" else -1]
    else:
        try:
            order = [int(i) for i in readout_order]
        except (TypeError, ValueError):
            order = []
        if sorted(order) != list(range(k)):
            raise ValueError('readout_order must be "same", "reverse" or a permutation '
                             f"of the write indices 0..{k - 1}")

    # Each read waits for the next revival of its register's write.
    cz_pairs = []
    z_corr = [0] * k
    steps = [0] * k
    now = k - 1  # the last write
    for s in order:
        periods = (now - s) // n + 1
        now = s + n * periods
        steps[s] = now
        z_corr[s] = (periods * (n + 1)) % 2
        cz_pairs += [(s, m) for m in range(s + 1, k) if not steps[m]]  # m still stored

    revivals = gamma(diagonalize(spec), 1, 1, math.pi / n * np.arange(now + 1))
    deviation = np.abs(revivals)
    deviation[::n] = 1.0 - deviation[::n]
    if np.max(deviation) > 1e-8:
        raise ValueError("chain does not null the input amplitude at multiples of t_r "
                         f"and revive it at multiples of pi (off by {np.max(deviation):.1e})")

    minors = _minors(revivals[np.array([steps[s] for s in order])[:, None] - np.arange(k)])
    # Row r of the minors holds the reads set in r, read i at bit k-1-i: with
    # the Wick sign and the Z corrections it is the row of those registers.
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    p = bits.sum(axis=1)
    sign = 1 - 2 * ((p * (p - 1) // 2 + bits @ [z_corr[s] for s in order]) % 2)
    product = reduce(np.kron, states)
    output = np.empty(1 << k, dtype=complex)
    output[bits @ (1 << (k - 1 - np.array(order)))] = sign * (minors @ product)
    lost = abs(1.0 - float(np.vdot(output, output).real))
    if not lost <= 1e-8:
        raise ArithmeticError(f"register state lost norm on the chain ({lost:.1e})")
    output = output / np.linalg.norm(output)

    predicted = product.copy()
    for (a, b) in cz_pairs:
        predicted.reshape(1 << a, 2, 1 << (b - a - 1), 2, -1)[:, 1, :, 1] *= -1
    fidelity = float(abs(np.vdot(predicted, output)) ** 2)
    return StorageSimReport(output_state=output, cz_pairs=tuple(cz_pairs),
                            z_corrections=tuple(z_corr), readout_steps=tuple(steps),
                            fidelity_vs_prediction=fidelity, predicted_state=predicted)


@dataclass(frozen=True)
class DistributionReport:
    bell_fidelity: float
    t0: float
    arrival_phase: complex


def entanglement_distribution_sim(spec: ChainSpec) -> DistributionReport:
    """Share a Bell pair by sending half of it down the chain.

    An uncoupled ancilla holds the other half; after t0 the receiving site
    (with its known arrival phase undone) is maximally entangled with the
    ancilla. Works in the {vacuum, one-excitation} sector, so any chain
    length is fine.
    """
    cert = require_perfect(spec)
    amp = abs(cert.arrival_amplitude)
    return DistributionReport(bell_fidelity=((1.0 + amp) / 2.0) ** 2, t0=cert.t0,
                              arrival_phase=cert.arrival_phase)


def bell_fidelity_curve(spec: ChainSpec, times) -> np.ndarray:
    """Best-case Bell fidelity (phase correction allowed) at each time."""
    sd = diagonalize(spec)
    amps = np.abs(gamma(sd, 1, spec.n, np.asarray(times, dtype=float)))
    return ((1.0 + amps) / 2.0) ** 2


# ---------------------------------------------------------------------------
# Bosonic contrast
# ---------------------------------------------------------------------------

def two_boson_transfer(spec: ChainSpec, source_pair, target_pair, t: float) -> complex:
    """Amplitude between normalized two-boson states |i,j> under the
    harmonic-oscillator chain.

    Free bosons evolve creation operator by creation operator,
    a_i^dag -> sum_k U_ki a_k^dag with U = exp(-i H t), so with
    |ij> = a_i^dag a_j^dag |0> / sqrt(1+d_ij) the amplitude is the
    permanent (U_ki U_lj + U_kj U_li) / sqrt((1+d_ij)(1+d_kl)), read from
    the two propagated columns i and j.
    """
    if spec.statistics != "bosonic":
        raise ValueError("two-boson transfer requires bosonic statistics "
                         "(fermions pick up exchange signs; use evolve_slater)")
    n = spec.n
    i, j = (_integral(s, "sites") for s in source_pair)
    k, l = (_integral(s, "sites") for s in target_pair)
    if not all(1 <= s <= n for s in (i, j, k, l)):
        raise ValueError(f"sites must lie in 1..{n}")
    u = propagate(diagonalize(spec), np.eye(n)[:, [i - 1, j - 1]], t)
    perm = u[k - 1, 0] * u[l - 1, 1] + u[l - 1, 0] * u[k - 1, 1]
    return complex(perm / math.sqrt((1.0 + (i == j)) * (1.0 + (k == l))))


# ---------------------------------------------------------------------------
# Quadratic fermion Hamiltonians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticFermionHamiltonian:
    """H = sum A_nm a_n^dag a_m + (1/2) sum B_nm (a_n^dag a_m^dag + a_m a_n)
    with A real symmetric and B real antisymmetric."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A and B must be square matrices of equal size")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("A and B must be finite")
        scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
        if np.max(np.abs(a - a.T)) > 1e-12 * scale:
            raise ValueError("A must be symmetric")
        if np.max(np.abs(b + b.T)) > 1e-12 * scale:
            raise ValueError("B must be antisymmetric")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        self.a.flags.writeable = False
        self.b.flags.writeable = False

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def block_matrix(self) -> np.ndarray:
        """The 2N x 2N pairing matrix [[0, A+B], [A-B, 0]]."""
        n = self.n
        m = np.zeros((2 * n, 2 * n))
        m[:n, n:] = self.a + self.b
        m[n:, :n] = self.a - self.b
        return m


@dataclass(frozen=True)
class BogoliubovModes:
    """Non-negative mode energies with their eta/chi blocks (one row per mode)."""

    energies: np.ndarray
    eta: np.ndarray
    chi: np.ndarray


def bogoliubov_modes(h: QuadraticFermionHamiltonian) -> BogoliubovModes:
    """Diagonalize a quadratic fermion Hamiltonian into paired modes by one
    singular value decomposition (Lieb, Schultz and Mattis, Ann. Phys. 16,
    1961).

    With A - B = U diag(mu) V^T, and A + B = (A - B)^T, each mode's eta row
    is a right singular vector and its chi row the matching left one, over
    sqrt 2: (A - B) eta = mu chi and (A + B) chi = mu eta, so (eta; chi) is
    an eigenvector of the block matrix with eigenvalue mu >= 0, zero modes
    included. Modes ascend in energy.
    """
    u, mu, vt = np.linalg.svd(h.a - h.b)
    eta, chi = vt[::-1] / math.sqrt(2.0), u.T[::-1] / math.sqrt(2.0)
    gram_plus = eta @ eta.T + chi @ chi.T
    gram_minus = eta @ eta.T - chi @ chi.T
    if (np.max(np.abs(gram_plus - np.eye(h.n))) > 1e-10
            or np.max(np.abs(gram_minus)) > 1e-10):
        raise ArithmeticError("modes violate the canonical anticommutation sums")
    return BogoliubovModes(energies=mu[::-1], eta=eta, chi=chi)


@dataclass(frozen=True)
class IsingFromPstResult:
    fields: tuple[float, ...]
    couplings: tuple[float, ...]
    quadratic: QuadraticFermionHamiltonian
    t0: float
    transfer_fidelity: float
    arrival_phase: complex


def ising_from_pst(spec: ChainSpec) -> IsingFromPstResult:
    """Fold a perfect 2N-site zero-field chain into a transverse-Ising model.

    With couplings K_1..K_{2N-1}, identify B_n = K_{2n-1} and
    2 J_n = K_{2n}. The pairing block matrix of the resulting quadratic
    Hamiltonian, on the vectors (eta; chi), is the 2N-site hopping matrix
    with its sites taken in the order (chi_1, eta_1, chi_2, eta_2, ...,
    chi_N, eta_N): chi_n is site 2n-1 and eta_n site 2n. So the mode
    a_1^dag (the vector e_1 + e_{N+1}, sites 1 and 2) is carried onto
    a_N^dag (e_N + e_{2N}, sites 2N-1 and 2N) in time t0; this is verified
    by propagating through the chain's certified spectrum.
    """
    if spec.n % 2 != 0:
        raise ValueError("the source chain must have even length")
    if np.max(np.abs(spec.field_array())) > 1e-12:
        raise ValueError("the source chain must have zero fields")
    cert = require_perfect(spec)
    n = spec.n // 2
    k = spec.coupling_array()
    fields = k[0::2]
    couplings = k[1::2] / 2.0
    a = np.diag(fields).astype(float)
    bm = np.zeros((n, n))
    if n > 1:
        idx = np.arange(n - 1)
        a[idx, idx + 1] = couplings
        a[idx + 1, idx] = couplings
        bm[idx, idx + 1] = couplings
        bm[idx + 1, idx] = -couplings
    quad = QuadraticFermionHamiltonian(a=a, b=bm)
    # <a_N| U |a_1> with both modes (e_s + e_{s+1}) / sqrt(2) on the chain
    overlap = complex(propagate(cert.spectrum, np.eye(2 * n)[:, :2], cert.t0)[-2:].sum() / 2)
    fidelity = abs(overlap) ** 2
    verify_transfer(fidelity, "mode transfer")
    return IsingFromPstResult(fields=tuple(float(x) for x in fields),
                              couplings=tuple(float(x) for x in couplings),
                              quadratic=quad, t0=cert.t0,
                              transfer_fidelity=float(fidelity),
                              arrival_phase=overlap / abs(overlap))
