"""Beyond-1D constructions and Hamiltonian gadgets built from perfect
transfer chains: product lattices and hypercubes, star networks for Bell
and W states, the two-coupling entangler, the domain-wall signal
amplifier, and the clock Hamiltonian that runs a gate sequence by pure
time evolution.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .certify import require_perfect, verify_transfer
from .chain import ChainSpec, _integral, chain
from .spectral import amplitude_profile, diagonalize, propagate

DENSE_CAP = 12  # bounds the hypercube's dimension and the amplifier's 2^N operator


@dataclass(frozen=True)
class NetworkSpec:
    """Weighted graph whose one-excitation operator generalizes a chain.

    Edge weights may be complex (phased couplings); Hermiticity is enforced
    when the operator is built. ``labels`` names distinguished vertices
    (0-based indices).
    """

    n_vertices: int
    edges: tuple[tuple[int, int, complex], ...]
    potentials: tuple[float, ...]
    labels: dict

    def __post_init__(self):
        object.__setattr__(self, "edges",
                           tuple((int(u), int(v), complex(w)) for u, v, w in self.edges))
        object.__setattr__(self, "potentials", tuple(float(p) for p in self.potentials))
        if len(self.potentials) != self.n_vertices:
            raise ValueError("need one potential per vertex")
        for u, v, w in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices) or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            if not (math.isfinite(w.real) and math.isfinite(w.imag)):
                raise ValueError("edge weights must be finite")


def network_operator(net: NetworkSpec) -> np.ndarray:
    """Hermitian one-excitation matrix of the network."""
    dim = net.n_vertices
    op = np.zeros((dim, dim), dtype=complex)
    op[np.arange(dim), np.arange(dim)] = net.potentials
    for u, v, w in net.edges:
        if op[u, v] != 0 and abs(op[u, v] - w) > 0:
            raise ValueError(f"conflicting duplicate edge ({u}, {v})")
        op[u, v] = w
        op[v, u] = np.conj(w)
    if np.isrealobj(op) or np.max(np.abs(op.imag)) == 0.0:
        return op.real
    return op


def network_to_dict(net: NetworkSpec) -> dict:
    return {
        "n_vertices": net.n_vertices,
        "edges": [{"u": u, "v": v, "re": w.real, "im": w.imag} for u, v, w in net.edges],
        "potentials": list(net.potentials),
        "labels": dict(net.labels),
    }


def product_network(a: ChainSpec, b: ChainSpec) -> NetworkSpec:
    """Grid of two perfect chains sharing a transfer time.

    The two directions evolve independently, so the corner-to-corner
    amplitude is gamma_a(t0) gamma_b(t0), read from the two certificates,
    and an excitation at (i, j) reaches the diagonally opposite vertex at
    t0. Vertex (i, j) (0-based) maps to index i * M + j.
    """
    for spec in (a, b):
        if np.max(np.abs(spec.field_array()), initial=0.0) > 1e-12:
            raise ValueError("product_network requires zero fields")
    cert_a = require_perfect(a)
    cert_b = cert_a if b == a else require_perfect(b)
    if abs(cert_a.t0 - cert_b.t0) > 1e-9 * cert_a.t0:
        raise ValueError(f"transfer times differ: {cert_a.t0} vs {cert_b.t0}")
    n, m = a.n, b.n
    edges = []
    for i in range(n - 1):
        for j in range(m):
            edges.append((i * m + j, (i + 1) * m + j, complex(a.couplings[i])))
    for i in range(n):
        for j in range(m - 1):
            edges.append((i * m + j, i * m + j + 1, complex(b.couplings[j])))
    net = NetworkSpec(n_vertices=n * m, edges=tuple(edges),
                      potentials=(0.0,) * (n * m),
                      labels={"input": 0, "output": n * m - 1})
    verify_transfer(abs(cert_a.arrival_amplitude * cert_b.arrival_amplitude),
                    "product_network transfer")
    return net


def hypercube(d: int) -> NetworkSpec:
    """d-fold product of the two-site chain: a uniformly coupled hypercube
    with all edge weights 1/2 and antipodal transfer at pi, of amplitude
    gamma(pi)^d of the certified two-site chain (Christandl et al., PRL 92,
    187902, 2004). ``DENSE_CAP`` bounds d, which sets only the size of the
    edge list: no 2^d matrix is built."""
    d = _integral(d, "d")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if d > DENSE_CAP:
        raise ValueError(f"2^{d} vertices exceed the dense cap ({DENSE_CAP})")
    cert = require_perfect(chain([0.5]))
    dim = 1 << d
    edges = []
    for v in range(dim):
        for bit in range(d):
            u = v ^ (1 << bit)
            if u > v:
                edges.append((v, u, 0.5 + 0.0j))
    net = NetworkSpec(n_vertices=dim, edges=tuple(edges), potentials=(0.0,) * dim,
                      labels={"input": 0, "output": dim - 1})
    verify_transfer(abs(cert.arrival_amplitude ** d), "hypercube transfer")
    return net


@dataclass(frozen=True)
class StarReport:
    network: NetworkSpec
    t0: float
    leaf_amplitudes: np.ndarray
    w_state_fidelity: float


def star_network(branch: ChainSpec, m: int) -> StarReport:
    """M copies of a perfect chain sharing their first spin.

    The shared hub couples to each branch with J_1 / sqrt(M); the symmetric
    sector then reproduces the branch chain exactly, so a hub excitation
    becomes the uniform superposition over the M branch ends at t0 (a Bell
    state for M = 2, a W state in general): each leaf carries
    gamma_N(t0) / sqrt(M) of the branch certificate.
    """
    m = _integral(m, "m")
    if m < 1:
        raise ValueError("need at least one branch")
    cert = require_perfect(branch)
    n = branch.n
    edges = []
    potentials = [branch.fields[0]]
    ends = []

    def vid(b: int, s: int) -> int:
        # site s (2..n) of branch b; hub is vertex 0
        return 1 + b * (n - 1) + (s - 2)

    for b in range(m):
        edges.append((0, vid(b, 2), complex(branch.couplings[0] / math.sqrt(m))))
        for s in range(2, n):
            edges.append((vid(b, s), vid(b, s + 1), complex(branch.couplings[s - 1])))
        ends.append(vid(b, n))
    for b in range(m):
        for s in range(2, n + 1):
            potentials.append(branch.fields[s - 1])
    net = NetworkSpec(n_vertices=1 + m * (n - 1), edges=tuple(edges),
                      potentials=tuple(potentials),
                      labels={"hub": 0, **{f"end_{b}": e for b, e in enumerate(ends)}})
    leaf = np.full(m, cert.arrival_amplitude / math.sqrt(m))
    w_target = np.full(m, 1.0 / math.sqrt(m))
    fidelity = float(abs(w_target @ leaf) ** 2)
    verify_transfer(fidelity, "star network W-state")
    return StarReport(network=net, t0=cert.t0, leaf_amplitudes=leaf,
                      w_state_fidelity=fidelity)


def w_phase_rotation(m: int, k: int) -> np.ndarray:
    """Per-leaf phase gates exp(2 pi i k j / M) turning the symmetric W
    output of a star into its k-th phased sibling.

    Applied after the evolution (as instantaneous local rotations). For
    k != 0 on a two-site-branch star the result no longer couples to the
    hub, so it stays trapped on the leaves under further evolution.
    """
    m, k = _integral(m, "M"), _integral(k, "k")
    if not 0 <= k < m:
        raise ValueError("k must lie in 0..M-1")
    return np.exp(2j * math.pi * k * np.arange(m) / m)


@dataclass(frozen=True)
class ThetaEntanglerReport:
    network: NetworkSpec
    t0: float
    theta: float
    amplitude_first: complex
    amplitude_last: complex
    residual_elsewhere: float


def theta_entangler(spec: ChainSpec, theta: float) -> ThetaEntanglerReport:
    """Split the output of an odd perfect chain between its two ends.

    Replacing the two central couplings by sqrt(2) cos(theta) J_N and
    sqrt(2) sin(theta) J_N leaves the symmetric and antisymmetric sector
    chains unchanged, so after t0 an excitation on site 1 ends as
    cos(2 theta) on site 1 plus sin(2 theta) on site 2N+1 (global phase
    aside). theta = pi/4 restores plain transfer; theta = pi/8 leaves a
    maximally entangled pair of ends. The split chain is evolved as a
    chain, on the tridiagonal path.
    """
    if spec.n % 2 == 0:
        raise ValueError("the base chain must have odd length")
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError("theta must lie in (0, pi/2)")
    cert = require_perfect(spec)
    half = (spec.n - 1) // 2
    j = list(spec.couplings)
    j[half - 1] = math.sqrt(2.0) * math.cos(theta) * spec.couplings[half - 1]
    j[half] = math.sqrt(2.0) * math.sin(theta) * spec.couplings[half]
    edges = tuple((i, i + 1, complex(w)) for i, w in enumerate(j))
    net = NetworkSpec(n_vertices=spec.n, edges=edges, potentials=spec.fields,
                      labels={"input": 0, "output": spec.n - 1})
    final = amplitude_profile(diagonalize(replace(spec, couplings=tuple(j))), 1, cert.t0)
    middle = np.delete(final, [0, spec.n - 1])
    return ThetaEntanglerReport(network=net, t0=cert.t0, theta=theta,
                                amplitude_first=complex(final[0]),
                                amplitude_last=complex(final[-1]),
                                residual_elsewhere=float(np.max(np.abs(middle), initial=0.0)))


# ---------------------------------------------------------------------------
# Signal amplifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplifierResult:
    times: np.ndarray
    wall_amplitudes: np.ndarray    # (len(times), N+1) amplitudes over wall states
    target_probability: np.ndarray
    mean_signal: np.ndarray
    majority_probability: np.ndarray


def amplifier_couplings(spec_or_couplings) -> np.ndarray:
    if isinstance(spec_or_couplings, ChainSpec):
        if np.max(np.abs(spec_or_couplings.field_array()), initial=0.0) > 1e-12:
            raise ValueError("amplifier requires zero fields")
        return spec_or_couplings.coupling_array()
    return np.asarray(spec_or_couplings, dtype=float)


def amplifier_sim(spec_or_couplings, input_state, times) -> AmplifierResult:
    """Evolve the signal-amplifier Hamiltonian in the domain-wall basis.

    Walls |~n> = 1^n 0^(N-n) form a ladder the Hamiltonian hops along with
    the chain couplings, so a one-site signal |~1> grows to the fully
    flipped |~N> at t0. The ladder 0..N is the chain on walls 1..N, evolved
    through its own decomposition (of ``chain(couplings)`` for raw couplings),
    plus the decoupled empty wall 0, which keeps its amplitude.
    ``input_state`` is a wall index (0..N) or an (N+1)-vector of wall amplitudes.
    """
    j = amplifier_couplings(spec_or_couplings)
    n = j.size + 1
    spec = spec_or_couplings if isinstance(spec_or_couplings, ChainSpec) else chain(j)
    if np.isscalar(input_state):
        if not (isinstance(input_state, numbers.Integral) and 0 <= input_state <= n):
            raise ValueError(f"wall index must be an integer in 0..{n}")
        psi0 = np.zeros(n + 1, dtype=complex)
        psi0[input_state] = 1.0
    else:
        psi0 = np.asarray(input_state, dtype=complex)
        if psi0.shape != (n + 1,):
            raise ValueError(f"wall superposition must have length {n + 1}")
        if not np.all(np.isfinite(psi0)):
            raise ValueError("wall amplitudes must be finite")
    times = np.asarray(times, dtype=float)
    moving = propagate(diagonalize(spec), psi0[1:], np.atleast_1d(times))
    amps = np.column_stack((np.full(moving.shape[0], psi0[0]), moving))
    probs = np.abs(amps) ** 2
    walls = np.arange(n + 1)
    return AmplifierResult(
        times=times,
        wall_amplitudes=amps,
        target_probability=probs[:, n],
        mean_signal=probs @ walls / n,
        majority_probability=probs[:, walls > n / 2].sum(axis=1),
    )


@dataclass(frozen=True)
class BitFlipOperator:
    """Real symmetric 2^N operator as a sum of bit flips,
    (H v)[x] = sum_m coef[m, x] v[x ^ flips[m]]."""

    coef: np.ndarray   # (terms, 2^N); symmetric: coef[m, x] == coef[m, x ^ flips[m]]
    flips: np.ndarray  # (terms,) XOR masks

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        idx = np.arange(self.coef.shape[1])
        return np.einsum("mx,mx->x", self.coef, v[idx ^ self.flips[:, None]])

    def toarray(self) -> np.ndarray:
        idx = np.arange(self.coef.shape[1])
        h = np.zeros((idx.size, idx.size))
        for c, f in zip(self.coef, self.flips):
            h[idx, idx ^ f] += c
        return h


def amplifier_dense_hamiltonian(spec_or_couplings) -> BitFlipOperator:
    """Full 2^N amplifier Hamiltonian sum_n J_n K_{n+1},
    K_m = X_m (1 - Z_{m-1} Z_{m+1}) / 2 with Z_{N+1} = 1, as N - 1 bit flips:
    K_m flips site m (bit N - m) where its two neighbours differ."""
    j = amplifier_couplings(spec_or_couplings)
    n = j.size + 1
    if n > DENSE_CAP:
        raise ValueError(f"{n} sites exceed the dense cap ({DENSE_CAP})")
    idx = np.arange(1 << n)
    m = np.arange(2, n + 1)[:, None]  # K_m weighted by J_{m-1}; site s is bit n - s
    left = (idx >> (n - m + 1)) & 1
    right = np.where(m < n, (idx >> np.maximum(n - m - 1, 0)) & 1, 0)
    return BitFlipOperator(coef=j[:, None] * (left != right), flips=1 << (n - m[:, 0]))


def wall_basis_vector(n: int, wall: int) -> np.ndarray:
    """Dense 2^N vector of the wall state 1^wall 0^(N-wall)."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[(1 << n) - (1 << (n - wall))] = 1.0
    return psi


def lanczos_evolve(h: BitFlipOperator, start: np.ndarray, times) -> tuple[np.ndarray, float]:
    """exp(-i H t) start for each time, as rows, by one Lanczos basis for all
    of them (Saad, SIAM J. Numer. Anal. 29, 1992): the basis V of the Krylov
    space of the real unit vector ``start``, fully reorthogonalized, closes
    where the next residual beta falls to 64 eps ||H||, and psi(t) =
    V exp(-i T t) e_1. Also returns that last beta: |t| beta bounds the norm of
    what the basis leaves out at time t."""
    basis = [np.asarray(start, dtype=float)]
    diag, off = [], []
    stop = 64 * np.finfo(float).eps * np.max(np.sum(np.abs(h.coef), axis=0))
    for _ in range(start.size):
        w = h @ basis[-1]
        diag.append(basis[-1] @ w)
        v = np.array(basis)
        for _ in range(2):  # classical Gram-Schmidt, run twice
            w -= (w @ v.T) @ v
        off.append(float(np.linalg.norm(w)))
        if off[-1] <= stop:
            break
        basis.append(w / off[-1])
    lam, q = np.linalg.eigh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    phases = q[0][:, None] * np.exp(-1j * np.outer(lam, np.atleast_1d(times)))
    return ((v.T @ q) @ phases).T, off[-1]


def amplifier_dense_check(spec_or_couplings, input_wall: int, times) -> float:
    """Max deviation between wall-basis evolution and the full 2^N evolution
    of ``lanczos_evolve``; weight outside the wall ladder counts as deviation
    too. The ladder is invariant, so the Lanczos basis closes after at most
    N + 1 vectors; its bound |t| beta is added to the deviation at t, so a
    leak out of the ladder counts even where the basis stopped short of it."""
    j = amplifier_couplings(spec_or_couplings)
    n = j.size + 1
    h = amplifier_dense_hamiltonian(j)
    result = amplifier_sim(j, input_wall, times)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    psi, beta = lanczos_evolve(h, wall_basis_vector(n, input_wall).real, times)
    amps = psi[:, (1 << n) - (1 << (n - np.arange(n + 1)))]  # walls 1^w 0^(N-w)
    deviation = np.max(np.abs(amps - result.wall_amplitudes), axis=1)
    leak = np.abs(1.0 - np.sum(np.abs(amps) ** 2, axis=1))
    return float(np.max(np.maximum(deviation, leak) + np.abs(times) * beta, initial=0.0))


# ---------------------------------------------------------------------------
# Clock computer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClockProgram:
    """A perfect chain driving a gate list U_1..U_{N-1} on a d-dim register."""

    chain: ChainSpec
    gates: tuple[np.ndarray, ...]

    def __post_init__(self):
        gates = tuple(np.asarray(g, dtype=complex) for g in self.gates)
        object.__setattr__(self, "gates", gates)
        if len(gates) != self.chain.n - 1:
            raise ValueError("need exactly N-1 gates for an N-step clock")
        d = gates[0].shape[0] if gates else 1
        if d < 1:
            raise ValueError("gates must act on a register of dimension at least 1")
        for g in gates:
            if g.shape != (d, d):
                raise ValueError("all gates must act on the same register dimension")
            if not np.all(np.isfinite(g)):
                raise ValueError("gates must be finite")
            if np.max(np.abs(g.conj().T @ g - np.eye(d))) > 1e-12:
                raise ValueError("gates must be unitary")

    @property
    def register_dim(self) -> int:
        return self.gates[0].shape[0] if self.gates else 1


@dataclass(frozen=True)
class ClockResult:
    output: np.ndarray
    fidelity: float
    t0: float
    dense_verified: bool


def clock_hamiltonian(prog: ClockProgram) -> np.ndarray:
    """Dense (N d) x (N d) matrix: hopping J_n |n+1><n| tensor U_n plus the
    clock potentials."""
    n = prog.chain.n
    d = prog.register_dim
    h = np.zeros((n * d, n * d), dtype=complex)
    for i in range(n):
        h[i * d:(i + 1) * d, i * d:(i + 1) * d] = prog.chain.fields[i] * np.eye(d)
    for i in range(n - 1):
        block = prog.chain.couplings[i] * prog.gates[i]
        h[(i + 1) * d:(i + 2) * d, i * d:(i + 1) * d] = block
        h[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = block.conj().T
    return h


def clock_computer(prog: ClockProgram, psi_in) -> ClockResult:
    """Run the gate sequence by evolving |1>_clock tensor psi for t0.

    The clock Hamiltonian is the chain conjugated by W = sum_n |n><n|
    tensor U_{n-1}..U_1, so the fast path propagates the clock amplitudes
    alone and applies the accumulated product. For register sizes up to
    N d = 512 the result is verified against direct dense evolution.
    """
    cert = require_perfect(prog.chain)
    psi_in = np.asarray(psi_in, dtype=complex)
    d = prog.register_dim
    if psi_in.shape != (d,) or not abs(np.linalg.norm(psi_in) - 1.0) <= 1e-10:
        raise ValueError("register input must be a normalized d-vector")
    n = prog.chain.n
    clock_amps = amplitude_profile(cert.spectrum, 1, cert.t0)
    products = [np.eye(d, dtype=complex)]
    for g in prog.gates:
        products.append(g @ products[-1])
    total = np.zeros(n * d, dtype=complex)
    for i in range(n):
        total[i * d:(i + 1) * d] = clock_amps[i] * (products[i] @ psi_in)

    target_reg = products[-1] @ psi_in
    target = np.zeros(n * d, dtype=complex)
    target[(n - 1) * d:] = target_reg
    fidelity = float(abs(np.vdot(target, total)) ** 2)

    dense_verified = False
    if n * d <= 512:
        h = clock_hamiltonian(prog)
        start = np.zeros(n * d, dtype=complex)
        start[:d] = psi_in
        direct = propagate(diagonalize(h), start, cert.t0)
        if np.max(np.abs(direct - total)) > 1e-8:
            raise ArithmeticError("clock fast path disagrees with dense evolution")
        dense_verified = True
    verify_transfer(fidelity, "clock transfer")
    out = total[(n - 1) * d:]
    return ClockResult(output=out / np.linalg.norm(out), fidelity=fidelity,
                       t0=cert.t0, dense_verified=dense_verified)
