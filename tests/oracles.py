"""Independent brute-force constructions used as test oracles.

Everything here is built from explicit Pauli Kronecker products or scipy
matrix exponentials, deliberately avoiding the library's own bit-twiddling
Hamiltonian builders and spectral propagator.
"""

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.sparse

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID = np.eye(2, dtype=complex)


def kron_n(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def op_at(op, site, n):
    """Single-site operator; 1-based site, site 1 on the leftmost factor."""
    ops = [ID] * n
    ops[site - 1] = op
    return kron_n(ops)


def two_site(op1, s1, op2, s2, n):
    ops = [ID] * n
    ops[s1 - 1] = op1
    ops[s2 - 1] = op2
    return kron_n(ops)


def sparse_embed(op, site, n):
    """The operator ``op`` on the sites from 1-based ``site`` on (a 2^k x 2^k
    Pauli product on k sites) and identities on the other sites of n, as a
    sparse Kronecker product, site 1 on the leftmost factor."""
    k = op.shape[0].bit_length() - 1
    left = scipy.sparse.identity(1 << (site - 1), dtype=complex)
    right = scipy.sparse.identity(1 << (n + 1 - site - k), dtype=complex)
    return scipy.sparse.kron(scipy.sparse.kron(left, op), right, format="csr")


def xx_dense(couplings, fields):
    """Spin Hamiltonian whose one-excitation block is tridiag(fields,
    couplings) and whose vacuum energy is zero:
    sum_b J_b (XX+YY)/2 + sum_s B_s (1 - Z_s)/2. Each term is a sparse
    Kronecker product; the sum is made dense once."""
    n = len(fields)
    hop = np.kron(SX, SX) + np.kron(SY, SY)
    h = scipy.sparse.csr_matrix((1 << n, 1 << n), dtype=complex)
    for b, j in enumerate(couplings, start=1):
        h = h + 0.5 * j * sparse_embed(hop, b, n)
    for s, bz in enumerate(fields, start=1):
        h = h + 0.5 * bz * sparse_embed(ID - SZ, s, n)
    return h.toarray()


def amplifier_dense(couplings):
    """Signal-amplifier Hamiltonian
    sum_{m=2}^{N} J_{m-1} X_m (1 - Z_{m-1} Z_{m+1}) / 2 with Z_{N+1} = 1."""
    n = len(couplings) + 1
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for m in range(2, n + 1):
        zz = two_site(SZ, m - 1, SZ, m + 1, n) if m < n else op_at(SZ, m - 1, n)
        h += 0.5 * couplings[m - 2] * op_at(SX, m, n) @ (np.eye(dim) - zz)
    return h


def heisenberg_dense(couplings, anisotropies, fields):
    """Anisotropic Heisenberg Hamiltonian in the normalization matching the
    package's field convention:
    sum_b J_b (XX+YY)/2 + sum_b J_b D_b ZZ/4 - sum_s b_s Z_s/2."""
    n = len(fields)
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for b, (j, d) in enumerate(zip(couplings, anisotropies), start=1):
        h += 0.5 * j * (two_site(SX, b, SX, b + 1, n) + two_site(SY, b, SY, b + 1, n))
        h += 0.25 * j * d * two_site(SZ, b, SZ, b + 1, n)
    for s, bz in enumerate(fields, start=1):
        h -= 0.5 * bz * op_at(SZ, s, n)
    return h


def single_excitation_indices(n):
    """Basis index of the one-excitation state on site s (site 1 = MSB)."""
    return [1 << (n - s) for s in range(1, n + 1)]


def one_excitation_block(h_dense, n):
    idx = single_excitation_indices(n)
    return h_dense[np.ix_(idx, idx)]


def basis_index(n, sites):
    """Index of the configuration with the given 1-based sites excited."""
    return sum(1 << (n - s) for s in sites)


def reduced_density_matrix(psi, keep_sites, n):
    """Density matrix of the given 1-based sites (in the order given) of the
    pure 2^n state psi, site 1 on the leftmost factor."""
    keep = [s - 1 for s in keep_sites]
    tensor = np.moveaxis(np.asarray(psi, dtype=complex).reshape((2,) * n),
                         keep, range(len(keep)))
    mat = tensor.reshape(1 << len(keep), -1)
    return mat @ mat.conj().T


def expm_evolve(h, psi, t):
    return scipy.linalg.expm(-1j * t * np.asarray(h, dtype=complex)) @ psi


def slater_to_dense(state):
    """Expand a Slater state into the 2^N computational-basis vector.

    The amplitude on excited-site set S (ascending, site 1 = MSB) is the
    coefficient times the determinant of the orbital components on S.
    """
    n = state.n_sites
    k = state.n_orbitals
    psi = np.zeros(1 << n, dtype=complex)
    if state.is_zero:
        return psi
    if k == 0:
        psi[0] = state.coefficient
        return psi
    for subset in itertools.combinations(range(n), k):
        amp = np.linalg.det(state.orbitals[:, subset])
        if amp != 0:
            idx = sum(1 << (n - 1 - s) for s in subset)
            psi[idx] = state.coefficient * amp
    return psi


def storage_dense(step, inputs, readout_order):
    """Sequential storage on the joint 2^k x 2^N state of k registers and an
    N-site chain, the way the library simulated it before it took the
    register transfer matrix from the k x k revival matrix.

    ``step`` is the 2^N evolution over t_r = pi/N, exp(-i t_r H) of the
    Pauli Hamiltonian (``xx_dense``). Register j is swapped with site 1 at
    step j, by an explicit SWAP of the two qubits' tensor axes; then each
    register in ``readout_order`` (a list of register indices) is swapped
    back at the first step after the previous read that is a multiple of N
    steps after its write, and takes a Z if the revived |1> amplitude there,
    after N applications of ``step``, is negative. Reading a register sets a
    controlled phase with every later-written register still stored.
    Returns a dict of output_state (the registers with the chain projected
    on its vacuum, normalized), chain_weight (the weight left on the
    chain), cz_pairs, z_corrections, readout_steps, predicted_state and
    fidelity_vs_prediction."""
    n = int(step.shape[0]).bit_length() - 1
    k = len(inputs)
    # axes: registers 0..k-1, then chain sites 1..N
    psi = kron_n([np.asarray(s, dtype=complex) for s in inputs])
    psi = np.kron(psi, np.eye(1 << n, dtype=complex)[0]).reshape((2,) * (k + n))
    site1 = np.eye(1 << n, dtype=complex)[basis_index(n, [1])]
    revival = site1
    for _ in range(n):
        revival = step @ revival
    revival = revival @ site1

    def evolve(m):
        nonlocal psi
        for _ in range(m):
            psi = (psi.reshape(1 << k, 1 << n) @ step.T).reshape((2,) * (k + n))

    def swap(j):
        nonlocal psi
        psi = np.ascontiguousarray(np.swapaxes(psi, j, k))

    for j in range(k):
        evolve(1 if j else 0)
        swap(j)
    now = k - 1
    stored = list(range(k))
    cz_pairs, z_corrections, readout_steps = [], [0] * k, [0] * k
    for s in readout_order:
        read = s + n
        while read <= now:
            read += n
        evolve(read - now)
        now = read
        swap(s)
        periods = (read - s) // n
        if np.real(revival ** periods) < 0:
            z_corrections[s] = 1
            index = [slice(None)] * (k + n)
            index[s] = 1
            psi[tuple(index)] *= -1
        readout_steps[s] = read
        stored.remove(s)
        cz_pairs += [(s, m) for m in stored if m > s]
    joint = psi.reshape(1 << k, 1 << n)
    output = joint[:, 0] / np.linalg.norm(joint[:, 0])
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    predicted = kron_n([np.asarray(s, dtype=complex) for s in inputs]).copy()
    for a, b in cz_pairs:
        predicted[(bits[:, a] & bits[:, b]) == 1] *= -1
    return dict(output_state=output, chain_weight=float(np.sum(np.abs(joint[:, 1:]) ** 2)),
                cz_pairs=tuple(cz_pairs), z_corrections=tuple(z_corrections),
                readout_steps=tuple(readout_steps), predicted_state=predicted,
                fidelity_vs_prediction=float(abs(np.vdot(predicted, output)) ** 2))


def jw_majorana_ops(n):
    """Fermion annihilation operators a_1..a_n as 2^n matrices via the
    Jordan-Wigner strings (site 1 = MSB)."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
    ops = []
    for s in range(1, n + 1):
        factors = [SZ] * (s - 1) + [lower] + [ID] * (n - s)
        ops.append(kron_n(factors))
    return ops


def quadratic_dense(a_mat, b_mat):
    """Dense 2^n matrix of sum A_nm a_n^dag a_m + (1/2) B_nm (a^dag a^dag + h.c.)."""
    n = a_mat.shape[0]
    a_ops = jw_majorana_ops(n)
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            if a_mat[i, j] != 0:
                h += a_mat[i, j] * (a_ops[i].conj().T @ a_ops[j])
            if b_mat[i, j] != 0:
                h += 0.5 * b_mat[i, j] * (a_ops[i].conj().T @ a_ops[j].conj().T
                                          + a_ops[j] @ a_ops[i])
    return h


def random_pst_chain(rng, n):
    """A random perfect-transfer chain: integer eigenvalue lattice with odd
    gaps (t0 = pi), possibly shifted (nonzero fields), reconstructed through
    the library designer."""
    from pstchain import chain_from_spectrum, target_spectrum

    gaps = 1 + 2 * rng.integers(0, 3, size=n - 1)
    lam = np.concatenate(([0.0], np.cumsum(gaps)))
    lam = lam - lam.mean() + rng.integers(-2, 3)
    return chain_from_spectrum(target_spectrum(lam, antisymmetric=False))


def _lanczos_from_weights(lam, w):
    """Jacobi matrix with spectrum ``lam`` and end weights ``w``, the way the
    library reconstructed it before the Givens insertion: the three-term
    recurrence on the diagonal operator seeded with sqrt(w), with full
    reorthogonalization (loss of orthogonality is the known failure mode of
    the bare recursion). O(N^3) time and an N x N basis. Returns the fields
    and the couplings."""
    from pstchain.design import ReconstructionError

    n = lam.size
    q = np.zeros((n, n))
    q[:, 0] = np.sqrt(w)
    alpha = np.zeros(n)
    beta = np.zeros(n - 1)
    for j in range(n):
        v = lam * q[:, j]
        alpha[j] = q[:, j] @ v
        v = v - alpha[j] * q[:, j]
        if j > 0:
            v = v - beta[j - 1] * q[:, j - 1]
        for _ in range(2):
            v -= q[:, : j + 1] @ (q[:, : j + 1].T @ v)
        if j < n - 1:
            norm = np.linalg.norm(v)
            if norm < 1e-13 * max(1.0, np.max(np.abs(lam))):
                raise ReconstructionError(f"recurrence broke down at step {j + 1}")
            beta[j] = norm
            q[:, j + 1] = v / norm
    return alpha, beta


def log_abs_derivatives(lam):
    """``sum_{m != k} log|lambda_k - lambda_m|`` for every k, every row summed
    from the dense N x N table of differences: the library's sum before it
    mirrored the rows of an antisymmetric spectrum."""
    lam = np.asarray(lam, dtype=float)
    diff = np.abs(np.subtract.outer(lam, lam))
    np.fill_diagonal(diff, 1.0)
    return np.sum(np.log(diff), axis=1)


def end_products_full(couplings, lam):
    """Signed end products ``prod_i J_i / prod_{m != k} (lambda_k - lambda_m)``
    of a chain with positive couplings, from :func:`log_abs_derivatives`."""
    products = np.exp(np.sum(np.log(couplings)) - log_abs_derivatives(lam))
    products[-2::-2] *= -1.0
    return products


def log_end_weights(lam):
    """Natural logs of the end weights of the mirror-symmetric chain with the
    ascending spectrum ``lam``, w_k proportional to
    1 / prod_{m != k} |lambda_k - lambda_m| and summing to 1, from the dense
    N x N table of differences; they stay finite where the weights underflow."""
    logw = -log_abs_derivatives(lam)
    logw -= logw.max()
    return logw - np.log(np.exp(logw).sum())


def full_chain_from_spectrum(lam, antisymmetric):
    """Fields and couplings of the mirror-symmetric chain with spectrum
    ``lam``, the way the library reconstructed it before it folded the
    inverse problem: the end weights of the whole chain (in log space), the
    Givens insertion of all N pairs, zero fields for an antisymmetric
    spectrum, then the exact mirror average."""
    from pstchain.design import _givens_insertion

    lam = np.asarray(lam, dtype=float)
    fields, couplings = _givens_insertion(lam, np.exp(0.5 * log_end_weights(lam)))
    if antisymmetric:
        fields = np.zeros_like(fields)
    return 0.5 * (fields + fields[::-1]), 0.5 * (couplings + couplings[::-1])


def sturm_newton_full(diag, off, eigenvalues, max_step):
    """``spectral.sturm_newton`` with the Sturm recurrence run over all N
    pivots, mirror-symmetric operator or not: the step the library took
    before it stopped the recurrence at the centre of a mirror chain."""
    b2 = off ** 2
    lam = np.asarray(eigenvalues, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = diag[0] - lam
        ratio = -1.0 / d
        total = ratio.copy()
        for a, bb in zip(diag[1:], b2):
            r = bb / d
            dd = r * ratio - 1.0
            d = (a - lam) - r
            ratio = dd / d
            total += ratio
        step = 1.0 / total
    ok = np.isfinite(step) & (np.abs(step) <= max_step)
    refined = np.where(ok, lam - step, lam)
    if np.any(np.diff(refined) <= 0):
        return lam
    return refined


def givens_insertion_guarded(lam, q):
    """``design._givens_insertion`` with the zero-rotation guard taken on
    every step: each plane's rotation is formed through ``np.where`` whether
    or not some ``r`` is 0. The library takes the guard only on a step where
    some ``r`` is 0 (or NaN), with the same operations in the same order."""
    n = lam.size
    lam = lam.astype(np.longdouble)
    q = q.astype(np.longdouble)
    d = np.zeros(n + 1, np.longdouble)
    e = np.zeros(n + 1, np.longdouble)
    bulge = np.zeros(n + 1, np.longdouble)
    for step in range(3 * n - 2):
        i = step // 2 + 1
        if step % 2 == 0 and i <= n:
            top = n - i
            e[top] = q[i - 1]
            d[top + 1] = lam[i - 1]
            bulge[top + 1] = e[top + 1]
            e[top + 1] = 0.0
        lo = n + 3 + step - 3 * min(i, n)
        if lo > n - 1:
            continue
        x = e[lo - 1:n - 1:3]
        b = bulge[lo:n:3]
        r = np.hypot(x, b)
        nonzero = r > 0.0
        safe = np.where(nonzero, r, 1.0)
        c = np.where(nonzero, x / safe, 1.0)
        s = b / safe
        x[...] = r
        p = d[lo:n:3]
        g = d[lo + 1:n + 1:3]
        u = e[lo:n:3]
        h = s * (g - p)
        cu = c * u
        h += cu
        h += cu
        shift = s * h
        np.subtract(c * h, u, out=u)
        p += shift
        g -= shift
        below = e[lo + 1:n + 1:3]
        np.multiply(s, below, out=bulge[lo + 1:n + 1:3])
        below *= c
    return d[1:].astype(float), np.abs(e[1:n]).astype(float)


def timing_window_bisection(cert, epsilon, grid=4000):
    """``certify.timing_window`` by the definition, one offset at a time: the
    first of ``grid`` steps over [0, t0] where either side of
    ``|gamma_N(t0 -+ delta)|^2``, each side summed from its own exponentials
    ``exp(-i lambda_k (t0 -+ delta))``, falls below ``1 - epsilon``, then 60
    bisection steps from one step below it."""
    lam, products = cert.eigenvalues, cert.end_products
    t0 = cert.t0
    level = 1.0 - epsilon

    def height(delta):
        amps = np.exp(-1j * np.multiply.outer((t0 - delta, t0 + delta), lam)) @ products
        return float(np.min(np.abs(amps) ** 2))

    if not height(0.0) >= level:
        return 0.0
    hi = None
    for delta in np.linspace(0.0, t0, grid + 1)[1:]:
        if height(delta) < level:
            hi = delta
            break
    if hi is None:
        return 2.0 * t0
    lo = hi - t0 / grid
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if height(mid) >= level:
            lo = mid
        else:
            hi = mid
    return 2.0 * lo


def finite_floats_by_element(values, name):
    """``chain._finite_floats`` one element at a time, for every input: the
    conversion the library applies to all but 1-D float64 arrays."""
    out = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"{name} must be finite")
    return out


def chain_by_element(couplings, fields=None):
    """``(couplings, fields)`` as ``chain()`` stores them, from conversions
    one element at a time: the couplings first, then the fields, which
    default to zero, then the checks of ``ChainSpec`` in its order."""
    couplings = tuple(float(j) for j in couplings)
    n = len(couplings) + 1
    fields = (0.0,) * n if fields is None else tuple(float(b) for b in fields)
    couplings = finite_floats_by_element(couplings, "couplings")
    fields = finite_floats_by_element(fields, "fields")
    if len(fields) != n:
        raise ValueError(f"expected {n} fields, got {len(fields)}")
    return couplings, fields


def unfolded_decomposition(spec):
    """Eigenvalues and eigenvectors of a chain from one LAPACK ``stevd`` solve
    of its whole single-excitation matrix, as LAPACK returns them: the way the
    library solves the eigenvectors of every chain."""
    return scipy.linalg.eigh_tridiagonal(spec.field_array(), spec.coupling_array(),
                                         lapack_driver="stevd")


def dense_decomposition(spec):
    """Eigenvalues and eigenvectors of a chain from ``numpy.linalg.eigh`` of
    its dense single-excitation matrix, a solver the library does not use for
    a chain; each column's sign is LAPACK's."""
    return np.linalg.eigh(tridiagonal_dense(spec.couplings, spec.fields))


def unfolded_eigenvalues(spec):
    """Eigenvalues of a chain from one LAPACK ``sterf`` solve of its whole
    single-excitation matrix."""
    return scipy.linalg.eigvalsh_tridiagonal(spec.field_array(), spec.coupling_array(),
                                             lapack_driver="sterf")


def folded_eigenvalues(diag, off):
    """Ascending eigenvalues of ``tridiag(off, diag, off)``, N >= 2, the way the
    library solved them before the chiral block: ``numpy.linalg.eigvalsh`` of
    the dense matrix up to 128 sites, and above it one LAPACK
    ``sterf`` solve of the matrix itself or, if it equals its mirror image
    bitwise, of both its mirror blocks stacked with a zero coupling between
    them (Cantoni and Butler, Linear Algebra Appl. 13, 1976). With N = 2m the
    symmetric block is the leading m x m block with ``J_m`` added to its last
    diagonal entry and the antisymmetric block the same with ``J_m``
    subtracted; with N = 2m + 1 the symmetric block is the leading
    (m+1)-block with its last coupling scaled by sqrt 2 and the antisymmetric
    block the leading m x m block."""
    from scipy.linalg.lapack import dsterf

    n = diag.size
    if n <= 128:
        return np.linalg.eigvalsh(tridiagonal_dense(off, diag))
    if diag.tobytes() == diag[::-1].tobytes() and off.tobytes() == off[::-1].tobytes():
        m = n // 2
        s = n - m       # the size of the symmetric block
        fdiag = np.concatenate((diag[:s], diag[:m]))
        foff = np.concatenate((off[:s - 1], (0.0,), off[:m - 1]))
        if n % 2:
            foff[m - 1] *= math.sqrt(2.0)
        else:
            fdiag[m - 1] += off[m - 1]
            fdiag[n - 1] -= off[m - 1]
        diag, off = fdiag, foff
    lam, info = dsterf(diag, off)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK sterf did not converge (info {info})")
    return lam


def uniform_path_gamma(n, source, target, t):
    """Closed-form transfer amplitude <target| exp(-i H t) |source> of the
    uniform path with unit couplings: eigenvalues 2 cos(k pi / (n + 1)) and
    eigenvectors sqrt(2 / (n + 1)) sin(j k pi / (n + 1)), k, j = 1..n."""
    k = np.arange(1, n + 1)
    theta = k * np.pi / (n + 1)
    lam = 2.0 * np.cos(theta)
    w = (2.0 / (n + 1)) * np.sin(source * theta) * np.sin(target * theta)
    return np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float), lam)) @ w


def phase_sum_direct(lam, weights, times):
    """sum_k w_k exp(-i lambda_k t) for every time, summed directly in
    ``np.longdouble`` (a 64-bit significand on x86-64) from the given doubles,
    and rounded to complex128 at the end."""
    phase = np.multiply.outer(np.asarray(times, dtype=np.longdouble),
                              np.asarray(lam, dtype=np.longdouble))
    wr = np.real(weights).astype(np.longdouble)
    wi = np.imag(weights).astype(np.longdouble)
    c, s = np.cos(phase), np.sin(phase)
    return (c @ wr + s @ wi).astype(float) + 1j * (c @ wi - s @ wr).astype(float)


def bath_amplitude_blocks(lam, weights, g, times):
    """End amplitude of a chain with one bath spin per site, each coupled with
    strength g, from the chain's eigenvalues and end-weight products: one 2x2
    block [[lambda_k, g], [g, 0]] per mode,
    sum_k w_k e^(-i lambda_k t/2) (cos(Omega_k t) - i r_k sin(Omega_k t)),
    Omega_k = sqrt(lambda_k^2 + 4 g^2)/2 and r_k = lambda_k / (2 Omega_k)."""
    lam = np.asarray(lam, dtype=float)
    times = np.asarray(times, dtype=float)
    omega = 0.5 * np.sqrt(lam ** 2 + 4.0 * g * g)
    ratio = np.divide(0.5 * lam, omega, out=np.zeros_like(lam), where=omega > 0.0)
    wt = np.multiply.outer(times, omega)
    block = (np.exp(-0.5j * np.multiply.outer(times, lam))
             * (np.cos(wt) - 1j * ratio * np.sin(wt)))
    return block @ weights


def tridiagonal_dense(couplings, fields):
    """Dense one-excitation matrix tridiag(fields, couplings), built by hand."""
    n = len(fields)
    h = np.diag(np.asarray(fields, dtype=float))
    for b, j in enumerate(couplings):
        h[b, b + 1] = h[b + 1, b] = j
    return h


def bath_dense(couplings, fields, g):
    """2N x 2N one-excitation operator of a chain with one bath spin per
    site, each coupled with strength g: system sites first, then baths."""
    n = len(fields)
    op = np.zeros((2 * n, 2 * n))
    op[:n, :n] = tridiagonal_dense(couplings, fields)
    for s in range(n):
        op[s, n + s] = op[n + s, s] = g
    return op


def raw_bath_dense(couplings, fields, raw_couplings):
    """One-excitation operator of a chain with explicit multi-spin baths:
    ``raw_couplings`` holds one list of bath-spin couplings per site. The
    chain's sites come first, then the bath spins, site by site."""
    n = len(fields)
    dim = n + sum(len(site) for site in raw_couplings)
    op = np.zeros((dim, dim))
    op[:n, :n] = tridiagonal_dense(couplings, fields)
    row = n
    for s, site in enumerate(raw_couplings):
        for g in site:
            op[s, row] = op[row, s] = g
            row += 1
    return op


def star_symmetric_sector(net, branch, m):
    """The star network's operator projected onto the branch-symmetric
    states: the hub, then for each site s = 2..N of the branch the uniform
    superposition of that site over the M branches."""
    from pstchain import network_operator

    n = branch.n
    basis = np.zeros((net.n_vertices, n))
    basis[0, 0] = 1.0
    for s in range(2, n + 1):
        for b in range(m):
            basis[1 + b * (n - 1) + (s - 2), s - 1] = 1.0 / math.sqrt(m)
    return basis.T @ network_operator(net) @ basis


def two_boson_dense(h1):
    """Operator of the one-body matrix h1 on the symmetric two-excitation
    subspace, in the normalized basis |ij> = a_i^dag a_j^dag |0> / sqrt(1+d_ij),
    i <= j (0-based), with the index of each pair.

    The chain acts as H sigma_ij = sum_m h_mi sigma_mj + h_mj sigma_im on
    sigma_ij = a_i^dag a_j^dag |0>; the square-root occupation factors enter
    through the normalization.
    """
    n = h1.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: a for a, p in enumerate(pairs)}

    def weight(p):
        return np.sqrt(2.0) if p[0] == p[1] else 1.0

    dim = len(pairs)
    h2 = np.zeros((dim, dim))
    for a, (i, j) in enumerate(pairs):
        for m in range(n):
            for x, y, coef in ((m, j, h1[m, i]), (i, m, h1[m, j])):
                if coef == 0.0:
                    continue
                p = (min(x, y), max(x, y))
                h2[index[p], a] += coef * weight(p) / weight((i, j))
    return 0.5 * (h2 + h2.T), index


def certify_by_eigenvectors(spec, tol=1e-9, max_denominator=10 ** 6):
    """Certification from the full eigendecomposition, the way the library
    did it before it certified from the spectrum alone: every check after the
    eigensolve, and arrival and revival summed over the eigenvector end rows
    at t0 and 2 t0. Returns a dict of verdict, reason, t0, odd_integers,
    worst_gap_residual and arrival_amplitude."""
    import math
    from fractions import Fraction

    from pstchain import diagonalize, is_degenerate, mirror_symmetry_check
    from pstchain.certify import ARRIVAL_TOL

    guard = 1 << 52
    sd = diagonalize(spec)
    lam = sd.eigenvalues
    out = dict(verdict="imperfect", reason=None, t0=None, odd_integers=None,
               worst_gap_residual=None, arrival_amplitude=None)

    def fail(reason, verdict="imperfect", residual=None):
        out.update(verdict=verdict, reason=reason, worst_gap_residual=residual)
        return out

    scale = max(1.0, max(abs(j) for j in spec.couplings), max(abs(b) for b in spec.fields))
    mirror = mirror_symmetry_check(spec, tol=tol * scale)
    if not mirror:
        return fail(f"not mirror symmetric (max violation {mirror.max_violation:.3e})")
    if spec.has_zero_coupling:
        return fail("zero coupling disconnects the chain")
    if any(j < 0 for j in spec.couplings):
        return fail("negative coupling (use the positive-J convention)")
    if is_degenerate(lam):
        return fail("spectrum has (near-)degenerate eigenvalues", "degenerate-spectrum")
    gaps = np.diff(lam)
    gmin = float(gaps.min())
    fracs = [Fraction(float(g / gmin)).limit_denominator(max_denominator) for g in gaps]
    lcm = 1
    for f in fracs:
        lcm = math.lcm(lcm, f.denominator)
        if lcm > guard:
            return fail("no commensurate gap structure within max_denominator")
    mult = [f.numerator * (lcm // f.denominator) for f in fracs]
    g = math.gcd(*mult)
    mult = [m // g for m in mult]
    if max(mult) > guard:
        return fail("no commensurate gap structure within max_denominator")
    k = np.asarray(mult, dtype=float)
    unit = float(np.dot(gaps, k) / np.dot(k, k))
    residual = float(np.max(np.abs(gaps / unit - k)))
    if residual > tol:
        return fail(f"gap residual {residual:.3e} exceeds tol", residual=residual)
    even = [i for i, m in enumerate(mult) if m % 2 == 0]
    if even:
        return fail(f"even gap multiplier at gap index {even[0]}", residual=residual)
    t0 = math.pi / unit
    # summed over the eigenvector end rows, where gamma would take the end
    # products from the spectrum
    vec = sd.eigenvectors
    amp = complex(np.exp(-1j * (t0 * lam)) @ (vec[-1] * vec[0]))
    if abs(amp) < 1.0 - ARRIVAL_TOL:
        return fail(f"arrival verification failed (|gamma_N(t0)| = {abs(amp):.12f})",
                    residual=residual)
    revival = abs(complex(np.exp(-1j * ((2.0 * t0) * lam)) @ (vec[0] * vec[0])))
    if revival < 1.0 - ARRIVAL_TOL:
        return fail(f"revival verification failed (|gamma_1(2 t0)| = {revival:.12f})",
                    residual=residual)
    out.update(verdict="perfect", t0=t0, odd_integers=tuple((m - 1) // 2 for m in mult),
               worst_gap_residual=residual, arrival_amplitude=amp)
    return out
