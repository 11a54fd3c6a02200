import math

import numpy as np
import pytest
import scipy.linalg

from pstchain import (BathSpec, amplitude_profile, analytic_chain, bath_model,
                      bath_transfer_amplitude, certify_pst, chain, dephasing_avg_fidelity,
                      diagonalize, uniform_chain)

from oracles import (bath_amplitude_blocks, bath_dense, expm_evolve, random_pst_chain,
                     raw_bath_dense, tridiagonal_dense)


# --- dephasing: Kraus-channel oracle ----------------------------------------

def _kraus_oracle(spec, p, t):
    """Average transfer fidelity under one instant of independent per-site
    Z errors, computed by explicit channel arithmetic in the
    {vacuum, one-excitation} sector and averaged over the 6 cardinal states."""
    cert = certify_pst(spec)
    n = spec.n
    sd = diagonalize(spec)
    lam, v = sd.eigenvalues, sd.eigenvectors

    def evolve(rho, dt):
        u = np.zeros((n + 1, n + 1), dtype=complex)
        u[0, 0] = 1.0
        u[1:, 1:] = v @ np.diag(np.exp(-1j * lam * dt)) @ v.T
        return u @ rho @ u.conj().T

    cardinal = [(1.0, 0.0), (0.0, 1.0),
                (1 / math.sqrt(2), 1 / math.sqrt(2)),
                (1 / math.sqrt(2), -1 / math.sqrt(2)),
                (1 / math.sqrt(2), 1j / math.sqrt(2)),
                (1 / math.sqrt(2), -1j / math.sqrt(2))]
    phase = np.conj(cert.arrival_phase)
    total = 0.0
    for alpha, beta in cardinal:
        psi = np.zeros(n + 1, dtype=complex)
        psi[0] = alpha
        psi[1] = beta
        rho = np.outer(psi, psi.conj())
        rho = evolve(rho, t)
        for site in range(1, n + 1):
            z = np.ones(n + 1)
            z[site] = -1.0
            rho = (1.0 - p) * rho + p * (z[:, None] * rho * z[None, :])
        rho = evolve(rho, cert.t0 - t)
        # qubit at site n: populations from the diagonal, coherence to vacuum
        rho_q = np.array([[rho[:n, :n].trace().real, rho[0, n]],
                          [rho[n, 0], rho[n, n].real]], dtype=complex)
        # undo the known arrival phase on the |1> component
        corr = np.diag([1.0, phase])
        rho_q = corr @ rho_q @ corr.conj().T
        target = np.array([alpha, beta], dtype=complex)
        total += np.real(target.conj() @ rho_q @ target)
    return total / 6.0


def test_dephasing_p_zero_is_perfect():
    rep = dephasing_avg_fidelity(analytic_chain(5), 0.0, 1.0)
    assert rep.avg_fidelity == pytest.approx(1.0, abs=1e-12)


def test_dephasing_p_one_is_one_third():
    rep = dephasing_avg_fidelity(analytic_chain(4), 1.0, 0.7)
    assert rep.avg_fidelity == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_dephasing_closed_form_matches_oracle_analytic():
    spec = analytic_chain(5)
    rep = dephasing_avg_fidelity(spec, 0.1, math.pi / 2.0)
    assert rep.avg_fidelity == pytest.approx(_kraus_oracle(spec, 0.1, math.pi / 2.0),
                                             abs=1e-10)


def test_dephasing_closed_form_matches_oracle_random():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        spec = random_pst_chain(rng, n)
        p = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 1.0)) * certify_pst(spec).t0
        rep = dephasing_avg_fidelity(spec, p, t)
        assert rep.avg_fidelity == pytest.approx(_kraus_oracle(spec, p, t), abs=1e-10)
        assert rep.lower_bound - 1e-12 <= rep.avg_fidelity <= rep.upper_bound + 1e-12


def _fourth_sums_kick_by_kick(spec, kicks):
    """sum_n |gamma_n(t)|^4 at each kick, one amplitude profile at a time: the
    library's curve before it propagated the kicks a block at a time."""
    sd = certify_pst(spec).spectrum
    return np.array([np.sum(np.abs(amplitude_profile(sd, 1, t)) ** 4) for t in kicks])


@pytest.mark.parametrize("kicks", [np.linspace(0.0, math.pi, 201),
                                   np.array([0.0, 0.3, 2.9, 1.1, math.pi])],
                         ids=["even", "uneven"])
def test_dephasing_array_of_kicks_matches_the_per_kick_loop(kicks):
    """An array of kicks, on an even grid or not, gives the fidelities of one
    scalar call per kick and of the per-kick loop, to 1e-13."""
    spec = analytic_chain(64)
    rep = dephasing_avg_fidelity(spec, 0.15, kicks)
    assert rep.avg_fidelity.shape == rep.gamma_fourth_sum.shape == kicks.shape
    assert np.array_equal(rep.t, kicks)
    assert np.max(np.abs(rep.gamma_fourth_sum - _fourth_sums_kick_by_kick(spec, kicks))) < 1e-13
    for i, t in enumerate(kicks):
        one = dephasing_avg_fidelity(spec, 0.15, t)
        assert abs(rep.avg_fidelity[i] - one.avg_fidelity) < 1e-13
        assert abs(rep.gamma_fourth_sum[i] - one.gamma_fourth_sum) < 1e-13
        assert (rep.lower_bound, rep.upper_bound) == (one.lower_bound, one.upper_bound)


def test_dephasing_curve_of_a_long_chain_matches_the_per_kick_loop():
    """2001 kicks over a 1000-site chain, propagated in blocks, against the
    per-kick loop at every 50th kick, in every block."""
    spec = analytic_chain(1000)
    kicks = np.linspace(0.0, certify_pst(spec).t0, 2001)
    rep = dephasing_avg_fidelity(spec, 0.3, kicks)
    want = _fourth_sums_kick_by_kick(spec, kicks[::50])
    assert np.max(np.abs(rep.gamma_fourth_sum[::50] - want)) < 1e-13


def test_dephasing_validates_inputs():
    spec = analytic_chain(3)
    with pytest.raises(ValueError):
        dephasing_avg_fidelity(spec, -0.1, 0.5)
    with pytest.raises(ValueError):
        dephasing_avg_fidelity(spec, 0.5, 100.0)
    with pytest.raises(ValueError):
        dephasing_avg_fidelity(uniform_chain(4), 0.5, 0.5)
    with pytest.raises(ValueError):
        dephasing_avg_fidelity(spec, 0.5, np.array([0.5, 100.0]))


# --- independent baths -------------------------------------------------------

def test_bath_decoupled_limit():
    spec = analytic_chain(4)
    rep = bath_transfer_amplitude(BathSpec(chain=spec, coupling=0.0),
                                  np.linspace(0.0, 2.0 * math.pi, 101))
    assert np.max(np.abs(rep.gamma_exact - rep.gamma_bare)) < 1e-12


def test_bath_levels_two_site_oracle():
    spec = chain([0.5])
    b = BathSpec(chain=spec, coupling=1.0)
    model = bath_model(b)
    lam = diagonalize(spec).eigenvalues
    expected = sorted(0.5 * (l + s * math.sqrt(4.0 + l * l))
                      for l in lam for s in (1.0, -1.0))
    assert np.allclose(model.energies, expected, atol=1e-12)
    direct = np.linalg.eigvalsh(bath_dense(spec.couplings, spec.fields, 1.0))
    assert np.allclose(model.energies, direct, atol=1e-12)


def _mirror_chain(rng, n):
    """A random mirror-symmetric chain of n sites with fields."""
    j = rng.uniform(0.3, 1.5, n // 2)
    b = rng.uniform(-0.8, 0.8, (n + 1) // 2)
    return chain(np.concatenate((j, j[::-1][(n - 1) % 2:])),
                 np.concatenate((b, b[::-1][n % 2:])))


def test_bath_levels_analytic_four_strong():
    """The closed-form levels are the spectrum of the oracle's dense 2N-site
    operator, on the analytic chain and on random mirror chains, for a
    decoupled, a weak and a strong bath."""
    rng = np.random.default_rng(19)
    chains = [analytic_chain(4)] + [_mirror_chain(rng, n) for n in (2, 5, 8, 13)]
    for spec in chains:
        assert spec.couplings == spec.couplings[::-1] and spec.fields == spec.fields[::-1]
        for g in (0.0, 0.3, 3.0):
            model = bath_model(BathSpec(chain=spec, coupling=g))
            assert model.closed_form.shape == (spec.n, 2)
            direct = np.linalg.eigvalsh(bath_dense(spec.couplings, spec.fields, g))
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(model.energies - direct)) <= 1e-10 * scale


def test_bath_strong_coupling_prediction():
    spec = analytic_chain(4)
    g = 50.0  # 50x the maximum coupling
    times = np.linspace(0.0, 2.0 * math.pi, 2001)
    rep = bath_transfer_amplitude(BathSpec(chain=spec, coupling=g), times)
    assert rep.max_strong_deviation <= 0.02


def test_bath_weak_coupling_quadratic_scaling():
    spec = analytic_chain(4)
    t0 = certify_pst(spec).t0
    errs = []
    for g in (0.02, 0.01, 0.005):
        rep = bath_transfer_amplitude(BathSpec(chain=spec, coupling=g),
                                      np.asarray([t0]))
        errs.append(abs(rep.gamma_exact[0] - rep.gamma_bare[0]))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


def test_bath_raw_couplings_collapse():
    spec = chain([0.8, 0.8])
    raw = ((0.3, 0.4), (0.5, 0.0), (0.4, 0.3))
    b = BathSpec(chain=spec, raw_couplings=raw)
    assert np.allclose(b.effective_couplings(), [0.5, 0.5, 0.5])
    assert b.common_coupling() == pytest.approx(0.5)


def test_bath_rejects_unequal_effective_couplings():
    spec = chain([0.8, 0.8])
    b = BathSpec(chain=spec, raw_couplings=((1.0,), (0.5,), (1.0,)))
    with pytest.raises(ValueError):
        b.common_coupling()


def test_raw_bath_reduction_invariant():
    """An excitation starting on the chain only ever reaches one collapsed
    mode per bath; components orthogonal to it stay empty, and the system
    amplitudes match the effective two-layer model."""
    rng = np.random.default_rng(13)
    for n in (2, 4):
        spec = chain(rng.uniform(0.5, 1.2, n - 1), rng.uniform(-0.3, 0.3, n))
        raw = tuple(tuple(rng.uniform(0.1, 0.8, 3)) for _ in range(n))
        op = raw_bath_dense(spec.couplings, spec.fields, raw)
        dim = op.shape[0]
        psi0 = np.zeros(dim, dtype=complex)
        psi0[0] = 1.0
        for t in (0.7, 2.3, 6.1):
            psi = expm_evolve(op, psi0, t)
            row = n
            for site, g_list in enumerate(raw):
                g = np.asarray(g_list)
                block = psi[row:row + g.size]
                collapsed = g / np.linalg.norm(g)
                residue = block - collapsed * (collapsed @ block)
                assert np.max(np.abs(residue)) < 1e-10
                row += g.size
        # system amplitudes agree with the collapsed effective model
        g_eff = [math.sqrt(np.sum(np.asarray(site) ** 2)) for site in raw]
        eff = np.zeros((2 * n, 2 * n))
        eff[:n, :n] = tridiagonal_dense(spec.couplings, spec.fields)
        eff[np.arange(n), n + np.arange(n)] = g_eff
        eff[n + np.arange(n), np.arange(n)] = g_eff
        psi_full = expm_evolve(op, psi0, 1.9)
        e0 = np.zeros(2 * n, dtype=complex)
        e0[0] = 1.0
        psi_eff = expm_evolve(eff, e0, 1.9)
        assert np.max(np.abs(psi_full[:n] - psi_eff[:n])) < 1e-10


def test_bath_spec_validation():
    spec = chain([1.0])
    with pytest.raises(ValueError):
        BathSpec(chain=spec)
    with pytest.raises(ValueError):
        BathSpec(chain=spec, coupling=1.0, raw_couplings=((1.0,), (1.0,)))
    with pytest.raises(ValueError):
        BathSpec(chain=spec, coupling=-1.0)


BATH_CHAINS = {
    "analytic-6": lambda: analytic_chain(6),
    "analytic-9": lambda: analytic_chain(9),
    "random-pst-5": lambda: random_pst_chain(np.random.default_rng(5), 5),
    "random-pst-8": lambda: random_pst_chain(np.random.default_rng(8), 8),
}


@pytest.mark.parametrize("g", [0.0, 0.01, 1.3, 50.0])
@pytest.mark.parametrize("name", sorted(BATH_CHAINS))
def test_bath_transfer_matches_expm_oracle(name, g):
    spec = BATH_CHAINS[name]()
    n = spec.n
    op = bath_dense(spec.couplings, spec.fields, g)
    times = np.concatenate((np.linspace(0.0, 2.0 * math.pi, 9), [0.37 * math.pi]))
    rep = bath_transfer_amplitude(BathSpec(chain=spec, coupling=g), times)
    oracle = np.array([scipy.linalg.expm(-1j * t * op)[n - 1, 0] for t in times])
    assert np.max(np.abs(rep.gamma_exact - oracle)) <= 1e-12


@pytest.mark.parametrize("g", [0.0, 0.01, 1.3, 50.0])
@pytest.mark.parametrize("name", sorted(BATH_CHAINS))
def test_bath_phase_sum_matches_the_block_formula(name, g):
    """The 2N-level phase sum against the per-mode cos/sin formula, on even
    grids (two tables) and an uneven one (direct), within the sum of the two
    evaluations' phase bounds."""
    spec = BATH_CHAINS[name]()
    sd = diagonalize(spec)
    lam = sd.eigenvalues
    w = sd.eigenvectors[-1] * sd.eigenvectors[0]
    omega = 0.5 * np.sqrt(lam ** 2 + 4.0 * g * g)
    for times in (np.linspace(0.0, 40.0, 2001), np.linspace(3.0, -7.0, 37),
                  np.array([0.0, 0.5, 2.0, 2.25])):
        rep = bath_transfer_amplitude(BathSpec(chain=spec, coupling=g), times)
        oracle = bath_amplitude_blocks(lam, w, g, times)
        assert rep.gamma_exact.shape == times.shape
        phase = np.max(np.abs(times)) * np.max(0.5 * np.abs(lam) + omega)
        bound = 16.0 * (phase + 2 * spec.n) * np.finfo(float).eps * np.sum(np.abs(w))
        assert np.max(np.abs(rep.gamma_exact - oracle)) <= bound
