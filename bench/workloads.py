"""The benchmark's three workloads.

Each workload is a closed loop of one client in one process: the next op
starts when the previous one has finished. Ops come in cycles whose
composition is fixed and whose inputs and order are drawn from
``numpy.random.default_rng([seed, cycle])``, so a run is a whole number of
identical mixes and the same seed gives the same inputs. The library only
ever sees the generated inputs, never the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass(frozen=True)
class Baseline:
    """A ROADMAP baseline figure beside the value measured in this run."""

    label: str
    roadmap_s: float
    measured_s: float


def median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def odd_gap_spectrum(n: int, rng) -> np.ndarray:
    """Antisymmetric spectrum of even length whose gaps are 1 or 3, centre gap 1.

    Every gap is an odd multiple of the unit 1, so the mirror-symmetric chain
    with this spectrum transfers perfectly at t0 = pi.
    """
    if n % 2:
        raise ValueError("odd_gap_spectrum needs an even length")
    half = rng.choice((1.0, 3.0), size=n // 2 - 1)
    gaps = np.concatenate((half[::-1], [1.0], half))
    lam = np.concatenate(([0.0], np.cumsum(gaps)))
    return lam - lam[-1] / 2.0


def log_min_end_weight(lam: np.ndarray) -> float:
    """Natural log of the smallest end weight of the mirror-symmetric chain with
    spectrum ``lam``, from w_n proportional to 1 / prod_m |lambda_n - lambda_m|.

    Computed here in log space, apart from the library, so that the inputs a
    seed gives do not depend on the code under test.
    """
    diff = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(diff, 1.0)
    logw = -np.sum(np.log(diff), axis=1)
    logw -= logw.max()
    return float(logw.min() - np.log(np.sum(np.exp(logw))))


LOG_TINY = math.log(np.finfo(float).tiny)


def representable_odd_gap_spectrum(n: int, rng) -> tuple[np.ndarray, int]:
    """An odd-gap spectrum whose end weights are all normal doubles, and the
    number of draws that were set aside first.

    At N = 1000 nearly half of the odd-gap spectra have end weights below the
    smallest normal double (about 2.2e-308). The reconstruction from such
    weights cannot be exact in double precision: on those, the seed's
    ``chain_from_spectrum`` raises or returns a chain off mirror symmetry.
    The benchmark times the reconstruction, so it draws inside the range
    where a right answer exists and counts the draws it set aside.
    """
    skipped = 0
    while True:
        lam = odd_gap_spectrum(n, rng)
        if log_min_end_weight(lam) >= LOG_TINY:
            return lam, skipped
        skipped += 1


def random_qubit(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_unitary(d: int, rng) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


# ---------------------------------------------------------------------------
# chain-scale
# ---------------------------------------------------------------------------

class ChainScale:
    """Design -> certify -> simulate on chains of N = 100, 1000 and 2000.

    Four kinds of chain take different verdict paths through certify:
    ``analytic`` and ``iep`` (chain_from_spectrum on an odd-gap spectrum)
    transfer perfectly and go on to a gamma_N curve and a timing window;
    ``uniform`` fails only after the full eigensolve; ``perturbed`` (one
    analytic coupling off its mirror) is not mirror symmetric but still pays
    the eigensolve. A cycle holds one chain of each kind at each size, except
    IEP at N = 2000: its Lanczos step is cubic. IEP spectra are drawn again
    until their end weights are normal doubles; ``skipped_spectra`` counts the
    draws set aside.

    Sorted by cost, a cycle puts the N = 1000 reject paths (uniform and
    perturbed, one eigensolve each) at its median and the N = 2000 reject
    paths at its 75th percentile. Both are eigensolve-bound, so they track
    certify rather than interpreter overhead. A p90 would need 100 ops, over
    40 s; the p75 needs 40, which four or five cycles give.
    """

    name = "chain-scale"
    tail_q = 75
    KINDS = ("analytic", "iep", "uniform", "perturbed")
    EXPECTED = {"analytic": "perfect", "iep": "perfect",
                "uniform": "imperfect", "perturbed": "imperfect"}
    PLAN = (("analytic", 100), ("iep", 100), ("uniform", 100), ("perturbed", 100),
            ("analytic", 1000), ("iep", 1000), ("uniform", 1000), ("perturbed", 1000),
            ("analytic", 2000), ("uniform", 2000), ("perturbed", 2000))
    CURVE_POINTS = 1001
    WINDOW_EPSILON = 1e-3
    skipped_spectra = 0

    def setup(self, seed: int, workdir: Path) -> None:
        import pstchain

        self.P = pstchain
        self.seed = seed
        warm = np.random.default_rng([seed, 1 << 30])
        for kind in self.KINDS:
            op = self._op(kind, 8, warm)
            problems = op.check(op.run())
            if problems:
                raise RuntimeError(f"warm-up {op.label}: {problems}")

    def cycle(self, index: int, in_process: bool = False) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        return [self._op(*self.PLAN[i], rng) for i in rng.permutation(len(self.PLAN))]

    def _op(self, kind: str, n: int, rng) -> Op:
        P = self.P
        if kind == "analytic":
            design = partial(P.analytic_chain, n)
        elif kind == "uniform":
            design = partial(P.uniform_chain, n)
        elif kind == "iep":
            lam, skipped = representable_odd_gap_spectrum(n, rng)
            self.skipped_spectra += skipped
            design = lambda: P.chain_from_spectrum(P.target_spectrum(lam, True))  # noqa: E731
        else:
            # any coupling but the self-mirrored centre one breaks the symmetry
            k = int(rng.integers(0, n // 2 - 1))
            factor = 1.0 + float(rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 1e-1))
            design = partial(self._perturbed, n, k, factor)
        return Op(f"{kind}-{n}", partial(self._design_certify_simulate, design),
                  partial(checks.chain_result, expected=self.EXPECTED[kind],
                          t0_pi=kind in ("analytic", "iep")))

    def _perturbed(self, n: int, k: int, factor: float):
        base = self.P.analytic_chain(n)
        couplings = list(base.couplings)
        couplings[k] *= factor
        return self.P.ChainSpec(n=n, couplings=tuple(couplings), fields=base.fields)

    def _design_certify_simulate(self, design) -> dict:
        P = self.P
        spec = design()
        cert = P.certify_pst(spec)
        out = {"verdict": cert.verdict, "reason": cert.reason}
        if cert.perfect:
            sd = P.diagonalize(spec)
            times = np.linspace(0.0, 2.0 * cert.t0, self.CURVE_POINTS)
            curve = P.gamma(sd, 1, spec.n, times)
            out.update(t0=cert.t0, arrival=float(abs(curve[self.CURVE_POINTS // 2])),
                       window=float(P.timing_window(spec, cert, self.WINDOW_EPSILON)))
        return out

    def baselines(self, op_times: dict) -> list[Baseline]:
        P = self.P

        def spectrum(n):
            return P.target_spectrum(np.arange(n) - (n - 1) / 2.0, True)

        a1000, a2000 = P.analytic_chain(1000), P.analytic_chain(2000)
        s500, s1000 = spectrum(500), spectrum(1000)
        return [
            Baseline("diagonalize N=2000", 0.47, median_time(lambda: P.diagonalize(a2000))),
            Baseline("certify_pst N=1000", 0.19, median_time(lambda: P.certify_pst(a1000))),
            Baseline("certify_pst N=2000", 0.57, median_time(lambda: P.certify_pst(a2000))),
            Baseline("chain_from_spectrum N=500", 0.08,
                     median_time(lambda: P.chain_from_spectrum(s500))),
            Baseline("chain_from_spectrum N=1000", 0.67,
                     median_time(lambda: P.chain_from_spectrum(s1000))),
        ]


# ---------------------------------------------------------------------------
# protocols-dense
# ---------------------------------------------------------------------------

class ProtocolsDense:
    """The fermionic protocols and networks at the dense-oracle sizes N = 10, 12.

    ``entanglement_generation`` at N = 12 is the one 2^N dense evolution of
    the cycle and sets its peak memory. The other ops take milliseconds and
    each certifies its small chain again. Sizes are fixed and only values
    (bits, amplitudes, gates, angles) are seeded, so the cost order of a
    cycle is the same on every seed: the six N = 10 ``entanglement_generation``
    ops sit at its p90, and the ``theta_entangler`` and ``star_network`` ops
    at its median, with 22 ops below and 22 above them. Two cycles of 50 ops
    are enough for the p90.
    """

    name = "protocols-dense"
    tail_q = 90

    def setup(self, seed: int, workdir: Path) -> None:
        import pstchain
        from pstchain import networks

        self.P = pstchain
        self.networks = networks
        self.seed = seed
        warm = np.random.default_rng([seed, 1 << 30])
        for op in self._warm_ops(warm):
            problems = op.check(op.run())
            if problems:
                raise RuntimeError(f"warm-up {op.label}: {problems}")

    def _warm_ops(self, rng) -> list[Op]:
        return [self._entgen(4), self._initfree(4, rng), self._storage(3, "same", rng),
                self._distribution(4), self._ising(2), self._clock(4, 2, rng),
                self._star(3, 2), self._theta(5, rng), self._product(3, 3),
                self._hypercube(2), self._amplifier_check(4, rng)]

    def cycle(self, index: int, in_process: bool = False) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        ops = [self._entgen(12), self._amplifier_check(10, rng)]
        ops += [self._entgen(10) for _ in range(6)]
        ops += [self._initfree(n, rng) for n in (10, 12) for _ in range(3)]
        ops += [self._storage(n, order, rng) for n in (5, 6) for order in ("same", "reverse")]
        ops += [self._product(10, 10) for _ in range(2)]
        ops += [self._hypercube(d) for d in (3, 3, 8, 8)]
        ops += [self._theta(11, rng) for _ in range(3)] + [self._star(10, 3) for _ in range(3)]
        ops += [self._clock(10, 2, rng) for _ in range(8)]
        ops += [self._distribution(12) for _ in range(6)] + [self._ising(6) for _ in range(6)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def _entgen(self, n: int) -> Op:
        spec = self.P.analytic_chain(n)

        def check(rep):
            return (checks.close(rep.entropy_bits, 1.0, checks.ENTROPY_TOL, "entropy_bits")
                    + checks.fidelity(rep.target_fidelity, "target_fidelity")
                    + checks.t0_is_pi(rep.t0))

        return Op(f"entanglement_generation-{n}",
                  partial(self.P.entanglement_generation, spec), check)

    def _initfree(self, n: int, rng) -> Op:
        spec = self.P.analytic_chain(n)
        alpha, beta = random_qubit(rng)
        junk = rng.integers(0, 2, size=n - 2)
        return Op(f"initfree_transfer-{n}",
                  partial(self.P.initfree_transfer, spec, alpha, beta, junk),
                  lambda rep: checks.fidelity(rep.fidelity))

    def _storage(self, n: int, order: str, rng) -> Op:
        spec = self.P.sequential_storage_chain(n)
        inputs = [random_qubit(rng) for _ in range(n)]
        return Op(f"sequential_storage_sim-{n}-{order}",
                  partial(self.P.sequential_storage_sim, spec, inputs, order),
                  lambda rep: checks.fidelity(rep.fidelity_vs_prediction))

    def _distribution(self, n: int) -> Op:
        return Op(f"entanglement_distribution_sim-{n}",
                  partial(self.P.entanglement_distribution_sim, self.P.analytic_chain(n)),
                  lambda rep: checks.fidelity(rep.bell_fidelity) + checks.t0_is_pi(rep.t0))

    def _ising(self, n: int) -> Op:
        return Op(f"ising_from_pst-{n}",
                  partial(self.P.ising_from_pst, self.P.analytic_chain(2 * n)),
                  lambda rep: checks.fidelity(rep.transfer_fidelity) + checks.t0_is_pi(rep.t0))

    def _clock(self, n: int, d: int, rng) -> Op:
        gates = tuple(random_unitary(d, rng) for _ in range(n - 1))
        program = self.networks.ClockProgram(chain=self.P.analytic_chain(n), gates=gates)
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return Op(f"clock_computer-{n}-d{d}",
                  partial(self.P.clock_computer, program, psi / np.linalg.norm(psi)),
                  lambda res: checks.fidelity(res.fidelity))

    def _star(self, n: int, m: int) -> Op:
        return Op(f"star_network-{n}x{m}",
                  partial(self.P.star_network, self.P.analytic_chain(n), m),
                  lambda rep: checks.fidelity(rep.w_state_fidelity, "w_state_fidelity"))

    def _theta(self, n: int, rng) -> Op:
        theta = float(rng.uniform(0.1, math.pi / 2.0 - 0.1))

        def check(rep):
            return (checks.close(abs(rep.amplitude_first) ** 2, math.cos(2 * theta) ** 2,
                                 checks.FIDELITY_TOL, "|amplitude_first|^2")
                    + checks.close(abs(rep.amplitude_last) ** 2, math.sin(2 * theta) ** 2,
                                   checks.FIDELITY_TOL, "|amplitude_last|^2")
                    + checks.close(rep.residual_elsewhere, 0.0, checks.FIDELITY_TOL,
                                   "residual_elsewhere"))

        return Op(f"theta_entangler-{n}",
                  partial(self.P.theta_entangler, self.P.analytic_chain(n), theta), check)

    def _product(self, n: int, m: int) -> Op:
        def check(net):
            edges = (n - 1) * m + n * (m - 1)
            if net.n_vertices != n * m or len(net.edges) != edges:
                return [f"product {n}x{m}: {net.n_vertices} vertices, {len(net.edges)} edges"]
            return []

        return Op(f"product_network-{n}x{m}",
                  partial(self.P.product_network, self.P.analytic_chain(n),
                          self.P.analytic_chain(m)), check)

    def _hypercube(self, d: int) -> Op:
        def check(net):
            if net.n_vertices != 1 << d or len(net.edges) != d << (d - 1):
                return [f"hypercube {d}: {net.n_vertices} vertices, {len(net.edges)} edges"]
            return []

        return Op(f"hypercube-{d}", partial(self.P.hypercube, d), check)

    def _amplifier_check(self, n: int, rng) -> Op:
        times = np.sort(rng.uniform(0.0, math.pi, size=3))
        return Op(f"amplifier_dense_check-{n}",
                  partial(self.networks.amplifier_dense_check, self.P.analytic_chain(n),
                          1, times),
                  lambda worst: checks.close(worst, 0.0, checks.FIDELITY_TOL,
                                             "wall-ladder deviation"))

    def baselines(self, op_times: dict) -> list[Baseline]:
        return [Baseline(f"entanglement_generation N={n}", roadmap,
                         statistics.median(op_times[f"entanglement_generation-{n}"]))
                for n, roadmap in ((10, 0.16), (12, 6.8))]


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

class CliFailure(RuntimeError):
    """A ``pst`` command exited with a non-zero code."""


class CliPipeline:
    """One ``python -m pstchain.cli`` process per op, in a temporary directory.

    The only workload that runs ``cli`` and ``serialize`` and pays process
    start-up. One dephasing curve with 2000 kicks (which certifies the
    64-site chain again at every kick) joins six rounds of the short
    subcommands; a cycle holds 61 processes, enough for a p75 with fifteen
    samples beyond it but not for a p90. A cycle takes 30-40 s, so a 20 s run
    is one cycle: process start-up follows the host's speed from minute to
    minute, and with four rounds a run was too short to average that out.
    """

    name = "cli-pipeline"
    tail_q = 75
    ROUNDS = 6
    LABELS = ("design-analytic", "design-storage", "design-near-uniform", "certify-64",
              "certify-1000", "simulate", "noise-dephase", "noise-bath", "report-timing",
              "gadget-amp", "fermionic-demo")
    DEMO = ("entgen", "initfree", "storage", "ising")

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.chain_files = {}
        for n in (64, 1000):
            stdout = self._spawn(["design", "analytic", "--n", str(n)])
            path = self.workdir / f"analytic_{n}.json"
            path.write_text(stdout, encoding="utf-8")
            self.chain_files[n] = path

    def cycle(self, index: int, in_process: bool = False) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        run = self._main if in_process else self._spawn
        specs = [self._dephase(rng)]
        for r in range(self.ROUNDS):
            specs += [self._design_analytic(rng), self._design_storage(rng),
                      self._design_near_uniform(rng), self._certify(64), self._certify(1000),
                      self._simulate(rng), self._bath(rng), self._report(), self._gadget(),
                      self._demo(self.DEMO[r % len(self.DEMO)], rng)]
        ops = [Op(label, partial(run, argv), check) for label, argv, check in specs]
        return [ops[i] for i in rng.permutation(len(ops))]

    def process_walls(self) -> dict[str, float]:
        """Wall seconds of one process of each op label."""
        walls = {}
        for op in self.cycle(0):
            if op.label not in walls:
                start = time.perf_counter()
                op.run()
                walls[op.label] = time.perf_counter() - start
        return walls

    # -- running a command ---------------------------------------------------
    def _spawn(self, argv) -> str:
        proc = subprocess.run([sys.executable, "-m", "pstchain.cli", *argv],
                              cwd=self.workdir, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise CliFailure(f"pst {argv[0]} exited {proc.returncode}: {proc.stderr[-300:]}")
        return proc.stdout

    def _main(self, argv) -> str:
        from pstchain import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        if code != 0:
            raise CliFailure(f"pst {argv[0]} returned {code}: {err.getvalue()[-300:]}")
        return out.getvalue()

    # -- the commands --------------------------------------------------------
    def _design_analytic(self, rng):
        n = int(rng.integers(16, 129))

        def couplings(values):
            k = np.arange(1, n)
            want = np.sqrt(k * (n - k)) / 2.0
            if len(values) != n - 1 or np.max(np.abs(np.asarray(values) - want)) > 1e-12 * n:
                return ["analytic couplings differ from sqrt(k (n-k)) / 2"]
            return []

        return ("design-analytic", ["design", "analytic", "--n", str(n)],
                partial(checks.cli_result, expect={"n": partial(checks.close, target=n, tol=0,
                                                                what="n"),
                                                   "couplings": couplings}))

    def _design_storage(self, rng):
        n = int(rng.integers(3, 9))
        return ("design-storage", ["design", "storage", "--n", str(n)],
                partial(checks.cli_result,
                        expect={"n": partial(checks.close, target=n, tol=0, what="n"),
                                "couplings": partial(self._positive_couplings, n, False)}))

    def _design_near_uniform(self, rng):
        n = int(rng.integers(9, 42))
        slack = float(rng.choice((0.25, 0.5, 0.75, 1.0)))
        return ("design-near-uniform",
                ["design", "near-uniform", "--n", str(n), "--slack", str(slack)],
                partial(checks.cli_result,
                        expect={"n": partial(checks.close, target=n, tol=0, what="n"),
                                "couplings": partial(self._positive_couplings, n, True)}))

    @staticmethod
    def _positive_couplings(n: int, mirror: bool, values) -> list[str]:
        j = np.asarray(values, dtype=float)
        if j.shape != (n - 1,) or not np.all(j > 0):
            return [f"expected {n - 1} positive couplings"]
        if mirror and np.max(np.abs(j - j[::-1])) > 1e-9 * np.max(j):
            return ["couplings are not mirror symmetric"]
        return []

    def _certify(self, n: int):
        return (f"certify-{n}", ["certify", str(self.chain_files[n])],
                partial(checks.cli_result,
                        expect={"verdict": partial(self._equals, "perfect"),
                                "t0": checks.t0_is_pi}))

    @staticmethod
    def _equals(want, value) -> list[str]:
        return [] if value == want else [f"{value!r} != {want!r}"]

    def _simulate(self, rng):
        steps = 2 * int(rng.integers(300, 801))   # even, so t = pi lies on the grid
        out = self.workdir / "simulate.csv"
        argv = ["simulate", "--chain", str(self.chain_files[64]), "--target", "64",
                "--tmax", repr(2.0 * math.pi), "--steps", str(steps), "--out", str(out)]
        return ("simulate", argv,
                partial(checks.cli_result,
                        expect={"peak_abs2": partial(checks.at_least,
                                                     floor=1.0 - checks.ARRIVAL_TOL,
                                                     what="peak_abs2"),
                                "peak_time": checks.t0_is_pi},
                        csv=(out, steps + 1)))

    def _dephase(self, rng):
        steps = 2000
        p = float(rng.uniform(0.01, 0.3))
        out = self.workdir / "dephase.csv"
        argv = ["noise", "dephase", "--chain", str(self.chain_files[64]), "--p", repr(p),
                "--steps", str(steps), "--out", str(out)]

        def check(stdout):
            problems = checks.cli_result(stdout, expect={}, csv=(out, steps + 1))
            if problems:
                return problems
            doc = json.loads(stdout)
            return checks.within(doc.get("avg_fidelity"), doc.get("lower_bound", math.nan),
                                 doc.get("upper_bound", math.nan), "avg_fidelity")

        return ("noise-dephase", argv, check)

    def _bath(self, rng):
        steps = 400
        g = float(rng.uniform(5.0, 20.0))
        out = self.workdir / "bath.csv"
        argv = ["noise", "bath", "--chain", str(self.chain_files[64]), "--G", repr(g),
                "--tmax", repr(2.0 * math.pi), "--steps", str(steps), "--out", str(out)]
        bounded = partial(checks.within, lo=0.0, hi=2.0)   # a gap between two amplitudes
        return ("noise-bath", argv,
                partial(checks.cli_result,
                        expect={"max_strong_deviation": partial(bounded, what="strong"),
                                "max_weak_deviation": partial(bounded, what="weak")},
                        csv=(out, steps + 1)))

    def _report(self):
        out = self.workdir / "timing.csv"
        return ("report-timing", ["report", "--figure", "timing", "--n", "31", "--out", str(out)],
                partial(checks.cli_result,
                        expect={"analytic_peak_fidelity": checks.fidelity,
                                "uniform_peak_fidelity": partial(checks.within, lo=0.0,
                                                                 hi=1.0 - 1e-2,
                                                                 what="uniform peak")},
                        csv=(out, 1001)))

    def _gadget(self):
        out = self.workdir / "amp.csv"
        return ("gadget-amp", ["gadget", "amp", "--n", "100", "--out", str(out)],
                partial(checks.cli_result,
                        expect={"n": partial(checks.close, target=100, tol=0, what="n"),
                                "peak_probability": checks.fidelity,
                                "peak_time": partial(checks.close, target=math.pi / 2,
                                                     tol=1e-9, what="peak_time")},
                        csv=(out, 401)))

    def _demo(self, protocol: str, rng):
        n = int(rng.choice((6, 8) if protocol in ("entgen", "initfree") else (4, 5)))
        argv = ["fermionic", "demo", "--protocol", protocol, "--n", str(n),
                "--seed", str(int(rng.integers(0, 1 << 31)))]
        expect = {
            "entgen": {"entropy_bits": partial(checks.close, target=1.0,
                                               tol=checks.ENTROPY_TOL, what="entropy_bits"),
                       "target_fidelity": checks.fidelity, "t0": checks.t0_is_pi},
            "initfree": {"min_fidelity": checks.fidelity},
            "storage": {"fidelity_vs_prediction": checks.fidelity},
            "ising": {"transfer_fidelity": checks.fidelity, "t0": checks.t0_is_pi},
        }[protocol]
        return ("fermionic-demo", argv, partial(checks.cli_result, expect=expect))

    def baselines(self, op_times: dict) -> list[Baseline]:
        return [Baseline(command, roadmap, statistics.median(op_times[label]))
                for label, command, roadmap in (
                    ("noise-dephase", "pst noise dephase --steps 2000", 6.4),
                    ("report-timing", "pst report --figure timing --n 31", 0.54))]


WORKLOADS = {w.name: w for w in (ChainScale, ProtocolsDense, CliPipeline)}
