"""Command-line surface: design -> certify -> simulate -> report pipelines
with machine-readable output.

All numerics live in the library; this module only parses arguments,
composes library calls, and serializes results. Stdout JSON is
deterministic (fixed 17-digit floats, no timestamps); CSV curves go to the
``--out`` path, accompanied by a run manifest listing inputs (with digests)
and outputs.

Exit codes: 0 success, 2 validation error, 64 unknown subcommand,
65 malformed chain file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, serialize
from .certify import certify_pst, require_perfect
from .chain import (ChainFormatError, ChainSpec, chain_from_dict, chain_to_dict,
                    read_chain, rescale, uniform_chain)
from .design import (analytic_chain, near_uniform_chain, sequential_storage_chain,
                     target_spectrum, chain_from_spectrum)
from .fermionic import (entanglement_generation, initfree_transfer, ising_from_pst,
                        sequential_storage_sim)
from .networks import (ClockProgram, amplifier_sim, clock_computer, hypercube,
                       network_to_dict, product_network, star_network,
                       theta_entangler)
from .noise import BathSpec, bath_transfer_amplitude, dephasing_avg_fidelity
from .spectral import diagonalize, gamma

SUBCOMMANDS = ("design", "certify", "simulate", "fermionic", "noise",
               "network", "gadget", "report")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNKNOWN_COMMAND = 64
EXIT_BAD_CHAIN_FILE = 65


class _HelpShown(Exception):
    """A subcommand's ``--help`` has printed its usage."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ValueError``, so they
    take the one-line validation exit of :func:`main`, and whose ``--help``
    raises :class:`_HelpShown`, so :func:`main` returns 0 for it as for
    ``pst --help``."""

    def error(self, message):
        raise ValueError(message)

    def exit(self, status=0, message=None):
        # error() raises, so only --help, after printing, gets here
        raise _HelpShown


class _Manifest:
    def __init__(self, argv: list[str]):
        self.argv = list(argv)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.started = time.monotonic()

    def add_input(self, path) -> None:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.inputs[str(path)] = digest

    def write_csv(self, path, header, columns) -> None:
        """Write a CSV curve, then this manifest beside it as
        ``<path>.manifest.json``."""
        serialize.write_csv(path, header, columns)
        self.outputs.append(str(path))
        doc = {
            "command": ["pst"] + self.argv,
            "version": __version__,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "elapsed_seconds": time.monotonic() - self.started,
        }
        Path(str(path) + ".manifest.json").write_text(serialize.dumps(doc) + "\n",
                                                      encoding="utf-8")


def _steps(text: str) -> int:
    """A ``--steps`` value: the number of intervals of a time grid, at least 1."""
    try:
        steps = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if steps < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {steps}")
    return steps


def _emit(doc) -> None:
    sys.stdout.write(serialize.dumps(doc) + "\n")


def _load_chain(path, manifest: _Manifest) -> ChainSpec:
    spec = read_chain(path)
    manifest.add_input(path)
    return spec


def _cert_dict(cert) -> dict:
    doc = {"verdict": cert.verdict}
    if cert.perfect:
        doc["t0"] = cert.t0
        doc["arrival_phase"] = cert.arrival_phase
        doc["odd_integers"] = list(cert.odd_integers)
        doc["worst_gap_residual"] = cert.worst_gap_residual
        doc["revival_magnitude"] = cert.revival_magnitude
    else:
        doc["reason"] = cert.reason
    doc["eigenvalues"] = list(cert.spectrum.eigenvalues)
    doc["end_weights"] = list(cert.end_weights)
    return doc


def _cmd_design(args, manifest):
    p = _Parser(prog="pst design")
    p.add_argument("kind", choices=["analytic", "storage", "from-spectrum", "near-uniform"])
    p.add_argument("spectrum", nargs="?", help="spectrum JSON file (from-spectrum)")
    p.add_argument("--n", type=int)
    p.add_argument("--slack", type=float, default=0.5)
    ns = p.parse_args(args)
    if ns.kind == "analytic":
        spec = analytic_chain(_require(ns.n, "--n"))
    elif ns.kind == "storage":
        spec = sequential_storage_chain(_require(ns.n, "--n"))
    elif ns.kind == "near-uniform":
        spec, deviation = near_uniform_chain(_require(ns.n, "--n"), ns.slack)
        print(f"info: max coupling deviation {serialize.format_float(deviation)}",
              file=sys.stderr)
    else:
        if not ns.spectrum:
            raise ValueError("from-spectrum needs a spectrum JSON file")
        with open(ns.spectrum, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        manifest.add_input(ns.spectrum)
        if not isinstance(doc, dict) or not isinstance(doc.get("eigenvalues"), list):
            raise ValueError("spectrum file must hold a JSON object with an eigenvalues list")
        antisymmetric = doc.get("antisymmetric")
        if antisymmetric is not None and not isinstance(antisymmetric, bool):
            raise ValueError(f"antisymmetric must be true, false or null, got "
                             f"{json.dumps(antisymmetric)}")
        spec = chain_from_spectrum(target_spectrum(doc["eigenvalues"], antisymmetric))
    _emit(chain_to_dict(spec))
    return EXIT_OK


def _require(value, name):
    if value is None:
        raise ValueError(f"missing required option {name}")
    return value


def _cmd_certify(args, manifest):
    p = _Parser(prog="pst certify")
    p.add_argument("chain")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-den", type=int, default=10 ** 6)
    ns = p.parse_args(args)
    spec = _load_chain(ns.chain, manifest)
    cert = certify_pst(spec, tol=ns.tol, max_denominator=ns.max_den)
    _emit(_cert_dict(cert))
    return EXIT_OK


def _cmd_simulate(args, manifest):
    p = _Parser(prog="pst simulate")
    p.add_argument("--chain", required=True)
    p.add_argument("--source", type=int, default=1)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=_steps, default=1000)
    p.add_argument("--out")
    ns = p.parse_args(args)
    spec = _load_chain(ns.chain, manifest)
    sd = diagonalize(spec)
    times = np.linspace(0.0, ns.tmax, ns.steps + 1)
    amps = gamma(sd, ns.source, ns.target, times)
    peak, peak_time, noise = _first_peak(times, np.abs(amps) ** 2, sd.eigenvalues)
    summary = {
        "source": ns.source,
        "target": ns.target,
        "peak_abs2": peak,
        # a peak below the square of the amplitudes' rounding has no time
        "peak_time": peak_time if peak > noise ** 2 else None,
    }
    if ns.out:
        manifest.write_csv(ns.out, ["t", "re", "im", "abs2"],
                           [times, amps.real, amps.imag, np.abs(amps) ** 2])
    _emit(summary)
    return EXIT_OK


def _first_peak(times: np.ndarray, probability: np.ndarray,
                eigenvalues: np.ndarray) -> tuple[float, float, float]:
    """The largest ``probability`` = |a|^2 over ``times``, the first time
    within rounding of it, and gamma's rounding bound on a with sum |w_k| <= 1,
    8 (max|t| max|lambda| + N + sqrt T) eps. |a|^2 <= 1 errs by at most twice
    that, so peaks equal to rounding give the earliest time, whatever their
    last bits."""
    scale = float(np.max(np.abs(times))) * float(np.max(np.abs(eigenvalues)))
    noise = 8.0 * (scale + eigenvalues.size + math.sqrt(times.size)) * np.finfo(float).eps
    peak = float(np.max(probability))
    first = int(np.argmax(probability >= peak - 2.0 * noise))
    return peak, float(times[first]), noise


def _cmd_fermionic(args, manifest):
    p = _Parser(prog="pst fermionic")
    p.add_argument("action", choices=["demo"])
    p.add_argument("--protocol", required=True,
                   choices=["entgen", "initfree", "storage", "ising"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    ns = p.parse_args(args)
    rng = np.random.default_rng(ns.seed)
    if ns.protocol == "entgen":
        rep = entanglement_generation(analytic_chain(ns.n))
        _emit({"protocol": "entgen", "n": ns.n, "entropy_bits": rep.entropy_bits,
               "target_fidelity": rep.target_fidelity, "t0": rep.t0})
    elif ns.protocol == "initfree":
        spec = analytic_chain(ns.n)
        worst = 1.0
        n_junk = min(1 << (ns.n - 2), 16)
        for _ in range(n_junk):
            bits = rng.integers(0, 2, size=ns.n - 2)
            phi = rng.uniform(0, 2 * math.pi)
            a = math.cos(phi / 2)
            b = math.sin(phi / 2) * complex(math.cos(phi), math.sin(phi))
            rep = initfree_transfer(spec, a, b, bits)
            worst = min(worst, rep.fidelity)
        _emit({"protocol": "initfree", "n": ns.n, "min_fidelity": worst,
               "junk_samples": n_junk})
    elif ns.protocol == "storage":
        spec = sequential_storage_chain(ns.n)
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        rep = sequential_storage_sim(spec, [plus] * ns.n, "same")
        _emit({"protocol": "storage", "n": ns.n,
               "fidelity_vs_prediction": rep.fidelity_vs_prediction,
               "controlled_phase_pairs": len(rep.cz_pairs)})
    else:
        rep = ising_from_pst(analytic_chain(2 * ns.n))
        _emit({"protocol": "ising", "n": ns.n, "fields": list(rep.fields),
               "couplings": list(rep.couplings),
               "transfer_fidelity": rep.transfer_fidelity, "t0": rep.t0})
    return EXIT_OK


def _cmd_noise(args, manifest):
    p = _Parser(prog="pst noise")
    p.add_argument("model", choices=["dephase", "bath"])
    p.add_argument("--chain", required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--G", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--steps", type=_steps, default=400)
    p.add_argument("--out")
    ns = p.parse_args(args)
    spec = _load_chain(ns.chain, manifest)
    if ns.model == "dephase":
        pval = _require(ns.p, "--p")
        cert = require_perfect(spec)
        t = ns.t if ns.t is not None else cert.t0 / 2.0
        rep = dephasing_avg_fidelity(spec, pval, t)
        if ns.out:
            kicks = np.linspace(0.0, cert.t0, ns.steps + 1)
            curve = dephasing_avg_fidelity(spec, pval, kicks).avg_fidelity
            manifest.write_csv(ns.out, ["t", "avg_fidelity"], [kicks, curve])
        _emit({"model": "dephase", "p": rep.p, "t": rep.t,
               "avg_fidelity": rep.avg_fidelity, "lower_bound": rep.lower_bound,
               "upper_bound": rep.upper_bound, "gamma_fourth_sum": rep.gamma_fourth_sum})
    else:
        g = _require(ns.G, "--G")
        tmax = _require(ns.tmax, "--tmax")
        times = np.linspace(0.0, tmax, ns.steps + 1)
        rep = bath_transfer_amplitude(BathSpec(chain=spec, coupling=g), times)
        if ns.out:
            manifest.write_csv(
                ns.out,
                ["t", "re", "im", "abs2", "re_strong", "im_strong", "abs2_strong"],
                [times, rep.gamma_exact.real, rep.gamma_exact.imag,
                 np.abs(rep.gamma_exact) ** 2, rep.strong_prediction.real,
                 rep.strong_prediction.imag, np.abs(rep.strong_prediction) ** 2])
        _emit({"model": "bath", "G": g,
               "max_strong_deviation": rep.max_strong_deviation,
               "max_weak_deviation": rep.max_weak_deviation})
    return EXIT_OK


def _cmd_network(args, manifest):
    p = _Parser(prog="pst network")
    p.add_argument("kind", choices=["product", "hypercube", "star", "theta"])
    p.add_argument("--chain-a")
    p.add_argument("--chain-b")
    p.add_argument("--chain")
    p.add_argument("--d", type=int)
    p.add_argument("--branches", type=int)
    p.add_argument("--theta", type=float)
    ns = p.parse_args(args)
    if ns.kind == "product":
        a = _load_chain(_require(ns.chain_a, "--chain-a"), manifest)
        b = _load_chain(_require(ns.chain_b, "--chain-b"), manifest)
        _emit(network_to_dict(product_network(a, b)))
    elif ns.kind == "hypercube":
        _emit(network_to_dict(hypercube(_require(ns.d, "--d"))))
    elif ns.kind == "star":
        branch = _load_chain(_require(ns.chain, "--chain"), manifest)
        rep = star_network(branch, _require(ns.branches, "--branches"))
        doc = network_to_dict(rep.network)
        doc["w_state_fidelity"] = rep.w_state_fidelity
        doc["t0"] = rep.t0
        _emit(doc)
    else:
        spec = _load_chain(_require(ns.chain, "--chain"), manifest)
        rep = theta_entangler(spec, _require(ns.theta, "--theta"))
        doc = network_to_dict(rep.network)
        doc["amplitude_first"] = rep.amplitude_first
        doc["amplitude_last"] = rep.amplitude_last
        doc["t0"] = rep.t0
        _emit(doc)
    return EXIT_OK


def _random_unitary(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def _program_gate(doc) -> np.ndarray:
    """One gate of a clock program file, ``{"re": rows, "im": rows}``."""
    if not isinstance(doc, dict):
        raise ValueError("each program gate must be an object with re and im")
    try:
        real, imag = np.asarray(doc["re"], dtype=float), np.asarray(doc["im"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"program gate entries must be numbers: {exc}") from None
    square = real.ndim == 2 and real.shape[0] == real.shape[1] > 0
    if not square or imag.shape != real.shape:
        raise ValueError("program gate re and im must be square matrices of one shape")
    return real + 1j * imag


def _cmd_gadget(args, manifest):
    p = _Parser(prog="pst gadget")
    p.add_argument("kind", choices=["amp", "clock"])
    p.add_argument("--chain")
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--tmax", type=float)
    p.add_argument("--steps", type=_steps, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--program")
    p.add_argument("--out")
    ns = p.parse_args(args)
    if ns.kind == "amp":
        if ns.chain:
            spec = _load_chain(ns.chain, manifest)
            t0 = require_perfect(spec).t0
        else:
            spec = rescale(analytic_chain(_require(ns.n, "--n")), 2.0)
            t0 = math.pi / 2.0
        tmax = ns.tmax if ns.tmax is not None else 4.0 * t0
        times = np.linspace(0.0, tmax, ns.steps + 1)
        res = amplifier_sim(spec, 1, times)
        if ns.out:
            manifest.write_csv(
                ns.out, ["t", "target_probability", "mean_signal", "majority_probability"],
                [times, res.target_probability, res.mean_signal,
                 res.majority_probability])
        peak, peak_time, _ = _first_peak(times, res.target_probability,
                                         diagonalize(spec).eigenvalues)
        _emit({"gadget": "amp", "n": spec.n, "peak_probability": peak,
               "peak_time": peak_time})
    else:
        if ns.program:
            with open(ns.program, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            manifest.add_input(ns.program)
            if not isinstance(doc, dict):
                raise ValueError("program file must hold a JSON object with chain and gates")
            spec = chain_from_dict(doc["chain"])
            if not isinstance(doc["gates"], list) or not doc["gates"]:
                raise ValueError("program gates must be a non-empty list")
            gates = [_program_gate(g) for g in doc["gates"]]
            psi = np.asarray(doc.get("input", [1.0] + [0.0] * (gates[0].shape[0] - 1)),
                             dtype=complex)
        else:
            n = _require(ns.n, "--n")
            rng = np.random.default_rng(ns.seed)
            spec = analytic_chain(n)
            gates = [_random_unitary(ns.dim, rng) for _ in range(n - 1)]
            psi = np.zeros(ns.dim, dtype=complex)
            psi[:1] = 1.0       # ClockProgram refuses a register of dimension 0
        res = clock_computer(ClockProgram(chain=spec, gates=tuple(gates)), psi)
        _emit({"gadget": "clock", "fidelity": res.fidelity, "t0": res.t0,
               "dense_verified": res.dense_verified,
               "output": [complex(x) for x in res.output]})
    return EXIT_OK


def _cmd_report(args, manifest):
    p = _Parser(prog="pst report")
    p.add_argument("--figure", required=True, choices=["timing", "amplifier"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--slack", type=float, default=0.5)
    p.add_argument("--steps", type=_steps, default=1000)
    p.add_argument("--out")
    ns = p.parse_args(args)
    if ns.figure == "amplifier":
        n = ns.n
        t0 = math.pi / 2.0
        times = np.linspace(0.0, 4.0 * t0, ns.steps + 1)
        res = amplifier_sim(rescale(analytic_chain(n), 2.0), 1, times)
        header = ["t", "t_over_t0", "target_probability", "mean_signal",
                  "majority_probability"]
        columns = [times, times / t0, res.target_probability, res.mean_signal,
                   res.majority_probability]
        summary = {"figure": "amplifier", "n": n, "t0": t0,
                   "peak_probability": float(np.max(res.target_probability))}
    else:
        n = ns.n
        analytic = analytic_chain(n)
        uniform = uniform_chain(n)
        near, _ = near_uniform_chain(n, ns.slack)
        curves = {"analytic": analytic,
                  "near_uniform": rescale(near, certify_pst(near).t0 / math.pi)}
        sd_u = diagonalize(uniform)
        peak = _peak_time(sd_u, n)
        grid = np.linspace(0.0, 2.0, ns.steps + 1)
        cols = {"uniform": np.abs(gamma(sd_u, 1, n, grid * peak)) ** 2}
        for name, spec in curves.items():
            sd = diagonalize(spec)
            cols[name] = np.abs(gamma(sd, 1, n, grid * math.pi)) ** 2
        header = ["t_over_t0", "f_uniform", "f_near_uniform", "f_analytic"]
        columns = [grid, cols["uniform"], cols["near_uniform"], cols["analytic"]]
        summary = {"figure": "timing", "n": n,
                   "uniform_peak_fidelity": float(np.max(cols["uniform"])),
                   "analytic_peak_fidelity": float(np.max(cols["analytic"]))}
    if ns.out:
        manifest.write_csv(ns.out, header, columns)
    _emit(summary)
    return EXIT_OK


def _peak_time(sd, n: int) -> float:
    horizon = max(4.0 * n, 20.0)
    times = np.linspace(0.0, horizon, 20000)
    amps = np.abs(gamma(sd, 1, n, times))
    return float(times[int(np.argmax(amps))])


_DISPATCH = {
    "design": _cmd_design,
    "certify": _cmd_certify,
    "simulate": _cmd_simulate,
    "fermionic": _cmd_fermionic,
    "noise": _cmd_noise,
    "network": _cmd_network,
    "gadget": _cmd_gadget,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: pst {" + ",".join(SUBCOMMANDS) + "} ...")
        return EXIT_OK
    sub, rest = argv[0], argv[1:]
    if sub not in _DISPATCH:
        print(f"error: unknown subcommand {sub!r}", file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND
    manifest = _Manifest(argv)
    try:
        return _DISPATCH[sub](rest, manifest)
    except _HelpShown:
        return EXIT_OK
    except ChainFormatError as exc:
        print(f"error: bad-chain-file: {exc}", file=sys.stderr)
        return EXIT_BAD_CHAIN_FILE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
