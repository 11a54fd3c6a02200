"""Per-layer tracing of ``pstchain`` from outside the library.

Each public function named in :data:`LAYERS` is replaced, wherever it is
bound in a ``pstchain`` module (including names one module imports from
another, such as ``pstchain.certify.diagonalize``), by a wrapper that
records a span around the call. Spans nest: a function's self time is its
inclusive time minus the time of the spans it caused. Everything is kept in
memory and read out once the run ends; removing the wrappers restores every
module attribute to the identical object.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

PACKAGE = "pstchain"

# (layer module, public functions). Names a later change deletes are reported
# as absent rather than failing the run.
LAYERS = (
    ("chain", ("build_h1", "mirror_symmetry_check", "read_chain", "write_chain")),
    ("spectral", ("diagonalize", "gamma", "propagate")),
    ("certify", ("certify_pst", "timing_window", "end_weights")),
    ("design", ("chain_from_spectrum", "near_uniform_chain")),
    ("fermionic", ("dense_hamiltonian", "dense_evolve", "slater_to_dense",
                   "evolve_slater", "entanglement_generation", "initfree_transfer",
                   "sequential_storage_sim")),
    ("noise", ("dephasing_avg_fidelity", "bath_transfer_amplitude")),
    ("networks", ("amplifier_sim", "amplifier_dense_check", "clock_computer",
                  "star_network", "product_network", "theta_entangler")),
    ("serialize", ("dumps", "write_csv")),
)

# Functions whose repeated calls on one operator within one op are waste.
REPEAT_KEYED = ("spectral.diagonalize", "certify.certify_pst")


@dataclass
class SpanStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


def operator_key(operator):
    """Content key of a chain, tridiagonal matrix or dense operator."""
    for diag, off in (("fields", "couplings"), ("diagonal", "offdiagonal")):
        if hasattr(operator, diag) and hasattr(operator, off):
            return (tuple(getattr(operator, diag)), tuple(getattr(operator, off)))
    tobytes = getattr(operator, "tobytes", None)
    if tobytes is not None:
        return (getattr(operator, "shape", None), str(getattr(operator, "dtype", "")),
                hash(tobytes()))
    return None


class Tracer:
    """Wraps the layer functions of the imported ``pstchain`` and aggregates spans."""

    def __init__(self):
        self.stats = {f"{mod}.{fn}": SpanStats() for mod, fns in LAYERS for fn in fns}
        self.absent: list[str] = []
        self.csv_bytes = 0
        self.repeat_calls = {name: 0 for name in REPEAT_KEYED}
        self.repeat_hits = {name: 0 for name in REPEAT_KEYED}
        self._seen: dict[str, set] = {name: set() for name in REPEAT_KEYED}
        self._stack: list[list[float]] = []   # child time accumulated per open span
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod, fns in LAYERS:
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(home, fn, None) if home is not None else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ---------------------------------------------------------
    def begin_op(self) -> None:
        """Start a new op: repeat detection only looks within one op."""
        for seen in self._seen.values():
            seen.clear()

    def _note_repeat(self, name: str, args) -> None:
        key = operator_key(args[0]) if args else None
        if key is None:
            return
        self.repeat_calls[name] += 1
        if key in self._seen[name]:
            self.repeat_hits[name] += 1
        else:
            self._seen[name].add(key)

    def _wrap(self, name, original):
        stats = self.stats[name]
        keyed = name in self._seen
        counts_bytes = name == "serialize.write_csv"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if keyed:
                self._note_repeat(name, args)
            self._stack.append([0.0])
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._stack.pop()[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
                stats.calls += 1
                stats.inclusive_s += elapsed
                stats.self_s += elapsed - child
                if counts_bytes and args:
                    try:
                        self.csv_bytes += os.path.getsize(args[0])
                    except OSError:
                        pass

        return traced

    # -- read-out ----------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.s"] = (st.inclusive_s, "s")
            out[f"{name}.self_s"] = (st.self_s, "s")
        out["serialize.write_csv.bytes"] = (self.csv_bytes, "bytes")
        for name in REPEAT_KEYED:
            calls = self.repeat_calls[name]
            ratio = self.repeat_hits[name] / calls if calls else 0.0
            out[f"{name}.repeat_ratio"] = (ratio, "ratio")
        return out
