"""Correctness checks behind ``wrong_ratio``.

The checks use physics tolerances rather than byte digests, so an algorithm
change that moves the last digits is not counted as wrong. Each check returns
a list of problems; an empty list means the result is right.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

T0_RTOL = 1e-9        # relative error of t0 = pi on analytic and IEP chains
ARRIVAL_TOL = 1e-8    # |gamma_N(t0)| >= 1 - ARRIVAL_TOL
FIDELITY_TOL = 1e-8   # protocol fidelities >= 1 - FIDELITY_TOL
ENTROPY_TOL = 1e-8    # entanglement entropy = 1 bit


def within(value, lo: float, hi: float, what: str) -> list[str]:
    if not (isinstance(value, (int, float)) and lo <= value <= hi):
        return [f"{what} = {value!r} outside [{lo!r}, {hi!r}]"]
    return []


def at_least(value, floor: float, what: str) -> list[str]:
    return within(value, floor, math.inf, what)


def close(value, target: float, tol: float, what: str) -> list[str]:
    if not (isinstance(value, (int, float)) and abs(value - target) <= tol):
        return [f"{what} = {value!r}, expected {target!r} within {tol:g}"]
    return []


def fidelity(value, what: str = "fidelity") -> list[str]:
    return at_least(value, 1.0 - FIDELITY_TOL, what)


def t0_is_pi(t0, what: str = "t0") -> list[str]:
    return close(t0, math.pi, T0_RTOL * math.pi, what)


# -- chain-scale ---------------------------------------------------------------

def chain_result(result: dict, expected: str, t0_pi: bool) -> list[str]:
    """Verdict, t0, arrival and timing window of one design-certify-simulate op."""
    if result.get("verdict") != expected:
        return [f"verdict {result.get('verdict')!r} ({result.get('reason')}), "
                f"expected {expected!r}"]
    if expected != "perfect":
        return []
    problems = at_least(result.get("arrival"), 1.0 - ARRIVAL_TOL, "|gamma_N(t0)|")
    if t0_pi:
        problems += t0_is_pi(result.get("t0"))
    window = result.get("window")
    if not (isinstance(window, float) and window > 0.0):
        problems.append(f"timing window {window!r} is not positive")
    return problems


# -- cli-pipeline --------------------------------------------------------------

def csv_rows(path: Path, rows: int) -> list[str]:
    """A CSV with a header and ``rows`` data rows, plus its run manifest."""
    problems = []
    try:
        with open(path, encoding="utf-8") as fh:
            found = sum(1 for _ in fh) - 1
    except OSError as exc:
        return [f"cannot read {path.name}: {exc}"]
    if found != rows:
        problems.append(f"{path.name} has {found} data rows, expected {rows}")
    manifest = Path(str(path) + ".manifest.json")
    if not manifest.is_file():
        problems.append(f"{manifest.name} missing")
    return problems


def cli_result(stdout: str, expect: dict, csv=None) -> list[str]:
    """Stdout of a command that exited 0: a JSON object whose keys pass ``expect``.

    ``expect`` maps each required key to a callable taking its value and
    returning problems. ``csv`` is ``(path, rows)`` for commands that write
    ``--out``.
    """
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["stdout JSON is not an object"]
    problems = []
    for key, check in expect.items():
        problems += check(doc[key]) if key in doc else [f"missing key {key!r}"]
    if csv is not None:
        problems += csv_rows(*csv)
    return problems
