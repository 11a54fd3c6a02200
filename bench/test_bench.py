"""Tests of the benchmark itself: python -m pytest bench (with src on PYTHONPATH)."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import (LOG_TINY, ChainScale, Op, ProtocolsDense,  # noqa: E402
                       log_min_end_weight, odd_gap_spectrum,
                       representable_odd_gap_spectrum)

import pstchain  # noqa: E402
import pstchain.cli  # noqa: E402, F401  -- loaded so that its bindings are wrapped too


class FixedOps:
    """A workload whose every cycle is the given ops."""

    tail_q = 90

    def __init__(self, ops):
        self.ops = ops

    def cycle(self, index, in_process=False):
        return self.ops


def pstchain_attributes() -> dict:
    return {(name, attr): value
            for name, module in sys.modules.items()
            if module is not None and (name == "pstchain" or name.startswith("pstchain."))
            for attr, value in vars(module).items()}


# -- the tail rule -------------------------------------------------------------

def test_p90_refused_with_fewer_than_ten_samples_beyond():
    samples = list(np.random.default_rng(0).uniform(size=91))
    assert stats.beyond(samples, 90) == 9
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile(samples, 90)
    samples.append(0.5)
    assert stats.beyond(samples, 90) == 10
    assert stats.tail_percentile(samples, 90) == pytest.approx(np.percentile(samples, 90))


@pytest.mark.parametrize("q", [50, 75, 90])
def test_enough_for_tail_agrees_with_counting(q):
    rng = np.random.default_rng(q)
    for n in range(1, 160):
        samples = list(rng.uniform(size=n))
        assert stats.enough_for_tail(n, q) == (stats.beyond(samples, q) >= stats.MIN_BEYOND)


# -- correctness checks ----------------------------------------------------------

@pytest.fixture(scope="module")
def chain_scale(tmp_path_factory):
    w = ChainScale()
    w.setup(seed=3, workdir=tmp_path_factory.mktemp("chain"))
    return w


@pytest.fixture(scope="module")
def protocols(tmp_path_factory):
    w = ProtocolsDense()
    w.setup(seed=3, workdir=tmp_path_factory.mktemp("protocols"))
    return w


def test_checker_counts_injected_wrong_verdict_and_fidelity(chain_scale, protocols):
    rng = np.random.default_rng(1)
    chain_op = chain_scale._op("analytic", 8, rng)
    entgen = protocols._entgen(4)
    clean = FixedOps([chain_op, entgen])
    loop = harness.Loop()
    harness.run_cycle(clean, loop)
    assert (loop.attempted, loop.failed, loop.wrong) == (2, 0, 0)

    wrong_verdict = Op(chain_op.label, lambda: {**chain_op.run(), "verdict": "imperfect"},
                       chain_op.check)
    wrong_fidelity = Op(entgen.label,
                        lambda: dataclasses.replace(entgen.run(), target_fidelity=0.99),
                        entgen.check)
    loop = harness.Loop()
    harness.run_cycle(FixedOps([wrong_verdict, wrong_fidelity, chain_op]), loop)
    assert (loop.attempted, loop.failed, loop.wrong) == (3, 0, 2)
    assert "verdict 'imperfect'" in loop.problems[0]
    assert "target_fidelity" in loop.problems[1]


def test_raising_op_counts_as_failed_not_wrong():
    def boom():
        raise ArithmeticError("no convergence")

    loop = harness.Loop()
    harness.run_cycle(FixedOps([Op("boom", boom, lambda _: [])]), loop)
    assert (loop.attempted, loop.failed, loop.wrong) == (1, 1, 0)


def test_every_chain_kind_passes_its_check(chain_scale):
    rng = np.random.default_rng(5)
    for kind in ChainScale.KINDS:
        op = chain_scale._op(kind, 100, rng)
        assert op.check(op.run()) == [], kind


def test_cli_checker_flags_bad_output(tmp_path):
    out = tmp_path / "curve.csv"
    out.write_text("t,x\n0,1\n1,2\n")
    expect = {"verdict": lambda v: [] if v == "perfect" else ["verdict"]}
    assert checks.cli_result('{"verdict": "perfect"}', expect) == []
    assert checks.cli_result('{"verdict": "imperfect"}', expect) == ["verdict"]
    assert checks.cli_result("not json", expect)[0].startswith("stdout is not JSON")
    problems = checks.cli_result('{"verdict": "perfect"}', expect, csv=(out, 3))
    assert problems == ["curve.csv has 2 data rows, expected 3", "curve.csv.manifest.json missing"]


def test_min_end_weight_agrees_with_the_library():
    for seed in range(4):
        lam = odd_gap_spectrum(40, np.random.default_rng(seed))
        want = np.log(pstchain.end_weights(lam).min())
        assert log_min_end_weight(lam) == pytest.approx(want, rel=1e-12)


def test_iep_spectra_keep_normal_end_weights():
    rng = np.random.default_rng([5, 0])
    for _ in range(6):
        lam, _ = representable_odd_gap_spectrum(1000, rng)
        assert log_min_end_weight(lam) >= LOG_TINY
        assert np.all(np.diff(lam) > 0) and np.allclose(lam, -lam[::-1])
    # the range the draws leave out is met at N = 1000
    raw = [odd_gap_spectrum(1000, rng) for _ in range(20)]
    assert min(log_min_end_weight(lam) for lam in raw) < LOG_TINY


# -- tracing ---------------------------------------------------------------------

def test_wrappers_install_and_remove_cleanly():
    before = pstchain_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pstchain.certify.diagonalize is not before[("pstchain.certify", "diagonalize")]
        assert pstchain.cli.certify_pst is not before[("pstchain.cli", "certify_pst")]
        assert pstchain.diagonalize is pstchain.spectral.diagonalize
    finally:
        tracer.uninstall()
    after = pstchain_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_repeats_are_counted(chain_scale):
    op = chain_scale._op("analytic", 16, np.random.default_rng(2))
    tracer = tracing.Tracer()
    loop = harness.Loop()
    with tracer:
        harness.run_cycle(FixedOps([op]), loop, tracer)
    m = tracer.metrics()
    assert m["certify.certify_pst.calls"][0] == 1
    assert m["spectral.diagonalize.calls"][0] >= 2
    # certify_pst's self time excludes the diagonalize it caused
    assert m["certify.certify_pst.self_s"][0] < m["certify.certify_pst.s"][0]
    assert 0.0 < m["spectral.diagonalize.repeat_ratio"][0] < 1.0
    assert m["certify.certify_pst.repeat_ratio"][0] == 0.0


def test_deleted_layer_function_is_reported_absent(monkeypatch, chain_scale):
    monkeypatch.delattr(pstchain.fermionic, "slater_to_dense")
    op = chain_scale._op("analytic", 8, np.random.default_rng(4))
    tracer = tracing.Tracer()
    loop = harness.Loop()
    with tracer:
        harness.run_cycle(FixedOps([op]), loop, tracer)
    assert tracer.absent == ["fermionic.slater_to_dense"]
    assert (loop.failed, loop.wrong) == (0, 0)
    assert tracer.metrics()["fermionic.slater_to_dense.calls"] == (0, "count")


# -- the benchmark description ---------------------------------------------------

def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, harness.UNITS[k]) for k in harness.END_TO_END]

    class Pass:
        wall = 1.0

    layer = harness.layer_metrics(tracing.Tracer(), Pass, Pass, 0.0, {})
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, unit) for k, (_, unit) in layer.items()]
