import ast
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from pstchain.cli import main
from pstchain.fermionic import REGISTER_CAP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_design_analytic_json(capsys):
    code, out, _ = run(capsys, "design", "analytic", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["couplings"] == pytest.approx([math.sqrt(3) / 2, 1.0, math.sqrt(3) / 2])
    assert doc["statistics"] == "fermionic"


def test_design_then_certify_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "design", "analytic", "--n", "4")
    chain_file = tmp_path / "c.json"
    chain_file.write_text(out)
    code, out, _ = run(capsys, "certify", str(chain_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "perfect"
    assert doc["t0"] == pytest.approx(math.pi, abs=1e-9)


def test_design_from_spectrum(tmp_path, capsys):
    spec_file = tmp_path / "s.json"
    spec_file.write_text('{"eigenvalues": [-1.5, -0.5, 0.5, 1.5]}')
    code, out, _ = run(capsys, "design", "from-spectrum", str(spec_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["couplings"] == pytest.approx([math.sqrt(3) / 2, 1.0, math.sqrt(3) / 2])


def test_design_from_spectrum_whose_end_weights_underflow(tmp_path, capsys):
    # the end weights of this unit-gap spectrum reach 1e-662; the chain is
    # built on the fold, where none of them is formed
    spec_file = tmp_path / "s.json"
    spec_file.write_text(json.dumps({"eigenvalues": (np.arange(2200.0) - 1099.5).tolist()}))
    code, out, _ = run(capsys, "design", "from-spectrum", str(spec_file))
    assert code == 0
    assert len(json.loads(out)["couplings"]) == 2199


def test_design_storage_and_near_uniform(capsys):
    code, out, _ = run(capsys, "design", "storage", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["couplings"] == pytest.approx([math.sqrt(8 / 3), math.sqrt(4 / 3)])
    code, out, err = run(capsys, "design", "near-uniform", "--n", "5", "--slack", "0.5")
    assert code == 0
    assert "max coupling deviation" in err
    json.loads(out)


def test_simulate_csv(tmp_path, capsys):
    chain_file = tmp_path / "c.json"
    code, out, _ = run(capsys, "design", "analytic", "--n", "4")
    chain_file.write_text(out)
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "simulate", "--chain", str(chain_file), "--source", "1",
                       "--target", "4", "--tmax", "6.3", "--steps", "1000",
                       "--out", str(out_csv))
    assert code == 0
    summary = json.loads(out)
    assert summary["peak_abs2"] == pytest.approx(1.0, abs=1e-4)
    assert abs(summary["peak_time"] - math.pi) < 0.01
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,re,im,abs2"
    assert len(lines) == 1002
    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert str(out_csv) in manifest["outputs"]
    assert str(chain_file) in manifest["inputs"]


def test_simulate_gives_no_peak_time_to_rounding_noise(tmp_path, capsys):
    """From site 2 to site 200 of the 201-site near-uniform chain, up to t = 4,
    every amplitude lies below gamma's rounding bound
    8 (tmax max|lambda| + N + sqrt T) eps, so no time is printed for the peak."""
    chain_file = tmp_path / "near.json"
    code, out, _ = run(capsys, "design", "near-uniform", "--n", "201", "--slack", "0.5")
    chain_file.write_text(out)
    code, out, err = run(capsys, "simulate", "--chain", str(chain_file), "--source", "2",
                         "--target", "200", "--tmax", "4")
    assert code == 0, err
    summary = json.loads(out)
    assert summary["peak_abs2"] < 1e-25
    assert summary["peak_time"] is None


def test_unknown_subcommand_exit_64(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 64
    assert "unknown subcommand" in err


def test_malformed_chain_exit_65(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2}')
    code, _, err = run(capsys, "certify", str(bad))
    assert code == 65
    assert "bad-chain-file" in err


@pytest.mark.parametrize("doc", ['{"n": 3, "couplings": "11", "fields": "000"}',
                                 '{"n": 3.9, "couplings": [1.0, 1.0], "fields": [0, 0, 0]}',
                                 '{"n": true, "couplings": [], "fields": [0]}'])
def test_mistyped_chain_file_exit_65(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code, out, err = run(capsys, "certify", str(bad))
    assert code == 65
    assert out == ""
    assert "bad-chain-file" in err


def test_validation_error_exit_2(capsys):
    code, _, err = run(capsys, "design", "analytic", "--n", "1")
    assert code == 2
    assert "error: validation" in err


@pytest.mark.parametrize("argv, reason", [
    (["certify"], "the following arguments are required: chain"),
    (["design", "analytic", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
    (["design", "helical"], "argument kind: invalid choice: 'helical' (choose from "
                            "'analytic', 'storage', 'from-spectrum', 'near-uniform')"),
    (["report", "--figure", "timing", "--n", "4", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_argument_errors_take_the_validation_exit(capsys, argv, reason):
    """A usage error is one line on stderr and exit 2, returned by main."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: validation: {reason}\n"


@pytest.mark.parametrize("steps", ["-1", "0"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--target", "4", "--tmax", "6.3"],
    ["noise", "dephase", "--p", "0.1"],
    ["noise", "bath", "--G", "0.1", "--tmax", "6.3"],
    ["report", "--figure", "timing", "--n", "4"],
    ["gadget", "amp", "--n", "4"],
], ids=["simulate", "dephase", "bath", "report", "gadget"])
def test_steps_below_one_take_the_validation_exit(tmp_path, capsys, argv, steps):
    """Every command with a time grid refuses fewer than one step at parse
    time, naming --steps, and writes no curve."""
    from pstchain import analytic_chain, write_chain

    path = tmp_path / "chain.json"
    write_chain(analytic_chain(4), path)
    out_csv = tmp_path / "curve.csv"
    if argv[0] in ("simulate", "noise"):
        argv = argv + ["--chain", str(path)]
    code, out, err = run(capsys, *argv, "--steps", steps, "--out", str(out_csv))
    assert (code, out) == (2, "")
    assert err == f"error: validation: argument --steps: must be at least 1, got {steps}\n"
    assert not out_csv.exists()

def test_subcommand_help_exits_zero(capsys):
    """``--help`` of a subcommand returns 0 from main, as ``pst --help`` does,
    with the subcommand's usage on stdout and nothing on stderr."""
    code, out, err = run(capsys, "certify", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: pst certify")


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "design", "near-uniform", "--n", "6", "--slack", "0.4")
    _, out2, _ = run(capsys, "design", "near-uniform", "--n", "6", "--slack", "0.4")
    assert out1 == out2


def test_noise_dephase_json(tmp_path, capsys):
    chain_file = tmp_path / "c.json"
    _, out, _ = run(capsys, "design", "analytic", "--n", "5")
    chain_file.write_text(out)
    code, out, _ = run(capsys, "noise", "dephase", "--chain", str(chain_file),
                       "--p", "0.1", "--t", str(math.pi / 2))
    assert code == 0
    doc = json.loads(out)
    from pstchain import analytic_chain, dephasing_avg_fidelity

    rep = dephasing_avg_fidelity(analytic_chain(5), 0.1, math.pi / 2)
    assert doc["avg_fidelity"] == pytest.approx(rep.avg_fidelity, abs=1e-15)


def test_noise_bath_csv(tmp_path, capsys):
    chain_file = tmp_path / "c.json"
    _, out, _ = run(capsys, "design", "analytic", "--n", "4")
    chain_file.write_text(out)
    out_csv = tmp_path / "bath.csv"
    code, out, _ = run(capsys, "noise", "bath", "--chain", str(chain_file),
                       "--G", "0.0", "--tmax", "6.3", "--steps", "100",
                       "--out", str(out_csv))
    assert code == 0
    doc = json.loads(out)
    assert doc["max_weak_deviation"] < 1e-12
    assert out_csv.exists()


def test_fermionic_demo(capsys):
    code, out, _ = run(capsys, "fermionic", "demo", "--protocol", "entgen", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["entropy_bits"] == pytest.approx(1.0, abs=1e-6)
    code, out, _ = run(capsys, "fermionic", "demo", "--protocol", "storage", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity_vs_prediction"] >= 1.0 - 1e-8


def test_fermionic_demo_storage_above_the_register_cap_names_it(capsys):
    n = str(REGISTER_CAP + 1)
    code, out, err = run(capsys, "fermionic", "demo", "--protocol", "storage", "--n", n)
    assert code == 2
    assert out == ""
    assert f"register cap ({REGISTER_CAP})" in err


def test_network_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "network", "hypercube", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_vertices"] == 4
    assert len(doc["edges"]) == 4
    chain_file = tmp_path / "c.json"
    _, out, _ = run(capsys, "design", "analytic", "--n", "2")
    chain_file.write_text(out)
    code, out, _ = run(capsys, "network", "star", "--chain", str(chain_file),
                       "--branches", "3")
    assert code == 0
    assert json.loads(out)["w_state_fidelity"] >= 1.0 - 1e-8
    code, out, _ = run(capsys, "network", "theta", "--chain", str(chain_file), "--theta", "0.3")
    assert code == 2  # even-length chain rejected


def test_gadget_amp_and_clock(tmp_path, capsys):
    out_csv = tmp_path / "amp.csv"
    code, out, _ = run(capsys, "gadget", "amp", "--n", "12", "--out", str(out_csv))
    assert code == 0
    doc = json.loads(out)
    assert doc["peak_probability"] >= 1.0 - 1e-8
    code, out, _ = run(capsys, "gadget", "clock", "--n", "3", "--dim", "2", "--seed", "7")
    assert code == 0
    assert json.loads(out)["fidelity"] >= 1.0 - 1e-8


@pytest.mark.parametrize("n", range(4, 17))
def test_gadget_amp_peak_time_is_the_first_peak(capsys, n):
    """Up to 4 t0 the target probability peaks at t0 = pi/2 and 3 t0, both
    at 1 to rounding; the printed time is the first, whatever their last
    bits (the larger of the two was at 3 t0 for n = 6 and 12)."""
    code, out, err = run(capsys, "gadget", "amp", "--n", str(n))
    assert code == 0, err
    assert json.loads(out)["peak_time"] == 1.5707963267948968


def test_gadget_clock_empty_register_exit_2(capsys):
    code, out, err = run(capsys, "gadget", "clock", "--n", "4", "--dim", "0")
    assert (code, out) == (2, "")
    assert err == "error: validation: gates must act on a register of dimension at least 1\n"


def test_report_timing_three_site_near_uniform_is_the_analytic_curve(tmp_path, capsys):
    """The uniform chain of three sites transfers perfectly, and rescaled to
    t0 = pi it is the analytic chain."""
    out_csv = tmp_path / "timing3.csv"
    code, _, _ = run(capsys, "report", "--figure", "timing", "--n", "3", "--steps", "200",
                     "--out", str(out_csv))
    assert code == 0
    rows = out_csv.read_text().splitlines()[1:]
    data = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert np.max(np.abs(data[:, 2] - data[:, 3])) <= 1e-14


def test_report_timing_two_site_closed_form(tmp_path, capsys):
    out_csv = tmp_path / "timing.csv"
    code, out, _ = run(capsys, "report", "--figure", "timing", "--n", "2",
                       "--steps", "200", "--out", str(out_csv))
    assert code == 0
    rows = out_csv.read_text().splitlines()[1:]
    data = np.array([[float(x) for x in row.split(",")] for row in rows])
    u, f_analytic = data[:, 0], data[:, 3]
    assert np.allclose(f_analytic, np.sin(u * math.pi / 2.0) ** 2, atol=1e-10)


def test_report_timing_31_uniform_peaks_below_one(tmp_path, capsys):
    out_csv = tmp_path / "timing31.csv"
    code, out, _ = run(capsys, "report", "--figure", "timing", "--n", "31",
                       "--steps", "400", "--out", str(out_csv))
    assert code == 0
    doc = json.loads(out)
    assert doc["uniform_peak_fidelity"] < 1.0 - 1e-2
    assert doc["analytic_peak_fidelity"] >= 1.0 - 1e-8
    rows = out_csv.read_text().splitlines()[1:]
    data = np.array([[float(x) for x in row.split(",")] for row in rows])
    # the near-uniform curve also reaches 1 at its own transfer time
    assert np.max(data[:, 2]) >= 1.0 - 1e-6


def test_gadget_amp_rejects_bad_chains(tmp_path, capsys):
    from pstchain import analytic_chain, chain, uniform_chain, write_chain

    imperfect = tmp_path / "uniform.json"
    write_chain(uniform_chain(6), imperfect)
    fielded = tmp_path / "fielded.json"
    write_chain(chain(analytic_chain(6).couplings, [0.3] * 6), fielded)
    for path in (imperfect, fielded):
        code, out, err = run(capsys, "gadget", "amp", "--chain", str(path))
        assert code == 2, err
        assert out == ""
        assert err.startswith("error: validation: ")


def test_design_from_an_empty_spectrum_exit_2(tmp_path, capsys):
    spec_file = tmp_path / "s.json"
    spec_file.write_text('{"eigenvalues": []}')
    code, out, err = run(capsys, "design", "from-spectrum", str(spec_file))
    assert code == 2, err
    assert out == ""
    assert err == "error: validation: target spectrum needs at least two eigenvalues\n"


@pytest.mark.parametrize("value", ['"no"', '"false"', "0", "1", "[]", "{}"])
def test_design_from_spectrum_antisymmetric_must_be_a_boolean_exit_2(tmp_path, capsys, value):
    spec_file = tmp_path / "s.json"
    spec_file.write_text(f'{{"eigenvalues": [-1.5, -0.5, 0.5, 1.5], "antisymmetric": {value}}}')
    code, out, err = run(capsys, "design", "from-spectrum", str(spec_file))
    assert code == 2, err
    assert out == ""
    assert err == (f"error: validation: antisymmetric must be true, false or null, "
                   f"got {json.dumps(json.loads(value))}\n")


@pytest.mark.parametrize("value", ["true", "false", "null", None])
def test_design_from_spectrum_takes_a_boolean_or_null_antisymmetric(tmp_path, capsys, value):
    """true forces zero fields; false, null and a missing key take the general
    reconstruction of this antisymmetric spectrum, or detect it."""
    doc = '{"eigenvalues": [-1.5, -0.5, 0.5, 1.5]' + (
        "" if value is None else f', "antisymmetric": {value}') + "}"
    spec_file = tmp_path / "s.json"
    spec_file.write_text(doc)
    code, out, err = run(capsys, "design", "from-spectrum", str(spec_file))
    assert code == 0, err
    fields = json.loads(out)["fields"]
    assert max(map(abs, fields)) < 1e-12
    assert (fields == [0, 0, 0, 0]) == (value in ("true", "null", None))


def test_design_from_spectrum_list_document_exit_2(tmp_path, capsys):
    spec_file = tmp_path / "s.json"
    spec_file.write_text("[-1.5, -0.5, 0.5, 1.5]")
    code, out, err = run(capsys, "design", "from-spectrum", str(spec_file))
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: validation: ")


_CHAIN3 = {"n": 3, "couplings": [0.7071067811865476, 0.7071067811865476],
           "fields": [0.0, 0.0, 0.0]}
_GATE = {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("doc", [
    {"chain": _CHAIN3, "gates": []},
    [{"chain": _CHAIN3, "gates": [_GATE, _GATE]}],
    {"chain": _CHAIN3, "gates": [_GATE, {"re": [["x", 0.0], [0.0, 1.0]], "im": _GATE["im"]}]},
    {"chain": _CHAIN3, "gates": [_GATE, 5]},
], ids=["no-gates", "list-document", "non-numeric-entry", "non-object-gate"])
def test_gadget_clock_malformed_program_exit_2(tmp_path, capsys, doc):
    program = tmp_path / "program.json"
    program.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gadget", "clock", "--program", str(program))
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: validation: ")


def test_gadget_clock_nan_gate_exit_2(tmp_path, capsys):
    program = tmp_path / "program.json"
    nan_gate = {"re": [[math.nan, 0.0], [0.0, 1.0]], "im": _GATE["im"]}
    program.write_text(json.dumps({"chain": _CHAIN3, "gates": [_GATE, nan_gate]}))
    code, out, err = run(capsys, "gadget", "clock", "--program", str(program))
    assert code == 2, err
    assert out == ""
    assert err == "error: validation: gates must be finite\n"


def test_certify_nan_tol_exit_2(tmp_path, capsys):
    chain_file = tmp_path / "c.json"
    chain_file.write_text(json.dumps(_CHAIN3))
    code, out, err = run(capsys, "certify", str(chain_file), "--tol", "nan")
    assert code == 2, err
    assert out == ""
    assert err == "error: validation: tol must be non-negative\n"


def test_certify_zero_max_denominator_exit_2(tmp_path, capsys):
    chain_file = tmp_path / "c.json"
    chain_file.write_text(json.dumps(_CHAIN3))
    code, out, err = run(capsys, "certify", str(chain_file), "--max-den", "0")
    assert code == 2, err
    assert out == ""
    assert err == "error: validation: max_denominator must be a positive integer\n"


def test_simulate_nan_tmax_exit_2(tmp_path, capsys):
    chain_file = tmp_path / "c.json"
    chain_file.write_text(json.dumps(_CHAIN3))
    code, out, err = run(capsys, "simulate", "--chain", str(chain_file), "--target", "3",
                         "--tmax", "nan")
    assert code == 2, err
    assert out == ""
    assert err == "error: validation: times must be finite\n"


def test_gadget_clock_program_file(tmp_path, capsys):
    program = tmp_path / "program.json"
    x_gate = {"re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}
    program.write_text(json.dumps({"chain": _CHAIN3, "gates": [_GATE, x_gate]}))
    code, out, err = run(capsys, "gadget", "clock", "--program", str(program))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["dense_verified"] and doc["fidelity"] >= 1.0 - 1e-8
    assert abs(complex(doc["output"][1]["re"], doc["output"][1]["im"])) >= 1.0 - 1e-8


def test_report_amplifier_manifest_flag(tmp_path, capsys):
    # neither amplifier command runs the 2^N check, so no manifest reports on it
    out_csv = tmp_path / "amp100.csv"
    code, out, _ = run(capsys, "report", "--figure", "amplifier", "--n", "100",
                       "--steps", "300", "--out", str(out_csv))
    assert code == 0
    doc = json.loads(out)
    assert doc["peak_probability"] >= 1.0 - 1e-8
    manifest = json.loads((tmp_path / "amp100.csv.manifest.json").read_text())
    assert "dense_check_skipped" not in manifest
    out_csv = tmp_path / "amp8.csv"
    code, _, _ = run(capsys, "gadget", "amp", "--n", "8", "--out", str(out_csv))
    assert code == 0
    manifest = json.loads((tmp_path / "amp8.csv.manifest.json").read_text())
    assert "dense_check_skipped" not in manifest


def test_import_does_not_load_scipy_sparse():
    # every pst process pays for what `import pstchain` loads; no module of the
    # library needs scipy.sparse
    import pstchain

    root = os.path.dirname(os.path.dirname(pstchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, pstchain, pstchain.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


_SCIPY_PROBE = """
import contextlib, io, sys
import pstchain, pstchain.cli
from pstchain import analytic_chain, diagonalize

def loaded():
    return 'scipy' in sys.modules, 'scipy.linalg' in sys.modules

def run(label, *argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = pstchain.cli.main(list(argv))
    print(label, code, *loaded(), file=sys.stderr)
    return out.getvalue()

def solved():
    spec = analytic_chain(64)
    return diagonalize(spec).eigenvalues.tobytes(), diagonalize(spec).eigenvectors.tobytes()

print('import', 0, *loaded(), file=sys.stderr)
with open('a64.json', 'w') as f:
    f.write(run('design-analytic', 'design', 'analytic', '--n', '64'))
with open('a1000.json', 'w') as f:
    f.write(run('design-analytic-1000', 'design', 'analytic', '--n', '1000'))
run('design-storage', 'design', 'storage', '--n', '8')
run('design-near-uniform', 'design', 'near-uniform', '--n', '41', '--slack', '0.5')
run('certify-64', 'certify', 'a64.json')
run('simulate', 'simulate', '--chain', 'a64.json', '--target', '64', '--tmax', '6.3',
    '--steps', '600', '--out', 'sim.csv')
run('noise-dephase', 'noise', 'dephase', '--chain', 'a64.json', '--p', '0.1',
    '--steps', '200', '--out', 'dephase.csv')
run('noise-bath', 'noise', 'bath', '--chain', 'a64.json', '--G', '10', '--tmax', '6.3',
    '--steps', '100', '--out', 'bath.csv')
run('report-timing', 'report', '--figure', 'timing', '--n', '31', '--out', 'timing.csv')
run('gadget-amp', 'gadget', 'amp', '--n', '100', '--out', 'amp.csv')
for protocol, n in (('entgen', '8'), ('initfree', '6'), ('storage', '5'), ('ising', '4')):
    run('demo-' + protocol, 'fermionic', 'demo', '--protocol', protocol, '--n', n,
        '--seed', '3')
run('certify-1000', 'certify', 'a1000.json')
before = solved()
print('solved-64', 0, *loaded(), file=sys.stderr)
import scipy.linalg
from pstchain import spectral
print('same-solver', 0, scipy.linalg.lapack.dsterf is spectral._lapack().dsterf,
      scipy.linalg.lapack.dstevd is spectral._lapack().dstevd, file=sys.stderr)
print('same-bytes', 0, solved() == before, 'scipy.linalg' in sys.modules, file=sys.stderr)
"""


def _probe(code, cwd):
    """``label: (word, word)`` from the ``label 0 word word`` lines a probe
    prints to stderr, in a fresh process."""
    import pstchain

    root = os.path.dirname(os.path.dirname(pstchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         check=True, capture_output=True, text=True)
    states = {}
    for line in out.stderr.splitlines():
        words = line.split()
        if len(words) == 4 and words[1] == "0":
            states[words[0]] = (words[2], words[3])
    return states


def test_no_pst_command_loads_scipy_linalg(tmp_path):
    """scipy.linalg is most of the start-up of a process that imports it.
    Every chain, of any length, is solved by the LAPACK extension the
    library loads alone, so no pst command, certify of a 1000-site chain
    included, imports scipy or scipy.linalg. A later import of scipy.linalg
    takes the same module, and a solve after it gives the same bytes."""
    states = _probe(_SCIPY_PROBE, tmp_path)
    commands = ["import", "design-analytic", "design-analytic-1000", "design-storage",
                "design-near-uniform", "certify-64", "simulate", "noise-dephase", "noise-bath",
                "report-timing", "gadget-amp", "demo-entgen", "demo-initfree", "demo-storage",
                "demo-ising", "certify-1000", "solved-64"]
    assert {label: states.get(label) for label in commands} == {
        label: ("False", "False") for label in commands}
    assert states["same-solver"] == ("True", "True")
    assert states["same-bytes"] == ("True", "True")


def test_loader_takes_scipy_linalg_flapack_once_it_is_imported(tmp_path):
    code = """
import sys
import numpy as np
import scipy.linalg
from pstchain import analytic_chain, diagonalize, spectral
print('same-module', 0, spectral._lapack() is scipy.linalg._flapack,
      spectral._lapack() is sys.modules['scipy.linalg._flapack'], file=sys.stderr)
lam = diagonalize(analytic_chain(8)).eigenvalues
print('solved', 0, max(abs(lam - (np.arange(8) - 3.5))) < 1e-13, True, file=sys.stderr)
"""
    states = _probe(code, tmp_path)
    assert states["same-module"] == ("True", "True")
    assert states["solved"] == ("True", "True")


def test_loader_without_scipy_raises_import_error(tmp_path):
    code = """
import importlib.util, sys
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, package=None: (
    None if name == 'scipy' else find_spec(name, package))
from pstchain import analytic_chain, diagonalize
try:
    diagonalize(analytic_chain(8))
except ImportError as exc:
    print('import-error', 0, exc.name, 'scipy' in str(exc), file=sys.stderr)
"""
    assert _probe(code, tmp_path)["import-error"] == ("scipy", "True")


def _library_sources():
    """``(file name, text)`` of every module of the library."""
    import pstchain

    package = os.path.dirname(pstchain.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                yield name, f.read()


def test_library_reads_no_environment_variables():
    """Every setting of the library is a module constant or a parameter, so a
    run does not depend on the environment it starts in."""
    for name, text in _library_sources():
        assert "os.environ" not in text and "getenv" not in text, name


def test_only_the_cli_draws_random_numbers():
    """No library result depends on a hidden seed: only the command line,
    which draws from its --seed, names np.random."""
    for name, text in _library_sources():
        if name != "cli.py":
            assert "np.random" not in text and "numpy.random" not in text, name


_MEMO = re.compile(r"\b(lru_cache|functools\.cache)\b|from functools import[^\n]*\bcache\b"
                   r"|^\w+\s*(:[^=\n]*)?=\s*(\{\}|\[\]|dict\(\)|set\(\)|list\(\)"
                   r"|(weakref\.)?Weak\w*Dictionary\()", re.MULTILINE)


def test_only_spectral_makes_a_decomposition():
    """Every SpectralDecomposition comes from pstchain.spectral, so the
    eigensolve and its checks have one copy. A chain keeps its one
    decomposition, which only spectral writes, and that is the only cache:
    no module memoizes through functools or keeps an empty module-level
    container to fill."""
    for name, text in _library_sources():
        assert "_solved" not in text, name
        assert _MEMO.search(text) is None, (name, _MEMO.search(text))
        if name != "spectral.py":
            assert "SpectralDecomposition(" not in text and "_of_tridiagonal" not in text, name
            assert "_decomposition" not in text, name


_SOLVERS = re.compile(r"\b(dsterf|dstevd|eigh_tridiagonal|eigvalsh_tridiagonal|sturm_newton"
                      r"|_flapack)\b")


def test_only_spectral_names_the_tridiagonal_solvers():
    """The solver rules, the chiral block among them, have one copy: no module
    but spectral names LAPACK's tridiagonal solvers, scipy's wrappers of them,
    the private extension they live in or the Newton step."""
    for name, text in _library_sources():
        if name != "spectral.py":
            assert _SOLVERS.search(text) is None, (name, _SOLVERS.search(text))
    assert _SOLVERS.search("from scipy.linalg.lapack import dsterf")
    assert _SOLVERS.search('name = "scipy.linalg._flapack"')
    assert _SOLVERS.search("lam = sturm_newton(diag, off, lam, error)")


def _callers(text, callee):
    """The names of the top-level statements of a module's source that call
    ``callee``, by name or as an attribute."""
    return {getattr(top, "name", type(top).__name__) for top in ast.parse(text).body
            for node in ast.walk(top) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == callee}


def test_only_sturm_newton_runs_the_sturm_recurrence():
    """The Newton step has one acceptance rule, whatever it starts from: no
    function but sturm_newton runs the Sturm recurrence."""
    callers = {(name, top) for name, text in _library_sources()
               for top in _callers(text, "_sturm_sweep")}
    assert callers == {("spectral.py", "sturm_newton")}, callers
    assert _callers("def f(x):\n    return spectral._sturm_sweep(d, o, x, 0)\n"
                    "def g(x):\n    return _sturm_sweep(d, o, x, 0)[0]\n"
                    "def h(x):\n    return _sturm_sweep\n", "_sturm_sweep") == {"f", "g"}


def _scipy_sites(text):
    """``(name of the top-level statement, node type)`` of every import, name,
    attribute or string other than a docstring in the source that names scipy."""
    tree = ast.parse(text)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    words = {ast.Import: lambda n: " ".join(a.name for a in n.names),
             ast.ImportFrom: lambda n: n.module or "", ast.Name: lambda n: n.id,
             ast.Attribute: lambda n: n.attr,
             ast.Constant: lambda n: n.value if isinstance(n.value, str) else ""}
    return [(getattr(top, "name", type(top).__name__), type(node).__name__)
            for top in tree.body for node in ast.walk(top)
            if type(node) in words and id(node) not in docstrings
            and re.search(r"\bscipy\b", words[type(node)](node))]


def test_only_the_loader_names_scipy():
    """scipy.linalg and scipy.sparse are most of the start-up of a process that
    imports them, so no module imports scipy: the one piece of code in the
    library that names it is spectral's loader of the LAPACK extension."""
    sites = {(name, top) for name, text in _library_sources()
             for top, _ in _scipy_sites(text)}
    assert sites == {("spectral.py", "_lapack")}, sites
    assert [top for top, _ in _scipy_sites(
        '"""scipy in a docstring"""\nimport scipy.linalg\n'
        'def f():\n    """scipy"""\n    from scipy.sparse import csr_matrix\n'
        'def g():\n    return importlib.util.find_spec("scipy")\n')] == ["Import", "f", "g"]


_SOLVER_INTERNALS = {"_fold", "_unfold", "_chiral_block", "_chiral_spectrum",
                     "_eigenvalue_solve", "_eigenvector_solve", "_of_tridiagonal",
                     "_lapack", "_tridiagonal_lapack", "sturm_newton"}


def _spectral_names(text):
    """The names a module's source imports from ``pstchain.spectral``."""
    return {alias.name for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom) and node.module == "pstchain.spectral"
            for alias in node.names}


def test_oracles_import_no_solver_internals():
    """The test oracles solve with their own code, so a fault in the
    library's solver rules cannot reach both sides of a comparison."""
    with open(os.path.join(os.path.dirname(__file__), "oracles.py")) as f:
        names = _spectral_names(f.read())
    assert not names & _SOLVER_INTERNALS, names & _SOLVER_INTERNALS
    assert _spectral_names("from pstchain.spectral import _checked, _fold\n") == {
        "_checked", "_fold"}


_FLOOR = re.compile(r"\b1(\.0)?\s*-\s*1e-0?8\b")


def test_only_certify_writes_the_transfer_floor():
    """A verified transfer meets the floor 1 - ARRIVAL_TOL through
    certify.verify_transfer, so the floor has one copy: no other module
    writes it out."""
    for name, text in _library_sources():
        if name != "certify.py":
            assert _FLOOR.search(text) is None, (name, _FLOOR.search(text))
    assert _FLOOR.search("if fidelity < 1.0 - 1e-8:") and _FLOOR.search("x >= 1 - 1e-08")


def test_the_memo_guard_sees_the_usual_caches():
    for text in ("from functools import lru_cache\n", "@functools.cache\n",
                 "from functools import cached_property, cache\n", "_SOLVED = {}\n",
                 "_memo: dict = dict()\n", "_seen = weakref.WeakKeyDictionary()\n"):
        assert _MEMO.search(text), text
    assert _MEMO.search("from functools import cached_property\n_DISPATCH = {\n") is None
