import csv
import io
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import holelab
from holelab.cli_reports import ReportRecord, emit, record_to_json, records_to_csv, run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _strip_timing(record: dict) -> dict:
    record = dict(record)
    record.pop("wall_time_ms", None)
    return record


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the CLI must start without it
    src = str(Path(holelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("import sys, holelab.cli_reports; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"


def test_s_of_r_command(capsys):
    code, out = _capture(capsys, ["s-of-r", "--model", "gef", "--r", "2"])
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "s-of-r"
    assert rec["results"]["index_set_size"] == 9
    assert rec["results"]["S"] == pytest.approx(13.747129301577305, rel=1e-12)


def test_hole_command_fields(capsys):
    code, out = _capture(capsys, ["hole", "--model", "gef", "--r", "1", "--samples", "200",
                                  "--seed", "7", "--threads", "1"])
    assert code == 0
    res = json.loads(out)["results"]
    for key in ("p_hat", "ci_low", "ci_high", "omega_log_prob", "cert_valid"):
        assert key in res
    assert res["ci_low"] <= res["p_hat"] <= res["ci_high"]


def test_volume_command(capsys):
    code, out = _capture(capsys, ["volume", "--k", "2", "--t", "2", "--s", "1",
                                  "--mc-samples", "20000", "--seed", "3"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["exact"] == pytest.approx(2.386294361119891, rel=1e-12)
    assert res["mc_ci_low"] <= res["exact"] <= res["mc_ci_high"]


def test_deterministic_output_modulo_wall_time(capsys):
    argv = ["zeros", "--model", "gef", "--r", "1", "--samples", "20", "--seed", "5", "--threads", "1"]
    _, out1 = _capture(capsys, argv)
    _, out2 = _capture(capsys, argv)
    assert _strip_timing(json.loads(out1)) == _strip_timing(json.loads(out2))


def test_worker_count_independence(capsys):
    base = ["hole", "--model", "gef", "--r", "0.8", "--samples", "300", "--seed", "2"]
    _, out1 = _capture(capsys, base + ["--threads", "1"])
    _, out8 = _capture(capsys, base + ["--threads", "8"])
    a, b = json.loads(out1), json.loads(out8)
    a["params"].pop("threads", None)
    b["params"].pop("threads", None)
    assert _strip_timing(a) == _strip_timing(b)


def test_unknown_flag_is_usage_error(capsys):
    code = run(["omega", "--r", "2", "--bogus-flag", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert "--bogus-flag" in err


def test_unknown_command_is_usage_error(capsys):
    assert run(["not-a-command"]) == 1


def test_numeric_failure_exit_code(capsys):
    assert run(["omega", "--r", "0.5"]) == 2


def test_zeros_rejects_too_few_samples(capsys):
    # an empty sample once gave mean_count null and a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for samples in ("0", "-3"):
            assert run(["zeros", "--r", "1", "--samples", samples]) == 2
    assert "samples must be >= 1" in capsys.readouterr().err


def test_zeros_verified_record_frozen(capsys):
    # frozen values of per-row Horner counts on linear coefficients, an
    # independent route; --verify also checks every row by the root oracle
    code, out = _capture(capsys, ["zeros", "--r", "3", "--samples", "200", "--verify",
                                  "--seed", "1", "--threads", "1"])
    assert code == 0
    assert json.loads(out)["results"] == {
        "mean_count": 9.0050000000000008,
        "stderr": 0.072810589267961162,
        "expected_intensity": 9.0,
        "degree": 54,
        "verified": True,
    }


def test_zeros_record_is_independent_of_the_worker_count(capsys):
    argv = ["zeros", "--r", "3", "--samples", "200", "--verify", "--seed", "1"]
    _, out1 = _capture(capsys, argv + ["--threads", "1"])
    _, out2 = _capture(capsys, argv + ["--threads", "2"])
    assert _strip_timing(json.loads(out1)) == _strip_timing(json.loads(out2))


def test_zeros_oracle_failure_names_the_sample_for_any_worker_count(capsys, monkeypatch):
    # one wrong count, in the second 100-row job; forked workers inherit the patch
    from holelab import Distribution, draw_rows
    from holelab import cli_reports

    target = draw_rows(Distribution.COMPLEX_GAUSSIAN, 1, 150, 151, 22)[0]
    kernel = cli_reports.winding_counts_batch

    def one_wrong(rows, r, **kw):
        counts = kernel(rows, r, **kw)
        counts[np.all(rows == target, axis=1)] += 1
        return counts

    monkeypatch.setattr(cli_reports, "winding_counts_batch", one_wrong)
    errors = []
    for threads in ("1", "2"):
        assert run(["zeros", "--r", "1", "--samples", "200", "--verify", "--seed", "1",
                    "--threads", threads]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "sample 150: argument principle" in errors[0]


def test_uncertified_zeros_row_names_its_sample(capsys, monkeypatch):
    # the kernel refuses the row of sample 105, five rows into the second 100-row job
    from holelab import CoefficientModel, Distribution, draw_rows, evaluate_zeros, truncation_degree

    gef = CoefficientModel.gef()
    degree = truncation_degree(gef, 1.0, 1e-9, 1e-9)
    row = draw_rows(Distribution.COMPLEX_GAUSSIAN, 1, 105, 106, degree + 1)
    target = evaluate_zeros._unit_circle_rows(row, 1.0, gef.log_coeffs(degree))[0][0]
    bisect = evaluate_zeros._bisect

    def refuse(D, *args):
        refused = bisect(D, *args)
        refused[np.all(D == target, axis=1)] = True
        return refused

    monkeypatch.setattr(evaluate_zeros, "_bisect", refuse)
    for threads in ("1", "2"):
        assert run(["zeros", "--r", "1", "--samples", "200", "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert re.match(r"^sample 105 at r=1\.0: ", err.removeprefix("numeric failure: "))


def test_zeros_degree_flag(capsys):
    # --degree 0 counts the constant term alone, as the record says
    code, out = _capture(capsys, ["zeros", "--r", "1", "--samples", "3", "--degree", "0",
                                  "--verify"])
    assert code == 0
    rec = json.loads(out)
    assert rec["params"]["degree"] == 0 and rec["results"]["degree"] == 0
    assert rec["results"]["mean_count"] == 0.0
    assert run(["zeros", "--r", "1", "--samples", "3", "--degree", "-2"]) == 2
    assert "--degree must be >= 0" in capsys.readouterr().err


def test_zeros_user_degree_counts_the_polynomial(capsys, monkeypatch):
    # a user-set degree certifies no truncation tail, so its counts must not
    # be certified against one (at r = 3, degree 5 leaves a tail far above 1e-9)
    from holelab import cli_reports

    seen = []
    kernel = cli_reports.winding_counts_batch

    def spy(rows, r, **kw):
        seen.append(kw["tail_eps"])
        return kernel(rows, r, **kw)

    monkeypatch.setattr(cli_reports, "winding_counts_batch", spy)
    code, out = _capture(capsys, ["zeros", "--r", "3", "--samples", "20", "--degree", "5",
                                  "--threads", "1"])
    assert code == 0 and seen == [0.0]
    assert json.loads(out)["results"]["degree"] == 5
    seen.clear()
    assert _capture(capsys, ["zeros", "--r", "3", "--samples", "20", "--threads", "1"])[0] == 0
    assert seen == [cli_reports.TAIL_EPS]


def test_zeros_expected_intensity_is_the_model_mean(capsys):
    # Edelman-Kostlan mean r^2 K'(r^2)/K(r^2), frozen from an mpmath sum; r^2 only for GEF
    for argv, mean in ((["--model", "ml", "--alpha", "0.5"], 7.482692364138342),
                       (["--model", "ml", "--alpha", "2"], 0.520699162346642),
                       ([], 4.0)):
        code, out = _capture(capsys, ["zeros", "--r", "2", "--samples", "2"] + argv)
        assert code == 0
        assert json.loads(out)["results"]["expected_intensity"] == pytest.approx(mean, rel=1e-12)


def test_float_17_digit_round_trip():
    rng = np.random.default_rng(17)
    # random doubles across the exponent range, plus awkward edge cases
    bits = rng.integers(0, 2**64, size=1000, dtype=np.uint64)
    doubles = [struct.unpack("<d", struct.pack("<Q", int(b)))[0] for b in bits]
    doubles = [x for x in doubles if np.isfinite(x)] + [0.0, -0.0, 1e-308, 2.2250738585072014e-308]
    rec = ReportRecord(command="x", params={}, results={"v": doubles}, seed=0)
    parsed = json.loads(record_to_json(rec))
    for original, reparsed in zip(doubles, parsed["results"]["v"]):
        assert struct.pack("<d", original) == struct.pack("<d", reparsed)


def test_json_floats_use_17_significant_digits():
    rec = ReportRecord(command="x", params={}, results={"v": 0.1}, seed=0)
    assert "0.10000000000000001" in record_to_json(rec)


def test_csv_header_stable_and_flattened(capsys):
    argv = ["omega", "--r", "2", "--format", "csv"]
    _, out1 = _capture(capsys, argv)
    _, out2 = _capture(capsys, argv)
    header1 = out1.splitlines()[0]
    assert header1 == out2.splitlines()[0]
    assert "results.log_prob" in header1
    assert "results.valid" in header1


def test_sweep_cartesian_grid(capsys):
    code, out = _capture(capsys, ["sweep", "s-of-r", "--r", "1,2", "--model", "gef"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    assert [rec["params"]["r"] for rec in lines] == [1.0, 2.0]


def test_sweep_two_axes(capsys):
    code, out = _capture(capsys, ["sweep", "volume", "--k", "1,2", "--t", "2,3", "--s", "1"])
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_emit_to_file(tmp_path):
    rec = ReportRecord(command="x", params={"a": 1}, results={"b": 2.5}, seed=9)
    path = tmp_path / "out.json"
    emit(rec, "json", str(path))
    assert json.loads(path.read_text())["results"]["b"] == 2.5
    csv_path = tmp_path / "out.csv"
    emit([rec, rec], "csv", str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3  # header + 2 rows


def test_nonfinite_floats_serialize_as_null():
    rec = ReportRecord(command="x", params={}, results={"v": float("inf")}, seed=0)
    assert json.loads(record_to_json(rec))["results"]["v"] is None


def test_csv_quotes_strings():
    rec = ReportRecord(command="cmd", params={"name": "a,b"}, results={}, seed=0)
    text = records_to_csv([rec])
    assert '"a,b"' in text


def test_conditioned_command(capsys):
    code, out = _capture(capsys, ["conditioned", "--r", "4.5", "--samples", "25",
                                  "--seed", "4", "--threads", "1"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["zero_free_fraction"] == 1.0
    assert res["cert_valid"] is True


def test_covdet_command_default_and_explicit(capsys):
    code, out = _capture(capsys, ["covdet", "--r", "2"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["vandermonde_lower_bound"] <= res["logdet_circulant"]
    code, out = _capture(capsys, ["covdet", "--r", "1.5", "--kappa", "0.8", "--n-points", "8"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["logdet_dense"] == pytest.approx(res["logdet_circulant"], rel=1e-8)


def test_forced_zero_command(capsys):
    code, out = _capture(capsys, ["forced-zero", "--dist", "steinhaus", "--samples", "5",
                                  "--degree", "60", "--seed", "2", "--threads", "1"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["all_finite"] is True
    assert res["min"] > 0


def test_threads_env_var_and_flag_priority(monkeypatch):
    from holelab._parallel import resolve_workers

    monkeypatch.setenv("THREADS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(5) == 5  # explicit flag wins
    monkeypatch.delenv("THREADS")
    assert resolve_workers(None) >= 1


def test_sweep_readme_line_prints_csv(capsys):
    code, out = _capture(capsys, ["sweep", "s-of-r", "--r", "1,2,4,8", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["command"] for row in rows] == ["s-of-r"] * 4
    assert [float(row["params.r"]) for row in rows] == [1.0, 2.0, 4.0, 8.0]


def test_sweep_options_after_subcommand(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out = _capture(capsys, ["sweep", "omega", "--r", "2,3", "--threads", "1",
                                  f"--output={path}", "--format", "csv"])
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("command,") and len(lines) == 3


@pytest.mark.parametrize("argv, flag", [
    (["s-of-r", "--r", "inf"], "--r"),
    (["hole", "--r", "inf"], "--r"),
    (["omega", "--r", "nan"], "--r"),
    (["volume", "--k", "2", "--t", "-inf", "--s", "1"], "--t"),
    (["hermite", "--beta", "1+nanj", "--n", "100"], "--beta"),
    (["sweep", "s-of-r", "--r", "1,inf"], "--r"),
])
def test_nonfinite_float_flags_are_usage_errors(capsys, argv, flag):
    assert run(argv) == 1
    assert flag in capsys.readouterr().err
