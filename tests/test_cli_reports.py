import csv
import io
import json
import math
import os
import pickle
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import holelab
from holelab import cli_reports, hole_estimators, sampling
from holelab.cli_reports import (
    ReportRecord,
    _build_parser,
    _shared_parser,
    emit,
    record_to_json,
    records_to_csv,
    run,
)


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
    from holelab.volume_geometry import log_integral_annotation

    code, out = _capture(capsys, ["volume", "--k", "2", "--t", "2", "--s", "1",
                                  "--mc-samples", "20000", "--seed", "3", "--annotate-r", "2"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["exact"] == pytest.approx(2.386294361119891, rel=1e-12)
    assert res["mc_ci_low"] <= res["exact"] <= res["mc_ci_high"]
    assert res["annotation"] == log_integral_annotation(2.0, 1.0)


def test_hermite_escape_command(capsys):
    from holelab.hermite_asymptotics import annulus_escape

    code, out = _capture(capsys, ["hermite", "--c1", "0.5", "--c2", "2"])
    assert code == 0
    res = json.loads(out)["results"]
    assert "escape_index" in res and "saddle_deviation" not in res
    assert res["escape_index"] == annulus_escape(1.0, 0.5, 2.0, 100_000)


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


def test_allocation_failure_is_a_numeric_failure(capsys, monkeypatch):
    # `covdet --r 1e6` once ended in numpy's "Unable to allocate 19.8 TiB"
    # traceback and exit 1; the patch stands in for that allocation
    def too_large(spec):
        raise MemoryError("Unable to allocate 19.8 TiB")

    monkeypatch.setattr(cli_reports, "minor_gap_report", too_large)
    assert run(["covdet", "--r", "1e6"]) == 2
    assert capsys.readouterr().err == "numeric failure: Unable to allocate 19.8 TiB\n"


def test_zeros_rejects_too_few_samples(capsys):
    # an empty sample once gave mean_count null and a numpy RuntimeWarning;
    # it is a usage error that names the flag
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for samples in ("0", "-3"):
            assert run(["zeros", "--r", "1", "--samples", samples]) == 1
    assert "usage error: argument --samples: must be a positive integer" in capsys.readouterr().err


def test_hole_samples_below_the_monte_carlo_floor_depend_on_r(capsys):
    # Monte Carlo needs >= 100 samples, but runs only where S(r) is small
    assert run(["hole", "--r", "10", "--samples", "50"]) == 0
    assert run(["hole", "--r", "0.8", "--samples", "50"]) == 2
    assert "numeric failure: samples must be >= 100" in capsys.readouterr().err


def test_zeros_job_pickles_without_the_log_coeff_table(monkeypatch):
    # the process holds a 10^5-entry GEF table; a job ships only (kind, alpha)
    holelab.CoefficientModel.gef().log_coeffs(100_000)
    jobs = []
    run_chunked = hole_estimators.run_chunked

    def spy(fn, payloads, workers=None):
        jobs.append(fn)
        return run_chunked(fn, payloads, workers)

    monkeypatch.setattr(hole_estimators, "run_chunked", spy)
    assert run(["zeros", "--r", "1", "--samples", "20", "--threads", "1"]) == 0
    assert len(pickle.dumps(jobs[0])) < 8192


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


def test_zeros_verifies_at_r12(capsys):
    # degree 445; the companion-matrix oracle refused sample 0 (root 18.28i)
    code, out = _capture(capsys, ["zeros", "--r", "12", "--samples", "20", "--verify",
                                  "--seed", "1"])
    assert code == 0
    assert json.loads(out)["results"]["verified"] is True


def test_zeros_counts_past_r34(capsys, monkeypatch):
    # degree 3768: sample 0 leaves more than 4 * 2^16 / 3769 failing arcs on
    # the 2^16-point grid, which the kernel must bisect, not refuse; the 20
    # rows are drawn in blocks of at most 2^16 values, not as one of 75 380
    drawn = []
    polar = sampling._polar

    def spy(moduli, keys, count):
        drawn.append(len(keys) * count)
        return polar(moduli, keys, count)

    monkeypatch.setattr(sampling, "_polar", spy)
    code, out = _capture(capsys, ["zeros", "--r", "36", "--samples", "20", "--seed", "1"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["degree"] == 3768
    assert abs(res["mean_count"] - res["expected_intensity"]) <= 5 * res["stderr"]
    assert sum(drawn) == 20 * 3769 and max(drawn) <= hole_estimators._BLOCK_VALUES


def test_zeros_record_at_r60_is_frozen(capsys):
    # degree 10 416: the bisection evaluates every failing arc of a level in
    # one Horner pass; frozen from Horner run in blocks of a few arcs each
    code, out = _capture(capsys, ["zeros", "--r", "60", "--samples", "2", "--seed", "1",
                                  "--threads", "1"])
    assert code == 0
    res = json.loads(out)["results"]
    assert (res["mean_count"], res["stderr"], res["degree"]) == (3599.5, 5.4999999999999991, 10416)


@pytest.mark.parametrize("argv, message", [
    (["covdet", "--r", "1e6"], "N = 2718281828459 grid points: at most 262144"),
    (["conditioned", "--r", "1e6", "--samples", "1"],
     "conditioned degree 2718281828548 at r=1000000.0: at most 262143"),
    (["conditioned", "--r", "310.5", "--samples", "1"],
     "conditioned degree 262160 at r=310.5: at most 262143"),
    (["zeros", "--r", "1", "--samples", "2", "--degree", "100000000"],
     "degree 100000000 at r=1.0: at most 262143"),
    (["zeros", "--r", "400", "--samples", "2"], "degree 434926 or more at r=400.0: at most 262143"),
    (["zeros", "--r", "1e6"], "degree 2718281828460 or more at r=1000000.0: at most 262143"),
    (["forced-zero", "--dist", "rademacher", "--degree", "262144"],
     "degree 262144: at least 50 and at most 262143"),
])
def test_oversized_grids_and_degrees_are_refused(capsys, argv, message):
    # refused by size, before the allocation of 19.8 TiB at r = 1e6 is tried,
    # of 2.98 GiB at degree 10^8, or of rows of degree 262 144; zeros without
    # --degree is refused from floor(e r^2) + 1, before the degree search
    assert run(argv) == 2
    assert capsys.readouterr().err == f"numeric failure: {message}\n"


@pytest.mark.parametrize("argv, r", [
    (["s-of-r", "--r", "1e200"], 1e200),
    (["hole", "--r", "1e200"], 1e200),
    (["conditioned", "--r", "1e200"], 1e200),
    (["zeros", "--r", "1e200"], 1e200),
    (["zeros", "--r=-1e200", "--degree", "5", "--samples", "2"], -1e200),
    (["omega", "--r", "1e200"], 1e200),
    (["covdet", "--r", "1e200"], 1e200),
], ids=["s-of-r", "hole", "conditioned", "zeros", "zeros-degree", "omega", "covdet"])
def test_a_radius_whose_e_r2_overflows_is_refused_by_name(capsys, monkeypatch, argv, r):
    # these ended in "cannot convert float infinity to integer", and zeros at
    # --degree 5 in "(34, 'Numerical result out of range')" after counting its rows
    def no_table(self, n_max):
        raise AssertionError("a log a_n table was read")

    monkeypatch.setattr(holelab.CoefficientModel, "log_coeffs", no_table)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"numeric failure: e r^2 overflows at r={r!r}: |r| at most 8.13e+153\n"
    assert captured.out == ""


def test_the_largest_radius_passes_the_overflow_check():
    r = cli_reports._R_MAX
    assert math.isfinite(math.e * r * r)
    assert not math.isfinite(math.e * math.nextafter(r, math.inf) ** 2)


@pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
def test_zeros_verify_forms_each_row_once(capsys, monkeypatch, r):
    # the kernel's grid rows and the root oracle's rows come from one formed block
    from holelab import sampling

    formed = []
    polar_values = sampling._polar_values

    def spy(moduli, u_phase, out):
        formed.append(len(moduli))
        polar_values(moduli, u_phase, out)

    monkeypatch.setattr(sampling, "_polar_values", spy)
    assert run(["zeros", "--r", str(r), "--samples", "200", "--verify", "--threads", "1"]) == 0
    assert sum(formed) == 200


def test_zeros_record_is_independent_of_the_worker_count(capsys):
    argv = ["zeros", "--r", "3", "--samples", "200", "--verify", "--seed", "1"]
    _, out1 = _capture(capsys, argv + ["--threads", "1"])
    _, out2 = _capture(capsys, argv + ["--threads", "2"])
    assert _strip_timing(json.loads(out1)) == _strip_timing(json.loads(out2))


def test_zeros_oracle_failure_names_the_sample_for_any_worker_count(capsys, monkeypatch):
    # one wrong count, in the second 100-row job; forked workers inherit the patch
    kernel = hole_estimators.winding_counts_polar

    def one_wrong(moduli, form_rows, r, **kw):
        counts = kernel(moduli, form_rows, r, **kw)
        if kw["first_index"] <= 150 < kw["first_index"] + len(counts):
            counts[150 - kw["first_index"]] += 1
        return counts

    monkeypatch.setattr(hole_estimators, "winding_counts_polar", one_wrong)
    errors = []
    for threads in ("1", "2"):
        assert run(["zeros", "--r", "1", "--samples", "200", "--verify", "--seed", "1",
                    "--threads", threads]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "sample 150: argument principle" in errors[0]


def test_uncertified_zeros_row_names_its_sample(capsys, refuse_row):
    # the kernel refuses the row of sample 105, five rows into the second 100-row job
    from holelab import CoefficientModel, Distribution, draw_rows, truncation_degree

    gef = CoefficientModel.gef()
    degree = truncation_degree(gef, 1.0, 1e-9, 1e-9)
    refuse_row(draw_rows(Distribution.COMPLEX_GAUSSIAN, 1, 105, 106, degree + 1)[0], 1.0,
               gef.log_coeffs(degree))
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
    seen = []
    kernel = hole_estimators.winding_counts_polar

    def spy(moduli, form_rows, r, **kw):
        seen.append(kw["tail_eps"])
        return kernel(moduli, form_rows, r, **kw)

    monkeypatch.setattr(hole_estimators, "winding_counts_polar", spy)
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
    code, out = _capture(capsys, ["sweep", "s-of-r", "--r=1,2", "--model=gef"])
    assert code == 0
    assert [_strip_timing(json.loads(line)) for line in out.strip().splitlines()] == \
        [_strip_timing(rec) for rec in lines]


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


def test_default_workers_follow_cpu_affinity(monkeypatch):
    from holelab._parallel import resolve_workers

    monkeypatch.delenv("THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_workers(None) == 1


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_non_positive_threads_flag_is_a_usage_error(capsys, threads):
    assert run(["s-of-r", "--r", "1", "--threads", threads]) == 1
    assert "--threads: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_threads_env_var_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("THREADS", value)
    assert run(["s-of-r", "--r", "1"]) == 1
    assert f"usage error: THREADS must be a positive integer, got {value!r}" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, message", [
    (["covdet", "--r", "2", "--kappa", "0.8"], "--kappa needs --n-points"),
    (["covdet", "--r", "2", "--n-points", "8"], "--n-points needs --kappa"),
    (["hermite", "--c1", "0.5"], "--c1 needs --c2"),
    (["hermite", "--beta", "1.0", "--n", "100", "--c2", "2"], "--c2 needs --c1"),
    (["hermite", "--n", "0"], "argument --n: must be a positive integer"),
    (["sweep", "covdet", "--r", "2,3", "--kappa", "0.8"], "--kappa needs --n-points"),
    (["hermite", "--beta", "1.0"], "hermite needs --n or --c1 and --c2"),
    (["covdet", "--r", "2", "--kappa", "0.8", "--n-points", "0"],
     "argument --n-points: must be a positive integer"),
    (["sweep", "s-of-r", "--r", "1", "2"], "unexpected sweep token '2'"),
    (["sweep", "s-of-r", "--r"], "flag '--r' is missing a value"),
    (["sweep", "s-of-r", "--r", "1,2", "--format"], "flag '--format' is missing a value"),
    (["zeros", "--r", "1", "--samples", "0"], "argument --samples: must be a positive integer"),
    (["conditioned", "--r", "2", "--samples", "0"],
     "argument --samples: must be a positive integer"),
    (["forced-zero", "--dist", "rademacher", "--samples", "0"],
     "argument --samples: must be a positive integer"),
    (["hole", "--r", "10", "--samples", "-5"], "argument --samples: must be a positive integer"),
    (["hermite", "--n", "10"], "argument --n: must be >= 16 for the saddle-point approximation"),
    (["sweep", "hermite", "--n", "10,100"],
     "argument --n: must be >= 16 for the saddle-point approximation"),
])
def test_flags_that_would_be_dropped_are_usage_errors(capsys, argv, message):
    # each of these used to exit 0, running the default grid or leaving a result
    # out, or (--n-points 0, --samples 0, hermite --n 10) exit 2 as a numeric
    # failure that did not name the flag; the malformed sweep lines were usage
    # errors already
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage error: {message}" in captured.err


_ONE_PROCESS_LINES = [
    ["zeros", "--r", "1", "--samples", "0"],
    ["sweep", "s-of-r", "--r", "1,2,4", "--format", "csv"],
    ["zeros", "--r", "2", "--samples", "150", "--seed", "3", "--threads", "2"],
    ["omega", "--r", "3", "--format", "json"],
]


def _run_without_timing(capsys, argv) -> tuple[int, list, str]:
    code = run(argv)
    captured = capsys.readouterr()
    if captured.out.startswith("command,"):
        records = list(csv.DictReader(io.StringIO(captured.out)))
    else:
        records = [json.loads(line) for line in captured.out.splitlines()]
    return code, [_strip_timing(rec) for rec in records], captured.err


def test_one_process_runs_many_command_lines(capsys):
    # each line on a freshly built parser, then all lines on one parser
    alone = []
    for argv in _ONE_PROCESS_LINES:
        _build_parser.cache_clear()
        _shared_parser.cache_clear()
        alone.append(_run_without_timing(capsys, argv))
    _build_parser.cache_clear()
    _shared_parser.cache_clear()
    together = [_run_without_timing(capsys, argv) for argv in _ONE_PROCESS_LINES]
    assert [code for code, _, _ in together] == [1, 0, 0, 0]
    assert together == alone
    assert _build_parser.cache_info().misses == 1
    assert _shared_parser.cache_info().misses == 1
