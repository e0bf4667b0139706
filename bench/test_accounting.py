"""Failure accounting of the benchmark, fed known-failing inputs.

    python3 -m pytest -q bench/test_accounting.py
"""

import pytest

import run
from workloads import WORKLOADS, Command, Workload, assess, check_hole, normalise, with_threads


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def _workload(per_sample, commands):
    return Workload("test", per_sample, lambda seed: commands)


def test_omega_below_radius_one_counts_as_failed(cli):
    # `omega --r 0.5` exits 2: the confinement event needs r >= 1
    commands = [Command(("omega", "--r", "4.5")), Command(("omega", "--r", "0.5"))]
    _, outputs = run.run_pass(cli, [c.argv for c in commands])
    assert [code for code, _ in outputs] == [0, 2]
    tally = assess(_workload(False, commands), commands, [outputs, outputs])
    assert (tally.failed, tally.attempted) == (2, 4)
    assert tally.failed_frac == 0.5
    assert not tally.wrong  # a refusal with a diagnostic is not a wrong answer


def test_forced_zero_seed_6_fails_every_sample(cli):
    # sample 57 of this seed raises RootResidualError, so the command exits 2
    workload = WORKLOADS["forced-zero-d200"]
    commands = workload.commands(6)
    _, outputs = run.run_pass(cli, [c.argv for c in commands])
    assert outputs[0][0] == 2
    tally = assess(workload, commands, [outputs])
    assert (tally.failed, tally.attempted, tally.rows_done) == (100, 100, 0)
    assert tally.failed_frac == 1.0


def _hole_text(samples, wall_ms=5):
    return ('{"command": "hole", "params": {}, "results": {"p_hat": 0.25, "ci_low": 0.2, '
            f'"ci_high": 0.3, "samples": {samples}}}, "seed": 7, "version": "0.1.0", '
            f'"wall_time_ms": {wall_ms}}}\n')


def test_rows_hole_drops_count_as_failed_samples():
    commands = [Command(("hole", "--samples", "1000"), rows=1000, check=check_hole)]
    tally = assess(_workload(True, commands), commands, [[(0, _hole_text(990))]])
    assert (tally.failed, tally.attempted, tally.rows_dropped, tally.rows_done) == (10, 1000, 10, 990)
    assert not tally.wrong


def test_records_must_match_across_passes_apart_from_wall_time():
    commands = [Command(("hole", "--samples", "1000"), rows=1000, check=check_hole)]
    workload = _workload(True, commands)
    same = assess(workload, commands, [[(0, _hole_text(1000, 5))], [(0, _hole_text(1000, 9))]])
    assert (same.failed, same.wrong) == (0, False)
    differ = assess(workload, commands, [[(0, _hole_text(1000))], [(0, _hole_text(999))]])
    assert differ.wrong and differ.failed == 1000


def test_failed_check_marks_the_run_wrong():
    commands = [Command(("hole", "--samples", "1000"), rows=1000, check=check_hole)]
    bad = _hole_text(1000).replace('"p_hat": 0.25', '"p_hat": 0.5')  # outside its interval
    tally = assess(_workload(True, commands), commands, [[(0, bad)]])
    assert tally.wrong and tally.failed == 1000


def test_normalise_drops_wall_time_from_json_and_csv():
    assert normalise(_hole_text(1, 5)) == normalise(_hole_text(1, 700))
    csv_a = "command,S,wall_time_ms\ns-of-r,1.0,3\n"
    csv_b = "command,S,wall_time_ms\ns-of-r,1.0,12\n"
    assert normalise(csv_a) == normalise(csv_b) == "command,S\ns-of-r,1.0\n"


def test_with_threads_replaces_a_pin():
    argv = ("forced-zero", "--seed", "5", "--threads", "1")
    assert with_threads(argv, None) == ("forced-zero", "--seed", "5")
    assert with_threads(argv, 3) == ("forced-zero", "--seed", "5", "--threads", "3")
