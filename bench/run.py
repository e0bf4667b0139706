"""holelab benchmark: drives the `holelab` CLI in-process and reports metrics.

    python3 bench/run.py --workload hole-r1 --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, default seeds

With `--trace 0` a run measures set-up (fresh-interpreter import time),
makes one untimed warm-up pass over the workload's command lines, then
times passes for about `--seconds` seconds, with a reference kernel timed
around each pass, and checks every output.  With
`--trace 1` it makes one untraced pass at the default worker count, one at
`--threads 1`, and one traced pass at `--threads 1`, and reports per-layer
metrics.  The last stdout line is the JSON result; the metric names and
units come from BENCHMARK.json.  Run from the repository root; the program
is imported from `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy

from tracing import COUNTERS, LAYERS, Tracer, layer_of
from workloads import WORKLOADS, assess, pinned_threads, with_threads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
MIN_PASSES = 2
REF_REPS = 5
REF_SHARE = 0.05
REF_MATRIX = numpy.random.default_rng(0).standard_normal((96, 96))
IMPORT_PROBE = ("import time; t = time.perf_counter(); import holelab.cli_reports as m; "
                "print(time.perf_counter() - t); print(m.__file__)")


def load_cli():
    """holelab.cli_reports from this checkout's src/, or exit 1."""
    target = SRC / "holelab" / "cli_reports.py"
    if not target.is_file():
        raise SystemExit(f"holelab sources not found at {target}")
    sys.path.insert(0, str(SRC))
    from holelab import cli_reports

    if Path(cli_reports.__file__).resolve() != target:
        raise SystemExit(f"imported {cli_reports.__file__}, expected {target}")
    return cli_reports


def measure_setup(reps: int = SETUP_REPS) -> float:
    """Median time a fresh interpreter takes to import holelab.cli_reports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed, origin = proc.stdout.split()
        if Path(origin).resolve() != SRC / "holelab" / "cli_reports.py":
            raise SystemExit(f"set-up probe imported {origin}")
        times.append(float(elapsed))
    return statistics.median(times)


def run_pass(cli, argvs) -> tuple[float, list[tuple[int, str]]]:
    """Wall time and (exit code, stdout) of each command line, run in turn."""
    outputs = []
    start = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.run(list(argv))
            except Exception:  # a crash is a failed operation, not a dead benchmark
                traceback.print_exc()
                code = -1
        outputs.append((code, buf.getvalue()))
    return time.perf_counter() - start, outputs


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: str, seed, trace: int, workers: int) -> dict:
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)), "workers": workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy.show_config(mode="dicts")),
                 "scipy": blas(scipy.show_config(mode="dicts"))},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "THREADS")},
    }


def select(specs: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def report_problems(problems: list[str]) -> None:
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"check: ... {len(problems) - 20} more", file=sys.stderr)


def reference_burst(reps: int) -> float:
    """Median seconds of a fixed interpreter loop plus one LAPACK eigensolve.

    On a shared host the speed of the machine drifts by 20% and more over
    tens of seconds, which moves every wall time with it.  Timed before and
    after every pass, this kernel (code of the benchmark, not of holelab)
    gives pass times in units of the machine's speed at that moment.
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        numpy.linalg.eigvals(REF_MATRIX)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_run(cli, name: str, seed, seconds: float, spec: dict) -> dict:
    workload = WORKLOADS[name]
    commands = workload.commands(seed)
    argvs = [c.argv for c in commands]
    workers = cli.resolve_workers(pinned_threads(argvs[0]))
    setup_s = measure_setup()
    warm_wall, warm = run_pass(cli, argvs)
    # each burst costs about REF_SHARE of a pass, at least REF_REPS kernels
    reps = max(REF_REPS, round(REF_SHARE * warm_wall / reference_burst(REF_REPS)))
    passes, walls, refs = [warm], [], [reference_burst(reps)]
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(walls) <= seconds):
        wall, outputs = run_pass(cli, argvs)
        refs.append(reference_burst(reps))
        walls.append(wall)
        passes.append(outputs)
    tally = assess(workload, commands, passes)
    report_problems(tally.problems)
    wall_s = statistics.median(walls)
    # each pass against the mean of the reference bursts just before and after it
    wall_ref = statistics.median(2.0 * w / (a + b) for w, a, b in zip(walls, refs, refs[1:]))
    rows = tally.rows_done / len(passes)
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "samples_per_s": rows / wall_s,
        "wall_ref": wall_ref,
        "samples_per_ref": rows / wall_ref,
        "peak_rss_mb": peak_rss_mb(),
    }
    meta = metadata(name, seed, 0, workers)
    meta.update(passes=len(walls), warmup_passes=1, records_sha256=tally.digest,
                wall_s_each=walls, reference_s_each=refs)
    print("meta " + json.dumps(meta))
    print(f"{name}: setup_s={setup_s:.4f} s (median of {SETUP_REPS}), "
          f"wall_s={wall_s:.4f} s (median of {len(walls)}), "
          f"samples_per_s={values['samples_per_s']:.1f} 1/s, "
          f"wall_ref={wall_ref:.3f} ref, samples_per_ref={values['samples_per_ref']:.2f} 1/ref, "
          f"peak_rss_mb={values['peak_rss_mb']:.1f} MB, "
          f"failed_frac={tally.failed_frac:.6g} ({tally.failed}/{tally.attempted}), "
          f"correct={not tally.wrong}")
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": select(spec["end_to_end"], values)}


def traced_run(cli, name: str, seed, spec: dict) -> dict:
    workload = WORKLOADS[name]
    commands = workload.commands(seed)
    base = [c.argv for c in commands]
    serial = [with_threads(a, 1) for a in base]
    workers = cli.resolve_workers(None)
    default_wall, out_default = run_pass(cli, [with_threads(a, None) for a in base])
    serial_wall, out_serial = run_pass(cli, serial)
    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with tracer.install():
            traced_wall, out_traced = run_pass(cli, serial)
    shown = set()
    for w in caught:  # let each distinct warning through once, as the default filter does
        key = (w.category, str(w.message), w.filename, w.lineno)
        if key not in shown:
            shown.add(key)
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    passes = [out_default, out_serial, out_traced]
    tally = assess(workload, commands, passes)
    report_problems(tally.problems)

    calls, self_s, covered = tracer.self_times()
    values: dict = {}
    for key in calls:
        values[f"{key}.calls"] = calls[key]
        values[f"{key}.self_s"] = self_s[key]
        values[f"{key}.errors"] = tracer.errors[key]
    for key, (suffix, _) in COUNTERS.items():
        values[f"{key}.{suffix}"] = tracer.counts[f"{key}.{suffix}"]
    for layer in map(layer_of, LAYERS):
        values[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    rows = values["evaluate_zeros.winding_counts_batch.rows"]
    fallback = tracer.child_calls("evaluate_zeros.count_for_coeffs",
                                  "evaluate_zeros.winding_counts_batch")
    values["evaluate_zeros.first_pass_resolved_frac"] = 1.0 - fallback / rows if rows else 0.0
    values["evaluate_zeros.runtime_warnings"] = sum(
        1 for w in caught
        if issubclass(w.category, RuntimeWarning) and Path(w.filename).stem == "evaluate_zeros")
    values["hole_estimators.rows_dropped"] = tally.rows_dropped // len(passes)
    values["parallel.serial_wall_s"] = serial_wall
    values["parallel.default_workers_wall_s"] = default_wall
    values["parallel.efficiency"] = serial_wall / (workers * default_wall)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - serial_wall
    values["trace.uncovered_s"] = traced_wall - covered
    values["failed_frac"] = tally.failed_frac

    spans = OUT / f"spans-{name}-seed{'default' if seed is None else seed}.tsv.gz"
    tracer.write(spans)
    meta = metadata(name, seed, 1, workers)
    meta.update(records_sha256=tally.digest, spans=str(spans.relative_to(ROOT)),
                span_count=len(tracer.span_start))
    print("meta " + json.dumps(meta))
    total_self = sum(values[f"{layer}.self_s"] for layer in map(layer_of, LAYERS))
    for layer in map(layer_of, LAYERS):
        share = values[f"{layer}.self_s"] / total_self if total_self else 0.0
        print(f"{name}: {layer:20s} self {values[f'{layer}.self_s']:9.4f} s  {share:6.1%}")
    print(f"{name}: traced wall {traced_wall:.4f} s = self {total_self:.4f} s "
          f"+ uncovered {values['trace.uncovered_s']:.4f} s; serial {serial_wall:.4f} s, "
          f"default workers ({workers}) {default_wall:.4f} s")
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": select(spec["per_layer"], values)}


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS stays per workload)."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0 or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
            ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each command's README seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = load_cli()
    if args.trace:
        result = traced_run(cli, args.workload, args.seed, spec)
    else:
        result = timed_run(cli, args.workload, args.seed, args.seconds, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
