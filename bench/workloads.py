"""Workload definitions, output checks and failure accounting.

A workload is a list of `holelab` command lines built from a seed.  With
no seed, every command uses the seed its README line uses.  The checks run
on captured stdout after a pass, outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable

Z95 = 1.959963984540054
# A 95% interval misses the exact volume on one seed in twenty by design; a
# wrong estimator misses by far more than five standard errors.
VOLUME_SIGMAS = 5.0
# The default covdet grids are ill-conditioned for the dense oracle (r = 2
# agrees to 3.4e-8 relative), so agreement is checked at 1e-6.
LOGDET_REL_TOL = 1e-6

_WALL_FIELD = re.compile(r', "wall_time_ms": -?\d+')


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    rows: int = 0  # Monte Carlo rows (samples) the command requests
    check: Callable[[list[dict]], list[str]] = lambda records: []


@dataclass(frozen=True)
class Workload:
    name: str
    per_sample: bool  # an operation is one sample (True) or one command (False)
    commands: Callable[[int | None], list[Command]]  # seed (None: README seeds) -> command lines


# ---------------------------------------------------------------------------
# output checks: each returns the problems found in one command's records


def _one(records: list[dict], command: str) -> tuple[dict | None, list[str]]:
    if len(records) != 1:
        return None, [f"expected one record, got {len(records)}"]
    if records[0].get("command") != command:
        return None, [f"expected a {command!r} record, got {records[0].get('command')!r}"]
    return records[0]["results"], []


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_hole(records):
    res, problems = _one(records, "hole")
    if res is None:
        return problems
    lo, p, hi = res.get("ci_low"), res.get("p_hat"), res.get("ci_high")
    if not _finite(lo, p, hi) or not 0.0 <= lo <= p <= hi <= 1.0:
        return [f"need 0 <= ci_low <= p_hat <= ci_high <= 1, got {lo!r}, {p!r}, {hi!r}"]
    return []


def check_conditioned(records):
    res, problems = _one(records, "conditioned")
    if res is None:
        return problems
    if res.get("cert_valid") is not True or res.get("zero_free_fraction") != 1.0:
        return [f"certified radius must give zero_free_fraction 1.0, got {res!r}"]
    return []


def check_forced_zero(records):
    res, problems = _one(records, "forced-zero")
    if res is None:
        return problems
    chain = [res.get(k) for k in ("min", "q25", "q50", "q75", "q90", "max")]
    if not _finite(*chain) or any(a > b for a, b in zip(chain, chain[1:])):
        return [f"need finite min <= q25 <= q50 <= q75 <= q90 <= max, got {chain!r}"]
    return []


def check_zeros(records):
    res, problems = _one(records, "zeros")
    if res is None:
        return problems
    if res.get("verified") is not True or not _finite(res.get("mean_count")):
        return [f"zeros must report verified: true and a finite mean, got {res!r}"]
    return []


def check_volume(records):
    res, problems = _one(records, "volume")
    if res is None:
        return problems
    exact, lo, hi = res.get("exact"), res.get("mc_ci_low"), res.get("mc_ci_high")
    if not _finite(exact, lo, hi):
        return [f"volume needs exact and MC interval, got {res!r}"]
    mid, sigma = 0.5 * (lo + hi), (hi - lo) / (2.0 * Z95)
    if abs(exact - mid) > VOLUME_SIGMAS * sigma:
        return [f"exact volume {exact!r} lies {abs(exact - mid) / sigma:.1f} "
                f"standard errors from the MC estimate {mid!r}"]
    return []


def check_covdet(records):
    res, problems = _one(records, "covdet")
    if res is None:
        return problems
    circ, lower = res.get("logdet_circulant"), res.get("vandermonde_lower_bound")
    if not _finite(circ, lower) or circ < lower:
        problems.append(f"need logdet_circulant {circ!r} >= lower bound {lower!r}")
    dense = res.get("logdet_dense")
    if dense is not None and not abs(dense - circ) <= LOGDET_REL_TOL * max(1.0, abs(dense)):
        problems.append(f"logdet_dense {dense!r} disagrees with logdet_circulant {circ!r}")
    return problems


def check_s_of_r(records):
    res, problems = _one(records, "s-of-r")
    if res is None:
        return problems
    return [] if _finite(res.get("S")) and res["S"] >= 0 else [f"bad S in {res!r}"]


def check_omega_certified(records):
    res, problems = _one(records, "omega")
    if res is None:
        return problems
    if res.get("valid") is not True or not _finite(res.get("log_prob")):
        return [f"omega at a certified radius must be valid, got {res!r}"]
    return []


def check_hermite(records):
    res, problems = _one(records, "hermite")
    if res is None:
        return problems
    return [] if _finite(res.get("saddle_deviation")) else [f"bad saddle deviation in {res!r}"]


def check_sweep_s_of_r(records):
    if len(records) != 4 or any(r.get("command") != "s-of-r" for r in records):
        return [f"sweep over four radii must give four s-of-r records, got {len(records)}"]
    return []


# ---------------------------------------------------------------------------
# workloads


def _hole_r1(seed):
    s = str(7 if seed is None else seed)
    return [Command(("hole", "--model", "gef", "--r", "1", "--samples", "100000", "--seed", s),
                    rows=100_000, check=check_hole)]


def _conditioned_r12(seed):
    s = str(1 if seed is None else seed)
    return [Command(("conditioned", "--r", "12", "--samples", "4096", "--seed", s),
                    rows=4096, check=check_conditioned)]


def _forced_zero_d200(seed):
    s = str(5 if seed is None else seed)
    return [Command(("forced-zero", "--dist", "rademacher", "--samples", "100",
                     "--degree", "200", "--seed", s, "--threads", "1"),
                    rows=100, check=check_forced_zero)]


def _readme_mix(seed):
    def s(default):
        return str(default if seed is None else seed)

    return [
        Command(("s-of-r", "--r", "2"), check=check_s_of_r),
        Command(("omega", "--r", "4.5"), check=check_omega_certified),
        Command(("conditioned", "--r", "4.5", "--samples", "1000", "--seed", s(1)),
                rows=1000, check=check_conditioned),
        Command(("zeros", "--r", "1", "--samples", "200", "--verify", "--seed", s(1)),
                rows=200, check=check_zeros),
        Command(("volume", "--k", "2", "--t", "2", "--s", "1", "--mc-samples", "1000000",
                 "--seed", s(3)), check=check_volume),
        Command(("covdet", "--r", "2"), check=check_covdet),
        Command(("covdet", "--r", "2", "--kappa", "0.8", "--n-points", "8"), check=check_covdet),
        Command(("hermite", "--beta", "1.0", "--n", "10000", "--c1", "0.5", "--c2", "2"),
                check=check_hermite),
        Command(("sweep", "s-of-r", "--r", "1,2,4,8", "--format", "csv"), check=check_sweep_s_of_r),
        Command(("covdet", "--r", "20"), check=check_covdet),
        Command(("s-of-r", "--r", "200"), check=check_s_of_r),
        Command(("omega", "--r", "100"), check=check_omega_certified),
        Command(("zeros", "--r", "3", "--samples", "200", "--verify", "--seed", s(1)),
                rows=200, check=check_zeros),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hole-r1", True, _hole_r1),
        Workload("conditioned-r12", True, _conditioned_r12),
        Workload("forced-zero-d200", True, _forced_zero_d200),
        Workload("readme-mix", False, _readme_mix),
    )
}


def with_threads(argv: tuple[str, ...], threads: int | None) -> tuple[str, ...]:
    """argv with any --threads pin removed, then `--threads threads` appended."""
    out: list[str] = []
    skip = False
    for tok in argv:
        if skip:
            skip = False
        elif tok == "--threads":
            skip = True
        else:
            out.append(tok)
    if threads is not None:
        out += ["--threads", str(threads)]
    return tuple(out)


def pinned_threads(argv: tuple[str, ...]) -> int | None:
    return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else None


# ---------------------------------------------------------------------------
# records and accounting


def parse_records(text: str) -> list[dict]:
    """JSON lines, or a flattened CSV table, as a list of dicts."""
    if text.startswith("{"):
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return list(csv.DictReader(io.StringIO(text)))


def normalise(text: str) -> str:
    """Captured output without its wall_time_ms fields."""
    if text.startswith("{"):
        return _WALL_FIELD.sub("", text)
    rows = list(csv.reader(io.StringIO(text)))
    if rows and "wall_time_ms" in rows[0]:
        col = rows[0].index("wall_time_ms")
        rows = [row[:col] + row[col + 1:] for row in rows]
    return "\n".join(",".join(row) for row in rows) + "\n"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rows_done: int = 0  # Monte Carlo rows of invocations that passed every check
    rows_dropped: int = 0  # rows `hole` requested but left out of its record
    problems: list[str] = field(default_factory=list)
    wrong: bool = False  # some output exited 0 but failed a check
    digest: str = ""

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def assess(workload: Workload, commands: list[Command],
           passes: list[list[tuple[int, str]]]) -> Tally:
    """Check every pass's captured (exit code, stdout) per command and tally
    operations attempted and failed.

    A non-zero exit fails the command's operations; a record that breaks a
    check, or differs from the first pass's apart from wall_time_ms, fails
    them too and marks the run wrong.  Rows that `hole` drops from its
    record count as failed samples.
    """
    tally = Tally()
    reference: list[str | None] = [None] * len(commands)
    for p, outputs in enumerate(passes):
        for c, (cmd, (code, text)) in enumerate(zip(commands, outputs)):
            ops = cmd.rows if workload.per_sample else 1
            tally.attempted += ops
            label = f"pass {p} `{' '.join(cmd.argv)}`"
            if code != 0:
                tally.failed += ops
                tally.problems.append(f"{label}: exit {code}")
                continue
            try:
                records = parse_records(text)
                problems = cmd.check(records)
            except (ValueError, KeyError, TypeError) as exc:
                records, problems = [], [f"unreadable record: {exc!r}"]
            norm = normalise(text)
            if reference[c] is None:
                reference[c] = norm
            elif norm != reference[c]:
                problems.append("records differ from the first pass beyond wall_time_ms")
            if problems:
                tally.failed += ops
                tally.wrong = True
                tally.problems += [f"{label}: {msg}" for msg in problems]
                continue
            dropped = 0
            if cmd.argv[0] == "hole":
                dropped = cmd.rows - int(records[0]["results"]["samples"])
            tally.rows_dropped += dropped
            tally.failed += dropped if workload.per_sample else int(dropped > 0)
            tally.rows_done += cmd.rows - dropped
    digest = hashlib.sha256()
    for cmd, ref in zip(commands, reference):
        digest.update(f"{' '.join(cmd.argv)}\n{ref if ref is not None else 'failed'}\n".encode())
    tally.digest = digest.hexdigest()
    return tally
