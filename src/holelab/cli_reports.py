"""Command-line front end with stable JSON/CSV report records.

One subcommand per construct: s-of-r, hole, omega, conditioned, zeros,
volume, covdet, hermite, forced-zero, plus `sweep` for cartesian parameter
grids.  Records serialize floats with 17 significant digits so that parsing
them back is bit-exact.  Exit codes: 0 success, 1 usage error, 2 numeric
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from . import __version__
from .coeff_models import (
    CoefficientModel,
    expected_zero_count,
    peak_index_range,
    s_asymptotic,
    s_of_r_detail,
)
from .covariance_det import (
    CovarianceSpec,
    logdet_circulant,
    logdet_dense,
    minor_gap_report,
    vandermonde_lower_bound,
)
from .hermite_asymptotics import (
    SADDLE_MIN_N,
    annulus_escape,
    forced_zero_experiment,
    saddle_deviation,
)
from .hole_estimators import (
    TAIL_EPS,
    hole_bracket_report,
    omega_certificate,
    omega_conditioned_sample,
    sample_counts,
)
from .sampling import Distribution, truncation_degree
from .volume_geometry import (
    VolumeQuery,
    log_integral_annotation,
    volume_exact,
    volume_mc,
    volume_upper_bound_log,
)
from ._parallel import _STREAM_VALUES, resolve_workers

_R_MAX = math.sqrt(sys.float_info.max / math.e)  # the largest |r| whose e r^2 is finite


@dataclass
class ReportRecord:
    command: str
    params: dict
    results: dict
    seed: int
    version: str = __version__
    wall_time_ms: int = 0


def _format_value(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x) or math.isinf(x):
            return "null"  # JSON has no non-finite literals
        text = format(x, ".17g")
        if not any(ch in text for ch in ".eE"):
            text += ".0"  # keep floats typed as floats (and preserve -0.0)
        return text
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_format_value(v)}" for k, v in x.items())
        return "{" + inner + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in x) + "]"
    raise TypeError(f"cannot serialize {type(x)!r}")


def record_to_json(record: ReportRecord) -> str:
    return _format_value(asdict(record))


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = value


def records_to_csv(records: list[ReportRecord]) -> str:
    flat_rows = []
    for rec in records:
        flat: dict = {}
        _flatten("", asdict(rec), flat)
        flat_rows.append(flat)
    header: list[str] = []
    for row in flat_rows:
        for key in row:
            if key not in header:
                header.append(key)
    lines = [",".join(header)]
    for row in flat_rows:
        cells = []
        for key in header:
            v = row.get(key)
            if isinstance(v, str):
                cells.append(json.dumps(v))
            else:
                cells.append(_format_value(v) if v is not None else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit(records, fmt: str = "json", path: str | None = None) -> None:
    """Write records (one JSON object per line, or a flattened CSV)."""
    if isinstance(records, ReportRecord):
        records = [records]
    if fmt == "json":
        text = "\n".join(record_to_json(r) for r in records) + "\n"
    elif fmt == "csv":
        text = records_to_csv(records)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# subcommand runners: argparse namespace -> results dict


class _UsageError(Exception):
    pass


def _both_or_neither(args, first: str, second: str) -> bool:
    """Whether flags `first` and `second` were both given; a usage error if only one was."""
    given = [getattr(args, flag[2:].replace("-", "_")) is not None for flag in (first, second)]
    if given[0] != given[1]:
        have, missing = (first, second) if given[0] else (second, first)
        raise _UsageError(f"{have} needs {missing}")
    return given[0]


def _model_from(args) -> CoefficientModel:
    if args.model == "gef":
        return CoefficientModel.gef()
    return CoefficientModel.mittag_leffler(args.alpha)


def _run_s_of_r(args) -> dict:
    model = _model_from(args)
    detail = s_of_r_detail(model, args.r)
    lo, hi = peak_index_range(model, args.r) if args.r >= 1 else (0, 0)
    return {
        "S": detail.value,
        "S_asymptotic": s_asymptotic(model, args.r),
        "index_set_size": detail.term_count,
        "last_index": detail.last_index,
        "peak_lo": lo,
        "peak_hi": hi,
    }


def _run_hole(args) -> dict:
    model = _model_from(args)
    return hole_bracket_report(model, args.r, args.samples, args.seed,
                               workers=args.threads)


def _run_omega(args) -> dict:
    cert = omega_certificate(args.r)
    return {
        "log_prob": cert.log_prob,
        "margin": cert.margin,
        "valid": cert.valid,
        "tail_cut": cert.tail_cut,
    }


def _run_conditioned(args) -> dict:
    frac = omega_conditioned_sample(CoefficientModel.gef(), args.r, args.samples,
                                    args.seed, workers=args.threads)
    cert = omega_certificate(args.r)
    return {"zero_free_fraction": frac, "cert_valid": cert.valid,
            "cert_margin": cert.margin}


def _run_zeros(args) -> dict:
    if args.degree is not None and args.degree < 0:
        raise ValueError(f"--degree must be >= 0, got {args.degree}")
    model = _model_from(args)
    least = math.e * args.r * args.r  # the degree search starts at floor(e r^2) + 1
    if args.degree is None and args.r > 0 and least >= _STREAM_VALUES - 1:  # refused before it
        raise ValueError(f"degree {math.floor(least) + 1} or more at r={args.r!r}: "
                         f"at most {_STREAM_VALUES - 1}")
    degree = (truncation_degree(model, args.r, TAIL_EPS, 1e-9)
              if args.degree is None else args.degree)
    tail_eps = TAIL_EPS if args.degree is None else 0.0  # a user degree certifies no tail
    counts = np.concatenate(sample_counts(model, args.r, degree, args.samples, args.seed,
                                          tail_eps=tail_eps, verify=args.verify,
                                          workers=args.threads)).astype(np.float64)
    return {
        "mean_count": float(np.mean(counts)),
        "stderr": float(np.std(counts, ddof=1) / math.sqrt(len(counts))) if len(counts) > 1 else 0.0,
        "expected_intensity": expected_zero_count(model, args.r),
        "degree": degree,
        "verified": bool(args.verify),
    }


def _run_volume(args) -> dict:
    q = VolumeQuery(args.k, args.t, args.s)
    try:
        bound = volume_upper_bound_log(q)
    except ValueError:
        bound = None
    mc = volume_mc(q, args.mc_samples, args.seed) if args.mc_samples else None
    out = {
        "exact": volume_exact(q),
        "log_upper_bound_or_na": bound,
        "mc": mc.estimate if mc else None,
        "mc_ci_low": mc.ci_low if mc else None,
        "mc_ci_high": mc.ci_high if mc else None,
    }
    if args.annotate_r:
        out["annotation"] = log_integral_annotation(args.annotate_r, args.big_c)
    return out


def _run_covdet(args) -> dict:
    if _both_or_neither(args, "--kappa", "--n-points"):
        spec = CovarianceSpec(args.r, args.kappa, args.n_points)
    else:
        spec = CovarianceSpec.default(args.r)
    out = minor_gap_report(spec)
    try:
        out["logdet_dense"] = logdet_dense(spec)
    except (ValueError, ArithmeticError) as exc:
        out["logdet_dense"] = None
        out["dense_note"] = str(exc)
    return out


def _run_hermite(args) -> dict:
    escape = _both_or_neither(args, "--c1", "--c2")
    if args.n is None and not escape:
        raise _UsageError("hermite needs --n or --c1 and --c2")
    beta = complex(args.beta)
    out: dict = {"beta_re": beta.real, "beta_im": beta.imag}
    if args.n is not None:
        out["saddle_deviation"] = saddle_deviation(beta, args.n)
        out["n"] = args.n
    if escape:
        out["escape_index"] = annulus_escape(beta, args.c1, args.c2, args.nmax)
    return out


def _run_forced_zero(args) -> dict:
    dist = Distribution.RADEMACHER if args.dist == "rademacher" else Distribution.STEINHAUS
    return forced_zero_experiment(dist, args.samples, args.degree, args.seed,
                                  workers=args.threads)


_RUNNERS = {
    "s-of-r": _run_s_of_r,
    "hole": _run_hole,
    "omega": _run_omega,
    "conditioned": _run_conditioned,
    "zeros": _run_zeros,
    "volume": _run_volume,
    "covdet": _run_covdet,
    "hermite": _run_hermite,
    "forced-zero": _run_forced_zero,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _saddle_n(text: str) -> int:
    """`hermite --n`: an integer the saddle-point approximation accepts."""
    value = _positive_int(text)
    if value < SADDLE_MIN_N:
        raise argparse.ArgumentTypeError(f"must be >= {SADDLE_MIN_N} for the saddle-point "
                                         f"approximation, got {text!r}")
    return value


def _finite_complex_text(text: str) -> str:
    """A complex literal with finite parts, kept as text for the record."""
    try:
        value = complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a complex literal, got {text!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return text


@cache
def _shared_parser() -> _Parser:
    """The options every subcommand and `sweep` itself take; built once per process."""
    shared = _Parser(add_help=False)
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--output", default=None, help="path or '-' for stdout")
    shared.add_argument("--threads", type=_positive_int, default=None,
                        help="worker processes (default: THREADS env, else the CPUs "
                             "this process may run on)")
    return shared


@cache
def _build_parser() -> _Parser:
    """The whole command-line parser, built on first use and then reused."""
    parser = _Parser(prog="holelab", description=__doc__)
    shared = _shared_parser()
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name):
        return sub.add_parser(name, parents=[shared])

    def common(p):
        p.add_argument("--seed", type=int, default=1)

    p = add("s-of-r")
    p.add_argument("--model", choices=("gef", "ml"), default="gef")
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.add_argument("--r", type=_finite_float, required=True)
    common(p)

    p = add("hole")
    p.add_argument("--model", choices=("gef", "ml"), default="gef")
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.add_argument("--r", type=_finite_float, required=True)
    p.add_argument("--samples", type=_positive_int, default=10_000)
    common(p)

    p = add("omega")
    p.add_argument("--r", type=_finite_float, required=True)
    common(p)

    p = add("conditioned")
    p.add_argument("--r", type=_finite_float, required=True)
    p.add_argument("--samples", type=_positive_int, default=1000)
    common(p)

    p = add("zeros")
    p.add_argument("--model", choices=("gef", "ml"), default="gef")
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.add_argument("--r", type=_finite_float, required=True)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--verify", action="store_true")
    common(p)

    p = add("volume")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--s", type=_finite_float, required=True)
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--annotate-r", type=_finite_float, default=None)
    p.add_argument("--big-c", type=_finite_float, default=1.0)
    common(p)

    p = add("covdet")
    p.add_argument("--r", type=_finite_float, required=True)
    p.add_argument("--kappa", type=_finite_float, default=None)
    p.add_argument("--n-points", type=_positive_int, default=None)
    common(p)

    p = add("hermite")
    p.add_argument("--beta", type=_finite_complex_text, default="1.0",
                   help="complex literal, e.g. '1.3+0.4j'")
    p.add_argument("--n", type=_saddle_n, default=None)
    p.add_argument("--c1", type=_finite_float, default=None)
    p.add_argument("--c2", type=_finite_float, default=None)
    p.add_argument("--nmax", type=int, default=100_000)
    common(p)

    p = add("forced-zero")
    p.add_argument("--dist", choices=("rademacher", "steinhaus"), required=True)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--degree", type=int, default=200)
    common(p)

    p = sub.add_parser("sweep", parents=[shared],
                       help="cartesian grid over comma-separated values")
    p.add_argument("subcommand", choices=sorted(_RUNNERS))
    p.add_argument("rest", nargs=argparse.REMAINDER)
    return parser


def _params_dict(args) -> dict:
    skip = {"command", "format", "output", "threads"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _execute_single(args) -> ReportRecord:
    try:
        args.threads = resolve_workers(args.threads)
    except ValueError as exc:  # a bad THREADS value
        raise _UsageError(str(exc)) from None
    r = getattr(args, "r", None)
    if r is not None and not math.isfinite(math.e * r * r):  # before any table or draw
        raise ValueError(f"e r^2 overflows at r={r!r}: |r| at most {_R_MAX:.3g}")
    start = time.monotonic()
    results = _RUNNERS[args.command](args)
    elapsed = int(1000 * (time.monotonic() - start))
    return ReportRecord(command=args.command, params=_params_dict(args),
                        results=results, seed=args.seed, wall_time_ms=elapsed)


_SWEEP_OPTIONS = ("--format", "--output", "--threads")


def _sweep_argvs(subcommand: str, rest: list[str]) -> tuple[list[str], list[list[str]]]:
    """(the sweep's own --format/--output/--threads tokens, one argv per grid point).

    The sweep remainder takes every token after the subcommand.  Each
    `--opt a,b` or `--opt=a,b` there sweeps over a and b.  The sweep's own
    options are picked out as given, wherever they stand.
    """
    own: list[str] = []
    flags: list[str] = []
    axes: list[list[str]] = []
    i = 0
    while i < len(rest):
        tok = rest[i]
        flag, eq, value = tok.partition("=")
        if flag in _SWEEP_OPTIONS:
            width = 1 if eq else 2
            if i + width > len(rest):
                raise _UsageError(f"flag {flag!r} is missing a value")
            own += rest[i:i + width]
            i += width
            continue
        i += 1
        if len(axes) < len(flags):  # the value of the last swept flag
            axes.append(tok.split(","))
        elif not flag.startswith("--"):
            raise _UsageError(f"unexpected sweep token {tok!r}")
        else:
            flags.append(flag)
            if eq:
                axes.append(value.split(","))
    if len(axes) < len(flags):
        raise _UsageError(f"flag {flags[-1]!r} is missing a value")
    points = itertools.product(*axes)
    return own, [[subcommand, *itertools.chain(*zip(flags, point))] for point in points]


def run(argv: list[str]) -> int:
    """Execute a command line; returns the process exit code.

    The parser is built on the first call and reused by every later call in
    the process (and by every point of a sweep); parsing leaves it unchanged.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            own, argvs = _sweep_argvs(args.subcommand, args.rest)
            _shared_parser().parse_args(own, namespace=args)
            forward = [] if args.threads is None else ["--threads", str(args.threads)]
            records = [_execute_single(parser.parse_args(point + forward)) for point in argvs]
        else:
            records = [_execute_single(args)]
        emit(records, fmt=args.format, path=args.output)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
