"""Command-line experiment runner.

Subcommands:

* ``run``    one configuration over one or more seeds; prints per-seed and
             aggregate metrics, optionally writing CSV/JSON artifacts.
* ``sweep``  cartesian sweep over n, m (absolute or ratio of n), k and pr_i;
             one cell per combination, optionally re-grouped by averaging
             over chosen parameters.
* ``curve``  per-pair probability curve of a fixed event y against a GSN
             window of z events, written as CSV.
* ``trace``  persist a run's event log, or load one back and verify it by
             replaying the protocol.

Exit codes: 0 success, 2 configuration, trace or I/O error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .errors import NumericError
from .metrics import SliceSpec, probability_curve
from .simulation import KINDS, TOPOLOGIES, ExperimentConfig, ReplayError, replay_timestamps, run
from .trace import load_trace, persist_trace


def _add_config_flags(parser: argparse.ArgumentParser, many: bool, required: bool = True) -> None:
    nargs = "+" if many else None
    parser.add_argument("--topology", choices=TOPOLOGIES, default="complete")
    parser.add_argument("--n", type=int, nargs=nargs, required=required, help="process count")
    parser.add_argument("--m", type=int, nargs=nargs, help="clock width (absolute)")
    parser.add_argument("--m-ratio", type=float, nargs=nargs, help="clock width as a ratio of n")
    parser.add_argument("--k", type=int, nargs=nargs, default=[2] if many else 2,
                        help="hash functions per tick")
    parser.add_argument("--pri", type=float, nargs=nargs, default=[0.0] if many else 0.0,
                        help="internal event probability")
    parser.add_argument("--gsn-limit", type=int, help="complete-graph termination bound (default n^2)")
    parser.add_argument("--messages-per-client", type=int, help="star rounds per client (default n)")
    parser.add_argument("--slice-start", type=int, help="slice start gsn (default 10*n)")
    parser.add_argument("--slice-stride", type=int, default=100, help="slice stride (default 100)")


def _add_seed_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, action="append", help="explicit seed (repeatable)")
    parser.add_argument("--runs", type=int, help="use seeds 1..N (default 3)")


def _seeds(args: argparse.Namespace) -> tuple[int, ...]:
    if args.seed:
        return tuple(args.seed)
    return tuple(range(1, (args.runs or 3) + 1))


def _single_width(args: argparse.Namespace) -> int:
    if (args.m is None) == (args.m_ratio is None):
        raise argparse.ArgumentTypeError("give exactly one of --m or --m-ratio")
    if args.m is not None:
        return args.m
    return experiments.ratio_to_width(args.m_ratio, args.n)


def _single_config(args: argparse.Namespace, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        topology=args.topology,
        n=args.n,
        m=_single_width(args),
        k=args.k,
        pr_i=args.pri,
        seed=seed,
        gsn_limit=args.gsn_limit,
        messages_per_client=args.messages_per_client,
    )


def _slice_spec(args: argparse.Namespace) -> SliceSpec | None:
    if args.slice_start is None and args.slice_stride == 100:
        return None
    return SliceSpec(start_gsn=args.slice_start, stride=args.slice_stride)


def _out_dir(args: argparse.Namespace) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _print_aggregate(label: str, aggregate: experiments.AggregateMetrics) -> None:
    values = "  ".join(f"{f}={getattr(aggregate, f):.3f}" for f in experiments.METRIC_FIELDS)
    print(f"{label}  {values}")


def cmd_run(args: argparse.Namespace) -> int:
    seeds = _seeds(args)
    config = _single_config(args, seeds[0])
    artifact = experiments.run_experiment(config, seeds, _slice_spec(args))
    for seed, report in zip(artifact.seeds, artifact.reports):
        values = "  ".join(f"{f}={getattr(report, f):.3f}" for f in experiments.METRIC_FIELDS)
        counts = report.counts
        print(f"seed {seed}  tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn}  {values}")
    _print_aggregate(f"mean over {len(seeds)} seeds", artifact.aggregate)
    out = _out_dir(args)
    if out is not None:
        experiments.write_sweep_csv([artifact], out / "run.csv")
        experiments.write_artifacts_json([artifact], out / "run.json")
        print(f"wrote {out / 'run.csv'} and {out / 'run.json'}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = experiments.SweepSpec(
        topology=args.topology,
        n_values=tuple(args.n),
        m_values=tuple(args.m or ()),
        m_ratios=tuple(args.m_ratio or ()),
        k_values=tuple(args.k),
        pr_i_values=tuple(args.pri),
        seeds=_seeds(args),
        gsn_limit=args.gsn_limit,
        messages_per_client=args.messages_per_client,
        slice_spec=_slice_spec(args),
    )
    artifacts = experiments.run_sweep(spec)
    for row in experiments.sweep_table(artifacts):
        print("  ".join(f"{key}={value}" for key, value in row.items()))
    out = _out_dir(args)
    if out is not None:
        experiments.write_sweep_csv(artifacts, out / "sweep.csv")
        experiments.write_artifacts_json(artifacts, out / "sweep.json")
        print(f"wrote {out / 'sweep.csv'} and {out / 'sweep.json'}")
    if args.average_over:
        averaged = ["pr_i" if f == "pri" else f for f in args.average_over]
        grouped = experiments.average_over(artifacts, averaged)
        for key, aggregate in grouped:
            label = "  ".join(f"{k}={v}" for k, v in key.items())
            _print_aggregate(label, aggregate)
        if out is not None:
            experiments.write_grouped_csv(grouped, out / "sweep_grouped.csv")
            print(f"wrote {out / 'sweep_grouped.csv'}")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    seeds = _seeds(args)
    config = _single_config(args, seeds[0])
    log = run(config)
    y_gsn = args.y_gsn if args.y_gsn is not None else 10 * config.n
    z_from = args.z_from if args.z_from is not None else y_gsn + 1
    z_to = args.z_to if args.z_to is not None else len(log.events)
    rows = probability_curve(log, y_gsn, z_from, z_to)
    out = _out_dir(args)
    if out is not None:
        experiments.write_curve_csv(rows, out / "curve.csv")
        print(f"wrote {len(rows)} rows to {out / 'curve.csv'}")
    else:
        print(",".join(experiments.CURVE_HEADER))
        for row in rows:
            print(f"{row.z_gsn},{row.pr_p!r},{row.pr_fp_step!r},{row.pr_fp_smooth!r},{row.outcome}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.load is not None:
        log = load_trace(args.load)
        replay_timestamps(log)
        kinds = dict(zip(KINDS, np.bincount(log.events.kinds, minlength=len(KINDS)).tolist()))
        print(
            f"loaded {len(log.events)} events ({kinds['internal']} internal, "
            f"{kinds['send']} send, {kinds['receive']} receive); replay check passed"
        )
        return 0
    if args.n is None:
        raise argparse.ArgumentTypeError("trace needs either --load PATH or run flags with --out DIR")
    seeds = _seeds(args)
    config = _single_config(args, seeds[0])
    log = run(config)
    out = _out_dir(args)
    if out is None:
        raise argparse.ArgumentTypeError("trace generation needs --out DIR")
    path = out / "trace.txt"
    persist_trace(log, path)
    print(f"wrote {len(log.events)} events to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bloomclock", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration over seeds and report slice metrics")
    _add_config_flags(p_run, many=False)
    _add_seed_flags(p_run)
    p_run.add_argument("--out", help="directory for run.csv / run.json")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a cartesian parameter sweep")
    _add_config_flags(p_sweep, many=True)
    _add_seed_flags(p_sweep)
    p_sweep.add_argument("--average-over", nargs="+", choices=["n", "m", "k", "pri"],
                         help="also emit metrics averaged over these parameters")
    p_sweep.add_argument("--out", help="directory for sweep.csv / sweep.json")
    p_sweep.set_defaults(func=cmd_sweep)

    p_curve = sub.add_parser("curve", help="emit the per-pair probability curve for one run")
    _add_config_flags(p_curve, many=False)
    _add_seed_flags(p_curve)
    p_curve.add_argument("--y-gsn", type=int, help="gsn of the fixed event y (default 10*n)")
    p_curve.add_argument("--z-from", type=int, help="first z gsn (default y+1)")
    p_curve.add_argument("--z-to", type=int, help="last z gsn (default log end)")
    p_curve.add_argument("--out", help="directory for curve.csv (stdout when omitted)")
    p_curve.set_defaults(func=cmd_curve)

    p_trace = sub.add_parser("trace", help="persist a run's event log, or load and verify one")
    _add_config_flags(p_trace, many=False, required=False)
    _add_seed_flags(p_trace)
    p_trace.add_argument("--load", help="load this trace file and verify it by replay")
    p_trace.add_argument("--out", help="directory for trace.txt")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ReplayError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
