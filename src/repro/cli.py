"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction a front door:

* ``demo`` — the quickstart flow (enroll a tiny community, query, verify);
* ``datasets`` — print the Table-II statistics of the synthetic datasets;
* ``experiment <name>`` — run one table/figure driver and print its table;
* ``simulate`` — run the mobile-service lifecycle simulation;
* ``attack <name>`` — run one of the Section-IV attack demonstrations;
* ``obs report`` — render the trace/metrics artifacts of the last
  ``--obs`` run (see docs/OBSERVABILITY.md);
* ``obs flame|top|critical-path`` — span analytics over a recorded
  ``trace.jsonl``: a dependency-free flamegraph (HTML or folded stacks),
  a per-span-name self-time table, the wall-clock-bounding chain;
* ``obs diff BASELINE CURRENT`` — align two traces by span path and name
  the most-regressed subtree (machine-readable via ``--json-out``).

``simulate`` and ``experiment`` accept ``--obs`` (and ``--obs-dir DIR``) to
record a structured trace and metrics snapshot of the run.
"""

from __future__ import annotations

import argparse
import sys
from types import ModuleType
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:
    from repro.experiments.common import ExperimentResult

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "table1": lambda a: _mod().table1.run(),
    "table2": lambda a: _mod().table2.run(),
    "fig1": lambda a: _mod().fig1.paper_panels(),
    "fig4a": lambda a: _mod().fig4a.run(),
    "fig4b": lambda a: _fig4b(a),
    "fig4cde": lambda a: _mod().fig4cde.run(a.dataset, sizes=(64, 256, 1024)),
    "fig5abc": lambda a: _mod().fig5abc.run(a.dataset, sizes=(64, 256, 1024)),
    "fig5def": lambda a: _mod().fig5def.run(a.dataset),
    "costmodel": lambda a: _mod().costmodel.run(),
    "scaling": lambda a: _mod().scaling.run(),
    "testbed": lambda a: _mod().testbed.run(a.dataset, sizes=(64, 256, 1024)),
}

_ATTACKS = ("chaining", "entropy_increase", "ope_split", "key_sharing",
            "erasure_decoding", "adaptive_ope")


def _mod() -> ModuleType:
    import repro.experiments as experiments

    return experiments


def _fig4b(args: argparse.Namespace) -> ExperimentResult:
    from repro.experiments import fig4b
    from repro.experiments.common import ExperimentResult

    result = ExperimentResult(
        name="Fig. 4(b): true positive rate vs theta",
        columns=["theta", "Infocom06", "Sigcomm09", "Weibo"],
    )
    for theta in (5, 8, 10):
        row: Dict[str, Any] = {"theta": theta}
        for spec in (fig4b.INFOCOM06, fig4b.SIGCOMM09, fig4b.WEIBO):
            row[spec.name] = fig4b.measure_tpr(
                spec, theta, num_users=args.users, seeds=(1, 2)
            )
        result.add_row(**row)
    return result


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="S-MATCH (DSN 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the quickstart demo")

    sub.add_parser("datasets", help="print Table-II dataset statistics")

    exp = sub.add_parser("experiment", help="run one table/figure driver")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    exp.add_argument(
        "--dataset",
        default="Infocom06",
        choices=["Infocom06", "Sigcomm09", "Weibo"],
    )
    exp.add_argument("--users", type=int, default=40)
    _add_obs_flags(exp)

    simp = sub.add_parser("simulate", help="run the lifecycle simulation")
    simp.add_argument("--users", type=int, default=30)
    simp.add_argument("--steps", type=int, default=10)
    simp.add_argument("--seed", type=int, default=1)
    _add_obs_flags(simp)

    att = sub.add_parser("attack", help="run one ablation/attack demo")
    att.add_argument("name", choices=sorted(_ATTACKS))

    obs = sub.add_parser("obs", help="inspect telemetry artifacts")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    rep = obs_sub.add_parser(
        "report", help="render the recorded trace tree and metrics"
    )
    _add_trace_source(rep, positional=False)

    flame = obs_sub.add_parser(
        "flame",
        help="export the recorded trace as a flamegraph "
        "(folded stacks or self-contained HTML)",
    )
    _add_trace_source(flame)
    flame.add_argument(
        "--format",
        default="html",
        choices=["html", "folded"],
        help="html: self-contained interactive page; "
        "folded: flamegraph.pl 'path;to;span <self_us>' lines",
    )
    flame.add_argument(
        "--out",
        default=None,
        help="output file (default: stdout)",
    )
    flame.add_argument(
        "--title", default="S-MATCH trace", help="HTML page title"
    )

    top = obs_sub.add_parser(
        "top",
        help="per-span-name self-time / call / op / byte table",
    )
    _add_trace_source(top)
    top.add_argument(
        "--limit", type=int, default=20, help="rows to show (default 20)"
    )

    crit = obs_sub.add_parser(
        "critical-path",
        help="the widest-child chain bounding the run's wall clock",
    )
    _add_trace_source(crit)

    diff = obs_sub.add_parser(
        "diff",
        help="align two traces by span path and attribute the regression",
    )
    diff.add_argument("baseline", help="baseline trace.jsonl")
    diff.add_argument("current", help="current trace.jsonl")
    diff.add_argument(
        "--json-out",
        default=None,
        help="also write the machine-readable smatch-trace-diff/1 report here",
    )
    diff.add_argument(
        "--limit",
        type=int,
        default=10,
        help="changed paths to show in the text table (default 10)",
    )

    return parser


def _add_trace_source(
    parser: argparse.ArgumentParser, positional: bool = True
) -> None:
    """`[trace] [--dir DIR]` — an explicit trace file wins over the artifact
    directory (default: $SMATCH_OBS_DIR or .smatch-obs)."""
    if positional:
        parser.add_argument(
            "trace",
            nargs="?",
            default=None,
            help="trace.jsonl file (default: the artifact directory's)",
        )
    parser.add_argument(
        "--dir",
        default=None,
        help="artifact directory (default: $SMATCH_OBS_DIR or .smatch-obs)",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs",
        action="store_true",
        help="record a structured trace + metrics snapshot for this run",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        help="where to write telemetry artifacts (implies --obs)",
    )


def _maybe_enable_obs(args: argparse.Namespace) -> None:
    if getattr(args, "obs", False) or getattr(args, "obs_dir", None):
        from repro import obs

        obs.enable(args.obs_dir)


def _cmd_demo() -> int:
    import runpy
    import pathlib

    demo = (
        pathlib.Path(__file__).resolve().parents[2]
        / "examples"
        / "quickstart.py"
    )
    if demo.exists():
        runpy.run_path(str(demo), run_name="__main__")
        return 0
    # fall back to an inline mini-demo when examples/ is not shipped
    from repro.core.profile import Profile, ProfileSchema
    from repro.core.scheme import SMatch, SMatchParams

    schema = ProfileSchema.uniform(["a", "b", "c"], 1 << 12)
    scheme = SMatch(SMatchParams(schema=schema, theta=8, plaintext_bits=64))
    profile = Profile(1, schema, (40, 400, 4000))
    payload, key = scheme.enroll(profile)
    print(f"enrolled user 1 into group {payload.key_index.hex()[:12]}")
    print(f"verification self-check: {scheme.verify(payload.auth, key)}")
    return 0


def _cmd_datasets() -> int:
    from repro.experiments import table2

    print(table2.run().format())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.obs import pipeline_span

    with pipeline_span("experiment", experiment=args.name):
        result = _EXPERIMENTS[args.name](args)
    print(result.format())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.datasets import INFOCOM06
    from repro.obs import pipeline_span
    from repro.sim import MobileServiceSimulation, SimConfig

    with pipeline_span("simulate", users=args.users, steps=args.steps):
        sim = MobileServiceSimulation(
            INFOCOM06,
            SimConfig(num_users=args.users, steps=args.steps, seed=args.seed),
        )
        sim.run()
    for key, value in sim.summary().items():
        print(f"{key:>22}: {value}")
    return 0


def _load_trace_arg(args: argparse.Namespace) -> List[Dict[str, Any]]:
    """Span records from the positional trace file or the artifact dir."""
    from repro.obs.report import load_trace_records, read_trace_file

    if args.trace is not None:
        return read_trace_file(args.trace)
    return load_trace_records(args.dir)


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "report":
        from repro.obs.report import render_report

        print(render_report(args.dir))
        return 0
    if args.obs_command == "flame":
        from repro.obs.analysis import (
            flamegraph_html,
            folded_stacks,
            render_folded,
        )

        records = _load_trace_arg(args)
        if args.format == "folded":
            output = render_folded(folded_stacks(records))
        else:
            output = flamegraph_html(records, title=args.title)
        if args.out:
            import pathlib

            pathlib.Path(args.out).write_text(output, encoding="utf-8")
            print(f"wrote {args.out}")
        else:
            print(output, end="")
        return 0
    if args.obs_command == "top":
        from repro.obs.analysis import render_top, top_table

        print(render_top(top_table(_load_trace_arg(args)), limit=args.limit))
        return 0
    if args.obs_command == "critical-path":
        from repro.obs.analysis import critical_path, render_critical_path

        print(render_critical_path(critical_path(_load_trace_arg(args))))
        return 0
    if args.obs_command == "diff":
        import json as _json
        import pathlib

        from repro.obs.analysis import diff_traces, render_diff
        from repro.obs.report import read_trace_file

        report = diff_traces(
            read_trace_file(args.baseline), read_trace_file(args.current)
        )
        if args.json_out:
            pathlib.Path(args.json_out).write_text(
                _json.dumps(report, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        print(render_diff(report, limit=args.limit))
        return 0
    raise AssertionError("unreachable")


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.experiments import ablations

    fn = getattr(ablations, f"{args.name}_ablation")
    print(fn().format())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _maybe_enable_obs(args)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "obs":
        return _cmd_obs(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
