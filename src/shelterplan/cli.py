"""Command-line interface.

Subcommands: validate, assign (lower level only, fixed selection), solve
(full bi-level, one scenario), enumerate (exhaustive oracle), run (all
scenarios), report (re-render stored results). Exit codes: 0 success,
1 validation/ingestion failure, 2 solve failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .assignment import InfeasibleOriginError, solve_lower_level
from .enumeration import exhaustive_solve
from .ga import ga_solve
from .io import (
    ProblemLoadError,
    canonical_json,
    enumeration_report_to_csv,
    load_network,
    load_problem,
    load_shelters,
    to_jsonable,
    write_text_atomic,
)
from .network import validate_network
from .problem import selection_from_string
from .study import load_rows, render_report, run_scenarios

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVE = 2


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def _common_problem_args(sub: argparse.ArgumentParser, scenarios: str = "one") -> None:
    sub.add_argument("--network", required=True, help="network directory (nodes.csv/links.csv) or JSON file")
    sub.add_argument("--shelters", required=True, help="shelter candidates CSV")
    if scenarios == "many":
        sub.add_argument(
            "--scenario", action="append", required=True, dest="scenarios",
            help="scenario JSON file (repeatable)",
        )
    else:
        sub.add_argument("--scenario", required=True, dest="scenarios",
                         help="scenario JSON file")
    sub.add_argument("--config", default=None, help="solver configuration file")


def _load_bundle(args: argparse.Namespace):
    scenarios = args.scenarios if isinstance(args.scenarios, list) else [args.scenarios]
    return load_problem(args.network, args.shelters, scenarios, args.config)


def _cmd_validate(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    shelters = load_shelters(args.shelters) if args.shelters else None
    findings = validate_network(network, shelters)
    if findings:
        for finding in findings:
            print(finding)
        return EXIT_VALIDATION
    print(f"OK: {len(network.nodes)} nodes, {len(network.links)} links")
    return EXIT_OK


def _cmd_assign(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args)
    selection = (
        selection_from_string(args.select)
        if args.select
        else (1,) * len(bundle.shelters.candidates)
    )
    shelters = bundle.shelters.with_selection(selection)
    result = solve_lower_level(
        bundle.network,
        shelters.open_ids(),
        bundle.scenarios[0],
        bundle.impedance,
        bundle.assignment,
    )
    _emit(canonical_json(to_jsonable(result)), args.out)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args)
    ga_config = bundle.ga
    if args.seed is not None:
        ga_config = replace(ga_config, rng_seed=args.seed)
    report = ga_solve(
        bundle.network,
        bundle.shelters,
        bundle.scenarios[0],
        bundle.impedance,
        bundle.penalties,
        ga_config,
        bundle.assignment,
    )
    _emit(canonical_json(to_jsonable(report)), args.out)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args)
    report = exhaustive_solve(
        bundle.network,
        bundle.shelters,
        bundle.scenarios[0],
        bundle.impedance,
        bundle.penalties,
        bundle.assignment,
    )
    if args.format == "csv":
        _emit(enumeration_report_to_csv(report), args.out)
    else:
        _emit(canonical_json(to_jsonable(report)), args.out)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args)
    seed = args.seed if args.seed is not None else bundle.ga.rng_seed
    rows = run_scenarios(bundle, seed)
    _emit(render_report(rows, args.format), args.out)
    failed = [row for row in rows if row.error is not None]
    if failed:
        for row in failed:
            print(f"scenario {row.scenario!r} failed: {row.error}", file=sys.stderr)
        return EXIT_SOLVE
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    rows = load_rows(args.results)
    _emit(render_report(rows, args.format), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shelterplan",
        description="Capacitated shelter location-allocation for evacuation planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a network (and shelters) for problems")
    p_validate.add_argument("--network", required=True)
    p_validate.add_argument("--shelters", default=None)
    p_validate.set_defaults(handler=_cmd_validate)

    p_assign = sub.add_parser("assign", help="lower-level assignment for a fixed selection")
    _common_problem_args(p_assign)
    p_assign.add_argument("--select", default=None, help="selection bits, e.g. 10110 (default: all open)")
    p_assign.add_argument("--out", default=None)
    p_assign.set_defaults(handler=_cmd_assign)

    p_solve = sub.add_parser("solve", help="full bi-level solve for one scenario")
    _common_problem_args(p_solve)
    p_solve.add_argument("--seed", type=int, default=None, help="override ga.rng_seed")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(handler=_cmd_solve)

    p_enum = sub.add_parser("enumerate", help="exhaustively evaluate every shelter subset")
    _common_problem_args(p_enum)
    p_enum.add_argument("--format", choices=["json", "csv"], default="json")
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_run = sub.add_parser("run", help="solve every scenario and render the results table")
    _common_problem_args(p_run, scenarios="many")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(handler=_cmd_run)

    p_report = sub.add_parser("report", help="re-render stored result rows")
    p_report.add_argument("results", help="rows file (.json or .csv) produced by `run`")
    p_report.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ProblemLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasibleOriginError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE


if __name__ == "__main__":
    raise SystemExit(main())
