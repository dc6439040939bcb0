"""Command line front end.

Subcommands map one-to-one onto the library evaluators:

    verify-discrete    exact inequality checks on a tree file
    verify-continuous  Monte Carlo checks of the integral inequalities
    sharpness          parametric search for near-extremal witnesses
    random-trees       randomized sweep over generated trees
    compare-constants  classic vs improved constants at given exponents
    gaussian-moment    E|Z|^p reference value

Each subcommand prints its lines and returns (exit code, results, params);
main times it, writes --out from what it returns and returns its code.
Exit codes (the report commands take theirs from _exit_code): 0 all checks
passed, 1 violation / invalid input / error (a side that overflows or
underflows a float, or an exponent too large for one, included), 2 at least
one inconclusive Monte Carlo verdict (without --allow-inconclusive). Every run
with --out BASE writes BASE.json (a manifest plus results) and, for tabular
commands, BASE.csv; reruns of the same command line are byte-identical apart
from the duration field.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Any, Sequence

from . import __version__, formats, ineq, ptree, sharpness, wiener_mc
from .errors import ConfigError, MartcheckError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, keeping 2 for the inconclusive verdict
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_FAIL)


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:   # a JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path} is nested too deeply to parse") from None


def _exit_code(table: ineq.ReportTable, allow_inconclusive: bool = False) -> int:
    """The exit code of a report command, from its verdict column."""
    verdicts = set(table.columns["verdict"])
    if verdicts & {"violation", "violation-candidate"}:
        return EXIT_FAIL
    if "inconclusive" in verdicts and not allow_inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _report_line(r: ineq.InequalityReport) -> str:
    parts = [f"{r.id} p={r.p:g} n_or_t={r.n_or_t:g}",
             f"lhs={r.lhs:.12g} rhs={r.rhs:.12g} ratio={r.ratio:.12g}"]
    if r.ci_lhs is not None:
        parts.append(f"ci_lhs={r.ci_lhs:.3g} ci_rhs={r.ci_rhs:.3g}")
    parts.append(r.verdict)
    return "  ".join(parts)


def _write_out(base: str, command: str, argv: Sequence[str], params: dict,
               results: Any, started: float) -> None:
    """Write BASE.json, and BASE.csv too if results is a ReportTable."""
    manifest = {
        "command": command,
        "argv": list(argv),
        "params": params,
        "version": __version__,
        "duration_s": time.monotonic() - started,
    }
    if isinstance(results, ineq.ReportTable):
        text, lines = formats.table_text(results)
    else:   # dumps without indent runs the C encoder; json.dump never does
        text, lines = [json.dumps(results, sort_keys=True)], None
    try:
        with open(base + ".json", "w", encoding="utf-8") as fh:
            fh.write(f'{{"manifest": {json.dumps(manifest, sort_keys=True)}, "results": ')
            fh.writelines(text)
            fh.write("}\n")
        if lines is not None:
            with open(base + ".csv", "w", encoding="utf-8", newline="") as fh:
                fh.writelines(lines)
    except (OSError, UnicodeEncodeError) as exc:   # e.g. a lone surrogate in a text cell
        raise ConfigError(f"cannot write {base}: {exc}") from None


def _coerce_ids(values: Sequence[str] | None, default, kind):
    """The ids named by values (all of default if none); each must be in default."""
    if not values:
        return list(default)
    ids = ineq.coerce_ids(kind, values)
    for iid in ids:
        if iid not in default:
            raise ConfigError(f"{iid.value} is not a tree inequality")
    return ids


def _cmd_verify_discrete(args):
    ids = _coerce_ids(args.ineq, ineq.DISCRETE_EVAL_IDS, ineq.InequalityId)
    tree = formats.parse_tree(_load_json(args.tree))
    levels = range(tree.depth + 1) if args.n is None else [args.n]
    table = ineq.eval_tree(tree, levels, args.p, ids)
    for r in table:
        print(_report_line(r))
    return _exit_code(table), table, {"tree": args.tree, "p": list(args.p), "n": args.n,
                                      "ineq": [i.value for i in ids]}


def _cmd_verify_continuous(args):
    ids = _coerce_ids(args.ineq, ineq.ContinuousId, ineq.ContinuousId)
    spec = formats.parse_integrand(_load_json(args.integrand))
    t = spec.horizon if args.t is None else args.t
    table = wiener_mc.eval_continuous(spec, t, args.p, ids, args.paths, args.seed)
    for r in table:
        print(_report_line(r))
    return _exit_code(table, args.allow_inconclusive), table, {
        "integrand": args.integrand, "t": t, "p": list(args.p), "paths": args.paths,
        "seed": args.seed, "ineq": [i.value for i in ids]}


def _cmd_sharpness(args):
    config = formats.parse_search(_load_json(args.config))
    result = sharpness.search(config)
    print(f"family={config.family.tag} method={config.method} "
          f"target={config.target} p={config.family.p:g}")
    print(f"best_ratio={result.best_ratio:.12g} bound={result.bound:.12g} "
          f"evaluations={result.evaluations}")
    print("best_params=" + json.dumps(result.best_params, sort_keys=True))
    if result.exceeded:
        print("soundness bound exceeded: violation finding", file=sys.stderr)
    return (EXIT_FAIL if result.exceeded else EXIT_OK,
            formats.search_result_to_obj(result), formats.search_to_obj(config))


def _cmd_random_trees(args):
    ids = _coerce_ids(args.ineq, ineq.DISCRETE_EVAL_IDS, ineq.InequalityId)
    table = ineq.sweep_random_trees(
        args.count, args.max_depth, args.max_dim, args.seed, args.p, ids)
    bad = [table[i] for i, ok in enumerate(table.columns["satisfied"]) if not ok]
    for r in bad:
        print(_report_line(r) + f"  [{r.notes}]")
    print(f"{len(table)} checks on {args.count} trees: "
          f"{len(table) - len(bad)} satisfied, {len(bad)} violations")
    return _exit_code(table), table, {
        "count": args.count, "max_depth": args.max_depth, "max_dim": args.max_dim,
        "seed": args.seed, "p": list(args.p), "ineq": [i.value for i in ids]}


def _cmd_compare_constants(args):
    rows = []
    for p in args.p:
        c = ineq.compare_constants(p)
        rows.append(vars(c).copy())
        print(f"p={c.p:g}  main: {c.classic_main:g} -> {c.new_main:g} "
              f"(improved={c.improved_main})  max: {c.classic_max:g} -> "
              f"{c.new_max:g} (improved={c.improved_max})")
    return EXIT_OK, rows, {"p": list(args.p)}


def _cmd_gaussian_moment(args):
    value = wiener_mc.gaussian_abs_moment(args.p)
    print(f"E|Z|^{args.p:g} = {value:.12g}")
    return EXIT_OK, {"value": value}, {"p": args.p}


@functools.cache
def build_parser() -> _Parser:
    """The command line parser, built once per process: parsing leaves it as it is."""
    parser = _Parser(prog="martcheck",
                     description="exact and Monte Carlo checks of martingale "
                                 "moment inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", metavar="BASE",
                       help="write BASE.json (and BASE.csv for tabular output)")

    p = sub.add_parser("verify-discrete", help="exact checks on a tree file")
    p.add_argument("--tree", required=True, help="tree JSON file")
    p.add_argument("--p", type=float, nargs="+", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="level to check (default: all levels)")
    p.add_argument("--ineq", nargs="+", help="inequality ids (default: all)")
    common(p)
    p.set_defaults(func=_cmd_verify_discrete)

    p = sub.add_parser("verify-continuous", help="Monte Carlo integral checks")
    p.add_argument("--integrand", required=True, help="integrand JSON file")
    p.add_argument("--p", type=float, nargs="+", required=True)
    p.add_argument("--t", type=float, default=None,
                   help="evaluation time (default: the horizon)")
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ineq", nargs="+", help="inequality ids (default: all)")
    p.add_argument("--allow-inconclusive", action="store_true",
                   help="exit 0 instead of 2 on inconclusive verdicts")
    common(p)
    p.set_defaults(func=_cmd_verify_continuous)

    p = sub.add_parser("sharpness", help="run a witness search")
    p.add_argument("--config", required=True, help="search config JSON file")
    common(p)
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("random-trees", help="randomized tree sweep")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, nargs="+", default=(2.0, 3.0, 4.0))
    p.add_argument("--ineq", nargs="+", help="inequality ids (default: all)")
    common(p)
    p.set_defaults(func=_cmd_random_trees)

    p = sub.add_parser("compare-constants", help="constant comparison table")
    p.add_argument("--p", type=float, nargs="+", required=True)
    common(p)
    p.set_defaults(func=_cmd_compare_constants)

    p = sub.add_parser("gaussian-moment", help="Gaussian absolute moment")
    p.add_argument("--p", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_gaussian_moment)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code, results, params = args.func(args)
        if args.out:
            _write_out(args.out, args.command, argv, params, results, started)
        return code
    except MartcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
