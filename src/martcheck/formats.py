"""JSON (de)serialization for trees, integrands, search configs and reports.

Parsers are lenient where it is safe (scalars broadcast to vectors, missing
"children" means leaf, shallow leaves get padded) and strict about types and
unknown enum values. Semantic validation of parsed trees stays with
ProbTree.validate; only structural problems raise here.
"""
from __future__ import annotations

import math
from typing import Any

import numpy as np

from .errors import ConfigError
from .ineq import InequalityReport
from .ptree import Level, ProbTree
from .sharpness import FamilySpec, SearchConfig, SearchResult
from .wiener_mc import IntegrandSpec, Rule, RuleEntry

#: full field order of the JSON report rows
REPORT_FIELDS = ("id", "p", "n_or_t", "lhs", "rhs", "constant", "ratio",
                 "satisfied", "verdict", "ci_lhs", "ci_rhs", "seed", "notes")

#: fixed CSV column set (stable across versions)
CSV_FIELDS = ("inequality", "p", "n_or_t", "lhs", "rhs", "constant", "ratio",
              "satisfied", "ci_lhs", "ci_rhs", "seed")


class _Where:
    """A location in a document, rendered only when an error message needs
    it, so a deep tree costs no quadratic string building."""

    __slots__ = ("parent", "suffix")

    def __init__(self, parent: "_Where | str", suffix: str):
        self.parent = parent
        self.suffix = suffix

    def __str__(self) -> str:
        parts = []
        where = self
        while isinstance(where, _Where):
            parts.append(where.suffix)
            where = where.parent
        parts.append(where)
        return "".join(reversed(parts))


def _dict(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    return obj


def _get(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return obj[key]


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _vector(value: Any, where: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (_number(value, where),)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a number or a nonempty list of numbers")
    return tuple(_number(v, _Where(where, f"[{i}]")) for i, v in enumerate(value))


def _pair(value: Any, where: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where} must be a [lo, hi] pair")
    return _number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]")


# -- trees -------------------------------------------------------------

def _open_node(obj: Any, where) -> tuple:
    obj = _dict(obj, where)
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise ConfigError(f"{where}.children must be a list")
    return where, children


def parse_tree(obj: Any) -> ProbTree:
    """Build a ProbTree from its JSON object form.

    {"m0": [..], "tree": {"children": [{"prob", "incr", "node"}, ..]}}.
    A node without "children" (or with an empty list) is a leaf. Leaves
    shallower than the deepest leaf are padded with probability-1
    zero-increment chains, which keep the martingale. Every increment must
    have the dimension of m0.

    One depth-first walk without recursion, so depth is bounded by memory
    alone, appends each node to its level; problems are reported in that
    order, each branch's prob and incr before its node.
    """
    obj = _dict(obj, "tree document")
    m0 = _vector(_get(obj, "m0", "tree document"), "m0")
    zero = (0.0,) * len(m0)
    rows: list[list[tuple]] = []   # level k's (parent, prob, incr) rows at k-1
    # open nodes: [location, children, children parsed, index on the node's level]
    stack = [[*_open_node(_get(obj, "tree", "tree document"), "tree"), 0, 0]]
    while stack:
        top = stack[-1]
        where, children, i, node = top
        k = len(stack)                 # the level of top's children
        if i == len(children):
            stack.pop()
            if i == 0:   # a leaf: its zero chain reaches the deepest level so far
                for level in rows[k - 1:]:
                    level.append((node, 1.0, zero))
                    node = len(level) - 1
            continue
        top[2] += 1
        bw = _Where(where, f".children[{i}]")
        br = _dict(children[i], bw)
        prob = _number(_get(br, "prob", bw), _Where(bw, ".prob"))
        incr = _vector(_get(br, "incr", bw), _Where(bw, ".incr"))
        if len(incr) != len(m0):
            raise ConfigError(f"{_Where(bw, '.incr')} has dimension {len(incr)}, "
                              f"m0 has dimension {len(m0)}")
        child = _open_node(_get(br, "node", bw), _Where(bw, ".node"))
        if k > len(rows):
            # the first node this deep: the nodes before top on its level are
            # leaves or chain ends, and each gets its chain's next node here
            rows.append([(j, 1.0, zero) for j in range(node)])
        rows[k - 1].append((node, prob, incr))
        stack.append([*child, 0, len(rows[k - 1]) - 1])
    return ProbTree(m0, [
        Level(np.array(parent, dtype=np.intp), np.array(prob, dtype=float),
              np.array(incr, dtype=float))
        for parent, prob, incr in (zip(*level) for level in rows)])


def tree_to_obj(tree: ProbTree) -> dict:
    """The JSON object form of a tree, the inverse of parse_tree: written top
    down, one level at a time; level order is each parent's child order."""
    root = {"children": []}
    nodes = [root]
    for lvl in tree.levels:
        below = [{"children": []} for _ in range(len(lvl.parent))]
        for i, prob, incr, node in zip(lvl.parent.tolist(), lvl.prob.tolist(),
                                       lvl.incr.tolist(), below):
            nodes[i]["children"].append({"prob": prob, "incr": incr, "node": node})
        nodes = below
    return {"m0": list(tree.m0), "tree": root}


# -- integrands --------------------------------------------------------

def parse_integrand(obj: Any) -> IntegrandSpec:
    """Build an IntegrandSpec from its JSON object form.

    {"dim", "wiener_dim", "horizon", "steps",
     "rules": [{"range": [s, e], "j", "kind", "c", "k"?}, ..]}.
    "c" may be a scalar, which broadcasts to the integrand dimension.
    """
    obj = _dict(obj, "integrand document")
    dim = _integer(_get(obj, "dim", "integrand"), "dim")
    rules = obj.get("rules", [])
    if not isinstance(rules, list):
        raise ConfigError("rules must be a list")
    entries = []
    for i, r in enumerate(rules):
        r = _dict(r, f"rules[{i}]")
        start, stop = _pair(_get(r, "range", f"rules[{i}]"), f"rules[{i}].range")
        if start != int(start) or stop != int(stop):
            raise ConfigError(f"rules[{i}].range must hold integers")
        kind = _get(r, "kind", f"rules[{i}]")
        c = _vector(_get(r, "c", f"rules[{i}]"), f"rules[{i}].c")
        if len(c) == 1 and dim > 1:
            c = c * dim
        k = r.get("k")
        entries.append(RuleEntry(
            start=int(start), stop=int(stop),
            j=_integer(_get(r, "j", f"rules[{i}]"), f"rules[{i}].j"),
            rule=Rule(kind=str(kind), c=c,
                      k=None if k is None else _integer(k, f"rules[{i}].k"))))
    return IntegrandSpec(
        dim=dim,
        wiener_dim=_integer(_get(obj, "wiener_dim", "integrand"), "wiener_dim"),
        horizon=_number(_get(obj, "horizon", "integrand"), "horizon"),
        steps=_integer(_get(obj, "steps", "integrand"), "steps"),
        entries=tuple(entries))


def integrand_to_obj(spec: IntegrandSpec) -> dict:
    rules = []
    for e in spec.entries:
        row = {"range": [e.start, e.stop], "j": e.j,
               "kind": e.rule.kind, "c": list(e.rule.c)}
        if e.rule.k is not None:
            row["k"] = e.rule.k
        rules.append(row)
    return {"dim": spec.dim, "wiener_dim": spec.wiener_dim,
            "horizon": spec.horizon, "steps": spec.steps, "rules": rules}


# -- search configs ----------------------------------------------------

def parse_search(obj: Any) -> SearchConfig:
    """Build a SearchConfig from its JSON object form.

    {"family", "p", "method", "budget", "seed", "target"?,
     "a"?, "b"?, "q"? (each [lo, hi]), "depth"?, "dim"?, "branching"?}.
    """
    obj = _dict(obj, "search document")
    tag = str(_get(obj, "family", "search"))
    kwargs: dict[str, Any] = {}
    for key, name in (("a", "a_box"), ("b", "b_box"), ("q", "q_box")):
        if key in obj:
            kwargs[name] = _pair(obj[key], key)
    for key in ("depth", "dim"):
        if key in obj:
            kwargs[key] = _integer(obj[key], key)
    if "branching" in obj:
        val = obj["branching"]
        if not isinstance(val, list) or not val:
            raise ConfigError("branching must be a nonempty list of integers")
        kwargs["branching"] = tuple(_integer(v, "branching") for v in val)
    family = FamilySpec(tag=tag, p=_number(_get(obj, "p", "search"), "p"), **kwargs)
    return SearchConfig(
        family=family,
        method=str(_get(obj, "method", "search")),
        budget=_integer(_get(obj, "budget", "search"), "budget"),
        seed=_integer(_get(obj, "seed", "search"), "seed"),
        target=str(obj.get("target", "RIO-STEP")))


def search_to_obj(config: SearchConfig) -> dict:
    fam = config.family
    out: dict[str, Any] = {"family": fam.tag, "p": fam.p, "method": config.method,
                           "budget": config.budget, "seed": config.seed,
                           "target": config.target}
    for key, box in (("a", fam.a_box), ("b", fam.b_box), ("q", fam.q_box)):
        if box is not None:
            out[key] = list(box)
    if fam.tag == "RANDOM-TREE":
        out["depth"] = fam.depth
        out["dim"] = fam.dim
        out["branching"] = list(fam.branching)
    return out


# -- reports -----------------------------------------------------------

def report_row(report: InequalityReport) -> dict:
    return {name: getattr(report, name) for name in REPORT_FIELDS}


def csv_row(report: InequalityReport) -> dict:
    row = {name: getattr(report, name) for name in CSV_FIELDS[1:]}
    row["inequality"] = report.id
    return row


def search_result_to_obj(result: SearchResult) -> dict:
    return {
        "best_ratio": result.best_ratio,
        "best_params": dict(result.best_params),
        "evaluations": result.evaluations,
        "bound": result.bound,
        "exceeded": result.exceeded,
        "trace": [{"params": dict(prm), "ratio": ratio} for prm, ratio in result.trace],
    }
