"""Moment inequality evaluators for discrete martingales on finite trees.

Every evaluator returns an InequalityReport, or a ReportTable of them,
whose sides are exact (no sampling). The squared-display convention is used
throughout: lhs and rhs are the squared L^p norms, except DOOB which is
stated unsquared. BOUNDS, the table of the paper's four paired bounds, also
serves wiener_mc.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import ptree
from .errors import (
    DomainError,
    MartcheckError,
    PreconditionError,
    QuadratureError,
    ResourceLimitError,
    TreeStructureError,
    refuse_overflow,
)
from .ptree import ProbTree, as_exponent, as_int, as_seed

ABS_TOL = 1e-9        # the width exact callers add to a right side before decide
QUAD_TOL = 1e-10      # relative convergence tolerance of adaptive_panel_quadrature
_GRADING = 0.25       # geometric ratio of the graded panels toward each anchor

SWEEP_MEMORY_BUDGET = 1 << 30   # bytes the report rows of one sweep may take
# bytes charged per row a sweep may give, count * (max_depth + 1) * p * ids:
# table entries and the column text formats.table_text writes them from trace
# at 465-540 bytes per such row under random-trees --out (705-735 per row written)
_SWEEP_ROW_BYTES = 800


class InequalityId(enum.Enum):
    """Closed set of discrete inequality identifiers."""

    D_BURK_1 = "D-BURK-1"
    D_BURK_2 = "D-BURK-2"
    PROP1_MAIN = "PROP1-MAIN"
    PROP1_MAX = "PROP1-MAX"
    RIO_STEP = "RIO-STEP"
    RIO_CHAIN = "RIO-CHAIN"
    DOOB = "DOOB"


class ContinuousId(enum.Enum):
    """Closed set of continuous-time (Ito integral) inequality identifiers."""

    C_BURK_1 = "C-BURK-1"
    C_BURK_2 = "C-BURK-2"
    ZAKAI_MAIN = "ZAKAI-MAIN"
    ZAKAI_MAX = "ZAKAI-MAX"


@dataclass(frozen=True)
class Bound:
    """One paired bound side^2 <= constant(p) * base, for a tree martingale
    (tree_id) and an Ito integral (ito_id). side is "terminal" or "sup" (the
    running maximum of the norm); base is "square" (the square function's
    L^{p/2} norm) or "increments" (the increments' squared L^p norms, summed
    over levels or integrated over time)."""

    tree_id: InequalityId
    ito_id: ContinuousId
    side: str
    base: str
    constant: Callable[[float], float]


#: the classic constants (square-function base) and the improved ones
#: (increment base) of the paper; each row is keyed by both of its ids.
#: PROP1-MAIN's p-1 is also the RIO-CHAIN and RIO-STEP constant. The other
#: constants give inf where they overflow, which report_table refuses.
BOUNDS: dict[enum.Enum, Bound] = {
    i: b for b in (
        Bound(InequalityId.D_BURK_1, ContinuousId.C_BURK_1, "terminal", "square",
              refuse_overflow("the constant (p-1)^2")(lambda p: (p - 1.0) ** 2)),
        Bound(InequalityId.D_BURK_2, ContinuousId.C_BURK_2, "sup", "square",
              lambda p: p * p),
        Bound(InequalityId.PROP1_MAIN, ContinuousId.ZAKAI_MAIN, "terminal", "increments",
              lambda p: p - 1.0),
        Bound(InequalityId.PROP1_MAX, ContinuousId.ZAKAI_MAX, "sup", "increments",
              lambda p: p * p / (p - 1.0)),
    ) for i in (b.tree_id, b.ito_id)}

#: ids accepted by eval_discrete (RIO-STEP acts on a distribution pair instead)
DISCRETE_EVAL_IDS = (
    InequalityId.D_BURK_1,
    InequalityId.D_BURK_2,
    InequalityId.PROP1_MAIN,
    InequalityId.PROP1_MAX,
    InequalityId.RIO_CHAIN,
    InequalityId.DOOB,
)


@dataclass(frozen=True)
class InequalityReport:
    """One verified comparison lhs <= constant * (rhs / constant).

    Every evaluator builds its reports as the rows of one report_table, its
    verdict from decide. `ratio` is lhs/rhs, with 0/0 mapped to 0.
    """

    id: str
    p: float
    n_or_t: float
    lhs: float
    rhs: float
    constant: float
    ratio: float
    satisfied: bool
    verdict: str
    ci_lhs: float | None = None
    ci_rhs: float | None = None
    seed: int | None = None
    notes: str = ""


#: InequalityReport's fields in order: the ReportTable columns and the keys
#: of the JSON report rows
REPORT_FIELDS = tuple(f.name for f in fields(InequalityReport))


@dataclass(frozen=True, eq=False)
class ReportTable:
    """Reports held as columns: columns[name] lists every row's value of the
    InequalityReport field `name`, in field order. Iterating (or indexing)
    builds the InequalityReports one at a time."""

    columns: dict[str, list]

    def __len__(self) -> int:
        return len(self.columns["id"])

    def __iter__(self) -> Iterator[InequalityReport]:
        return map(InequalityReport, *(self.columns[name] for name in REPORT_FIELDS))

    def __getitem__(self, i: int) -> InequalityReport:
        return InequalityReport(*(self.columns[name][i] for name in REPORT_FIELDS))


def decide(lhs_lo, lhs_hi, rhs_lo, rhs_hi):
    """lhs <= rhs elementwise, each side known to lie in its band [lo, hi]: 1
    satisfied where lhs_hi <= rhs_lo, -1 a violation where lhs_lo > rhs_hi, else
    0 inconclusive. The caller that computed a side sets its band's width."""
    return np.where(lhs_hi <= rhs_lo, 1, np.where(lhs_lo > rhs_hi, -1, 0))


def report_table(ids: list[str], p: list[float], n_or_t: list[float], lhs: np.ndarray,
                 rhs: np.ndarray, constant: np.ndarray, ci_lhs: np.ndarray | None = None,
                 ci_rhs: np.ndarray | None = None, seed: int | None = None,
                 notes: str | list[str] = "") -> ReportTable:
    """The ReportTable of the comparisons lhs <= rhs, one row per entry of the
    equal-length lists and float arrays; seed, and notes if a string, go into
    every row. The verdicts are decide's on the bands lhs -+ ci_lhs and rhs -+
    ci_rhs where half-widths are given, a violation reading "violation-candidate",
    else on the point lhs against the point rhs + ABS_TOL. A side or half-width
    that overflowed a float (or is NaN) raises DomainError, for the first such
    row, instead of reaching a verdict."""
    sides = {"lhs": lhs, "rhs": rhs}
    if ci_lhs is not None:
        sides.update(ci_lhs=ci_lhs, ci_rhs=ci_rhs)
    finite = np.logical_and.reduce([np.isfinite(a) for a in sides.values()])
    if not finite.all():
        i = int(np.argmin(finite))
        values = ", ".join(f"{name}={float(a[i])}" for name, a in sides.items())
        raise DomainError(f"{ids[i]} at p={p[i]:g}: the sides overflow a float ({values})")
    words = np.array(["violation" if ci_lhs is None else "violation-candidate",
                      "inconclusive", "satisfied"], dtype=object)   # by decide's verdict + 1
    with np.errstate(all="ignore"):   # ratio and band edges overflow to inf; 0/0 -> 0, x/0 -> inf
        verdict = decide(*((lhs, lhs, rhs + ABS_TOL, rhs + ABS_TOL) if ci_lhs is None else
                           (lhs - ci_lhs, lhs + ci_lhs, rhs - ci_rhs, rhs + ci_rhs)))
        ratio = np.where(rhs > 0.0, lhs / rhs, np.where(lhs == 0.0, 0.0, np.inf))
    rows = len(ids)
    return ReportTable({
        "id": ids, "p": p, "n_or_t": n_or_t, "lhs": lhs.tolist(),
        "rhs": rhs.tolist(), "constant": constant.tolist(), "ratio": ratio.tolist(),
        "satisfied": (verdict == 1).tolist(), "verdict": words[verdict + 1].tolist(),
        "ci_lhs": [None] * rows if ci_lhs is None else ci_lhs.tolist(),
        "ci_rhs": [None] * rows if ci_rhs is None else ci_rhs.tolist(),
        "seed": [seed] * rows,
        "notes": [notes] * rows if isinstance(notes, str) else notes})


def coerce_id(kind: type[enum.Enum], value) -> enum.Enum:
    """Member of the id enum `kind` (InequalityId or ContinuousId) named by value."""
    if isinstance(value, kind):
        return value
    try:
        return kind(str(value))
    except ValueError:
        known = ", ".join(i.value for i in kind)
        raise DomainError(f"unknown inequality id {value!r}; known: {known}") from None


def coerce_ids(kind: type[enum.Enum], values) -> list[enum.Enum]:
    """The members of `kind` named by values (see coerce_id); a string or a
    single id, which is no sequence of ids, raises DomainError."""
    return [coerce_id(kind, v) for v in ptree.as_sequence(values, "inequality ids")]


def eval_discrete(tree: ProbTree, n: int, p, ineq_id) -> InequalityReport:
    """Evaluate one inequality on a valid tree at level n, exponent p.

    D-BURK-1:   ||M_n||_p^2          <= (p-1)^2 * || sum ||d_k||^2 ||_{p/2}
    D-BURK-2:   ||sup ||M||||_p^2    <= p^2     * || sum ||d_k||^2 ||_{p/2}
    PROP1-MAIN: ||M_n||_p^2          <= (p-1)   * sum_k ||d_k||_p^2
    PROP1-MAX:  ||sup ||M||||_p^2    <= p^2/(p-1) * sum_k ||d_k||_p^2
    RIO-CHAIN:  ||M_n||_p^2          <= ||M_0||^2 + (p-1) * sum_{k>=1} ||d_k||_p^2
    DOOB:       ||sup ||M||||_p      <= p/(p-1) * ||M_n||_p        (unsquared)
    """
    return eval_tree(tree, [n], [p], [ineq_id])[0]


def eval_tree(tree: ptree.Forest, levels: Iterable[int], p_values: Iterable,
              ids: Iterable, seed: int | None = None,
              notes: str | Sequence[str] = "") -> ReportTable:
    """eval_discrete's report for every (n, p, id), in that nesting order, as
    one ReportTable read from a single ptree.moments table for all exponents;
    seed goes into every row, and notes too if a string, else notes[t] into
    tree t's rows. Given a Forest, the table holds each tree's rows in turn,
    each tree's rows as it gives them alone; given one with root weights, the
    rows of its one martingale.

    The sides are the table's columns at the levels; ||M_n||_p^2 and the
    squared sup are taken on scalars, the constants and the right-hand sides
    on whole columns."""
    ids = coerce_ids(InequalityId, ids)
    if InequalityId.RIO_STEP in ids:
        raise DomainError("RIO-STEP compares a distribution pair; use eval_rio_step")
    table = ptree.moments(tree, p_values)
    levels = [ptree.check_level(n, tree.depth) for n in ptree.as_sequence(levels, "levels")]
    ps = table.p
    trees = len(table.lp)
    # each side as a (tree, level, p) array
    sides = np.array([table.lp, table.sup, table.quad, table.incr])[..., levels]
    lp, sup, quad, incr = sides.swapaxes(-1, -2)
    squares = [x ** 2 for x in np.array([lp, sup]).ravel().tolist()]
    lp_sq, sup_sq = np.array(squares).reshape(2, *lp.shape)
    start_sq = table.incr[:, None, :, 0]   # ||M_0||^2
    shape = (*lp.shape, len(ids))
    lhs, rhs, constant = np.empty(shape), np.empty(shape), np.empty(shape)
    with np.errstate(over="ignore", invalid="ignore"):   # report_table refuses inf/NaN
        for i, iid in enumerate(ids):
            bound = BOUNDS.get(iid)
            if bound is not None:
                c = np.array([bound.constant(p) for p in ps])
                lhs[..., i] = lp_sq if bound.side == "terminal" else sup_sq
                rhs[..., i] = c * (quad if bound.base == "square" else incr)
            elif iid is InequalityId.RIO_CHAIN:
                c = np.array([BOUNDS[InequalityId.PROP1_MAIN].constant(p) for p in ps])
                lhs[..., i] = lp_sq
                rhs[..., i] = start_sq + c * (incr - start_sq)
            else:  # DOOB
                c = np.array([p / (p - 1.0) for p in ps])
                lhs[..., i] = sup
                rhs[..., i] = c * lp
            constant[..., i] = c
    if not isinstance(notes, str):
        notes = list(notes)
        if len(notes) != trees:
            raise PreconditionError(f"need one note per tree, got {len(notes)} for "
                                    f"{trees} trees")
        notes = [note for note in notes for _ in range(lhs.size // trees)]
    return report_table(
        [iid.value for iid in ids] * (trees * len(levels) * len(ps)),
        [p for p in ps for _ in ids] * (trees * len(levels)),
        [float(n) for n in levels for _ in range(len(ps) * len(ids))] * trees,
        lhs.ravel(), rhs.ravel(), constant.ravel(), seed=seed, notes=notes)


def eval_rio_step(x_atoms: Sequence[tuple[float, Sequence[float]]],
                  y_given_x: Sequence[Sequence[tuple[float, Sequence[float]]]],
                  p, constant: float | None = None) -> InequalityReport:
    """One-step bound ||X+Y||_p^2 <= ||X||_p^2 + (p-1) ||Y||_p^2: RIO-CHAIN at
    level 1 on the Forest whose roots are the X atoms, weighted by their
    probabilities, each with its Y|X atoms as children.

    X is given as (prob, vector) atoms and y_given_x holds each X atom's
    conditional Y distribution, which the forest checks as it checks a tree's
    branches: a nonzero mean raises InvalidTreeError, a PreconditionError
    naming the X atom; an X atom with no Y atoms raises TreeStructureError.
    `constant`, a finite positive real, overrides p-1, as negative controls do.
    """
    p = as_exponent(p)
    c = (BOUNDS[InequalityId.PROP1_MAIN].constant(p) if constant is None
         else ptree.as_positive(constant, "constant"))
    if len(x_atoms) == 0 or len(x_atoms) != len(y_given_x):
        raise PreconditionError("need one conditional Y distribution per X atom")
    sizes = list(map(len, y_given_x))
    if 0 in sizes:
        raise TreeStructureError(f"X atom {sizes.index(0)} has no Y atoms: a leaf at depth 0 "
                                 "above the last level")
    ys = [atom for cond in y_given_x for atom in cond]
    forest = ptree.Forest(
        [x for _, x in x_atoms], np.repeat(np.arange(len(x_atoms)), sizes),
        ptree.as_float_array([q for q, _ in ys], "Y probabilities"),
        ptree.as_float_array([y for _, y in ys], "Y atoms"), weights=[q for q, _ in x_atoms])
    forest.require_valid("X atom")
    table = ptree.moments(forest, [p])
    start_sq, incr_sq = table.incr[0, 0, :2].tolist()   # ||X||_p^2, then plus ||Y||_p^2
    lhs, rhs, c = np.array([[float(table.lp[0, 0, 1]) ** 2],
                            [start_sq + c * (incr_sq - start_sq)], [c]])
    return report_table([InequalityId.RIO_STEP.value], [p], [1.0], lhs, rhs, c)[0]


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gauss_panels(f, edges: np.ndarray) -> float:
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(t.ravel()).reshape(t.shape)
    total = vals[:, 0] * _GL_WEIGHTS[0]   # each panel's weighted sum, left to right
    for i in range(1, len(_GL_WEIGHTS)):
        total += vals[:, i] * _GL_WEIGHTS[i]
    return float(np.sum(total * half))


def _graded_edges(anchors: list[float]) -> np.ndarray:
    """Panel edges on [0,1] geometrically refined toward every anchor.

    Algebraic singularities t^a sit at the anchors (interval ends and
    integrand kinks); grading resolves them where uniform halving would
    need dozens of rounds for a close to 0."""
    edges = set(anchors)
    for i, b in enumerate(anchors):
        for other in (anchors[i - 1] if i > 0 else None,
                      anchors[i + 1] if i + 1 < len(anchors) else None):
            if other is None:
                continue
            half = 0.5 * abs(other - b)
            sign = 1.0 if other > b else -1.0
            step = half
            while step > 1e-15:
                edges.add(b + sign * step)
                step *= _GRADING
    return np.unique(np.fromiter(edges, dtype=float))


def adaptive_panel_quadrature(f, breakpoints: Sequence[float] = (),
                              max_refine: int = 12) -> float:
    """Integrate f over [0,1] with 15-point Gauss panels, halving all panels
    until the total changes by less than QUAD_TOL * max(1, |integral|).

    Interior breakpoints (integrand kinks) become panel edges from the
    start, with geometrically graded panels toward them and toward 0 and 1.
    Raises QuadratureError with the achieved tolerance if refinement runs out.
    """
    anchors = sorted({0.0, 1.0, *(float(b) for b in breakpoints if 0.0 < b < 1.0)})
    edges = _graded_edges(anchors)
    prev = _gauss_panels(f, edges)
    achieved = float("inf")
    for _ in range(max_refine):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))
        cur = _gauss_panels(f, edges)
        achieved = abs(cur - prev)
        if achieved <= QUAD_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(
        f"quadrature did not converge to {QUAD_TOL:g} (achieved {achieved:.3g})",
        achieved=achieved)


@dataclass(frozen=True)
class TaylorBound:
    lhs: float
    rhs: float
    satisfied: bool


@refuse_overflow("a side of the Taylor bound")
def taylor_pointwise(x: Sequence[float], y: Sequence[float], p) -> TaylorBound:
    """Pointwise second-order bound for ||x+y||^p.

    lhs = ||x+y||^p
    rhs = ||x||^p + p ||x||^{p-2} <x,y>
          + p(p-1) * int_0^1 ||x+ty||^{p-2} ||y||^2 (1-t) dt

    The remainder integral is evaluated by adaptive panel quadrature with a
    panel edge at the norm minimizer t* = -<x,y>/||y||^2 when it lies in
    ]0,1[ (for 2 < p < 3 the integrand kinks there); at y = 0 the remainder
    term is exactly 0. A side or term scale that is not finite (say an
    overflowed p(p-1) times an underflowed integral) raises DomainError.
    """
    p = as_exponent(p)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("x and y must be 1-d vectors of equal dimension")
    for name, v in (("x", x), ("y", y)):
        if not np.isfinite(v).all():
            raise DomainError(f"{name}={v.tolist()} is not finite")
    # <y, y> and <x, y>, their terms added left to right, first coordinate first
    y_sq, inner = np.cumsum([y * y, x * y], axis=1)[:, -1].tolist() if len(y) else (0.0, 0.0)
    norm_x = float(ptree.row_norms(x))
    lhs = float(ptree.row_norms(x + y)) ** p
    head = norm_x ** p
    grad = p * norm_x ** (p - 2.0) * inner if inner != 0.0 else 0.0
    if y_sq == 0.0:
        taylor = 0.0
    else:
        def integrand(t: np.ndarray) -> np.ndarray:
            pts = x[None, :] + t[:, None] * y[None, :]
            r = ptree.row_norms(pts)
            return r ** (p - 2.0) * y_sq * (1.0 - t)

        t_star = -inner / y_sq
        taylor = p * (p - 1.0) * adaptive_panel_quadrature(integrand, breakpoints=(t_star,))
    rhs = head + grad + taylor
    # rhs is a cancelling sum; its roundoff scales with the summed terms,
    # so the width added to it must too
    scale = max(1.0, abs(lhs), head, abs(grad), taylor)
    if not all(map(math.isfinite, (lhs, rhs, scale))):
        raise DomainError(f"p={p:g}: a side of the Taylor bound is not finite "
                          f"(lhs={lhs}, rhs={rhs}, scale={scale})")
    tol = rhs + ABS_TOL * scale
    return TaylorBound(lhs=lhs, rhs=rhs, satisfied=bool(decide(lhs, lhs, tol, tol) == 1))


@dataclass(frozen=True)
class ConstantComparison:
    """Classic versus improved constants at one exponent."""

    p: float
    classic_main: float   # (p-1)^2
    new_main: float       # p-1
    classic_max: float    # p^2
    new_max: float        # p^2/(p-1)
    improved_main: bool
    improved_max: bool


def compare_constants(p) -> ConstantComparison:
    p = as_exponent(p)
    classic_main = BOUNDS[InequalityId.D_BURK_1].constant(p)
    new_main = BOUNDS[InequalityId.PROP1_MAIN].constant(p)
    classic_max = BOUNDS[InequalityId.D_BURK_2].constant(p)
    new_max = BOUNDS[InequalityId.PROP1_MAX].constant(p)
    return ConstantComparison(
        p=p, classic_main=classic_main, new_main=new_main,
        classic_max=classic_max, new_max=new_max,
        improved_main=new_main < classic_main,
        improved_max=new_max < classic_max)


def sweep_random_trees(count: int, max_depth: int, max_dim: int, seed: int,
                       p_values: Sequence[float],
                       ids: Sequence[InequalityId] = DISCRETE_EVAL_IDS,
                       ) -> ReportTable:
    """Evaluate `ids` on `count` random trees, every level, every exponent:
    tree by tree, the rows eval_tree gives each tree alone, each noted
    "tree=t depth=d dim=m".

    Tree t draws its depth in 1..max_depth and dimension in 1..max_dim from
    a substream derived from (seed, t), so the whole sweep is reproducible
    from the single seed. Before the first tree, the rows the deepest trees
    would give are charged against SWEEP_MEMORY_BUDGET. The trees of one
    depth are then drawn and evaluated as forests of ptree.forest_size trees
    at the largest dimension among them, each tree padded with zero
    coordinates to the widest, and each row put in its tree's place. Where
    a forest fails, the trees are evaluated one by one in order, so the
    sweep raises what its first failing tree raises alone.
    """
    count, max_depth, max_dim = (as_int(count, "count"), as_int(max_depth, "max_depth"),
                                 as_int(max_dim, "max_dim"))
    if count < 0 or max_depth < 1 or max_dim < 1:
        raise DomainError("random-tree sweep needs count >= 0, max_depth >= 1 "
                          "and max_dim >= 1")
    seed = as_seed(seed)
    p_values = ptree.as_exponents(p_values)
    ids = coerce_ids(InequalityId, ids)
    rows = count * (max_depth + 1) * len(p_values) * len(ids)
    if rows * _SWEEP_ROW_BYTES > SWEEP_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"a sweep of {count} trees up to depth {max_depth} may give {rows} report "
            f"rows, {rows * _SWEEP_ROW_BYTES} bytes at {_SWEEP_ROW_BYTES} bytes a row, "
            f"over the {SWEEP_MEMORY_BUDGET}-byte sweep memory budget")
    shapes, seeds = [], []   # each tree's (depth, dim) and tree seed
    groups: dict[int, list[int]] = {}   # the trees of each depth, in order
    for t in range(count):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(ptree.SPAWN_DOMAINS["sweep"], t))
        rng = np.random.Generator(np.random.Philox(ss))
        depth, dim = int(rng.integers(1, max_depth + 1)), int(rng.integers(1, max_dim + 1))
        shapes.append((depth, dim))
        seeds.append(ss.spawn(1)[0])
        groups.setdefault(depth, []).append(t)
    level_rows = len(p_values) * len(ids)
    starts = list(accumulate(((depth + 1) * level_rows for depth, _ in shapes), initial=0))
    columns = {name: [None] * starts[-1] for name in REPORT_FIELDS}
    try:
        for depth, trees in groups.items():
            size = ptree.forest_size(depth, max(shapes[t][1] for t in trees))
            n = (depth + 1) * level_rows   # rows per tree
            for i in range(0, len(trees), size):
                batch = trees[i:i + size]
                dims = [shapes[t][1] for t in batch]
                forest = ptree.random_forest(depth, dims, [seeds[t] for t in batch])
                table = eval_tree(forest, range(depth + 1), p_values, ids, seed=seed,
                                  notes=[f"tree={t} depth={depth} dim={dim}"
                                         for t, dim in zip(batch, dims)])
                for j, t in enumerate(batch):
                    for name, column in columns.items():
                        column[starts[t]:starts[t] + n] = table.columns[name][j * n:(j + 1) * n]
    except MartcheckError:
        for (depth, dim), tree_seed in zip(shapes, seeds):
            eval_tree(ptree.random_tree(depth, dim, tree_seed), range(depth + 1),
                      p_values, ids)
        raise
    return ReportTable(columns)
