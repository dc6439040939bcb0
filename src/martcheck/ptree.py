"""Finite filtered probability trees and their exact L^p martingale calculus.

A tree carries a discrete martingale: the root holds the starting value M_0,
every edge carries a transition probability and an increment vector, and the
level index plays the role of time. All moments are computed by exact
enumeration (no sampling), level by level, so results are reproducible to
floating-point roundoff.

Conventions
-----------
* d_0 = M_0: the starting value counts as the increment at level 0.
* a tree is stored level by level (see Level); each level's node order is the
  depth-first order of the tree, which fixes every summation order.
* ProbTree(m0, levels) is the one constructor: random_tree, symmetric_walk
  and formats.parse_tree all build the level arrays and hand them over, and
  formats.tree_to_obj writes a document back from them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    InvalidTreeError,
    LevelRangeError,
    ResourceLimitError,
    TreeStructureError,
)

PROB_TOL = 1e-12      # tolerance for probability sums and conditional means
MAX_PATHS = 10**7     # hard bound on exact enumeration width
MAX_TREE_BYTES = 1 << 30   # hard bound on the memory random_tree may hold

_TREE_STREAM = 11     # spawn-key domain tag for random tree generation


def as_exponent(p) -> float:
    """p as a float moment exponent; only 2 <= p < inf is admitted anywhere."""
    if not 2.0 <= float(p) < np.inf:   # NaN fails too
        raise DomainError(f"exponent must satisfy 2 <= p < inf, got {p!r}")
    return float(p)


@dataclass(frozen=True)
class Branch:
    """One edge of ProbTree.root's graph: transition probability, increment
    vector, child node."""

    prob: float
    incr: tuple[float, ...]
    node: "TreeNode"


@dataclass
class TreeNode:
    children: list[Branch]


@dataclass(frozen=True, eq=False)
class Level:
    """The n nodes of one level k >= 1, in depth-first order.

    parent[i] indexes node i's parent on level k-1 (non-decreasing, so
    siblings are contiguous), prob[i] is the probability of the branch into
    node i and incr[i] its increment, a row of the (n, d) array.
    """

    parent: np.ndarray
    prob: np.ndarray
    incr: np.ndarray


@dataclass(frozen=True)
class Violation:
    """One failed invariant, located by the child-index path from the root.

    kind is one of "structure" (non-uniform depth, non-finite increment),
    "probability" (branch probabilities outside ]0,1] or not summing to
    one) and "martingale" (nonzero conditional increment mean). residual
    quantifies the failure.
    """

    kind: str
    path: tuple[int, ...]
    residual: float
    message: str


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[Violation, ...]

    def summary(self, limit: int = 5) -> str:
        if self.ok:
            return "valid"
        shown = "; ".join(v.message for v in self.violations[:limit])
        extra = len(self.violations) - limit
        return shown + (f"; and {extra} more" if extra > 0 else "")


@dataclass(frozen=True)
class LevelProcess:
    """Adapted view of a process at one level: one value row per node.

    Rows follow the level's depth-first node order, the same order used by
    every enumeration in this module.
    """

    level: int
    probs: np.ndarray   # (c,) node probabilities
    values: np.ndarray  # (c, d) process values


class ProbTree:
    """A finite filtered probability space with an attached martingale.

    Parameters
    ----------
    m0 : sequence of float
        Starting value M_0 in R^d; its length fixes the dimension d.
    levels : sequence of Level
        Level k at index k-1, kept without a copy. Its parent must be a
        non-decreasing 1-D intp array into level k-1, prob of shape (n,) and
        incr (n, d), or TreeStructureError is raised. The tree validates
        only if every node above the last level has a child.
    """

    def __init__(self, m0: Sequence[float], levels: Sequence[Level]):
        m0 = tuple(float(v) for v in m0)
        if len(m0) == 0:
            raise TreeStructureError("m0 must have dimension >= 1")
        levels = tuple(levels)
        n = 1   # nodes on the level above
        for k, lvl in enumerate(levels, start=1):
            parent = lvl.parent
            if not (isinstance(parent, np.ndarray) and parent.ndim == 1
                    and parent.dtype == np.intp):
                raise TreeStructureError(f"level {k}: parent must be a 1-D intp array")
            if len(parent) and (parent[0] < 0 or parent[-1] >= n
                                or (np.diff(parent) < 0).any()):
                raise TreeStructureError(
                    f"level {k}: parent must be non-decreasing in 0..{n - 1}")
            n = len(parent)
            shapes = (getattr(lvl.prob, "shape", None), getattr(lvl.incr, "shape", None))
            if shapes != ((n,), (n, len(m0))):
                raise TreeStructureError(f"level {k}: prob and incr must have shapes "
                                         f"({n},) and ({n}, {len(m0)})")
        self.m0 = m0
        self.dim = len(m0)
        self.levels = levels
        self.depth = len(levels)
        self._verdict: ValidationResult | None = None
        self._calc: _LevelCalc | None = None

    @property
    def root(self) -> TreeNode:
        """The tree as a TreeNode graph, built from the levels on each read.
        Only the benchmark's node count (perfbench/tracing.py) reads it; it
        goes, with _graph, Branch and TreeNode, once that count reads levels."""
        return _graph(self.levels)

    def validate(self) -> ValidationResult:
        if self._verdict is None:
            self._verdict = _validate_tree(self)
        return self._verdict

    def require_valid(self) -> None:
        verdict = self.validate()
        if verdict.ok:
            return
        if any(v.kind == "structure" for v in verdict.violations):
            raise TreeStructureError(f"malformed tree: {verdict.summary()}")
        raise InvalidTreeError(f"invalid tree: {verdict.summary()}", verdict)

    def calculus(self) -> "_LevelCalc":
        self.require_valid()
        if self._calc is None:
            self._calc = _build_calc(self)
        return self._calc


def _graph(levels: Sequence[Level]) -> TreeNode:
    """The TreeNode graph of a tree's levels, built top down."""
    nodes = [TreeNode([])]
    root = nodes[0]
    for lvl in levels:
        below = [TreeNode([]) for _ in range(len(lvl.parent))]
        for i, prob, incr, node in zip(lvl.parent.tolist(), lvl.prob.tolist(),
                                       lvl.incr.tolist(), below):
            nodes[i].children.append(Branch(prob, tuple(incr), node))
        nodes = below
    return root


def _path(levels: Sequence[Level], k: int, i: int) -> tuple[int, ...]:
    """Child-index path from the root to node i on level k."""
    path = []
    for lvl in reversed(levels[:k]):
        up = int(lvl.parent[i])
        path.append(i - int(np.searchsorted(lvl.parent, up)))
        i = up
    return tuple(reversed(path))


def _validate_tree(tree: ProbTree) -> ValidationResult:
    """Check every level's sibling groups at once; violations, and the paths
    that locate them, are built only for the groups that fail."""
    out: list[Violation] = []
    levels = tree.levels
    for k, lvl in enumerate(levels, start=1):
        above = len(levels[k - 2].parent) if k > 1 else 1
        for i in np.flatnonzero(np.bincount(lvl.parent, minlength=above) == 0).tolist():
            path = _path(levels, k - 1, i)
            out.append(Violation(
                "structure", path, float(tree.depth - len(path)),
                f"leaf at depth {len(path)} in a depth-{tree.depth} tree at {path}"))
        prob = lvl.prob
        starts = np.flatnonzero(np.diff(lvl.parent, prepend=-1))
        ends = np.append(starts[1:], len(prob))
        non_finite = ~np.isfinite(lvl.incr).all(axis=1)
        any_non_finite = np.logical_or.reduceat(non_finite, starts)
        any_outside = np.logical_or.reduceat(~((prob > 0.0) & (prob <= 1.0)), starts)
        excess = np.add.reduceat(prob, starts) - 1.0
        resid = np.linalg.norm(np.add.reduceat(prob[:, None] * lvl.incr, starts), axis=1)
        failed = (any_non_finite | any_outside
                  | (np.abs(excess) > PROB_TOL) | (resid > PROB_TOL))
        for g in np.flatnonzero(failed).tolist():
            path = _path(levels, k - 1, int(lvl.parent[starts[g]]))
            rows = slice(starts[g], ends[g])
            if any_non_finite[g]:
                bad = np.flatnonzero(non_finite[rows]).tolist()
                out.append(Violation(
                    "structure", path, float(len(bad)),
                    f"non-finite increment on children {bad} at {path}"))
            if any_outside[g]:   # NaN fails too
                worst = float(np.max(np.maximum(prob[rows] - 1.0, -prob[rows])))
                worst = float("inf") if np.isnan(worst) else worst
                out.append(Violation(
                    "probability", path, worst,
                    f"branch probability outside ]0,1] at {path}"))
            if abs(excess[g]) > PROB_TOL:
                out.append(Violation(
                    "probability", path, float(abs(excess[g])),
                    f"branch probabilities sum to 1{excess[g]:+.3g} at {path}"))
            if resid[g] > PROB_TOL:
                out.append(Violation(
                    "martingale", path, float(resid[g]),
                    f"conditional increment mean has norm {resid[g]:.3g} at {path}"))
    out.sort(key=lambda v: (len(v.path), v.path, v.kind))
    return ValidationResult(ok=not out, violations=tuple(out))


@dataclass(frozen=True)
class _LevelCalc:
    """Per-level node summaries, one entry per node, depth-first order.

    probs[k]     node probability
    values[k]    M_k at the node, one row per node
    m_norm[k]    ||M_k|| at the node
    sup_norm[k]  max_{v <= k} ||M_v|| along the node's history
    quad[k]      sum_{v <= k} ||d_v||^2 along the node's history
    d_norm[k]    ||d_k|| of the edge entering the node (||M_0|| at the root)
    """

    probs: list
    values: list
    m_norm: list
    sup_norm: list
    quad: list
    d_norm: list


@np.errstate(over="ignore")   # norms beyond the float range: exact_report refuses them
def _build_calc(tree: ProbTree) -> _LevelCalc:
    values = [np.array([tree.m0], dtype=float)]
    root_norm = np.array([np.linalg.norm(tree.m0)])
    probs = [np.ones(1)]
    m_norm = [root_norm]
    sup_norm = [root_norm.copy()]
    quad = [root_norm**2]
    d_norm = [root_norm.copy()]
    for lvl in tree.levels:
        if len(lvl.parent) > MAX_PATHS:
            raise ResourceLimitError(
                f"tree level exceeds the {MAX_PATHS} path enumeration cap")
        pidx = lvl.parent
        values.append(values[-1][pidx] + lvl.incr)
        nn = np.linalg.norm(values[-1], axis=1)
        dn = np.linalg.norm(lvl.incr, axis=1)
        probs.append(probs[-1][pidx] * lvl.prob)
        m_norm.append(nn)
        sup_norm.append(np.maximum(sup_norm[-1][pidx], nn))
        quad.append(quad[-1][pidx] + dn**2)
        d_norm.append(dn)
    return _LevelCalc(probs, values, m_norm, sup_norm, quad, d_norm)


def _check_level(n, depth: int) -> int:
    n = int(n)
    if n < 0 or n > depth:
        raise LevelRangeError(f"level n={n} outside 0..{depth}")
    return n


@dataclass(frozen=True, eq=False)
class Moments:
    """One tree's exact moments at exponent p, entry k for level k:
    m[k] = E ||M_k||^p, sup[k] = E (max_{v <= k} ||M_v||)^p,
    quad[k] = E (sum_{v <= k} ||d_v||^2)^{p/2} and
    incr[k] = sum_{v <= k} ||d_v||_{L^p}^2, the level-0 term being ||M_0||^2."""

    p: float
    m: np.ndarray
    sup: np.ndarray
    quad: np.ndarray
    incr: np.ndarray

    def norms(self, n) -> tuple[float, float, float, float]:
        """(||M_n||_p, ||max_{v <= n} ||M_v|| ||_p, ||sum_{k <= n} ||d_k||^2||_{p/2},
        incr[n]) at a checked level n, each root taken on its scalar level sum."""
        n = _check_level(n, len(self.m) - 1)
        return (float(self.m[n] ** (1.0 / self.p)), float(self.sup[n] ** (1.0 / self.p)),
                float(self.quad[n] ** (2.0 / self.p)), float(self.incr[n]))


@np.errstate(over="ignore")   # sums beyond the float range: exact_report refuses them
def moments(tree: ProbTree, p) -> Moments:
    """Reduce a valid tree's level walk to its Moments table at exponent p."""
    p = as_exponent(p)
    calc = tree.calculus()

    def level_sums(norms, e):
        return np.array([np.sum(w * r ** e) for w, r in zip(calc.probs, norms)])

    d_sq = [s ** (2.0 / p) for s in level_sums(calc.d_norm, p)]
    return Moments(p, level_sums(calc.m_norm, p), level_sums(calc.sup_norm, p),
                   level_sums(calc.quad, p / 2.0), np.cumsum(d_sq))   # left to right


def lp_norm(tree: ProbTree, n: int, p) -> float:
    """||M_n||_{L^p}, read from moments(tree, p)."""
    return moments(tree, p).norms(n)[0]


def sup_lp_norm(tree: ProbTree, n: int, p) -> float:
    """|| max_{v <= n} ||M_v|| ||_{L^p}, read from moments(tree, p)."""
    return moments(tree, p).norms(n)[1]


def quadratic_sum_norm(tree: ProbTree, n: int, p) -> float:
    """|| sum_{k<=n} ||d_k||^2 ||_{L^{p/2}}, read from moments(tree, p)."""
    return moments(tree, p).norms(n)[2]


def increment_lp_sum(tree: ProbTree, n: int, p) -> float:
    """sum_{k<=n} ||d_k||_{L^p}^2 (level-0 term ||M_0||^2), read from moments(tree, p)."""
    return moments(tree, p).norms(n)[3]


def martingale_level(tree: ProbTree, n: int) -> LevelProcess:
    """M_n on level n as a LevelProcess (depth-first node order), copied from
    the tree's level walk, so it raises ResourceLimitError past MAX_PATHS."""
    calc = tree.calculus()
    n = _check_level(n, tree.depth)
    return LevelProcess(n, calc.probs[n].copy(), calc.values[n].copy())


def random_tree(depth: int, dim: int, seed, branching: Sequence[int] = (2, 3)) -> ProbTree:
    """Draw a martingale-valid random tree.

    The branching factors come from `branching` (each >= 2), branch
    probabilities are normalized positive draws, and each raw uniform
    [-1,1]^dim increment is recentred by the conditional mean at its node
    so the martingale property holds to roundoff. `seed` may be an int or a
    SeedSequence. A tree whose last level could hold more than MAX_PATHS
    increment entries (max(branching) ** depth * dim), or whose nodes could
    need more than MAX_TREE_BYTES while drawn, raises ResourceLimitError
    before any draw.
    """
    depth = int(depth)
    dim = int(dim)
    if depth < 0 or dim < 1:
        raise DomainError("random_tree needs depth >= 0 and dim >= 1")
    if len(branching) == 0 or min(branching) < 2:
        raise DomainError(f"branching factors must be >= 2, got {tuple(branching)}")
    width = int(max(branching))
    # from MAX_PATHS.bit_length() levels on even binary trees exceed the cap,
    # so the power never grows into a huge integer
    if width ** min(depth, MAX_PATHS.bit_length()) * dim > MAX_PATHS:
        raise ResourceLimitError(
            f"depth-{depth} trees of dimension {dim} with branching up to "
            f"{width} exceed the {MAX_PATHS} path enumeration cap")
    # every node counts at its peak while drawn, as measured: <= 264 B at d = 1
    # (binary trees hold the most per node) and ~18 B more per dimension
    need = (width ** (depth + 1) - 1) // (width - 1) * (256 + 24 * dim)
    if need > MAX_TREE_BYTES:
        raise ResourceLimitError(
            f"depth-{depth} trees of dimension {dim} with branching up to {width} need "
            f"about {need} bytes, over the {MAX_TREE_BYTES}-byte tree memory budget")
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_TREE_STREAM,))
    rng = np.random.Generator(np.random.Philox(ss))
    m0 = tuple(float(v) for v in rng.uniform(-1.0, 1.0, dim))
    # entry k of each list serves level k+1: its parents' widths, then its
    # branch probabilities and increments, appended in depth-first order
    widths: list[list[int]] = [[] for _ in range(depth)]
    probs: list[list[np.ndarray]] = [[] for _ in range(depth)]
    incrs: list[list[np.ndarray]] = [[] for _ in range(depth)]
    # one uniform draw per node holds its children's raw probabilities on
    # [0.1, 1[ and raw increments on [-1, 1[, mapped as Generator.uniform does
    lo = {int(w): np.repeat((0.1, -1.0), (w, w * dim)) for w in branching}
    span = {int(w): np.repeat((1.0 - 0.1, 1.0 - -1.0), (w, w * dim)) for w in branching}
    stack = [0] if depth else []   # levels of the internal nodes still to draw
    while stack:                   # depth-first preorder fixes the draw order
        k = stack.pop()
        width = int(branching[rng.integers(0, len(branching))])
        draw = rng.random(width * (1 + dim))
        draw *= span[width]
        draw += lo[width]
        prob = draw[:width]
        incr = draw[width:].reshape(width, dim)
        prob /= np.add.reduce(prob)
        incr -= prob @ incr
        widths[k].append(width)
        probs[k].append(prob)
        incrs[k].append(incr)
        if k + 1 < depth:
            stack.extend([k + 1] * width)
    return ProbTree(m0, [
        Level(np.repeat(np.arange(len(widths[k]), dtype=np.intp), widths[k]),
              np.concatenate(probs[k]), np.concatenate(incrs[k]))
        for k in range(depth)])


def symmetric_walk(depth: int, step: float = 1.0, m0: float = 0.0) -> ProbTree:
    """Scalar +-step random walk of the given depth, started at m0."""
    rows = np.array([[float(step)], [float(-step)]])
    return ProbTree((float(m0),), [
        Level(np.repeat(np.arange(2**k, dtype=np.intp), 2), np.full(2 ** (k + 1), 0.5),
              np.tile(rows, (2**k, 1)))
        for k in range(int(depth))])
