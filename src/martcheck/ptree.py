"""Finite filtered probability trees and their exact L^p martingale calculus.

A tree carries a discrete martingale: the root holds the starting value M_0,
every edge carries a transition probability and an increment vector, and the
level index plays the role of time. All moments are computed by exact
enumeration (no sampling), level by level, so results are reproducible to
floating-point roundoff.

Conventions
-----------
* d_0 = M_0: the starting value counts as the increment at level 0.
* buildup is level-wise; each level's node order is the depth-first order of
  the tree, which fixes every summation order.
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

_TREE_STREAM = 11     # spawn-key domain tag for random tree generation


def as_exponent(p) -> float:
    """p as a float moment exponent; only 2 <= p < inf is admitted anywhere."""
    if not 2.0 <= float(p) < np.inf:   # NaN fails too
        raise DomainError(f"exponent must satisfy 2 <= p < inf, got {p!r}")
    return float(p)


@dataclass(frozen=True)
class Branch:
    """One edge: transition probability, increment vector, child node."""

    prob: float
    incr: tuple[float, ...]
    node: "TreeNode"


@dataclass(frozen=True)
class TreeNode:
    children: tuple[Branch, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class Violation:
    """One failed invariant, located by the child-index path from the root.

    kind is one of "structure" (non-uniform depth, wrong increment
    dimension, non-finite increment), "probability" (branch probabilities
    outside ]0,1] or not summing to one) and "martingale" (nonzero
    conditional increment mean).
    residual quantifies the failure.
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
    root : TreeNode
        Root of the branching structure. Every leaf must sit at the same
        depth N for the tree to validate.
    """

    def __init__(self, m0: Sequence[float], root: TreeNode):
        m0 = tuple(float(v) for v in m0)
        if len(m0) == 0:
            raise TreeStructureError("m0 must have dimension >= 1")
        self.m0 = m0
        self.root = root
        self.dim = len(m0)
        self.depth = _max_leaf_depth(root)
        self._verdict: ValidationResult | None = None
        self._calc: _LevelCalc | None = None

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


def _max_leaf_depth(root: TreeNode) -> int:
    depth = 0
    stack = [(root, 0)]
    while stack:
        node, lvl = stack.pop()
        if node.is_leaf:
            depth = max(depth, lvl)
        else:
            stack.extend((br.node, lvl + 1) for br in node.children)
    return depth


def _validate_tree(tree: ProbTree) -> ValidationResult:
    out: list[Violation] = []
    stack = [(tree.root, ())]
    while stack:
        node, path = stack.pop()
        if node.is_leaf:
            if len(path) != tree.depth:
                out.append(Violation(
                    "structure", path, float(tree.depth - len(path)),
                    f"leaf at depth {len(path)} in a depth-{tree.depth} tree at {path}"))
            continue
        probs = np.array([br.prob for br in node.children], dtype=float)
        bad_dim = [i for i, br in enumerate(node.children) if len(br.incr) != tree.dim]
        if bad_dim:
            out.append(Violation(
                "structure", path, float(len(bad_dim)),
                f"increment dimension != {tree.dim} on children {bad_dim} at {path}"))
            # cannot form the conditional mean with ragged rows
            stack.extend((br.node, path + (i,)) for i, br in enumerate(node.children))
            continue
        incr = np.array([br.incr for br in node.children], dtype=float)
        finite = np.isfinite(incr)
        if not finite.all():
            bad_value = np.flatnonzero(~finite.all(axis=1)).tolist()
            out.append(Violation(
                "structure", path, float(len(bad_value)),
                f"non-finite increment on children {bad_value} at {path}"))
        if not (probs.min() > 0.0 and probs.max() <= 1.0):   # NaN fails too
            worst = float(np.max(np.maximum(probs - 1.0, -probs)))
            worst = float("inf") if np.isnan(worst) else worst
            out.append(Violation(
                "probability", path, worst,
                f"branch probability outside ]0,1] at {path}"))
        psum = float(abs(probs.sum() - 1.0))
        if psum > PROB_TOL:
            out.append(Violation(
                "probability", path, psum,
                f"branch probabilities sum to 1{psum:+.3g} at {path}"))
        resid = float(np.linalg.norm(probs @ incr))
        if resid > PROB_TOL:
            out.append(Violation(
                "martingale", path, resid,
                f"conditional increment mean has norm {resid:.3g} at {path}"))
        stack.extend((br.node, path + (i,)) for i, br in enumerate(node.children))
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


def _level_edges(nodes: list[TreeNode]):
    """Flatten one level's branches into parent indices and edge arrays."""
    parent_idx: list[int] = []
    probs: list[float] = []
    incrs: list[tuple[float, ...]] = []
    children: list[TreeNode] = []
    for i, node in enumerate(nodes):
        for br in node.children:
            parent_idx.append(i)
            probs.append(br.prob)
            incrs.append(br.incr)
            children.append(br.node)
    return (np.array(parent_idx, dtype=np.intp), np.array(probs, dtype=float),
            np.array(incrs, dtype=float), children)


def _build_calc(tree: ProbTree) -> _LevelCalc:
    values = [np.array([tree.m0], dtype=float)]
    root_norm = np.array([np.linalg.norm(tree.m0)])
    probs = [np.ones(1)]
    m_norm = [root_norm]
    sup_norm = [root_norm.copy()]
    quad = [root_norm**2]
    d_norm = [root_norm.copy()]
    nodes = [tree.root]
    for _ in range(tree.depth):
        pidx, bprob, bincr, nodes = _level_edges(nodes)
        if len(nodes) > MAX_PATHS:
            raise ResourceLimitError(
                f"tree level exceeds the {MAX_PATHS} path enumeration cap")
        values.append(values[-1][pidx] + bincr)
        nn = np.linalg.norm(values[-1], axis=1)
        dn = np.linalg.norm(bincr, axis=1)
        probs.append(probs[-1][pidx] * bprob)
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

    Branching factors come from `branching` (each >= 2), branch
    probabilities are normalized positive draws, and each raw uniform
    [-1,1]^dim increment is recentred by the conditional mean at its node
    so the martingale property holds to roundoff. `seed` may be an int or a
    SeedSequence. A tree whose last level could exceed MAX_PATHS nodes
    (max(branching) ** depth) raises ResourceLimitError before any draw.
    """
    depth = int(depth)
    dim = int(dim)
    if depth < 0 or dim < 1:
        raise DomainError("random_tree needs depth >= 0 and dim >= 1")
    if len(branching) == 0 or min(branching) < 2:
        raise DomainError(f"branching factors must be >= 2, got {tuple(branching)}")
    if int(max(branching)) ** depth > MAX_PATHS:
        raise ResourceLimitError(
            f"depth-{depth} trees with branching up to {max(branching)} exceed "
            f"the {MAX_PATHS} path enumeration cap")
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_TREE_STREAM,))
    rng = np.random.Generator(np.random.Philox(ss))
    m0 = tuple(float(v) for v in rng.uniform(-1.0, 1.0, dim))

    def grow(level: int) -> TreeNode:
        if level == depth:
            return TreeNode()
        width = int(rng.choice(np.asarray(branching)))
        raw_p = rng.uniform(0.1, 1.0, width)
        probs = raw_p / raw_p.sum()
        incr = rng.uniform(-1.0, 1.0, (width, dim))
        incr -= probs @ incr
        return TreeNode(tuple(
            Branch(float(probs[i]), tuple(float(v) for v in incr[i]), grow(level + 1))
            for i in range(width)))

    return ProbTree(m0, grow(0))


def symmetric_walk(depth: int, step: float = 1.0, m0: float = 0.0) -> ProbTree:
    """Scalar +-step random walk of the given depth, started at m0."""
    node = TreeNode()
    for _ in range(int(depth)):
        node = TreeNode((
            Branch(0.5, (float(step),), node),
            Branch(0.5, (float(-step),), node),
        ))
    return ProbTree((float(m0),), node)
