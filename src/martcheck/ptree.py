"""Finite filtered probability trees and their exact L^p martingale calculus.

A tree carries a discrete martingale: the root holds the starting value M_0,
every edge carries a transition probability and an increment vector, and the
level index plays the role of time. All moments are computed by exact
enumeration (no sampling), so results are reproducible to floating-point
roundoff.

Conventions
-----------
* d_0 = M_0: the starting value counts as the increment at level 0.
* a forest is several trees of one depth held as one set of node arrays,
  level-major: the roots are nodes 0..T-1, then level k holds every tree's
  level-k nodes, tree by tree, each tree's nodes in its depth-first order,
  which fixes every summation order. Trees of any dimensions may share a
  forest, each padded with zero coordinates to the widest of them: every
  norm over coordinates adds its squares left to right (row_norms), so the
  zeros leave a tree's bits alone. forest.tree_bounds locates each tree's
  share of each level. A ProbTree is the forest of one tree;
  ProbTree(m0, parent, prob, incr) builds one from the rows below its root,
  as random_tree, symmetric_walk and formats.parse_tree do, and
  formats.tree_to_obj writes a document back from them.
* the constructor checks, validation, the level calculus and the moment
  table each take one pass over a whole forest's node arrays, so numpy's
  call overhead is paid once per forest, not once per tree or level, and
  each tree keeps the bits it has alone. Two steps stay per level: the
  calculus's parent gather, as a level needs the level above done; and
  each tree's share of a level stays one moment sum, whose pairwise
  summation order fixes the bits.
* random_forest draws many seeds' trees at once: each tree draws a level
  at a time from its own Generator, then the forest's probabilities and
  increments are scaled, normalised and centred together. random_tree is
  its forest of one. The RANDOM-TREE search and the random-tree sweep draw
  and evaluate their trees as forests of forest_size trees, the sweep one
  depth at a time.
"""
from __future__ import annotations

import numbers
import sys
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
FOREST_BYTES = 1 << 22     # bytes tree_bytes may charge one forest a caller draws


def as_exponent(p) -> float:
    """p as a float moment exponent; only 2 <= p < inf is admitted anywhere,
    and a value float() refuses raises DomainError too."""
    try:
        value = float(p)
    except (TypeError, ValueError, OverflowError):
        value = float("nan")
    if not 2.0 <= value < np.inf:   # NaN fails too
        raise DomainError(f"exponent must satisfy 2 <= p < inf, got {p!r}")
    return value


def as_sequence(values, name: str) -> list:
    """values as a list; a string, which would be read letter by letter, or
    a scalar raises DomainError."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise DomainError(f"{name} must be a sequence, got {values!r}")
    return list(values)


def as_exponents(values) -> tuple[float, ...]:
    """values as a tuple of moment exponents (see as_exponent); a string or a
    scalar raises DomainError."""
    return tuple(map(as_exponent, as_sequence(values, "exponents")))


def as_positive(value, name: str) -> float:
    """value as a float; only a finite positive real, not a bool, is admitted."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value < np.inf):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def as_int(value, name: str, error: type[Exception] = DomainError) -> int:
    """value as an int, for the counts, sizes, levels and seeds of the API.

    Ints, numpy integers and floats of integral value are admitted; a bool,
    a fraction, NaN, an infinity or anything else raises `error`, so no
    argument is silently truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)   # NaN and the infinities are not integers
    raise error(f"{name} must be an integer, got {value!r}")


#: the first spawn-key entry of each seeded stream: Wiener path blocks, random
#: trees, the random-tree sweep's shapes and the random search's points
SPAWN_DOMAINS = {"wiener": 10, "tree": 11, "sweep": 12, "search": 13}


def as_seed(seed) -> int:
    """seed as an int seed; only non-negative integers are admitted anywhere."""
    seed = as_int(seed, "seed")
    if seed < 0:
        raise DomainError("seed must be a non-negative integer")
    return seed


def row_norms(x) -> np.ndarray:
    """The Euclidean norms over the last axis of x, each one's squares added
    left to right, first coordinate first: numpy's own row sums below 8
    coordinates, bit for bit, and zero coordinates appended to a vector leave
    its norm's bits alone at every width (numpy sums 8 or more pairwise)."""
    total = np.zeros(np.shape(x)[:-1])
    for i in range(np.shape(x)[-1]):
        total += np.square(x[..., i])
    return np.sqrt(total, out=total)


def as_float_array(values, name: str) -> np.ndarray:
    """values as a float array; ragged rows or non-numbers raise TreeStructureError."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise TreeStructureError(f"{name} must be numbers in rows of one length") from None


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


class Forest:
    """Trees of one depth, held as one set of node arrays.

    Parameters
    ----------
    roots : array-like of shape (trees, d)
        M_0 of each tree; the row length fixes the forest's width d.
    parent, prob, incr : arrays
        The n nodes below the roots, level-major: level k holds every tree's
        level-k nodes, tree by tree, each tree's nodes in its depth-first
        order. Nodes 0 to trees - 1 are the roots and row i is node
        trees + i: parent[i] is the node number of its parent, prob[i] the
        probability of the branch into it and incr[i] its increment. parent
        must be a 1-D intp array that starts at 0 and never decreases, each
        parent on the level above its child; prob and incr are real arrays
        of shapes (n,) and (n, d).
        Anything else raises TreeStructureError. A tree validates only if
        every node above the last level has a child.
    weights : array-like of shape (trees,), optional
        The law of M_0, positive and summing to 1 (else InvalidTreeError).

    A tree of a dimension below d holds 0 in its other coordinates, which
    change none of its bits. The forest keeps the arrays roots first, as
    copies: parent (-1 at each root), prob (1 at each root) and incr (M_0 at
    each root). Level k holds nodes bounds[k] to bounds[k+1] - 1, and tree
    t's share of it nodes tree_bounds[k][t] to tree_bounds[k][t+1] - 1. Each
    tree's checks, verdict, calculus and unweighted moments are those it has
    alone; the error of a tree that fails its checks also names it by its
    index.
    """

    def __init__(self, roots, parent: np.ndarray, prob: np.ndarray, incr: np.ndarray,
                 weights=None):
        roots = as_float_array(roots, "roots")
        if roots.ndim != 2 or 0 in roots.shape:
            raise TreeStructureError("roots must be a (trees, d) array with trees, d >= 1")
        trees, dim = roots.shape
        if not (isinstance(parent, np.ndarray) and parent.ndim == 1
                and parent.dtype == np.intp):
            raise TreeStructureError("parent must be a 1-D intp array")
        n = len(parent)
        if ((getattr(prob, "shape", None), getattr(incr, "shape", None)) != ((n,), (n, dim))
                or not {prob.dtype.kind, incr.dtype.kind} <= set("buif")):
            raise TreeStructureError(f"prob and incr must be real arrays of shapes ({n},) "
                                     f"and ({n}, {dim})")
        if n and (parent[0] != 0 or np.diff(parent).min(initial=0) < 0):
            raise TreeStructureError("parent must start at 0 and never decrease")
        if weights is not None:
            weights = as_float_array(weights, "weights")
            if weights.shape != (trees,):
                raise TreeStructureError(f"weights must be one per tree, shape ({trees},)")
            if not ((weights > 0.0).all() and abs(weights.sum() - 1.0) <= PROB_TOL):
                raise InvalidTreeError("root weights must be positive and sum to 1, got "
                                       f"{weights.tolist()}")
        self.weights = weights
        self.parent = np.concatenate(([-1] * trees, parent))
        # per level, where each tree's share starts, then the level's end: the
        # next level is every node whose parent lies on the last level found,
        # a tree's share the nodes whose parents lie in its share above; a
        # level that adds no node leaves a parent at or after its node
        cuts = [list(range(trees + 1))]
        while cuts[-1][-1] < trees + n:
            below = self.parent.searchsorted(cuts[-1]).tolist()
            end = below[-1]
            if end == cuts[-1][-1]:
                raise TreeStructureError(f"parent[{end - trees}] = {parent[end - trees]} is "
                                         f"not above its node {end}")
            cuts.append(below)
        self.trees = trees
        self.dim = dim
        self.depth = len(cuts) - 1
        self.tree_bounds = tuple(map(tuple, cuts))
        self.bounds = tuple(row[0] for row in cuts) + (trees + n,)
        self.prob = np.concatenate(([1.0] * trees, prob))
        self.incr = np.concatenate((roots, incr))
        self._verdicts: tuple[ValidationResult, ...] | None = None
        self._calc: _LevelCalc | None = None

    def validate(self, tree: int = 0) -> ValidationResult:
        """The verdict on tree `tree`, from one validation pass over the forest."""
        if self._verdicts is None:
            self._verdicts = _validate(self)
        return self._verdicts[tree]

    def require_valid(self, name: str = "tree") -> None:
        """Raise what the first tree that fails validation raises alone; in a
        forest of more than one, the message names it: `name` and its index."""
        for tree in range(self.trees):
            verdict = self.validate(tree)
            if verdict.ok:
                continue
            which = f"{name} {tree}: " if self.trees > 1 else ""
            if any(v.kind == "structure" for v in verdict.violations):
                raise TreeStructureError(f"malformed tree: {which}{verdict.summary()}")
            raise InvalidTreeError(f"invalid tree: {which}{verdict.summary()}", verdict)

    def calculus(self) -> "_LevelCalc":
        self.require_valid()
        if self._calc is None:
            self._calc = _build_calc(self)
        return self._calc


class ProbTree(Forest):
    """A finite filtered probability space with an attached martingale: the
    forest of one tree.

    Parameters
    ----------
    m0 : sequence of float
        Starting value M_0 in R^d; its length fixes the dimension d.
    parent, prob, incr : arrays
        The n nodes below the root, in level order, each level in
        depth-first order, as for a Forest of the one root m0: node 0 is the
        root and row i is node i + 1.

    tree.parent[0] is -1, tree.prob[0] is 1, tree.incr[0] is M_0, and level
    k holds nodes tree.bounds[k] to tree.bounds[k+1] - 1.
    """

    def __init__(self, m0: Sequence[float], parent: np.ndarray, prob: np.ndarray,
                 incr: np.ndarray):
        m0 = tuple(float(v) for v in m0)
        super().__init__([m0], parent, prob, incr)
        self.m0 = m0


def _path(parent: np.ndarray, roots: int, node: int) -> tuple[int, tuple[int, ...]]:
    """The tree a node is in and the child-index path from its root to the
    node, given by its node number; parent is the forest's non-decreasing
    parent array, so a node's first sibling is the first entry that holds
    their parent."""
    path = []
    while node >= roots:
        up = int(parent[node])
        path.append(node - int(np.searchsorted(parent, up)))
        node = up
    return node, tuple(reversed(path))


@np.errstate(over="ignore", invalid="ignore")
def _validate(forest: Forest) -> tuple[ValidationResult, ...]:
    """Check every sibling group of the forest at once, on its node arrays;
    one verdict per tree.

    Childless nodes above the last level come from one bincount, and each
    sibling group's probability sum, increment mean and non-finite flag from
    one reduceat over all levels, its out-of-range flag from a minimum and a
    maximum reduceat. A group's sums do not depend on the entries around
    it, so they keep the bits a pass over its tree alone gives. No boolean
    mask per node is made: numpy keeps freed buffers under 1 KiB for reuse
    by byte size, and masks sized by each tree's node count raised a
    search's peak RSS. Only the violations, and the paths that locate them,
    are built per failed group. The residual norm may overflow: it then
    reads inf, which fails, with no numpy warning."""
    out: list[list[Violation]] = [[] for _ in range(forest.trees)]
    parent, roots = forest.parent, forest.trees
    prob, incr = forest.prob[roots:], forest.incr[roots:]   # every node but the roots
    children = np.bincount(parent[roots:], minlength=forest.bounds[-2])
    for node in (children == 0).nonzero()[0].tolist() if children.min(initial=1) == 0 else ():
        tree, path = _path(parent, roots, node)
        out[tree].append(Violation(
            "structure", path, float(forest.depth - len(path)),
            f"leaf at depth {len(path)} in a depth-{forest.depth} tree at {path}"))
    # a group starts (in prob's rows) where a node's parent differs from the
    # parent of the node before it; x * 0 is NaN exactly where x is not finite
    starts = np.diff(parent[roots - 1:]).nonzero()[0]
    any_non_finite = np.isnan(np.add.reduceat((incr * 0.0).ravel(), starts * forest.dim))
    any_outside = ~((np.minimum.reduceat(prob, starts) > 0.0)   # NaN fails too
                    & (np.maximum.reduceat(prob, starts) <= 1.0))
    excess = np.add.reduceat(prob, starts) - 1.0
    resid = row_norms(np.add.reduceat(prob[:, None] * incr, starts))
    failed = (any_non_finite | any_outside
              | (np.abs(excess) > PROB_TOL) | (resid > PROB_TOL))
    for g in failed.nonzero()[0].tolist():
        tree, path = _path(parent, roots, int(parent[roots + starts[g]]))
        found = out[tree]
        rows = slice(starts[g], starts[g + 1] if g + 1 < len(starts) else len(prob))
        if any_non_finite[g]:
            bad = (~np.isfinite(incr[rows])).any(axis=1).nonzero()[0].tolist()
            found.append(Violation(
                "structure", path, float(len(bad)),
                f"non-finite increment on children {bad} at {path}"))
        if any_outside[g]:   # NaN fails too
            worst = float(np.max(np.maximum(prob[rows] - 1.0, -prob[rows])))
            worst = float("inf") if np.isnan(worst) else worst
            found.append(Violation(
                "probability", path, worst,
                f"branch probability outside ]0,1] at {path}"))
        if abs(excess[g]) > PROB_TOL:
            found.append(Violation(
                "probability", path, float(abs(excess[g])),
                f"branch probabilities sum to 1{excess[g]:+.3g} at {path}"))
        if resid[g] > PROB_TOL:
            found.append(Violation(
                "martingale", path, float(resid[g]),
                f"conditional increment mean has norm {resid[g]:.3g} at {path}"))
    for found in out:
        found.sort(key=lambda v: (len(v.path), v.path, v.kind))
    return tuple(ValidationResult(ok=not found, violations=tuple(found)) for found in out)


@dataclass(frozen=True, eq=False)
class _LevelCalc:
    """Node summaries in the forest's node order: the roots, then each level,
    level k at entries forest.bounds[k] to forest.bounds[k+1] - 1.

    node_probs   node probability, shape (nodes,)
    node_values  M_k at the node, shape (nodes, d)
    node_norms   rows ||M_k|| at the node, max_{v <= k} ||M_v|| along its
                 history, sum_{v <= k} ||d_v||^2 along it and ||d_k|| of the
                 edge entering it (||M_0|| at a root), shape (4, nodes)
    """

    node_probs: np.ndarray
    node_values: np.ndarray
    node_norms: np.ndarray


@np.errstate(over="ignore")   # norms beyond the float range: exact reports refuse them
def _build_calc(forest: Forest) -> _LevelCalc:
    """The level calculus on the forest's node arrays.

    M_k, the node probability, the running sup and the quadratic sum each
    take their parent's entry, so only that gather, and the one operation
    after it, runs level by level, over every tree at once: a level needs
    the level above done. The norms of M_k and of d_k are taken once each,
    row-wise over every node, roots included, by row_norms."""
    if any(b - a > MAX_PATHS for row in forest.tree_bounds for a, b in zip(row, row[1:])):
        raise ResourceLimitError(f"tree level exceeds the {MAX_PATHS} path enumeration cap")
    bounds, roots = forest.bounds, forest.trees
    spans = list(zip(bounds[1:], bounds[2:]))   # the levels below the roots
    parent, prob, incr = forest.parent, forest.prob, forest.incr
    values = np.empty(incr.shape)
    values[:roots] = incr[:roots]
    for a, b in spans:
        np.add(values.take(parent[a:b], axis=0), incr[a:b], out=values[a:b])
    norms = np.empty((4, bounds[-1]))
    m_norm, sup_norm, quad, d_norm = norms
    m_norm[:] = row_norms(values)
    d_norm[:] = row_norms(incr)
    d_sq = d_norm**2
    probs = np.empty(bounds[-1])
    probs[:roots] = 1.0
    sup_norm[:roots] = m_norm[:roots]
    quad[:roots] = d_sq[:roots]
    for a, b in spans:
        up = parent[a:b]
        np.multiply(probs.take(up), prob[a:b], out=probs[a:b])
        np.maximum(sup_norm.take(up), m_norm[a:b], out=sup_norm[a:b])
        np.add(quad.take(up), d_sq[a:b], out=quad[a:b])
    return _LevelCalc(probs, values, norms)


def check_level(n, depth: int) -> int:
    """n as a level of a depth-`depth` tree; outside 0..depth: LevelRangeError."""
    n = as_int(n, "level n", LevelRangeError)
    if n < 0 or n > depth:
        raise LevelRangeError(f"level n={n} outside 0..{depth}")
    return n


@dataclass(frozen=True, eq=False)
class Moments:
    """A tree's exact sides at the exponents p, row j for p[j] and column k
    for level k: lp[j, k] = ||M_k||_p, sup[j, k] = || max_{v <= k} ||M_v|| ||_p,
    quad[j, k] = || sum_{v <= k} ||d_v||^2 ||_{p/2} and
    incr[j, k] = sum_{v <= k} ||d_v||_p^2, the level-0 term being ||M_0||^2.
    Every table puts the tree first, lp[t, j, k] being tree t's lp[j, k]; a
    ProbTree, or a forest whose root weights pool its trees, has one."""

    p: tuple[float, ...]
    lp: np.ndarray
    sup: np.ndarray
    quad: np.ndarray
    incr: np.ndarray


@np.errstate(over="ignore")   # sums beyond the float range: exact reports refuse them
def moments(forest: Forest, p_values: Sequence) -> Moments:
    """Reduce a valid forest's level calculus to its Moments table at every
    exponent.

    Each w * r ** e is taken once per forest, over all nodes (e a scalar
    exponent, so numpy keeps its ** 2.0 square). Each tree's share of each
    level is then summed with one .sum(axis=-1) over its slice, which sums
    every row pairwise exactly as a 1-D np.sum does; np.add.reduceat adds in
    another order and would change bits. Root weights pool the trees' sums,
    added in tree order by elementwise numpy, not BLAS, whose order varies by
    build. Every root (1/p, 1/p, 2/p and 2/p) is then taken here, once, with
    float ** on its scalar sum. A sum below the normal float range from norms
    that are not all 0 has lost its terms to underflow: DomainError, for the
    first tree (or pooled sum) that has one."""
    p = as_exponents(p_values)
    calc = forest.calculus()
    cuts = forest.tree_bounds
    exps = (p, p, tuple(v / 2.0 for v in p), p)
    powers = np.empty((4, len(p), forest.bounds[-1]))   # m, sup, quad, d
    for side, row in enumerate(exps):
        for j, e in enumerate(row):
            powers[side, j] = calc.node_norms[side] ** e
    powers *= calc.node_probs
    sums = np.empty((4, forest.trees, len(p), forest.depth + 1))   # side, tree, p, level
    for k, row in enumerate(cuts):
        for t, (a, b) in enumerate(zip(row, row[1:])):
            sums[:, t, :, k] = powers[:, :, a:b].sum(axis=-1)
    if forest.weights is not None:   # one martingale, whose level spans every tree's share
        sums = sum(s * w for s, w in zip(sums.swapaxes(0, 1), forest.weights))[:, None]
        cuts = [(row[0], row[-1]) for row in cuts]
    # 0 or underflowed, tree by tree
    for t, side, j, k in np.argwhere(sums.transpose(1, 0, 2, 3) < sys.float_info.min).tolist():
        if calc.node_norms[side, cuts[k][t]:cuts[k][t + 1]].any():
            name = ("||M_n||^p", "(max ||M_v||)^p", "(sum ||d_v||^2)^(p/2)", "||d_n||^p")[side]
            raise DomainError(f"p={p[j]:g}: the sides underflow a float (E {name} at level "
                              f"{k} is {sums[side, t, j, k]:.3g} from nonzero norms)")
    roots = [e / v for e in (1.0, 1.0, 2.0, 2.0) for _ in range(sums.shape[1]) for v in p]
    rows = sums.reshape(len(roots), forest.depth + 1).tolist()   # one per root
    lp, sup, quad, d_sq = np.array([s ** root for root, row in zip(roots, rows)
                                    for s in row]).reshape(sums.shape)
    return Moments(p, lp, sup, quad, np.cumsum(d_sq, axis=-1))   # incr: left to right


def lp_norm(tree: ProbTree, n: int, p) -> float:
    """||M_n||_{L^p}, read from moments(tree, [p])."""
    return float(moments(tree, [p]).lp[0, 0, check_level(n, tree.depth)])


def sup_lp_norm(tree: ProbTree, n: int, p) -> float:
    """|| max_{v <= n} ||M_v|| ||_{L^p}, read from moments(tree, [p])."""
    return float(moments(tree, [p]).sup[0, 0, check_level(n, tree.depth)])


def quadratic_sum_norm(tree: ProbTree, n: int, p) -> float:
    """|| sum_{k<=n} ||d_k||^2 ||_{L^{p/2}}, read from moments(tree, [p])."""
    return float(moments(tree, [p]).quad[0, 0, check_level(n, tree.depth)])


def increment_lp_sum(tree: ProbTree, n: int, p) -> float:
    """sum_{k<=n} ||d_k||_{L^p}^2 (level-0 term ||M_0||^2), read from moments(tree, [p])."""
    return float(moments(tree, [p]).incr[0, 0, check_level(n, tree.depth)])


def tree_bytes(depth: int, dim: int, branching: Sequence[int]) -> int:
    """The bytes random_tree charges one depth-`depth` tree of dimension
    `dim` against MAX_TREE_BYTES: the node count of a tree that always takes
    its widest branching factor, at 256 + 24 * dim bytes a node, well above
    the peak of the level-at-a-time draw (tests/test_ptree.py checks the
    traced peak stays below it). depth, dim and the factors are checked
    ints. A tree whose last level could hold more than MAX_PATHS increment
    entries (max(branching) ** depth * dim) raises ResourceLimitError."""
    widest = max(branching)
    # from MAX_PATHS.bit_length() levels on even binary trees exceed the cap,
    # so the power never grows into a huge integer
    if widest ** min(depth, MAX_PATHS.bit_length()) * dim > MAX_PATHS:
        raise ResourceLimitError(
            f"depth-{depth} trees of dimension {dim} with branching up to "
            f"{widest} exceed the {MAX_PATHS} path enumeration cap")
    return (widest ** (depth + 1) - 1) // (widest - 1) * (256 + 24 * dim)


def forest_size(depth: int, dim: int, branching: Sequence[int] = (2, 3)) -> int:
    """How many depth-`depth` trees of dimension `dim` one forest takes: as
    many as FOREST_BYTES holds at the bytes tree_bytes charges a tree, at
    least one. A shape tree_bytes refuses raises ResourceLimitError."""
    return max(1, FOREST_BYTES // tree_bytes(depth, dim, branching))


def random_tree(depth: int, dim: int, seed, branching: Sequence[int] = (2, 3)) -> ProbTree:
    """Draw a martingale-valid random tree: random_forest's forest of one.

    The branching factors come from `branching` (each >= 2), branch
    probabilities are normalized positive draws, and each raw uniform
    [-1,1]^dim increment is recentred by the conditional mean at its node
    so the martingale property holds to roundoff. `seed` may be a
    non-negative int or a SeedSequence. A tree that tree_bytes refuses, or
    charges more than MAX_TREE_BYTES, raises ResourceLimitError before any
    draw.

    Every bit is fixed by the seed and numpy's Generator on its Philox
    stream: M_0 is Generator.uniform(-1, 1, dim); then, level by level,
    Generator.integers(0, len(branching), nodes) picks the width of each of
    the level's nodes, and Generator.random((children, 1 + dim)) gives each
    child, in node order, its raw probability, mapped onto [0.1, 1[, and
    its raw increments, mapped onto [-1, 1[. Each sibling group's
    probabilities are divided by their sum, then its increments lose their
    probability-weighted sum. Both sums are np.add.reduceat's: the group's
    first term plus the sum of the others, which numpy takes left to right
    when there are fewer than 8 of them. No step goes through BLAS.
    """
    roots, parent, prob, incr = _draw(depth, dim, [seed], branching)
    return ProbTree(roots[0], parent, prob, incr)


def random_forest(depth: int, dim: int | Sequence[int], seeds: Sequence,
                  branching: Sequence[int] = (2, 3)) -> Forest:
    """The trees random_tree draws from each seed, as one forest: tree t is
    random_tree(depth, dims[t], seeds[t], branching), node for node and bit
    for bit, padded with zero coordinates to the forest's width. dim is every
    tree's dimension, or a sequence dims of one per seed. Each tree draws
    from its own Generator, two calls a level; the scaling and the sibling
    sums then run once over the whole forest. The whole forest is charged
    against MAX_TREE_BYTES at its width."""
    seeds = list(seeds)
    if not seeds:
        raise DomainError("random_forest needs at least one seed")
    return Forest(*_draw(depth, dim, seeds, branching))


def _draw(depth, dim, seeds: list, branching: Sequence[int]):
    """random_forest's checks and draw: the (roots, parent, prob, incr) of
    its Forest."""
    depth = as_int(depth, "depth")
    if isinstance(dim, str) or not hasattr(dim, "__iter__"):
        dims = [as_int(dim, "dim")] * len(seeds)
    else:
        dims = [as_int(d, "dim") for d in dim]
        if len(dims) != len(seeds):
            raise DomainError(f"need one dim per seed, got {len(dims)} for {len(seeds)} seeds")
    cols = max(dims)   # the forest's width
    if depth < 0 or min(dims) < 1:
        raise DomainError("random_tree needs depth >= 0 and dim >= 1")
    choices = [as_int(w, "branching factor") for w in branching]
    if not choices or min(choices) < 2:
        raise DomainError(f"branching factors must be >= 2, got {tuple(choices)}")
    streams = [seed if isinstance(seed, np.random.SeedSequence) else
               np.random.SeedSequence(entropy=as_seed(seed), spawn_key=(SPAWN_DOMAINS["tree"],))
               for seed in seeds]
    need = len(seeds) * tree_bytes(depth, cols, choices)
    if need > MAX_TREE_BYTES:
        raise ResourceLimitError(
            f"depth-{depth} trees of dimension {cols} with branching up to {max(choices)} "
            f"need about {need} bytes, over the {MAX_TREE_BYTES}-byte tree memory budget")
    rngs = [np.random.Generator(np.random.Philox(ss)) for ss in streams]
    roots = np.zeros((len(rngs), cols))   # a tree's coordinates past its dim stay 0
    for t, (rng, d) in enumerate(zip(rngs, dims)):
        roots[t, :d] = rng.uniform(-1.0, 1.0, d)
    # level by level, tree by tree, which is the node order: each node's width,
    # then each child's raw probability and raw increments in one row
    counts = [1] * len(rngs)   # each tree's nodes on the level
    widths, raws, options = [], [], np.array(choices, dtype=np.intp)
    for _ in range(depth):
        for t, (rng, d) in enumerate(zip(rngs, dims)):
            w = options[rng.integers(0, len(choices), counts[t])]
            counts[t] = int(w.sum())
            widths.append(w)
            raws.append(rng.random((counts[t], 1 + d)))
    width = np.concatenate([np.empty(0, np.intp)] + widths)
    parent = np.repeat(np.arange(len(width)), width)
    prob = np.empty(len(parent))
    incr = np.zeros((len(parent), cols))
    at = 0
    for raw, d in zip(raws, dims * depth):   # mapped as Generator.uniform maps them
        prob[at:at + len(raw)] = raw[:, 0]
        incr[at:at + len(raw), :d] = raw[:, 1:] * 2.0 - 1.0
        at += len(raw)
    widths = w = raws = raw = None   # freed before the centring, where the draw peaks
    prob *= 0.9   # onto [0.1, 1[
    prob += 0.1
    # each sibling group's sums, as _validate takes them
    starts = np.cumsum(width) - width
    prob /= np.add.reduceat(prob, starts)[parent]
    incr -= np.add.reduceat(prob[:, None] * incr, starts)[parent]
    return roots, parent, prob, incr


def symmetric_walk(depth: int, step: float = 1.0, m0: float = 0.0) -> ProbTree:
    """Scalar +-step random walk of the given depth (an integer >= 0), started at m0."""
    depth = as_int(depth, "depth")
    if depth < 0:
        raise DomainError("symmetric_walk needs depth >= 0")
    rows = np.arange(2 ** (depth + 1) - 2)   # node i + 1's parent is i // 2
    return ProbTree((float(m0),), rows // 2, np.full(len(rows), 0.5),
                    np.tile([[float(step)], [float(-step)]], (len(rows) // 2, 1)))
