"""Numerical sharpness probes for the one-step and tree inequalities.

The central quantity is the two-point gain (||a + Y||_{L^p}^2 - a^2) / ||Y||_{L^p}^2
of the centered law Y = b(1-q) w.p. q, -bq w.p. 1-q (asym_two_point_gain). The
symmetric law Y = +-b is its q = 1/2, width-2b case (rio_gain), whose gain
approaches the one-step constant p-1 as b -> 0. Searches maximize a gain
(two-point families, bound p-1) or a normalized lhs/rhs ratio (random-tree
families, bound 1); ineq.decide flags a best above bound + ABS_TOL as a violation.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from . import ineq, ptree
from .errors import (
    ConfigError, DomainError, MartcheckError, ResourceLimitError, refuse_overflow,
)
from .ptree import as_exponent, as_int, as_positive, as_seed

COLLAPSE_DIAMETER = 1e-10
NM_REFLECT, NM_EXPAND, NM_CONTRACT, NM_SHRINK = 1.0, 2.0, 0.5, 0.5   # Nelder-Mead

# Each family's search axes (name, scale). A "log" axis is searched in log
# space over its box, a "lin" axis linearly over its box, and a "seed" axis
# over the tree seeds [0, 2**63); the boxes a family takes are its log and
# lin axes.
_AXES = {
    "RIO-TWO-POINT": (("a", "log"), ("b", "log")),
    "ASYM-TWO-POINT": (("a", "log"), ("b", "log"), ("q", "lin")),
    "RANDOM-TREE": (("tree_seed", "seed"),),
}
FAMILY_TAGS = tuple(_AXES)
METHODS = ("grid", "random", "nelder-mead")


def _asym_moment_series(p: float, r: float, q: float) -> float:
    """sum_{k>=2} C(p,k) r^k E[Y0^k] = E[(1+rY0)^p] - 1 (the k = 0, 1 terms are
    1 and 0) for Y0 = 1-q w.p. q, -q w.p. 1-q."""
    up, dn = 1.0 - q, -q
    term, uk, dk = 0.5 * p * r * ((p - 1.0) * r), up * up, dn * dn   # C(p,k) r^k, k = 2
    total = term * (q * uk + (1.0 - q) * dk)
    for k in range(2, 60):
        term *= (p - k) * r / (k + 1.0)   # p*r < 1, so no term overflows
        uk, dk = uk * up, dk * dn
        total += term * (q * uk + (1.0 - q) * dk)
        # odd moments vanish at q = 1/2, so bound the tail by magnitudes
        if abs(term) * (q * abs(uk) + (1.0 - q) * abs(dk)) <= 1e-18 * abs(total):
            break
    return total


def rio_gain(a, b, p) -> float:
    """Exact two-point gain for X = a constant, Y = +-b with probability 1/2:
    asym_two_point_gain(a, 2b, 1/2, p), with b and its width 2b checked first."""
    b = as_positive(b, "b")
    if 2.0 * b == math.inf:
        raise DomainError(f"b = {b!r}: the width 2b overflows a float")
    return asym_two_point_gain(a, 2.0 * b, 0.5, p)


@refuse_overflow("the RIO-STEP two-point gain")
def asym_two_point_gain(a, b, q, p) -> float:
    """Gain for the centered two-point family Y = b(1-q) w.p. q, -bq w.p. 1-q.

    Evaluated as gain(1, b/a, p): the moment by its binomial series where
    p*b/a is small (expm1 would cancel the O(b^2) signal), else by expm1/log1p.
    ||Y/b||_p^2 = (q(1-q)^p + (1-q)q^p)^(2/p) is taken as hi^2 (lo + hi
    (lo/hi)^p)^(2/p), lo <= hi being q and 1-q, which cannot underflow to 0."""
    p = as_exponent(p)
    a = as_positive(a, "a")
    b = as_positive(b, "b")
    q = float(q)
    if not sys.float_info.min <= q < 1.0:
        raise DomainError(f"q must lie in ]0,1[ and not be subnormal, got {q!r}")
    r = b / a
    lo, hi = sorted((q, 1.0 - q))
    den = r * r * (hi * hi * (lo + hi * (lo / hi) ** p) ** (2.0 / p))
    if not sys.float_info.min <= den < math.inf:
        raise DomainError(f"the RIO-STEP two-point gain at b/a = {r!r}, q = {q!r}, "
                          f"p = {p!r}: ||Y||_p^2 / a^2 = {den!r} is outside the float range")
    if r < 0.1 and p * r < 1.0:
        s = _asym_moment_series(p, r, q)
    else:
        dn = r * q
        s = q * math.expm1(p * math.log1p(r * (1.0 - q))) + (1.0 - q) * (
            math.expm1(p * math.log1p(-dn)) if dn < 1.0 else (dn - 1.0) ** p - 1.0)
    gain = math.expm1((2.0 / p) * math.log1p(s)) / den
    if gain == math.inf:   # p * log1p(.) overflowed to inf without raising
        raise OverflowError
    return gain


def asymptotic_gain_probe(p, b_sequence: Sequence[float]) -> list[float]:
    """rio_gain(1, b, p) along a decreasing positive b sequence.

    The tail approaches p-1 from below; the final entry sits within
    10 * b_last of the limit for the b scales used in the test suites.
    """
    p = as_exponent(p)
    bs = [float(b) for b in b_sequence]
    if not bs or any(b <= 0.0 for b in bs):
        raise DomainError("b sequence must be nonempty and positive")
    if any(b1 <= b2 for b1, b2 in zip(bs, bs[1:])):
        raise DomainError("b sequence must be strictly decreasing")
    return [rio_gain(1.0, b, p) for b in bs]


@dataclass(frozen=True)
class FamilySpec:
    """A parametrized witness family for one inequality.

    RIO-TWO-POINT   params a, b        (boxes a_box, b_box)
    ASYM-TWO-POINT  params a, b, q     (boxes a_box, b_box, q_box)
    RANDOM-TREE     param tree_seed    (depth, dim, branching fixed)
    """

    tag: str
    p: float
    a_box: tuple[float, float] | None = None
    b_box: tuple[float, float] | None = None
    q_box: tuple[float, float] | None = None
    depth: int | None = None
    dim: int | None = None
    branching: tuple[int, ...] = (2, 3)

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ConfigError(f"unknown family tag {self.tag!r}; known: {FAMILY_TAGS}")
        object.__setattr__(self, "p", as_exponent(self.p))
        if self.tag == "RANDOM-TREE":
            if self.depth is None or self.dim is None:
                raise ConfigError("RANDOM-TREE needs depth >= 1 and dim >= 1")
            for name in ("depth", "dim"):
                value = as_int(getattr(self, name), name, ConfigError)
                if value < 1:
                    raise ConfigError("RANDOM-TREE needs depth >= 1 and dim >= 1")
                object.__setattr__(self, name, value)
            branching = tuple(as_int(w, "branching factor", ConfigError)
                              for w in self.branching)
            if not branching or min(branching) < 2:
                raise ConfigError(
                    f"RANDOM-TREE branching factors must be >= 2, got {self.branching}")
            object.__setattr__(self, "branching", branching)
        else:
            for name in ("depth", "dim", "branching"):
                if getattr(self, name) != getattr(FamilySpec, name):
                    raise ConfigError(f"{self.tag} takes no {name}")
        scales = dict(_AXES[self.tag])
        for name in ("a", "b", "q"):
            box = getattr(self, f"{name}_box")
            if name not in scales:
                if box is not None:
                    raise ConfigError(f"{self.tag} takes no {name}_box")
                continue
            if box is None:
                raise ConfigError(f"{self.tag} needs {name}_box")
            try:
                lo, hi = map(float, box)
            except (TypeError, ValueError):
                raise ConfigError(f"{name}_box must be a (lo, hi) pair, got {box!r}") from None
            top = 1.0 if scales[name] == "lin" else math.inf
            if not 0.0 < lo <= hi < top:
                raise ConfigError(f"{name}_box must satisfy 0 < lo <= hi < {top:g}")
            object.__setattr__(self, f"{name}_box", (lo, hi))


@dataclass(frozen=True)
class SearchConfig:
    family: FamilySpec
    method: str
    budget: int
    seed: int
    target: str = "RIO-STEP"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; known: {METHODS}")
        object.__setattr__(self, "budget", as_int(self.budget, "budget", ConfigError))
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")
        object.__setattr__(self, "seed", as_seed(self.seed))
        target = ineq.coerce_id(ineq.InequalityId, self.target)
        object.__setattr__(self, "target", target.value)
        if self.family.tag == "RANDOM-TREE":
            if target not in ineq.DISCRETE_EVAL_IDS:
                raise ConfigError(
                    f"RANDOM-TREE target must be a tree inequality, got {target.value}")
            if self.method == "nelder-mead":
                raise ConfigError("nelder-mead needs continuous parameters; "
                                  "RANDOM-TREE supports grid and random")
        elif target is not ineq.InequalityId.RIO_STEP:
            raise ConfigError(f"{self.family.tag} maximizes the RIO-STEP gain only")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run.

    best_ratio is the gain (two-point families) or lhs/rhs (tree families);
    bound is the matching soundness cap (p-1 or 1.0); exceeded flags a best_ratio
    ineq.decide reads above the point bound + ABS_TOL, a violation finding.
    trace lists the improving (params, ratio) steps in evaluation order.
    """

    best_ratio: float
    best_params: dict
    evaluations: int
    trace: tuple[tuple[dict, float], ...]
    bound: float
    exceeded: bool


def family_ratio(family: FamilySpec, params: dict, target: str = "RIO-STEP") -> float:
    """Evaluate one parameter point of a family. Pure and deterministic. A
    RANDOM-TREE point is its tree's forest of one (see _forest_ratios)."""
    if family.tag == "RIO-TWO-POINT":
        return rio_gain(params["a"], params["b"], family.p)
    if family.tag == "ASYM-TWO-POINT":
        return asym_two_point_gain(params["a"], params["b"], params["q"], family.p)
    return _forest_ratios(family, [int(params["tree_seed"])], target)[0]


def _forest_ratios(family: FamilySpec, seeds: list[int], target: str) -> list[float]:
    """The final-level target ratio of each RANDOM-TREE seed's tree, the trees
    drawn and evaluated as one forest. Where a forest of several fails, each
    tree is evaluated as a forest of one, in order, so the error raised is the
    one the first failing tree raises alone; a forest of one raises it already."""
    try:
        forest = ptree.random_forest(family.depth, family.dim, seeds, family.branching)
        return ineq.eval_tree(forest, [forest.depth], [family.p], [target]).columns["ratio"]
    except MartcheckError:
        if len(seeds) > 1:
            for seed in seeds:
                _forest_ratios(family, [seed], target)
        raise


class _BudgetExhausted(Exception):
    pass


class _Recorder:
    """Counts evaluated points and keeps the incumbent and improving trace.

    Ties on the ratio go to the lexicographically smallest parameter vector
    (parameter names in sorted order)."""

    def __init__(self, names: Sequence[str]):
        self.names = tuple(sorted(names))
        self.count = 0
        self.best_ratio = -math.inf
        self.best_key: tuple | None = None
        self.best_params: dict = {}
        self.trace: list[tuple[dict, float]] = []

    def record(self, params: dict, ratio: float) -> float:
        """Count one evaluated point and keep it if it improves."""
        self.count += 1
        key = tuple(params[name] for name in self.names)
        if ratio > self.best_ratio or (ratio == self.best_ratio and
                                       (self.best_key is None or key < self.best_key)):
            self.best_ratio = ratio
            self.best_key = key
            self.best_params = dict(params)
            self.trace.append((dict(params), ratio))
        return ratio


def nelder_mead(fn: Callable[[np.ndarray], float], x0: Sequence[float],
                step: Sequence[float], budget: int) -> tuple[np.ndarray, float, int]:
    """Minimize fn with a plain Nelder-Mead simplex (the NM_* coefficients).

    When the simplex diameter drops below COLLAPSE_DIAMETER it is rebuilt
    around the incumbent with the original steps. Stops after `budget`
    evaluations and returns (best point, best value, evaluations used).
    """
    x0 = np.asarray(x0, dtype=float)
    step = np.asarray(step, dtype=float)
    dims = len(x0)
    evals = 0
    best_x, best_f = x0.copy(), math.inf

    def call(x: np.ndarray) -> float:
        nonlocal evals, best_x, best_f
        if evals >= budget:
            raise _BudgetExhausted
        evals += 1
        f = fn(x)
        if f < best_f:
            best_f, best_x = f, x.copy()
        return f

    def fresh(center: np.ndarray) -> tuple[list[np.ndarray], list[float]]:
        pts = [center.copy()]
        pts += [center + step * np.eye(dims)[i] for i in range(dims)]
        return pts, [call(q) for q in pts]

    try:
        pts, fv = fresh(x0)
        while True:
            order = sorted(range(dims + 1), key=lambda i: fv[i])
            pts = [pts[i] for i in order]
            fv = [fv[i] for i in order]
            diameter = max(float(np.linalg.norm(q - pts[0])) for q in pts[1:])
            if diameter < COLLAPSE_DIAMETER:
                pts, fv = fresh(pts[0])
                continue
            centroid = np.mean(pts[:-1], axis=0)
            xr = centroid + NM_REFLECT * (centroid - pts[-1])
            fr = call(xr)
            if fr < fv[0]:
                xe = centroid + NM_EXPAND * (xr - centroid)
                fe = call(xe)
                pts[-1], fv[-1] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < fv[-2]:
                pts[-1], fv[-1] = xr, fr
            else:
                xc = centroid + NM_CONTRACT * (pts[-1] - centroid)
                fc = call(xc)
                if fc < fv[-1]:
                    pts[-1], fv[-1] = xc, fc
                else:
                    for i in range(1, dims + 1):
                        pts[i] = pts[0] + NM_SHRINK * (pts[i] - pts[0])
                        fv[i] = call(pts[i])
    except _BudgetExhausted:
        pass
    return best_x, best_f, evals


def _product(pools: Sequence, head: tuple = ()) -> Iterator[tuple]:
    """itertools.product(*pools), without first copying each pool to a tuple."""
    if not pools:
        yield head
        return
    for value in pools[0]:
        yield from _product(pools[1:], head + (value,))


def _grid(axes, budget: int) -> Iterator[dict]:
    """The first `budget` grid points, last axis fastest. Each free log or lin
    axis takes floor(budget**(1/free)) points (at least 2), capped at
    ptree.MAX_PATHS; a seed axis counts 0, 1, ..., budget-1 lazily."""
    free = sum(lo < hi for _, lo, hi, scale in axes if scale != "seed")
    res = max(2, int(free and math.floor(budget ** (1.0 / free))))
    if res > ptree.MAX_PATHS:
        raise ResourceLimitError(
            f"a grid of budget {budget} puts {res} points on an axis, above the "
            f"{ptree.MAX_PATHS} cap")
    pools = [range(budget) if scale == "seed"
             else (lo,) if lo == hi
             else (np.geomspace if scale == "log" else np.linspace)(lo, hi, res)
             for _, lo, hi, scale in axes]
    kinds = [int if scale == "seed" else float for *_, scale in axes]
    for point in islice(_product(pools), budget):
        yield {ax[0]: kind(v) for ax, kind, v in zip(axes, kinds, point)}


def _draw(rng: np.random.Generator, lo, hi, scale: str):
    """One random point of an axis: log-uniform, uniform or an integer seed."""
    if scale == "seed":
        return int(rng.integers(lo, hi))
    if scale == "log":
        return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    return float(rng.uniform(lo, hi))


def search(config: SearchConfig) -> SearchResult:
    """Run the configured maximization; deterministic for a fixed config.

    Nelder-Mead counts its budget in nelder_mead; the grid is cut to the budget
    where it is made, and random draws exactly `budget` points. Grid and random
    points are evaluated in order, RANDOM-TREE ones in forests of
    ptree.forest_size trees, two-point ones one at a time."""
    family = config.family
    axes = [(name, *((0, 2**63) if scale == "seed" else getattr(family, f"{name}_box")),
             scale) for name, scale in _AXES[family.tag]]    # (name, lo, hi, scale)
    rec = _Recorder([ax[0] for ax in axes])
    free = [ax for ax in axes if ax[1] < ax[2]]
    if config.method == "nelder-mead" and free:   # log axes in log space
        fixed = {name: lo for name, lo, hi, _ in axes if lo == hi}
        warp = [math.log if scale == "log" else float for *_, scale in free]

        def negated(z: np.ndarray) -> float:
            prm = dict(fixed)
            for (name, lo, hi, scale), zi in zip(free, z):
                v = math.exp(zi) if scale == "log" else zi
                prm[name] = float(min(max(v, lo), hi))
            return -rec.record(prm, family_ratio(family, prm, config.target))

        x0 = [0.5 * (w(lo) + w(hi)) for w, (_, lo, hi, _) in zip(warp, free)]
        step = [0.25 * (w(hi) - w(lo)) for w, (_, lo, hi, _) in zip(warp, free)]
        nelder_mead(negated, x0, step, config.budget)
    else:   # grid (also Nelder-Mead with no free box: the one grid point) or random
        if config.method == "random":
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
                entropy=config.seed, spawn_key=(ptree.SPAWN_DOMAINS["search"],))))
            points = ({name: _draw(rng, lo, hi, scale) for name, lo, hi, scale in axes}
                      for _ in range(config.budget))
        else:
            points = _grid(axes, config.budget)
        tree = family.tag == "RANDOM-TREE"
        size = ptree.forest_size(family.depth, family.dim, family.branching) if tree else 1
        while batch := list(islice(points, size)):
            ratios = (_forest_ratios(family, [prm["tree_seed"] for prm in batch], config.target)
                      if tree else [family_ratio(family, batch[0], config.target)])
            for prm, ratio in zip(batch, ratios):
                rec.record(prm, ratio)
    bound = (1.0 if family.tag == "RANDOM-TREE"
             else ineq.BOUNDS[ineq.InequalityId.PROP1_MAIN].constant(family.p))
    limit = bound + ineq.ABS_TOL
    return SearchResult(
        best_ratio=rec.best_ratio, best_params=rec.best_params,
        evaluations=rec.count, trace=tuple(rec.trace), bound=bound,
        exceeded=bool(ineq.decide(rec.best_ratio, rec.best_ratio, limit, limit) == -1))
