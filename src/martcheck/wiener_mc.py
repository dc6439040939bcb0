"""Seeded Monte Carlo for stochastic-integral moment inequalities.

Paths of X_t = sum_j int_0^t f^j_u dW^j_u are simulated on a uniform grid
with left-endpoint (Ito) sums. Integrands come from a tiny rule grammar
(CONST / LIN / SIGN per step range and Wiener component), so the simulated
process is itself an exact Ito integral of a piecewise-constant integrand
and the continuous inequalities apply to it without discretization error.

Reproducibility: paths are partitioned into fixed 1024-path blocks; block b
of a run with seed s draws from Philox keyed by
SeedSequence(entropy=s, spawn_key=(10, b)). The blocks run on a thread pool
with one worker per CPU the process may use (its CPU affinity), and the
calling thread merges each block's rows in block order. The block
decomposition and all reduction orders are algorithm constants, so the
bits do not depend on the worker count or on the order in which blocks
finish. One simulation serves every inequality id of a run.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, LevelRangeError, ResourceLimitError
from .ineq import BOUNDS, ContinuousId, InequalityReport, _ratio, coerce_id
from .ptree import as_exponent

BLOCK_PATHS = 1024          # fixed substream block size
CI_GROUPS = 32              # batch-means groups for the time-integral CI
DEFAULT_CELL_CAP = 1 << 31  # paths * steps * m guard
BLOCK_MEMORY_BUDGET = 1 << 30  # bytes of block working sets in flight at once
_UFUNC_BUFFER_BYTES = 1 << 18  # numpy's buffers for a strided in-place update
Z95 = 1.96                  # fixed 95% half-width multiplier

_WIENER_STREAM = 10

RULE_KINDS = ("const", "lin", "sign")


@dataclass(frozen=True)
class Rule:
    """f^j(t_i) = c (const) | c * W^k(t_i) (lin) | c * sign(W^k(t_i)) (sign).

    c is a vector in R^d; sign follows numpy (sign(0) = 0)."""

    kind: str
    c: tuple[float, ...]
    k: int | None = None


@dataclass(frozen=True)
class RuleEntry:
    """One rule applied to Wiener component j on step range [start, stop)."""

    start: int
    stop: int
    j: int
    rule: Rule


@dataclass(frozen=True)
class IntegrandSpec:
    """Piecewise rule-based integrand on a uniform grid.

    dim: dimension d of the integrand values and of X.
    wiener_dim: number m of driving Wiener components.
    horizon: terminal time T > 0.
    steps: number S of grid steps; grid times are i * T / S.
    entries: rules; (step, j) cells not covered by any entry are zero.
    """

    dim: int
    wiener_dim: int
    horizon: float
    steps: int
    entries: tuple[RuleEntry, ...]

    def __post_init__(self):
        if self.dim < 1 or self.wiener_dim < 1 or self.steps < 1:
            raise DomainError("need dim >= 1, wiener_dim >= 1, steps >= 1")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise DomainError("horizon must be positive and finite")
        per_j: dict[int, list[RuleEntry]] = {}
        for e in self.entries:
            if e.rule.kind not in RULE_KINDS:
                raise DomainError(f"unknown rule kind {e.rule.kind!r}")
            if len(e.rule.c) != self.dim:
                raise DomainError(f"rule coefficient must have dimension {self.dim}")
            if not 1 <= e.j <= self.wiener_dim:
                raise DomainError(f"rule component j={e.j} outside 1..{self.wiener_dim}")
            if e.rule.kind in ("lin", "sign"):
                if e.rule.k is None or not 1 <= e.rule.k <= self.wiener_dim:
                    raise DomainError(f"rule references W^k with k={e.rule.k}")
            if not 0 <= e.start < e.stop <= self.steps:
                raise DomainError(f"step range [{e.start},{e.stop}) outside the grid")
            per_j.setdefault(e.j, []).append(e)
        for j, lst in per_j.items():
            lst.sort(key=lambda e: e.start)
            for prev, nxt in zip(lst, lst[1:]):
                if nxt.start < prev.stop:
                    raise DomainError(f"overlapping step ranges for component j={j}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def needs_wiener(self) -> bool:
        return any(e.rule.kind != "const" for e in self.entries)

    def segments(self, j: int) -> list[RuleEntry]:
        return sorted((e for e in self.entries if e.j == j), key=lambda e: e.start)


def constant_integrand(value, dim: int = 1, wiener_dim: int = 1,
                       horizon: float = 1.0, steps: int = 1024) -> IntegrandSpec:
    """f^j = value (a scalar broadcast to R^dim) for every j and every step."""
    c = tuple(float(value) for _ in range(dim))
    entries = tuple(RuleEntry(0, steps, j, Rule("const", c))
                    for j in range(1, wiener_dim + 1))
    return IntegrandSpec(dim, wiener_dim, float(horizon), int(steps), entries)


@dataclass
class WienerBatch:
    """Simulated paths reduced to the per-path statistics the bounds need.

    stop: grid index of the evaluation time t.
    x_stop: X at the stop grid index, one row per path.
    sup_norm: max of ||X|| over grid points 0..stop per path.
    riemann: left-endpoint sum of g = sum_j ||f^j||^2 over [0, t_stop] per path.
    zakai_rows: (groups, stop) sums of g(t_i)^{p/2} over the paths of each
        batch-means group (see _group_bounds), for the exponent p given to
        simulate; None when simulate got no p.
    """

    spec: IntegrandSpec
    seed: int
    paths: int
    stop: int
    x_stop: np.ndarray
    sup_norm: np.ndarray
    riemann: np.ndarray
    zakai_rows: np.ndarray | None = None


def _pow(arr: np.ndarray, e: float) -> np.ndarray:
    e = float(e)
    return arr ** int(e) if e == int(e) else arr ** e


def _check_run(spec: IntegrandSpec, paths: int, seed: int,
               zakai_steps: int = 0) -> tuple[int, int]:
    """Reject a run before it allocates. Return one block's working-set bytes
    and the room for blocks in flight: BLOCK_MEMORY_BUDGET less the output
    simulate keeps, its per-path rows and, given zakai_steps (the stop index
    of a run given p), its ZAKAI rows."""
    if int(paths) < 2:
        raise DomainError("paths must be >= 2")
    if int(seed) < 0:
        raise DomainError("seed must be a non-negative integer")
    cells = int(paths) * spec.steps * spec.wiener_dim
    if cells > DEFAULT_CELL_CAP:
        raise ResourceLimitError(
            f"paths*steps*m = {cells} exceeds the cap {DEFAULT_CELL_CAP}")
    m, d, nw = spec.wiener_dim, spec.dim, spec.needs_wiener
    out_bytes = 8 * (int(paths) * (d + 2) + min(CI_GROUPS, int(paths)) * zakai_steps)
    # (bsz, steps) arrays a block holds at its peak, as traced: dW (m); W (m)
    # and g unless the integrand is constant; the increments of X (d) unless
    # d = m = 1 scales dW in place; over its steps, the widest rule's f^j and
    # f^j dW^j or |f^j|^2 (2d; CONST: d, or none in place). Then a norm over
    # d > 1 components holds X, its square and two arrays of norms.
    own = 0 if d == m == 1 else d
    rule = max(((e.stop - e.start) * (2 * d if e.rule.kind != "const" else own)
                for e in spec.entries), default=0) / spec.steps
    arrays = max(m + nw * (m + 1) + own + rule, 2 * d + 2 if d > 1 else 0)
    bsz = min(int(paths), BLOCK_PATHS)
    # per path: its output rows; rows of steps: a constant g and g^{p/2}, the
    # block's small objects and, given p, its ZAKAI rows (one per group met)
    rows = 3 + (min(CI_GROUPS, bsz) + 1 if zakai_steps and nw else 0)
    block_bytes = math.ceil(8 * (bsz * ((spec.steps + 1) * arrays + d + 2)
                                 + (spec.steps + 1) * rows)) + _UFUNC_BUFFER_BYTES
    room = BLOCK_MEMORY_BUDGET - out_bytes
    if block_bytes > room:
        raise ResourceLimitError(
            f"one {bsz}-path block of {spec.steps} steps needs {block_bytes} bytes "
            f"and the run's output {out_bytes} bytes, over the "
            f"{BLOCK_MEMORY_BUDGET}-byte block memory budget")
    return block_bytes, room


def _workers(blocks: int, block_bytes: int, room: int = BLOCK_MEMORY_BUDGET) -> int:
    """Threads for a run: one per CPU this process may use, at most one per
    block, and no more blocks in flight than room bytes hold."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(blocks, cpus, room // block_bytes))


def grid_index(spec: IntegrandSpec, t: float) -> int:
    """Index of t on the grid; t must hit a grid time to 1e-9 relative."""
    t = float(t)
    if not 0.0 <= t <= spec.horizon:
        raise LevelRangeError(f"t={t} outside [0, {spec.horizon}]")
    ratio = t / spec.dt
    i = int(round(ratio))
    if abs(ratio - i) > 1e-9 * spec.steps:
        raise LevelRangeError(f"t={t} is not a grid time (dt={spec.dt})")
    return i


def _field(e: RuleEntry, wn: np.ndarray | None) -> np.ndarray:
    """f^j on the steps of rule entry e: the rule's coefficient vector times
    the scalar field 1, W^k or sign(W^k) at the left endpoints. A fresh (d,)
    array for CONST, a fresh (bsz, steps, d) array otherwise."""
    c = np.array(e.rule.c)
    if e.rule.kind == "const":
        return c
    w = wn[:, e.start:e.stop, e.rule.k - 1, None]
    return (w if e.rule.kind == "lin" else np.sign(w)) * c


def _group_bounds(paths: int) -> list[tuple[int, int]]:
    """Path ranges of the min(CI_GROUPS, paths) batch-means groups."""
    groups = min(CI_GROUPS, paths)
    return [(-(-g * paths // groups), -(-(g + 1) * paths // groups))
            for g in range(groups)]


def _block(spec: IntegrandSpec, paths: int, seed: int, stop: int,
           half_power: float | None, b: int):
    """Simulate path block b and reduce it to its rows of the batch.

    Returns (lo, hi, x_stop rows, sup_norm rows, riemann rows, zakai), where
    zakai lists the (group, partial row) sums of g^{p/2} over the block's
    paths in each batch-means group it overlaps. For a constant integrand,
    whose g is one row shared by every path, block 0 lists the row g^{p/2}
    under the index of every group and the other blocks list nothing;
    simulate scales it by the group sizes. The block allocates only its own
    arrays and writes no shared state.
    """
    lo = b * BLOCK_PATHS
    hi = min(lo + BLOCK_PATHS, paths)
    bsz = hi - lo
    S, m, d = spec.steps, spec.wiener_dim, spec.dim
    gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(_WIENER_STREAM, b))))
    dw = gen.standard_normal((bsz, S, m))
    dw *= math.sqrt(spec.dt)

    wn = None
    if spec.needs_wiener:
        wn = np.zeros((bsz, S + 1, m))
        np.cumsum(dw, axis=1, out=wn[:, 1:])
    # d = m = 1: the increments of X are those of W, scaled in place
    dx = dw if d == m == 1 else np.zeros((bsz, S, d))
    g = np.zeros(S if wn is None else (bsz, S))   # sum_j ||f^j||^2
    for j in range(1, m + 1):
        covered = 0
        for e in spec.segments(j):
            sl = slice(e.start, e.stop)
            f = _field(e, wn)
            if dx is dw:
                dx[:, covered:e.start] = 0.0   # steps no rule covers
                dx[:, sl] *= f
                covered = e.stop
            else:
                dx[:, sl] += f * dw[:, sl, j - 1, None]
            g[..., sl] += np.square(f, out=f).sum(axis=-1)
            del f   # not alive while the next rule builds its field
        if dx is dw:
            dx[:, covered:] = 0.0
    del dw, wn
    riemann = g[..., :stop].sum(axis=-1) * spec.dt

    zakai = []
    if half_power is not None:
        y = _pow(g[..., :stop], half_power)
        if y.ndim == 2:
            bounds = _group_bounds(paths)
            groups = len(bounds)
            for grp in range(lo * groups // paths, (hi - 1) * groups // paths + 1):
                gl = max(lo, bounds[grp][0])
                gh = min(hi, bounds[grp][1])
                if gl < gh:
                    zakai.append((grp, y[gl - lo:gh - lo].sum(axis=0)))
        elif b == 0:
            zakai.append((slice(None), y))
        del y
    del g

    xx = np.cumsum(dx, axis=1, out=dx)    # X at grid indices 1..S
    # + 0.0 maps -0.0 to +0.0: steps scaled in place by f = 0 hold -0.0 where dW < 0
    x_stop = xx[:, stop - 1] + 0.0 if stop else np.zeros((bsz, d))
    head = xx[:, :stop]
    if d == 1:
        norms = np.abs(head[:, :, 0], out=head[:, :, 0])
    else:
        norms = np.linalg.norm(head, axis=2)
    return lo, hi, x_stop, norms.max(axis=1, initial=0.0), riemann, zakai


def simulate(spec: IntegrandSpec, paths: int, seed: int, t: float | None = None,
             p=None) -> WienerBatch:
    """Simulate the batch once and reduce it to per-path statistics.

    Statistics are taken at/up to time t (default: the horizon), which must
    lie on the grid. Given the exponent p, the batch also carries the ZAKAI
    rows for that p. Deterministic for fixed (spec, paths, seed, t, p),
    whatever the number of worker threads.
    """
    stop = spec.steps if t is None else grid_index(spec, t)
    block_bytes, room = _check_run(spec, paths, seed, 0 if p is None else stop)
    paths, seed = int(paths), int(seed)
    half_power = None if p is None else as_exponent(p) / 2.0

    x_stop = np.empty((paths, spec.dim))
    sup_norm = np.empty(paths)
    riemann = np.empty(paths)
    zrows = None if p is None else np.zeros((len(_group_bounds(paths)), stop))

    def merge(results) -> None:
        # block order fixes the addition order of the ZAKAI partial rows
        for lo, hi, xs, sup, rie, zakai in results:
            x_stop[lo:hi] = xs
            sup_norm[lo:hi] = sup
            riemann[lo:hi] = rie
            for g, row in zakai:
                zrows[g] += row

    blocks = -(-paths // BLOCK_PATHS)
    run = functools.partial(_block, spec, paths, seed, stop, half_power)
    workers = _workers(blocks, block_bytes, room)
    if workers <= 1:
        merge(map(run, range(blocks)))
    else:
        # imported on first use: a process that never runs a multi-block
        # batch does not pay the module's resident memory
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="martcheck-mc") as pool:
            futures = [pool.submit(run, b) for b in range(blocks)]
            try:
                merge(f.result() for f in futures)
            except BaseException:
                for f in futures:
                    f.cancel()
                raise

    if zrows is not None and not spec.needs_wiener:
        # deterministic integrand: each row holds block 0's row g^{p/2},
        # which every path of the group contributes
        sizes = np.array([gh - gl for gl, gh in _group_bounds(paths)], dtype=float)
        zrows *= sizes[:, None]

    return WienerBatch(spec=spec, seed=seed, paths=paths, stop=stop,
                       x_stop=x_stop, sup_norm=sup_norm, riemann=riemann,
                       zakai_rows=zrows)


def _mc_power(y: np.ndarray, expo: float) -> tuple[float, float]:
    """(mean y)^expo with its delta-method standard error."""
    n = len(y)
    mean = float(y.mean())
    if mean <= 0.0:
        return 0.0, 0.0
    se_mean = float(y.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    value = mean ** expo
    return value, abs(expo) * mean ** (expo - 1.0) * se_mean


def _zakai_integral(batch: WienerBatch, p: float) -> tuple[float, float]:
    """Left sum dt * sum_{i<stop} ||g(t_i)||_{p/2} with a batch-means SE.

    The simulated integrand is constant on each step, so the left sum is the
    exact time integral for the simulated process."""
    zrows, dt = batch.zakai_rows, batch.spec.dt
    sizes = np.array([hi - lo for lo, hi in _group_bounds(batch.paths)], dtype=float)
    point = dt * float(_pow(zrows.sum(axis=0) / batch.paths, 2.0 / p).sum())
    per_group = dt * _pow(zrows / sizes[:, None], 2.0 / p).sum(axis=1)
    se = float(per_group.std(ddof=1)) / math.sqrt(len(sizes))
    return point, se


def _report(batch: WienerBatch, t: float, p: float, cid: ContinuousId) -> InequalityReport:
    bound = BOUNDS[cid]
    notes = ""
    if bound.side == "terminal":
        if batch.spec.dim == 1:
            stat = np.abs(batch.x_stop[:, 0])
        else:
            stat = np.linalg.norm(batch.x_stop, axis=1)
    else:
        stat = batch.sup_norm
        notes = "supremum over grid points only (downward-biased left side)"
    lhs, lhs_se = _mc_power(_pow(stat, p), 2.0 / p)

    constant = bound.constant(p)
    if bound.base == "increments":
        base, base_se = _zakai_integral(batch, p)
    else:
        base, base_se = _mc_power(_pow(batch.riemann, p / 2.0), 2.0 / p)
    rhs = constant * base
    rhs_se = constant * base_se

    lhs_hw = Z95 * lhs_se
    rhs_hw = Z95 * rhs_se
    if lhs + lhs_hw <= rhs - rhs_hw:
        verdict = "satisfied"
    elif lhs - lhs_hw > rhs + rhs_hw:
        verdict = "violation-candidate"
    else:
        verdict = "inconclusive"
    return InequalityReport(
        id=cid.value, p=p, n_or_t=float(t), lhs=lhs, rhs=rhs, constant=constant,
        ratio=_ratio(lhs, rhs), satisfied=verdict == "satisfied", verdict=verdict,
        ci_lhs=lhs_hw, ci_rhs=rhs_hw, seed=batch.seed, notes=notes)


def eval_continuous(spec: IntegrandSpec, t: float, p, ineq_ids: Sequence,
                    paths: int, seed: int) -> list[InequalityReport]:
    """Monte Carlo comparison of continuous inequalities at time t.

    C-BURK-1:   ||X_t||_p^2       <= (p-1)^2  * || int sum_j ||f^j||^2 du ||_{p/2}
    C-BURK-2:   ||sup ||X||||_p^2 <= p^2      * (same right side)
    ZAKAI-MAIN: ||X_t||_p^2       <= (p-1)    * int_0^t || sum_j ||f^j_u||^2 ||_{p/2} du
    ZAKAI-MAX:  ||sup ||X||||_p^2 <= p^2/(p-1) * (same integral)

    One simulation of (spec, paths, seed) serves every id in ineq_ids, and
    one report per id comes back in the order given. The ZAKAI time
    integral is the left sum over the grid steps before t, which is exact
    for the piecewise-constant simulated integrand. The verdict is
    three-valued: satisfied when the lhs upper 95% bound is below the rhs
    lower bound, violation-candidate when the lhs lower bound exceeds the
    rhs upper bound, inconclusive otherwise. The supremum is taken over
    grid points only, which biases the maximal statistics downward; reports
    carry a note saying so.
    """
    p = as_exponent(p)
    if isinstance(ineq_ids, (str, ContinuousId)):
        raise DomainError("ineq_ids must be a sequence of inequality ids")
    cids = [coerce_id(ContinuousId, i) for i in ineq_ids]
    zakai_p = p if any(BOUNDS[c].base == "increments" for c in cids) else None
    batch = simulate(spec, paths, seed, t, zakai_p)
    return [_report(batch, t, p, cid) for cid in cids]


def gaussian_abs_moment(p) -> float:
    """E|Z|^p = 2^{p/2} Gamma((p+1)/2) / sqrt(pi) for standard Gaussian Z.

    Evaluated in log space, so only a result beyond the float range fails."""
    p = float(p)
    if not (math.isfinite(p) and p >= 0.0):
        raise DomainError(f"need p >= 0, got {p!r}")
    log_value = 0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0))
    try:
        return math.exp(log_value) / math.sqrt(math.pi)
    except OverflowError:
        raise DomainError(f"E|Z|^p overflows a float at p={p!r}") from None
