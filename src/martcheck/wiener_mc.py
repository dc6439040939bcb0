"""Seeded Monte Carlo for stochastic-integral moment inequalities.

Paths of X_t = sum_j int_0^t f^j_u dW^j_u are simulated on a uniform grid
with left-endpoint (Ito) sums. Integrands come from a tiny rule grammar
(CONST / LIN / SIGN per step range and Wiener component), so the simulated
process is itself an exact Ito integral of a piecewise-constant integrand
and the continuous inequalities apply to it without discretization error.

Reproducibility: paths are partitioned into fixed 1024-path blocks; block b
of a run with seed s draws from SFC64 keyed by
SeedSequence(entropy=s, spawn_key=(10, b)) the normals of its steps before
t, in (step, component, path) order. A block draws them in cache-sized
chunks of steps, in order, which gives exactly the normals of one draw, and
holds dW, W and X steps-major; a rule's terms are built in contiguous
(steps, paths) planes, from constants simulate builds once per run (see
_plan). Each chunk reduces its own steps, its rows of g = sum_j ||f^j||^2
included, in arrays the block allocates once and reuses, and carries W, X
and the per-path sums to the next; the block writes its per-path rows into
the batch. A constant integrand's g, one row every path shares, is set
once by simulate. The blocks run on a thread
pool with one worker per CPU the process may use (its CPU affinity), and
the calling thread merges each block's ZAKAI partial rows and g > 0 steps
in block order; if a CPU is left free for each worker, a helper thread
draws a block's next chunk as it reduces one. The block decomposition and
all reduction orders are algorithm constants, so the bits do not depend on
the chunk size, the worker count, the helper or the order in which blocks
finish; a path's bits depend on its block's path count, so runs share
their whole blocks. One simulation serves every inequality id and
exponent of a run. X is added left to right along the steps (see _chunk),
so X at a grid index depends on the steps before it alone: only an id
that reads the supremum has the paths scanned, and without one X_stop
keeps the bits of the scan.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, LevelRangeError, ResourceLimitError, refuse_overflow
from .ineq import BOUNDS, ContinuousId, ReportTable, coerce_ids, report_table
from .ptree import SPAWN_DOMAINS, as_exponents, as_int, as_positive, as_seed, row_norms

BLOCK_PATHS = 1024          # fixed substream block size
CI_GROUPS = 32              # batch-means groups for the time-integral CI
DEFAULT_CELL_CAP = 1 << 31  # paths * steps * m guard
BLOCK_MEMORY_BUDGET = 1 << 30  # bytes of block working sets in flight at once
_UFUNC_BUFFER_BYTES = 1 << 18  # numpy's buffers for a strided in-place update
_CHUNK_CELLS = 1 << 18     # cells of a step chunk's (steps, paths) arrays: 2 MiB, one L2 cache
_STEP_CELLS = 256           # cells a step needs for a running sum to add it in one numpy call
_ENTRY_BYTES = 400          # bytes per component of constant_integrand (traced peak ~330)
Z95 = 1.96                  # fixed 95% half-width multiplier

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
    Derived: ordered, the entries by component, then by start step;
    needs_wiener, whether any rule reads W;
    widest, the most steps a CONST rule and a LIN or SIGN rule cover (0 if
    there is none).
    """

    dim: int
    wiener_dim: int
    horizon: float
    steps: int
    entries: tuple[RuleEntry, ...]
    ordered: tuple[RuleEntry, ...] = field(init=False, repr=False, compare=False)
    needs_wiener: bool = field(init=False, repr=False, compare=False)
    widest: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("dim", "wiener_dim", "steps"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.dim < 1 or self.wiener_dim < 1 or self.steps < 1:
            raise DomainError("need dim >= 1, wiener_dim >= 1, steps >= 1")
        object.__setattr__(self, "horizon", as_positive(self.horizon, "horizon"))
        widest = [0, 0]
        checked = None   # the rule last checked; constant_integrand shares one
        for e in self.entries:
            if not type(e.start) is type(e.stop) is type(e.j) is int:   # used as indices
                raise DomainError(f"rule start, stop and j must be ints, got {e.start!r}, "
                                  f"{e.stop!r} and {e.j!r}")
            rule, reads_w = e.rule, e.rule.kind != "const"
            if rule is not checked:
                checked = rule
                if rule.kind not in RULE_KINDS:
                    raise DomainError(f"unknown rule kind {rule.kind!r}")
                if len(rule.c) != self.dim or not all(isinstance(v, numbers.Real)
                                                      for v in rule.c):
                    raise DomainError(f"rule coefficient must be {self.dim} real numbers")
                if reads_w and not (type(rule.k) is int and 1 <= rule.k <= self.wiener_dim):
                    raise DomainError(f"rule references W^k with k={rule.k!r}")
                if not reads_w and rule.k is not None:
                    raise DomainError(f"a const rule reads no W^k, got k={rule.k!r}")
            if not 1 <= e.j <= self.wiener_dim:
                raise DomainError(f"rule component j={e.j} outside 1..{self.wiener_dim}")
            if not 0 <= e.start < e.stop <= self.steps:
                raise DomainError(f"step range [{e.start},{e.stop}) outside the grid")
            widest[reads_w] = max(widest[reads_w], e.stop - e.start)
        ordered = tuple(sorted(self.entries, key=attrgetter("j", "start")))
        for prev, nxt in zip(ordered, ordered[1:]):
            if nxt.j == prev.j and nxt.start < prev.stop:
                raise DomainError(f"overlapping step ranges for component j={nxt.j}")
        object.__setattr__(self, "ordered", ordered)
        object.__setattr__(self, "needs_wiener", widest[1] > 0)
        object.__setattr__(self, "widest", tuple(widest))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


def check_dim(dim: int) -> None:
    """Refuse, before a scalar coefficient is broadcast to it, an integrand
    dimension no run could hold: two paths' output rows alone, 16 (dim + 2)
    bytes, would exceed BLOCK_MEMORY_BUDGET."""
    if 16 * (dim + 2) > BLOCK_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"integrand dim={dim}: two paths' output rows need {16 * (dim + 2)} "
            f"bytes, over the {BLOCK_MEMORY_BUDGET}-byte block memory budget")


def constant_integrand(value, dim: int = 1, wiener_dim: int = 1,
                       horizon: float = 1.0, steps: int = 1024) -> IntegrandSpec:
    """f^j = value (a scalar broadcast to R^dim) for every j and every step.

    A wiener_dim no run could hold is refused before its entries are built:
    two paths over the cell cap, or entries over BLOCK_MEMORY_BUDGET."""
    dim, wiener_dim, steps = (as_int(v, name) for v, name in (
        (dim, "dim"), (wiener_dim, "wiener_dim"), (steps, "steps")))
    check_dim(dim)
    cells, entry_bytes = 2 * steps * wiener_dim, wiener_dim * _ENTRY_BYTES
    if cells > DEFAULT_CELL_CAP or entry_bytes > BLOCK_MEMORY_BUDGET:
        raise ResourceLimitError(
            f"wiener_dim={wiener_dim}: two paths are {cells} cells (cap {DEFAULT_CELL_CAP}), "
            f"its entries ~{entry_bytes} bytes (budget {BLOCK_MEMORY_BUDGET})")
    try:
        rule = Rule("const", (float(value),) * dim)
    except (TypeError, ValueError):
        raise DomainError(f"value must be a real number, got {value!r}") from None
    entries = tuple(RuleEntry(0, steps, j, rule) for j in range(1, wiener_dim + 1))
    return IntegrandSpec(dim, wiener_dim, horizon, steps, entries)


@dataclass
class WienerBatch:
    """Simulated paths reduced to the per-path statistics the bounds need.

    stop: grid index of the evaluation time t.
    x_stop: X at the stop grid index, one row per path.
    sup_norm: max of ||X|| over grid points 0..stop per path; None without sup.
    riemann: left-endpoint sum of g = sum_j ||f^j||^2 over [0, t_stop] per path.
    p: the exponents given to simulate.
    zakai_rows: (len(p), groups, stop) sums of g(t_i)^{p_k/2} over the paths
        of each batch-means group (see _group_bounds); None when p is empty.
    g_positive: (stop,) whether g(t_i) > 0 on some path; None when p is empty.
    g itself is not kept: each chunk of steps of a block reduces its own
    rows of g to these statistics, and simulate a constant integrand's one
    row.
    """

    spec: IntegrandSpec
    seed: int
    paths: int
    stop: int
    x_stop: np.ndarray
    sup_norm: np.ndarray | None
    riemann: np.ndarray
    p: tuple[float, ...] = ()
    zakai_rows: np.ndarray | None = None
    g_positive: np.ndarray | None = None

    @functools.cached_property
    def group_sizes(self) -> np.ndarray:   # of the batch-means groups, a column
        return np.array([hi - lo for lo, hi in _group_bounds(self.paths)], dtype=float)[:, None]


def _pow(arr: np.ndarray, e: float) -> np.ndarray:
    e = float(e)
    return arr ** int(e) if e == int(e) else arr ** e


def _check_run(spec: IntegrandSpec, paths: int, seed: int, stop: int,
               exponents: int) -> tuple[int, int]:
    """Reject a run before it allocates. Return one block's working-set bytes,
    the arrays of _block_cells at the chunk size _block uses (a full block's
    or the last block's, whichever holds more) and numpy's ufunc buffers,
    and the room for blocks in flight: BLOCK_MEMORY_BUDGET less the output
    simulate keeps (per-path rows, ZAKAI rows and g > 0 steps up to the stop
    index) and the block results merge may hold at once: each block's g > 0
    row and ZAKAI rows, groups + blocks - 1 per exponent, unless g is constant."""
    paths = as_int(paths, "paths")
    if paths < 2:
        raise DomainError("paths must be >= 2")
    as_seed(seed)
    cells = paths * spec.steps * spec.wiener_dim
    if cells > DEFAULT_CELL_CAP:
        raise ResourceLimitError(
            f"paths*steps*m = {cells} exceeds the cap {DEFAULT_CELL_CAP}")
    groups, blocks, nw = min(CI_GROUPS, paths), -(-paths // BLOCK_PATHS), spec.needs_wiener
    out_cells = paths * (spec.dim + 2) + exponents * (groups + nw * (groups + blocks - 1)) * stop
    out_bytes = 8 * out_cells + (exponents > 0) * (1 + nw * blocks) * stop   # g > 0: a byte a step
    bsz = min(paths, BLOCK_PATHS)
    block_bytes = max(8 * sum(_block_cells(spec, rows, _split(spec, rows, stop), stop,
                                           exponents).values())
                      for rows in {bsz, paths % BLOCK_PATHS or bsz}) + _UFUNC_BUFFER_BYTES
    room = BLOCK_MEMORY_BUDGET - out_bytes
    if block_bytes > room:
        raise ResourceLimitError(
            f"one {bsz}-path block of {spec.steps} steps needs {block_bytes} bytes "
            f"and the run's output and block results {out_bytes} bytes, over the "
            f"{BLOCK_MEMORY_BUDGET}-byte block memory budget")
    return block_bytes, room


def _cpus() -> int:
    """CPUs this process may use: its CPU affinity, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _workers(blocks: int, block_bytes: int, room: int) -> int:
    """Threads for a run: one per CPU this process may use, at most one per
    block, and no more blocks in flight than room bytes hold."""
    return max(1, min(blocks, _cpus(), room // block_bytes))


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


def _group_bounds(paths: int) -> list[tuple[int, int]]:
    """Path ranges of the min(CI_GROUPS, paths) batch-means groups."""
    groups = min(CI_GROUPS, paths)
    return [(-(-g * paths // groups), -(-(g + 1) * paths // groups))
            for g in range(groups)]


def _plan(spec: IntegrandSpec) -> tuple[list[tuple[int, int]], list[tuple]]:
    """spec.ordered as _chunk applies it, built once per run and shared by its
    blocks: (gaps, rules). rules holds a tuple (start, stop, j, n, write,
    kind, k, c, norm2) per run of n entries on components j + 1 .. j + n
    that share one rule object and one step range, n > 1 only where d = 1
    (a one-dimensional constant_integrand is one run); k is W's index (None
    for CONST), c the coefficient vector as a (d, 1, 1) array and norm2 =
    ||c||^2, its squares added left to right, first component first, as
    ptree.row_norms adds them. The entries of the first component with
    rules come first at every step they cover, and their ranges do not
    overlap, so their runs write their terms (write; 0 + t is t but for
    the sign of a zero) and later runs add theirs; gaps are the step
    ranges that the first component's rules leave, whose terms start
    from 0."""
    gaps, reach, norms, rules = [], 0, {}, []
    for e in spec.ordered:
        rule, write = e.rule, e.j == spec.ordered[0].j
        if write:
            if e.start > reach:
                gaps.append((reach, e.start))
            reach = e.stop
        if rules and spec.dim == 1:
            first, last, j, n = rules[-1][:4]
            if rule is rules[-1][-1] and e.j == j + n + 1 and (e.start, e.stop) == (first, last):
                rules[-1][3] += 1
                continue
        if id(rule) not in norms:
            c = np.array(rule.c, dtype=float)
            norms[id(rule)] = (c[:, None, None],   # float products overflow to inf silently
                               functools.reduce(operator.add, [v * v for v in c.tolist()], 0.0))
        rules.append([e.start, e.stop, e.j - 1, 1, write, rule.kind,
                      None if rule.k is None else rule.k - 1, *norms[id(rule)], rule])
    if reach < spec.steps:
        gaps.append((reach, spec.steps))
    return gaps, [tuple(run[:-1]) for run in rules]


def _block_cells(spec: IntegrandSpec, rows: int, steps: int, stop: int,
                 exponents: int) -> dict[str, int]:
    """The cells of each array a block of rows paths holds while it reduces
    the steps before stop in chunks of at most steps steps, given
    exponents exponents: the one account of a block's memory. A chunk's
    arrays ("dw"; "ahead", drawn ahead, with two chunks or more; "w", "g"
    and "x") have steps + 1 rows, row 0 for the carried state; "rule" holds
    the planes of f^j dW^j over a rule's steps of the chunk (d, none for
    CONST in place) and a LIN or SIGN rule's field; "row" is a constant
    integrand's one row of g, set by simulate (in batches of repeated adds
    when d = 1 < m); "power" and "reduceat" are one exponent's g^{p/2} and
    its group sums; "carry" the carried rows and a per-path temporary. Its
    results are charged with the run's output (see _check_run)."""
    (const, reads_w), m, d, nw = spec.widest, spec.wiener_dim, spec.dim, spec.needs_wiener
    in_place, chunk, groups = d == m == 1, (steps + 1) * rows, min(CI_GROUPS, rows)
    width, powers = min(max(reads_w, 0 if in_place else const), steps), exponents > 0
    return {"dw": chunk * m, "ahead": (stop > steps) * chunk * m,
            "w": nw * chunk * m, "g": nw * chunk, "x": (not in_place) * chunk * d,
            "rule": rows * (d * width + min(reads_w, steps)),
            "row": (not nw) * (spec.steps + (d == 1 < m) * min(_CHUNK_CELLS, m * spec.steps)),
            "power": powers * (rows * steps if nw else stop),
            "reduceat": powers * nw * groups * steps,
            "carry": (d + 3) * rows, "plan": d * len(spec.entries)}


def _chunk_steps(spec: IntegrandSpec, rows: int) -> int:
    """Steps per chunk of a block of rows paths: as many as keep the arrays
    of _block_cells that hold a row of paths per step, each counted with
    steps + 1 rows, within _CHUNK_CELLS cells, so that they stay in a
    core's cache. The buffer drawn ahead is filled on another core and is
    not counted. At most 16 arrays are counted: a chunk of more stays out
    of cache at any useful size, and holds _CHUNK_CELLS / 16 cells per
    array, 15 steps or more, so that its Python work per rule and step is
    spread enough."""
    one, zero = (_block_cells(spec, 1, steps, 0, 1) for steps in (1, 0))
    arrays = sum(one[name] - zero[name] for name in ("dw", "w", "g", "x", "rule", "power"))
    return _CHUNK_CELLS // (min(arrays, 16) * rows) - 1


def _split(spec: IntegrandSpec, rows: int, stop: int) -> int:
    """Steps per chunk of a block of rows paths that reduces the steps before
    stop: the fewest chunks of at most _chunk_steps, of even sizes."""
    chunks = -(-stop // _chunk_steps(spec, rows))
    return -(-stop // chunks) if chunks else 1


def _view(flat: np.ndarray, *shape: int) -> np.ndarray:
    """A C-contiguous array of the given shape on the head of a flat array."""
    return flat[:math.prod(shape)].reshape(shape)


def _running_sum(a: np.ndarray, incr: np.ndarray | None = None) -> None:
    """a[i + 1] = a[i] + incr[i] for each step i in turn, from the carried
    a[0]; incr defaults to a[1:], summed in place. A step of _STEP_CELLS
    cells or more is one numpy add across them; fewer take np.cumsum down
    the steps, which adds in the same order and spares a call per step."""
    if a[0].size >= _STEP_CELLS:
        for prev, step, nxt in zip(a, a[1:] if incr is None else incr, a[1:]):
            np.add(prev, step, out=nxt)
    else:
        if incr is not None:
            a[1:] = incr
        np.cumsum(a, axis=0, out=a)


def _total(a: np.ndarray, out: np.ndarray) -> None:
    """out = a[0] + a[1] + ..., added left to right: numpy reduces the first
    axis one vectorised add at a time across the last, the paths, if that
    has two cells or more; over one path it may sum pairwise, so a takes a
    cumsum in place."""
    if a.shape[-1] > 1:
        np.add.reduce(a, axis=0, out=out)
    else:
        np.cumsum(a, axis=0, out=a)
        out[...] = a[-1]


def _add_in_turn(out: np.ndarray, terms: np.ndarray, onto: bool = True) -> None:
    """out = terms[0] + terms[1] + ..., each added in turn, onto out's own
    values unless onto is False: those are first added into terms[0], then
    one _total. terms is overwritten."""
    if onto:
        terms[0] += out
    _total(terms, out)


def _add_repeated(out: np.ndarray, value: float, n: int) -> None:
    """out += value, n times over, each cell's adds in turn (see
    _add_in_turn), in batches of at most _CHUNK_CELLS cells."""
    per = max(1, _CHUNK_CELLS // out.size)
    for done in range(0, n, per):
        if min(per, n - done) == 1:
            out += value
        else:
            _add_in_turn(out, np.full((min(per, n - done), out.size), value))


def _chunk_arrays(spec: IntegrandSpec, rows: int, steps: int, stop: int,
                  ahead: bool) -> dict[str, np.ndarray]:
    """A block's flat arrays of _block_cells for chunks of at most steps steps,
    allocated once and reused by every chunk: the dW buffers (the second
    given ahead), W, whose row 0 starts at W_0 = 0, g, X and rule planes."""
    cells = _block_cells(spec, rows, steps, stop, 0)
    names = ("dw", "ahead")[:1 + ahead] + ("w", "g", "x", "rule")
    arrays = {name: np.empty(cells[name]) for name in names}
    arrays["w"][:spec.wiener_dim * rows] = 0.0
    return arrays


def _chunk(spec: IntegrandSpec, plan: tuple, start: int, drawn: np.ndarray,
           arrays: dict[str, np.ndarray], carry: dict[str, np.ndarray | None]) -> None:
    """Reduce steps start .. start + k - 1 of a block's paths, given drawn,
    (k + 1, m, rows) with their Wiener increments dW in rows 1 .. k, which
    it may overwrite, the run's _plan and the block's _chunk_arrays: set
    the chunk's g rows to sum_j ||f^j||^2 (none for a constant integrand,
    whose one row simulate sets) and advance carry, the block's running
    state: X at the chunk's first step ("x", (d, rows)) to X at its end,
    and, unless it is None, the largest |X| (d = 1) or ||X||^2 over the
    grid points so far ("sup"); without it no path is scanned.

    dW, W and X are steps-major, (steps, component, path), so a step of
    each is one contiguous row across the block's paths. W and X are
    running sums from the carried row 0 of their arrays (see
    _running_sum): X_{i+1} = X_i + sum_j f^j(t_i) dW^j_i, added left to
    right along the steps. So X at a grid index depends on the steps
    before it alone, whatever the chunk size: a run with or without sup, or
    stopped later, gives X the same bits. Without sup, X at the chunk's end
    is one reduce down its steps (see _total).

    A rule's terms are built in contiguous (steps, paths) planes, one per
    component of X: its scalar field s once per rule and chunk (sign W^k,
    or W^k copied out of its steps-major rows when m > 1), f^j = c s and
    f^j dW^j, which it writes into X's increments, read as one plane per
    component, or adds to them (see _plan; g likewise); the plan's gaps
    are set to 0 first. A run of n > 1 components of one rule multiplies
    their dW in place and adds them in turn (see _add_in_turn), component
    j before j + 1, as n rules would. X never holds -0 (it starts at +0,
    and a sum is -0 only if both terms are), so a written -0 term, where
    0 + (-0) would give +0, changes no bit of X. The supremum squares X in
    one pass and adds its components left to right, first component
    first, into one plane, on spent dW, before the maximum down the
    steps."""
    k, (m, rows), d = len(drawn) - 1, drawn.shape[1:], spec.dim
    dw = drawn[1:]
    wn = g = None
    if spec.needs_wiener:
        wn = _view(arrays["w"], k + 1, m, rows)   # W at steps start .. start + k
        _running_sum(wn, dw)
        g = _view(arrays["g"], k + 1, rows)[1:]
    # d = m = 1: the increments of X are those of W, scaled in place
    in_place = d == m == 1
    xs = drawn if in_place else _view(arrays["x"], k + 1, d, rows)
    dx = xs[1:]
    planes = dx.transpose(1, 0, 2)   # X's increments, one (steps, paths) plane per component
    gaps, rules = plan
    for lo, hi in gaps:   # steps whose terms start from 0
        a, b = max(lo - start, 0), min(hi - start, k)
        if a < b:
            dx[a:b] = 0.0
            if g is not None:
                g[a:b] = 0.0
    for first, last, j, n, write, kind, kw, c, norm2 in rules:
        a, b = max(first - start, 0), min(last - start, k)
        if a >= b:
            continue
        sl, field, square = slice(a, b), c, norm2
        if kind != "const":
            # f^j = c s, s = W^k or sign(W^k) at the left endpoints; g adds ||c||^2 s^2
            f = _view(arrays["rule"], d, b - a, rows)
            s, w = _view(arrays["rule"][f.size:], b - a, rows), wn[sl, kw]
            if kind == "sign":
                w = np.sign(w, out=s)
            elif m > 1:   # a contiguous copy of W^k
                s[...] = w
                w = s
            field = np.multiply(c, w, out=f)
            square = np.multiply(np.square(w, out=s), norm2, out=s)
        if in_place:   # d = m = 1: every rule writes, scaling dW
            planes[:, sl] *= field
        elif n > 1:   # d = 1
            terms = dw[sl, j:j + n].transpose(1, 0, 2)
            _add_in_turn(planes[0, sl], np.multiply(terms, field, out=terms), not write)
            if g is not None:
                terms[...] = square
                _add_in_turn(g[sl], terms, not write)
            continue
        elif write:
            np.multiply(field, dw[sl, j], out=planes[:, sl])
        else:
            planes[:, sl] += np.multiply(field, dw[sl, j], out=_view(arrays["rule"], d, b - a, rows))
        if g is None:
            continue
        if write:
            g[sl] = square
        else:
            g[sl] += square
    if wn is not None:
        wn[0] = wn[k]   # W at the next chunk's first step

    x, sup = carry["x"], carry["sup"]
    xs[0] = x
    if sup is None:
        _total(xs, x)
        return
    _running_sum(xs)
    x[...] = xs[k]
    if d == 1:
        top = np.abs(dx[:, 0], out=dx[:, 0]).max(axis=0)
    else:
        # sqrt is correctly rounded and monotone: the root of the largest
        # square is the largest norm
        norms = _view(drawn.reshape(-1), k, rows)
        _total(np.square(dx, out=dx).transpose(1, 0, 2), norms)
        top = norms.max(axis=0)
    np.maximum(sup, top, out=sup)


@np.errstate(over="ignore", invalid="ignore")   # inf/NaN sides: report_table refuses
def _block(batch: WienerBatch, plan: tuple, ahead: bool, b: int):
    """Simulate path block b of the batch, its rules applied as the run's
    plan says (see _plan), and write its rows of x_stop, of sup_norm unless
    it is None (see _chunk) and of riemann unless the integrand is
    constant, into the batch's arrays.

    Returns ((first, zakai), positive), which simulate merges in block
    order: zakai holds the (len(batch.p), groups, stop) sums of g^{p/2}, p
    the k-th of batch.p, over the block's paths in each batch-means group
    it overlaps, from group first on, and positive marks the steps before
    stop where g > 0 on some path of the block (None without exponents).
    For a constant integrand simulate sets these from its one row of g, and
    the block returns ((first, None), None).

    The block draws the normals of its steps before stop, and no more, in
    (step, component, path) order, in chunks (see _split) from its
    generator; consecutive draws give the normals of one draw of the whole
    block. Each chunk holds every path of the block, so it reduces its own
    steps completely while its rows of g are in cache: their positive
    steps, one numpy reduceat over the paths per exponent for the group
    shares of g^{p/2}, and the Riemann sums, added left to right from the
    carried sum like X (see _total). No sum crosses a chunk in any other
    order, so the bits do not depend on the chunk size. Given ahead, a
    block of two or more chunks has a helper thread alone draw each next
    chunk, into the other of two buffers, while it reduces one; no bit
    changes either. The block writes only its own rows of the batch, and
    sets its own numpy error state, which worker threads do not inherit.
    """
    spec, paths, stop = batch.spec, batch.paths, batch.stop
    lo, hi = b * BLOCK_PATHS, min((b + 1) * BLOCK_PATHS, paths)
    rows, m, d, nw = hi - lo, spec.wiener_dim, spec.dim, spec.needs_wiener
    gen = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(entropy=batch.seed, spawn_key=(SPAWN_DOMAINS["wiener"], b))))
    steps = _split(spec, rows, stop)
    starts, ahead = range(0, stop, steps), ahead and stop > steps
    arrays = _chunk_arrays(spec, rows, steps, stop, ahead)
    # row 0 of a chunk's buffer is free for X when d = m = 1 scales dW in place
    bufs = [_view(arrays[name], steps + 1, m, rows) for name in ("dw", "ahead") if name in arrays]
    carry = {"x": np.zeros((d, rows)),
             "sup": None if batch.sup_norm is None else np.zeros(rows)}
    riemann = np.zeros(rows)
    half_powers = [v / 2.0 for v in batch.p] if nw else []
    bounds = _group_bounds(paths)
    groups = len(bounds)
    first, last = lo * groups // paths, (hi - 1) * groups // paths + 1   # the groups met
    shares = [max(lo, bounds[grp][0]) - lo for grp in range(first, last)]
    zakai = np.empty((len(half_powers), last - first, stop)) if half_powers else None
    positive = np.empty(stop, dtype=bool) if half_powers else None

    def draw(i: int) -> np.ndarray:
        drawn = bufs[i % len(bufs)][:min(steps, stop - starts[i]) + 1]
        dw = gen.standard_normal(out=drawn[1:])
        np.multiply(dw, math.sqrt(spec.dt), out=dw)
        return drawn

    def reduce(i: int, drawn: np.ndarray) -> None:
        _chunk(spec, plan, starts[i], drawn, arrays, carry)
        if not nw:
            return
        at = slice(starts[i], starts[i] + len(drawn) - 1)
        g = _view(arrays["g"], len(drawn), rows)   # row 0: the Riemann sums so far
        if half_powers:
            positive[at] = g[1:].any(axis=1)   # g >= 0
            for k, half_power in enumerate(half_powers):
                zakai[k, :, at] = np.add.reduceat(_pow(g[1:], half_power), shares, axis=1).T
        g[0] = riemann
        _total(g, riemann)

    if not ahead:
        for i in range(len(starts)):
            reduce(i, draw(i))
    else:
        from concurrent.futures import ThreadPoolExecutor   # as in simulate
        with ThreadPoolExecutor(1, thread_name_prefix="martcheck-mc-draw") as helper:
            drawn = helper.submit(draw, 0)
            for i in range(len(starts)):   # chunk i + 1 goes where chunk i - 1 was
                ready, drawn = drawn, helper.submit(draw, i + 1) if i + 1 < len(starts) else None
                reduce(i, ready.result())
    batch.x_stop[lo:hi] = carry["x"].T
    if batch.sup_norm is not None:
        batch.sup_norm[lo:hi] = carry["sup"] if d == 1 else np.sqrt(carry["sup"])
    if nw:
        batch.riemann[lo:hi] = riemann * spec.dt
    return (first, zakai), positive


def simulate(spec: IntegrandSpec, paths: int, seed: int, t: float | None = None,
             p: Sequence = (), sup: bool = True) -> WienerBatch:
    """Simulate the batch once and reduce it to per-path statistics.

    Statistics are taken at/up to time t (default: the horizon), which must
    lie on the grid. Given exponents p, the batch also carries the ZAKAI rows
    of each, the bits a run given it alone computes. Without sup, sup_norm is
    None and no other bit changes. Deterministic for fixed (spec, paths,
    seed, t, p), whatever threads run it.
    """
    p = as_exponents(p)
    stop = spec.steps if t is None else grid_index(spec, t)
    paths, seed = as_int(paths, "paths"), as_seed(seed)
    block_bytes, room = _check_run(spec, paths, seed, stop, len(p))
    batch = WienerBatch(spec, seed, paths, stop, np.empty((paths, spec.dim)),
                        np.empty(paths) if sup else None, np.empty(paths), p,
                        np.zeros((len(p), min(CI_GROUPS, paths), stop)) if p else None,
                        np.zeros(stop, dtype=bool) if p else None)
    plan = _plan(spec)   # read, never written, by every block
    if not spec.needs_wiener:   # g is one row, shared by every path
        with np.errstate(over="ignore", invalid="ignore"):   # as in _block
            g = np.zeros(spec.steps)
            for first, last, _, n, _, _, _, _, norm2 in plan[1]:   # _chunk's order
                _add_repeated(g[first:last], norm2, n)
            batch.riemann.fill(g[:stop].sum() * spec.dt)
            for k, v in enumerate(p):
                np.multiply(_pow(g[:stop], v / 2.0), batch.group_sizes, out=batch.zakai_rows[k])
        if p:
            batch.g_positive[:] = g[:stop] != 0.0

    def merge(results) -> None:
        # block order fixes the addition order of the ZAKAI partial rows
        for (first, zakai), positive in results:
            if zakai is not None:
                batch.zakai_rows[:, first:first + zakai.shape[1]] += zakai
            if positive is not None:
                np.logical_or(batch.g_positive, positive, out=batch.g_positive)

    blocks = -(-paths // BLOCK_PATHS)
    workers = _workers(blocks, block_bytes, room)
    # a block draws its next chunk on a helper thread if a CPU is left for it
    run = functools.partial(_block, batch, plan, 2 * workers <= _cpus())
    if workers <= 1:
        merge(map(run, range(blocks)))
    else:
        # imported on first use: a process that never starts a thread does
        # not pay the module's resident memory
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="martcheck-mc") as pool:
            futures = [pool.submit(run, b) for b in range(blocks)]
            try:   # a block's result is let go once merged
                merge(futures.pop(0).result() for _ in range(blocks))
            except BaseException:
                for f in futures:
                    f.cancel()
                raise
    return batch


def _band(rows: np.ndarray, p: float, batch: WienerBatch | None = None
          ) -> tuple[float, Callable[[float], tuple[float, float]]]:
    """A side from sample rows at exponent p: its point, and the band of the
    side at a constant, constant * point with half-width Z95 (constant * SE).
    Per-path rows y (no batch) give (mean y)^{2/p}, its SE the delta
    method's, or 0 and 0 for a mean below the normal float range (the powers
    underflowed). A batch's per-group rows, its (groups, stop) sums of
    g^{p/2}, give the left sum dt * sum_{i<stop} m_i^{2/p} over the step
    means m_i, exact for the simulated integrand, with a batch-means SE; a
    step where g > 0 on some path but m_i underflowed raises DomainError.
    The deviation is taken on rows scaled by 2^-e, 2^e the binary scale of
    the mean or point, so squared deviations of tiny or huge rows neither
    underflow nor overflow; a power-of-two scale moves no bit of a normal
    float."""
    def se_of_mean(y: np.ndarray, like: float) -> float:
        e = math.frexp(like)[1]
        return math.ldexp(float(np.std(np.ldexp(y, -e), ddof=1)), e) / math.sqrt(len(y))

    expo, point, se = 2.0 / p, 0.0, 0.0
    if batch is None:
        mean = float(rows.mean())
        if not mean < sys.float_info.min:
            point = mean ** expo
            se = abs(expo) * mean ** (expo - 1.0) * se_of_mean(rows, mean)
    else:
        means = rows.sum(axis=0) / batch.paths
        lost = np.flatnonzero((means < sys.float_info.min) & batch.g_positive)
        if len(lost):
            i = int(lost[0])
            raise DomainError(f"p={p:g}: the sides underflow a float (the ZAKAI mean g^(p/2) "
                              f"at step {i} is {means[i]:.3g} where g > 0 on some path)")
        point = batch.spec.dt * float(_pow(means, expo).sum())
        se = se_of_mean(batch.spec.dt * _pow(rows / batch.group_sizes, expo).sum(axis=1), point)
    return point, lambda constant: (constant * point, Z95 * (constant * se))


def eval_continuous(spec: IntegrandSpec, t: float, p_values: Sequence,
                    ineq_ids: Sequence, paths: int, seed: int) -> ReportTable:
    """Monte Carlo comparison of continuous inequalities at time t.

    C-BURK-1:   ||X_t||_p^2       <= (p-1)^2  * || int sum_j ||f^j||^2 du ||_{p/2}
    C-BURK-2:   ||sup ||X||||_p^2 <= p^2      * (same right side)
    ZAKAI-MAIN: ||X_t||_p^2       <= (p-1)    * int_0^t || sum_j ||f^j_u||^2 ||_{p/2} du
    ZAKAI-MAX:  ||sup ||X||||_p^2 <= p^2/(p-1) * (same integral)

    One simulation of (spec, paths, seed) serves every exponent and id; the
    reports come back as one ReportTable in (p, id) order. The ZAKAI time
    integral is the left sum over the grid steps before t, which is exact
    for the piecewise-constant simulated integrand. Each side and base is
    estimated once per exponent, with its 95% half-width (see _band);
    ineq.decide reads the bands side -+ half-width. The supremum is taken
    over grid points only, which biases the maximal statistics downward;
    reports carry a note saying so. A side or half-width that overflows a
    float raises DomainError, as does a side estimated from paths that are
    not all 0 whose mean power lies below the normal float range (it
    underflowed).
    """
    p_values = as_exponents(p_values)
    bounds = [BOUNDS[i] for i in coerce_ids(ContinuousId, ineq_ids)]
    sides, bases = {b.side for b in bounds}, {b.base for b in bounds}
    batch = simulate(spec, paths, seed, t, p_values if "increments" in bases else (),
                     sup="sup" in sides)
    stats = {"terminal": np.abs(batch.x_stop[:, 0]) if spec.dim == 1
             else row_norms(batch.x_stop), "sup": batch.sup_norm}
    # paths not all 0 per side and base (sup >= |x_stop|; g^{p/2} may underflow)
    moved = {"terminal": batch.x_stop.any(), "square": batch.riemann.any()}
    moved.update(sup=moved["terminal"] or "sup" in sides and batch.sup_norm.any(),
                 increments=moved["square"])
    rows = []   # per (p, id): lhs, its half-width, constant, rhs, its half-width
    with np.errstate(over="ignore", invalid="ignore"):   # report_table refuses inf/NaN
        for p in p_values:
            bands = {side: _band(_pow(stats[side], p), p) for side in sides}
            bands.update({base: _band(batch.zakai_rows[batch.p.index(p)], p, batch)
                          if base == "increments" else _band(_pow(batch.riemann, p / 2.0), p)
                          for base in bases})
            zero = sorted(n for n, (point, _) in bands.items() if point == 0.0 and moved[n])
            if zero:
                raise DomainError(f"p={p:g}: the sides underflow a float (the {', '.join(zero)} "
                                  f"mean powers fall below the normal range from nonzero paths)")
            for b in bounds:   # after the checks: a constant past the float range raises last
                c = b.constant(p)
                rows.append((*bands[b.side][1](1.0), c, *bands[b.base][1](c)))
    lhs, lhs_hw, constant, rhs, rhs_hw = np.array(rows, dtype=float).reshape(-1, 5).T
    sup_note = "supremum over grid points only (downward-biased left side)"
    return report_table(
        [b.ito_id.value for b in bounds] * len(p_values),
        [p for p in p_values for _ in bounds], [float(t)] * len(rows),
        lhs, rhs, constant, lhs_hw, rhs_hw, batch.seed,
        [sup_note if b.side == "sup" else "" for b in bounds] * len(p_values))


@refuse_overflow("E|Z|^p")
def gaussian_abs_moment(p) -> float:
    """E|Z|^p = 2^{p/2} Gamma((p+1)/2) / sqrt(pi) for standard Gaussian Z.

    Evaluated in log space, so only a result beyond the float range fails."""
    p = float(p)
    if not (math.isfinite(p) and p >= 0.0):
        raise DomainError(f"need p >= 0, got {p!r}")
    log_value = 0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0))
    return math.exp(log_value) / math.sqrt(math.pi)
