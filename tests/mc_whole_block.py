"""simulate as it reduced a path block before each row chunk reduced its own
paths: one pass over the whole block, with g = sum_j ||f^j||^2 held as a
(paths, steps) array and the Riemann sums, the steps where g > 0 and the
ZAKAI partial rows taken from it at the end. The reference the chunked
kernel is held to bit for bit."""
import functools
import math

import numpy as np

from martcheck.wiener_mc import (
    BLOCK_PATHS,
    BLOCK_STEPS,
    _group_bounds,
    _pow,
    grid_index,
)


def sum_squares(parts):
    """sum_q parts[q]^2, added left to right from the first part."""
    return functools.reduce(np.add, [np.square(part) for part in parts])


def blocked_steps(dx):
    """X at grid indices 1..S, given its increments (d, rows, S), one
    BLOCK_STEPS block of steps at a time: X at the end of a block adds the
    block's pairwise sum (numpy's, over a contiguous row) to X at its start,
    and X inside a block adds X at the block's start and its increments
    left to right."""
    xx = np.empty_like(dx)
    start = np.zeros(dx.shape[:2])
    for k in range(0, dx.shape[2], BLOCK_STEPS):
        steps = dx[:, :, k:k + BLOCK_STEPS]
        xx[:, :, k:k + BLOCK_STEPS] = np.cumsum(
            np.concatenate([start[..., None], steps], axis=2), axis=2)[:, :, 1:]
        if steps.shape[2] == BLOCK_STEPS:
            start = start + np.ascontiguousarray(steps).sum(axis=2)
            xx[:, :, k + BLOCK_STEPS - 1] = start
    return xx


def whole_block(spec, dw, stop, g):
    """x_stop and sup_norm rows of a block's paths, given all their Wiener
    increments (paths, steps, m); adds sum_j ||f^j||^2 into g."""
    (rows, S, m), d = dw.shape, spec.dim
    wn = np.zeros((m, rows, S + 1))
    np.cumsum(dw, axis=1, out=wn[:, :, 1:].transpose(1, 2, 0))
    in_place = d == m == 1
    dx = dw.reshape(1, rows, S) if in_place else np.zeros((d, rows, S))
    covered = 0
    for e in spec.ordered:
        sl = slice(e.start, e.stop)
        if in_place:
            dx[0, :, covered:e.start] = 0.0
            covered = e.stop
        f = np.array(e.rule.c)[:, None, None]
        if e.rule.kind != "const":
            w = wn[e.rule.k - 1, :, sl]
            f = (w if e.rule.kind == "lin" else np.sign(w)) * f
        if in_place:
            dx[0, :, sl] *= f[0]
        else:
            dx[:, :, sl] += f * dw[:, sl, e.j - 1]
        g[..., sl] += sum_squares(e.rule.c if e.rule.kind == "const" else f)
    if in_place:
        dx[0, :, covered:] = 0.0
    xx = blocked_steps(dx)
    x_stop = xx[:, :, stop - 1].T + 0.0 if stop else np.zeros((rows, d))
    head = xx[:, :, :stop]
    if d == 1:
        norms = np.abs(head[0], out=head[0])
    else:
        norms = np.sqrt(sum_squares(head))
    return x_stop, norms.max(axis=1, initial=0.0)


def reference_simulate(spec, paths, seed, t=None, p=()):
    """(x_stop, sup_norm, riemann, zakai_rows, g_positive) of simulate, each
    block drawn in one draw and reduced in one pass."""
    stop = spec.steps if t is None else grid_index(spec, t)
    half_powers = [float(v) / 2.0 for v in p]
    bounds = _group_bounds(paths)
    groups = len(bounds)
    x_stop, sup_norm, riemann = np.empty((paths, spec.dim)), np.empty(paths), np.empty(paths)
    zrows = np.zeros((len(p), groups, stop)) if p else None
    g_positive = np.zeros(stop, dtype=bool) if p else None
    for b, lo in enumerate(range(0, paths, BLOCK_PATHS)):
        hi = min(lo + BLOCK_PATHS, paths)
        gen = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(entropy=seed, spawn_key=(10, b))))
        dw = gen.standard_normal((hi - lo, spec.steps, spec.wiener_dim))
        np.multiply(dw, math.sqrt(spec.dt), out=dw)
        g = np.zeros((hi - lo, spec.steps) if spec.needs_wiener else spec.steps)
        x_stop[lo:hi], sup_norm[lo:hi] = whole_block(spec, dw, stop, g)
        riemann[lo:hi] = g[..., :stop].sum(axis=-1) * spec.dt
        if not p:
            continue
        positive = g[:, :stop].any(axis=0) if g.ndim == 2 else g[:stop] != 0.0
        np.logical_or(g_positive, positive, out=g_positive)
        for k, half_power in enumerate(half_powers):
            y = _pow(g[..., :stop], half_power)
            if y.ndim == 1:
                if b == 0:
                    zrows[k] += y
                continue
            for grp in range(lo * groups // paths, (hi - 1) * groups // paths + 1):
                gl, gh = max(lo, bounds[grp][0]), min(hi, bounds[grp][1])
                zrows[k, grp] += y[gl - lo:gh - lo].sum(axis=0)
    if p and not spec.needs_wiener:
        zrows *= np.array([gh - gl for gl, gh in bounds], dtype=float)[:, None]
    return x_stop, sup_norm, riemann, zrows, g_positive
