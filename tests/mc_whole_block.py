"""simulate written out one grid step at a time: each block draws all its
normals before t in one steps-major draw, (steps, m, paths), and a Python
loop over the steps advances W, X, g, the Riemann sums, the supremum and the
ZAKAI group shares across the block's paths. The reference the chunked
kernel is held to bit for bit."""
import functools
import math

import numpy as np

from martcheck.wiener_mc import BLOCK_PATHS, _group_bounds, _pow, grid_index


def sum_squares(parts):
    """sum_q parts[q]^2, added left to right from the first part."""
    return functools.reduce(np.add, [np.square(part) for part in parts])


def share_sum(y):
    """The sum of a group share's values as numpy's reduceat takes it: the
    first value plus numpy's pairwise sum of the rest."""
    return y[0] + y[1:].sum()


def block_steps(spec, dw, stop):
    """x_stop, sup_norm and the (stop, rows) rows of g = sum_j ||f^j||^2 of
    a block's paths, given their Wiener increments (stop, m, rows); g is one
    row (stop,) for a constant integrand."""
    (_, m, rows), d = dw.shape, spec.dim
    w, x = np.zeros((m, rows)), np.zeros((d, rows))
    top = np.zeros(rows)   # the largest |X| (d = 1) or ||X||^2 so far
    g = np.zeros((stop, rows) if spec.needs_wiener else stop)
    for i in range(stop):
        dx = np.zeros((d, rows))
        for e in spec.ordered:
            if not e.start <= i < e.stop:
                continue
            c = np.array(e.rule.c)[:, None]
            norm2 = sum_squares(e.rule.c)
            if e.rule.kind == "const":
                f, g[i] = c, g[i] + norm2
            else:
                s = w[e.rule.k - 1] if e.rule.kind == "lin" else np.sign(w[e.rule.k - 1])
                f, g[i] = s * c, g[i] + np.square(s) * norm2
            dx = dx + f * dw[i, e.j - 1]
        w = w + dw[i]
        x = x + dx
        top = np.maximum(top, np.abs(x[0]) if d == 1 else sum_squares(x))
    return x.T, top if d == 1 else np.sqrt(top), g


def reference_simulate(spec, paths, seed, t=None, p=()):
    """(x_stop, sup_norm, riemann, zakai_rows, g_positive) of simulate, each
    block drawn in one draw and reduced one step at a time."""
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
        dw = gen.standard_normal((stop, spec.wiener_dim, hi - lo)) * math.sqrt(spec.dt)
        x_stop[lo:hi], sup_norm[lo:hi], g = block_steps(spec, dw, stop)
        if g.ndim == 1:   # a constant integrand: simulate sums its one row
            riemann[lo:hi] = g.sum() * spec.dt
        else:
            total = np.zeros(hi - lo)
            for row in g:
                total = total + row
            riemann[lo:hi] = total * spec.dt
        if not p:
            continue
        g_positive |= g.any(axis=1) if g.ndim == 2 else g != 0.0
        for k, half_power in enumerate(half_powers):
            y = _pow(g, half_power)
            if y.ndim == 1:
                if b == 0:
                    zrows[k] += y
                continue
            for grp in range(lo * groups // paths, (hi - 1) * groups // paths + 1):
                gl, gh = max(lo, bounds[grp][0]) - lo, min(hi, bounds[grp][1]) - lo
                zrows[k, grp] += [share_sum(row[gl:gh]) for row in y]
    if p and not spec.needs_wiener:
        zrows *= np.array([gh - gl for gl, gh in bounds], dtype=float)[:, None]
    return x_stop, sup_norm, riemann, zrows, g_positive
