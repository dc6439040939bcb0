"""The Monte Carlo sides as eval_continuous estimated them before one
estimator served every side: the delta method on per-path rows
(_mc_power), batch means on the ZAKAI per-group rows (_zakai_integral),
both on the binary-scaled deviation (_scaled_std), and the bands the loop
formed from their standard errors. The reference wiener_mc._band is held to
bit for bit."""
import math
import sys

import numpy as np

from martcheck import DomainError
from martcheck.wiener_mc import WienerBatch, Z95, _group_bounds, _pow


def _scaled_std(y: np.ndarray, like: float) -> float:
    """y.std(ddof=1), taken on y * 2^-e with 2^e the binary scale of `like`
    and scaled back, so the squared deviations of tiny or huge rows neither
    underflow nor overflow; a power-of-two scale moves no bit of a normal
    float."""
    e = math.frexp(like)[1]
    return math.ldexp(float(np.std(np.ldexp(y, -e), ddof=1)), e)


def _mc_power(y: np.ndarray, expo: float) -> tuple[float, float]:
    """(mean y)^expo with its delta-method standard error; (0, 0) when the
    mean lies below the normal float range, where its powers underflowed."""
    n = len(y)
    mean = float(y.mean())
    if mean < sys.float_info.min:
        return 0.0, 0.0
    se_mean = _scaled_std(y, mean) / math.sqrt(n) if n > 1 else 0.0
    value = mean ** expo
    return value, abs(expo) * mean ** (expo - 1.0) * se_mean


def _zakai_integral(batch: WienerBatch, p: float) -> tuple[float, float]:
    """Left sum dt * sum_{i<stop} ||g(t_i)||_{p/2} with a batch-means SE.

    The simulated integrand is constant on each step, so the left sum is the
    exact time integral for the simulated process. A step where g > 0 on
    some path but the mean g^{p/2} lies below the normal float range has
    lost its powers to underflow: DomainError."""
    zrows, dt = batch.zakai_rows[batch.p.index(p)], batch.spec.dt
    sizes = np.array([hi - lo for lo, hi in _group_bounds(batch.paths)], dtype=float)
    means = zrows.sum(axis=0) / batch.paths
    lost = np.flatnonzero((means < sys.float_info.min) & batch.g_positive)
    if len(lost):
        i = int(lost[0])
        raise DomainError(f"p={p:g}: the sides underflow a float (the ZAKAI mean g^(p/2) "
                          f"at step {i} is {means[i]:.3g} where g > 0 on some path)")
    point = dt * float(_pow(means, 2.0 / p).sum())
    per_group = dt * _pow(zrows / sizes[:, None], 2.0 / p).sum(axis=1)
    se = _scaled_std(per_group, point) / math.sqrt(len(sizes))
    return point, se


def reference_bands(y: np.ndarray | None, p: float, constants,
                    batch: WienerBatch | None = None) -> tuple[float, list, tuple]:
    """(point, bands, side): the point and SE of per-path rows y (batch
    None) or of the batch's ZAKAI rows at p, the right-side bands the loop
    formed from them for each of constants, in float64 arrays,
    (constant * point, Z95 * (constant * SE)), and the left-side band it
    formed, (point, Z95 * SE)."""
    point, se = _mc_power(y, 2.0 / p) if batch is None else _zakai_integral(batch, p)
    c = np.array(constants, dtype=float)
    bands = list(zip((c * point).tolist(), (Z95 * (c * se)).tolist()))
    return point, bands, (point, float(Z95 * np.array([se])[0]))
