"""Known verdict defects, pinned as strict expected failures.

Each test asserts the correct behaviour and fails today for the defect its
marker names (ROADMAP items 10, 2 and 1). A fix turns its test into an
unexpected pass, which strict=True makes a failure: the fixing change then
removes that one marker. No case is re-seeded or resized. Seeds are fixed
here and come from ranges no ROADMAP measurement has used.
"""
import numpy as np
import pytest

from martcheck import (
    InvalidTreeError,
    ProbTree,
    constant_integrand,
    eval_continuous,
    eval_discrete,
    gaussian_abs_moment,
    symmetric_walk,
)
from martcheck.ineq import decide

ITEM10_SEEDS = range(2800, 3000)
ITEM2_SEED = 3001
SUP_L4_SQUARED = 2.4359   # ||sup_{[0,1]} |B| ||_4^2 of a Brownian motion B


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 10: the delta-method interval of a heavy-tailed "
                          "|X|^p mean undercovers, so a violated bound reads satisfied")
def test_item10_violation_not_satisfied_at_p16():
    """f == 1, 4 steps, 2048 paths, C-BURK-1 at p = 16, against a right side
    5% below the exact (E|Z|^16)^(2/16): "satisfied" may read on at most 10
    of 200 seeds."""
    spec = constant_integrand(1.0, steps=4)
    rhs = gaussian_abs_moment(16) ** (2 / 16) / 1.05
    satisfied = 0
    for seed in ITEM10_SEEDS:
        r, = eval_continuous(spec, 1.0, [16], ["C-BURK-1"], 2048, seed)
        satisfied += int(decide(r.lhs, rhs, r.ci_lhs, 0.0)) == 1
    assert satisfied <= 10, (
        f"ROADMAP item 10: a bound violated by 5% reads satisfied on {satisfied} "
        f"of {len(ITEM10_SEEDS)} seeds at p = 16")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the grid supremum biases the maximal left "
                          "side down, so a violated bound reads satisfied")
def test_item2_coarse_grid_sup_not_satisfied():
    """f == 1, 16 steps, 2^14 paths, C-BURK-2 at p = 4, against a right side
    5% below the continuous supremum's 2.4359: the verdict must not read
    "satisfied"."""
    r, = eval_continuous(constant_integrand(1.0, steps=16), 1.0, [4], ["C-BURK-2"],
                         2 ** 14, ITEM2_SEED)
    verdict = int(decide(r.lhs, SUP_L4_SQUARED / 1.05, r.ci_lhs, 0.0))
    assert verdict != 1, (
        f"ROADMAP item 2: the 16-step grid supremum reads {r.lhs:.4f} +- {r.ci_lhs:.4f} "
        f"against {SUP_L4_SQUARED}, so a bound violated by 5% reads satisfied")


def stopped_geometric_comb(depth: int, r: float) -> ProbTree:
    """M_0 = 1; a live value x moves to r x with probability 1/r, else to 0,
    and 0 stays 0. Level k holds the live node first, then the stopped ones,
    each level's nodes in their parents' order."""
    parent, prob, incr = [], [], []
    first, width = 0, 1   # the live node of the level above, and that level's width
    for k in range(depth):
        x = r ** k
        parent += [first, first] + list(range(first + 1, first + width))
        prob += [1 / r, 1 - 1 / r] + [1.0] * (width - 1)
        incr += [(r - 1) * x, -x] + [0.0] * (width - 1)
        first, width = first + width, width + 1
    return ProbTree([1.0], np.array(parent), np.array(prob), np.array(incr)[:, None])


@pytest.mark.xfail(strict=True, raises=InvalidTreeError,
                   reason="ROADMAP item 1: the absolute PROB_TOL rejects a valid tree "
                          "whose increments grow, with InvalidTreeError")
def test_item1_deep_comb_validates():
    """The depth-40 stopped-geometric comb (r = 1.5) is a martingale; its
    conditional increment means are 0 up to roundoff of values near 1e7."""
    comb = stopped_geometric_comb(40, 1.5)
    r = eval_discrete(comb, 40, 4, "DOOB")
    assert r.verdict == "satisfied", r


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: decide's absolute ABS_TOL reads a tiny "
                          "violation as satisfied")
def test_item1_scaled_walk_violation_caught():
    """PROP1-MAIN on a depth-4 walk at p = 4 has ratio 0.527 at any step, so
    its left side exceeds a tenth of its right side: decide reads -1 at
    step 1 and must read -1 at step 1e-6 too."""
    verdicts = {}
    for step in (1.0, 1e-6):
        r = eval_discrete(symmetric_walk(4, step=step), 4, 4, "PROP1-MAIN")
        verdicts[step] = int(decide(r.lhs, r.rhs / 10))
    assert verdicts[1.0] == -1, f"a tenth of the right side reads {verdicts[1.0]} at step 1"
    assert verdicts[1e-6] == -1, (
        f"ROADMAP item 1: a tenth of the right side reads {verdicts[1e-6]} at step 1e-6, "
        f"-1 at step 1")
