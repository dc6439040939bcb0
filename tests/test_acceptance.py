"""Acceptance gate.

Every guarantee the package makes, exercised at its stated scale with its
stated tolerance. One PASS/FAIL line per criterion; scales are fixed here
and must not be turned down.
"""
import json
import math
import time

import numpy as np
import pytest

from martcheck import (
    asymptotic_gain_probe,
    compare_constants,
    eval_continuous,
    eval_rio_step,
    parse_integrand,
    rio_gain,
    sweep_random_trees,
    taylor_pointwise,
)
from martcheck.cli import main as cli_main

SWEEP_SEED = 2026
P_GRID = (2.0, 2.5, 3.0, 4.0, 8.0)


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def sweep():
    t0 = time.monotonic()
    reports = list(sweep_random_trees(500, 5, 3, SWEEP_SEED, P_GRID))
    return reports, time.monotonic() - t0


@pytest.fixture(scope="module")
def unit_spec(zoo):
    with open(zoo / "spec_const1.json") as fh:
        return parse_integrand(json.load(fh))


@pytest.fixture(scope="module")
def unit_batch(unit_spec):
    """f == 1, one million paths, 1024 steps: the ZAKAI-MAIN reports at
    p = 4 and p = 2 from one simulation, and the time that call took."""
    t0 = time.monotonic()
    reports = list(eval_continuous(unit_spec, 1.0, [4.0, 2.0], ["ZAKAI-MAIN"],
                                   10 ** 6, SWEEP_SEED))
    return reports, time.monotonic() - t0


def test_criterion_1_universal_satisfaction(sweep):
    """500 random trees, depth <= 5, dim <= 3, five exponents, all levels,
    all six tree inequalities satisfied at tolerance 1e-9 in under 60 s."""
    reports, elapsed = sweep
    bad = [r for r in reports if not r.satisfied]
    ok = not bad and elapsed < 60.0 and len({r.notes for r in reports}) == 500
    _report(1, f"{len(reports)} checks, {len(bad)} violations, "
               f"{elapsed:.1f}s", ok)


def test_criterion_2_orthogonality_equality(sweep):
    """At p=2 the increment bound is an identity: ratio 1 within 1e-10 on
    every level of every sweep tree."""
    reports, _ = sweep
    rows = [r for r in reports if r.id == "PROP1-MAIN" and r.p == 2.0]
    worst = max(abs(r.ratio - 1.0) for r in rows)
    _report(2, f"{len(rows)} rows, worst |ratio-1| = {worst:.2e}",
            bool(rows) and worst <= 1e-10)


def test_criterion_3_two_point_sharpness():
    """The two-point gain approaches p-1 from below, pins its frozen value
    at b=0.01, and a 10% constant cut is caught as a violation; all < 1 s."""
    t0 = time.monotonic()
    checks = [abs(rio_gain(1.0, 0.01, 4.0) - 2.99996) <= 1e-3]
    b_seq = (0.1, 0.01, 1e-3)
    for p in (3.0, 4.0, 8.0):
        final = asymptotic_gain_probe(p, b_seq)[-1]
        checks.append(abs(final - (p - 1.0)) <= 10 * b_seq[-1])
    control = eval_rio_step([(1.0, [1.0])],
                            [[(0.5, [1e-3]), (0.5, [-1e-3])]],
                            4.0, constant=0.9 * 3.0)
    checks.append(control.verdict == "violation" and not control.satisfied)
    elapsed = time.monotonic() - t0
    checks.append(elapsed < 1.0)
    _report(3, f"gain/probe/control in {elapsed * 1000:.0f}ms", all(checks))


def test_criterion_4_constant_improvement():
    """Strictly smaller constants for every p > 2 on both inequalities;
    exact ties at p = 2."""
    checks = []
    for p in (2.5, 3.0, 4.0, 8.0, 16.0):
        c = compare_constants(p)
        checks.append(c.improved_main and c.improved_max)
    eq = compare_constants(2.0)
    checks.append(eq.classic_main == eq.new_main == 1.0)
    checks.append(eq.classic_max == eq.new_max == 4.0)
    _report(4, "p in {2.5,3,4,8,16} strict, p=2 tied", all(checks))


def test_criterion_5_unit_integrand_fourth_moment(unit_batch):
    """f == 1, one million paths, 1024 steps, p=4: the left side matches
    the Gaussian fourth-moment value sqrt(3) to 1% and the right side is
    exactly 3; under 60 s for the simulation p=4 shares with criterion 6."""
    (r, _), elapsed = unit_batch
    rel = abs(r.lhs - math.sqrt(3.0)) / math.sqrt(3.0)
    ok = rel <= 0.01 and r.rhs == 3.0 and r.satisfied and elapsed < 60.0
    _report(5, f"lhs={r.lhs:.5f} (rel err {rel:.2%}), rhs={r.rhs}, "
               f"{elapsed:.1f}s", ok)


def test_criterion_6_isometry_control(unit_batch):
    """Same setup at p=2 is an equality: the estimate's 95% interval must
    cover 1.0 and the ratio must stay at least 0.98."""
    (_, r), _ = unit_batch
    covered = abs(r.lhs - 1.0) <= r.ci_lhs + r.ci_rhs
    ok = covered and r.ratio >= 0.98 and r.rhs == 1.0
    _report(6, f"lhs={r.lhs:.5f}+-{r.ci_lhs:.4f}, ratio={r.ratio:.5f}", ok)


def test_criterion_7_taylor_bound_fuzz():
    """10^4 random pairs in up to four dimensions with p in [2.1, 12] all
    satisfy the pointwise bound, and the three worked cases are exact."""
    rng = np.random.default_rng(np.random.SeedSequence(SWEEP_SEED,
                                                       spawn_key=(14,)))
    failures = 0
    for _ in range(10 ** 4):
        d = int(rng.integers(1, 5))
        p = float(rng.uniform(2.1, 12.0))
        x = rng.uniform(-10.0, 10.0, size=d)
        y = rng.uniform(-10.0, 10.0, size=d)
        if not taylor_pointwise(x, y, p).satisfied:
            failures += 1

    a = taylor_pointwise([1.0, 0.0], [0.0, 1.0], 4.0)
    b = taylor_pointwise([1.3, -0.7], [0.0, 0.0], 3.5)
    c = taylor_pointwise([1.0], [-1.0], 4.0)
    worked = (abs(a.lhs - 4.0) <= 1e-9 and abs(a.rhs - 8.0) <= 1e-9
              and abs(b.lhs - b.rhs) <= 1e-9
              and abs(c.lhs) <= 1e-9 and abs(c.rhs) <= 1e-9)
    _report(7, f"{failures} fuzz failures; worked examples exact",
            failures == 0 and worked)


def test_criterion_8_reproducible_reruns(zoo, tmp_path, capsys):
    """The same command line writes byte-identical results and CSV on
    every run, Monte Carlo and search output included."""
    def results_of(tag, *argv):
        base = str(tmp_path / tag)
        code = cli_main(list(argv) + ["--out", base])
        assert code == 0
        doc = json.loads((tmp_path / f"{tag}.json").read_text())
        csv_path = tmp_path / f"{tag}.csv"
        blob = csv_path.read_bytes() if csv_path.exists() else b""
        return json.dumps(doc["results"], sort_keys=True), blob

    mc = ["verify-continuous", "--integrand", str(zoo / "spec_mixed2d.json"),
          "--p", "4", "--paths", "20000", "--seed", "99"]
    sh = ["sharpness", "--config", str(zoo / "search_rio_grid.json")]
    sw = ["random-trees", "--count", "25", "--seed", "6", "--p", "2", "4"]
    same = all(results_of(f"{i}a", *argv) == results_of(f"{i}b", *argv)
               for i, argv in enumerate((mc, sh, sw)))
    capsys.readouterr()
    _report(8, "mc + search + sweep reruns byte-identical", same)
