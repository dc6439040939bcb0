"""Monte Carlo engine: determinism, Gaussian oracles, CI verdicts."""
import hashlib
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import martcheck.wiener_mc as wmc
from martcheck import (
    DomainError,
    IntegrandSpec,
    LevelRangeError,
    ResourceLimitError,
    Rule,
    RuleEntry,
    constant_integrand,
    eval_continuous,
    gaussian_abs_moment,
    parse_integrand,
    simulate,
)


def load_spec(zoo, name):
    with open(zoo / f"{name}.json") as fh:
        return parse_integrand(json.load(fh))


def redraw_increments(spec, paths, seed):
    """The (paths, steps, m) Wiener increments of a run, redrawn from the
    documented streams: 1024-path block b draws standard normals from
    Philox keyed by SeedSequence(entropy=seed, spawn_key=(10, b)), scaled
    by sqrt(dt)."""
    blocks = []
    for b, lo in enumerate(range(0, paths, 1024)):
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(10, b))))
        blocks.append(gen.standard_normal(
            (min(1024, paths - lo), spec.steps, spec.wiener_dim)))
    return np.concatenate(blocks) * math.sqrt(spec.dt)


class TestIntegrandSpec:
    def test_constant_helper(self):
        spec = constant_integrand(1.0, steps=16)
        assert spec.dt == pytest.approx(1.0 / 16)
        assert not spec.needs_wiener
        assert spec.segments(1)[0].rule.kind == "const"

    def test_overlap_rejected(self):
        with pytest.raises(DomainError, match="overlap"):
            IntegrandSpec(1, 1, 1.0, 16, (
                RuleEntry(0, 10, 1, Rule("const", (1.0,))),
                RuleEntry(8, 16, 1, Rule("const", (2.0,)))))

    def test_adjacent_ranges_fine(self):
        spec = IntegrandSpec(1, 1, 1.0, 16, (
            RuleEntry(0, 8, 1, Rule("const", (1.0,))),
            RuleEntry(8, 16, 1, Rule("const", (2.0,)))))
        first, second = spec.segments(1)
        assert (first.stop, first.rule.c) == (8, (1.0,))
        assert (second.start, second.rule.c) == (8, (2.0,))

    def test_component_out_of_range(self):
        with pytest.raises(DomainError):
            IntegrandSpec(1, 1, 1.0, 4, (
                RuleEntry(0, 4, 2, Rule("const", (1.0,))),))
        with pytest.raises(DomainError):
            IntegrandSpec(1, 1, 1.0, 4, (
                RuleEntry(0, 4, 1, Rule("lin", (1.0,), k=2)),))
        with pytest.raises(DomainError):
            IntegrandSpec(1, 1, 1.0, 4, (
                RuleEntry(0, 4, 1, Rule("sign", (1.0,))),))  # k missing

    def test_range_and_dim_checks(self):
        with pytest.raises(DomainError):
            IntegrandSpec(1, 1, 1.0, 4, (
                RuleEntry(0, 5, 1, Rule("const", (1.0,))),))
        with pytest.raises(DomainError):
            IntegrandSpec(1, 1, 1.0, 4, (
                RuleEntry(2, 2, 1, Rule("const", (1.0,))),))
        with pytest.raises(DomainError):
            IntegrandSpec(2, 1, 1.0, 4, (
                RuleEntry(0, 4, 1, Rule("const", (1.0,))),))
        with pytest.raises(DomainError):
            IntegrandSpec(1, 1, -1.0, 4, ())
        with pytest.raises(DomainError):
            IntegrandSpec(1, 1, 1.0, 4, (
                RuleEntry(0, 4, 1, Rule("ramp", (1.0,))),))

    def test_grid_index(self):
        spec = constant_integrand(1.0, steps=8)
        assert wmc.grid_index(spec, 0.0) == 0
        assert wmc.grid_index(spec, 0.5) == 4
        assert wmc.grid_index(spec, 1.0) == 8
        for bad in (-0.1, 1.1, 0.3):
            with pytest.raises(LevelRangeError):
                wmc.grid_index(spec, bad)


class TestSimulate:
    def test_bit_identical_reruns(self):
        spec = constant_integrand(1.0, steps=64)
        a = simulate(spec, 3000, seed=5)
        b = simulate(spec, 3000, seed=5)
        assert np.array_equal(a.x_stop, b.x_stop)
        assert np.array_equal(a.sup_norm, b.sup_norm)
        assert np.array_equal(a.riemann, b.riemann)
        c = simulate(spec, 3000, seed=6)
        assert not np.array_equal(a.x_stop, c.x_stop)

    def test_telescoping_for_unit_integrand(self):
        """f == 1 makes X_t an exact partial sum of the increments."""
        spec = constant_integrand(1.0, steps=128)
        batch = simulate(spec, 2048, seed=3)
        total = np.cumsum(redraw_increments(spec, 2048, 3)[:, :, 0], axis=1)[:, -1]
        assert np.array_equal(batch.x_stop[:, 0], total)

    def test_zero_integrand(self):
        spec = IntegrandSpec(1, 1, 1.0, 16, ())
        batch = simulate(spec, 100, seed=5)
        assert not batch.x_stop.any()
        assert not batch.sup_norm.any()
        r, = eval_continuous(spec, 1.0, 4, ["C-BURK-1"], 100, 5)
        assert r.lhs == 0.0 and r.ci_lhs == 0.0

    def test_sup_monotone_in_t(self):
        spec = constant_integrand(1.0, steps=32)
        half = simulate(spec, 500, seed=9, t=0.5)
        full = simulate(spec, 500, seed=9)
        assert np.all(half.sup_norm <= full.sup_norm)
        assert np.all(full.sup_norm >= np.abs(full.x_stop[:, 0]))

    def test_increment_mean_band(self):
        spec = constant_integrand(1.0, steps=64)
        incr_mean = redraw_increments(spec, 20000, 21).mean(axis=(0, 1))
        band = 5.0 * math.sqrt(spec.dt / 20000)
        assert np.all(np.abs(incr_mean) <= band)

    def test_preconditions(self):
        spec = constant_integrand(1.0, steps=8)
        with pytest.raises(DomainError):
            simulate(spec, 1, seed=0)
        with pytest.raises(DomainError):
            simulate(spec, 100, seed=-3)

    def test_cell_cap_before_any_block(self, monkeypatch):
        """paths * steps * m above the fixed cap is refused before any block
        is simulated."""
        def no_block(*args):
            raise AssertionError("a block was simulated")

        monkeypatch.setattr(wmc, "_block", no_block)
        spec = constant_integrand(1.0, steps=1024)
        assert (2 ** 21 + 1) * spec.steps > wmc.DEFAULT_CELL_CAP
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            simulate(spec, 2 ** 21 + 1, 0)

    def test_output_memory_preflight(self):
        """The per-path output arrays count against the budget: 2^31 - 1 paths
        of a one-step integrand pass the cell cap and fit one block, but their
        x_stop, sup_norm and riemann rows would need about 48 GiB."""
        spec = constant_integrand(1.0, steps=1)
        with pytest.raises(ResourceLimitError, match="block memory budget"):
            wmc._check_run(spec, 2 ** 31 - 1, 0)
        block_bytes, room = wmc._check_run(spec, 10 ** 6, 0)
        assert room == wmc.BLOCK_MEMORY_BUDGET - 8 * 10 ** 6 * 3
        assert block_bytes <= room

    def test_block_memory_preflight(self, monkeypatch):
        """Runs whose single block would exceed the budget are refused before
        any block is simulated, though they pass the cell cap."""
        def no_block(*args):
            raise AssertionError("a block was simulated")

        monkeypatch.setattr(wmc, "_block", no_block)
        lin = IntegrandSpec(2, 2, 1.0, 2 ** 15, (
            RuleEntry(0, 2 ** 15, 1, Rule("lin", (1.0, 0.0), k=2)),))
        for spec in (constant_integrand(1.0, steps=2 ** 21), lin):
            assert 1024 * spec.steps * spec.wiener_dim <= wmc.DEFAULT_CELL_CAP
            with pytest.raises(ResourceLimitError, match="block memory budget"):
                simulate(spec, 1024, seed=0)

    def test_constant_integrand_peak_within_preflight(self):
        """A constant integrand in many dimensions holds no (m, S, d) table:
        the memory one block traces stays below _check_run's estimate."""
        spec = constant_integrand(1.0, dim=192, wiener_dim=192, steps=192)
        block_bytes, _ = wmc._check_run(spec, 2, 0)
        simulate(spec, 2, seed=0, p=4)   # warm-up: one-time allocations
        tracemalloc.start()
        try:
            simulate(spec, 2, seed=0, p=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes

    @pytest.mark.parametrize("name", ["spec_const1", "spec_lin", "spec_sign",
                                      "spec_mixed2d"])
    @pytest.mark.parametrize("paths, steps", [(1024, None), (32, 2 ** 18)])
    def test_zakai_run_peak_within_preflight(self, zoo, monkeypatch, name, paths, steps):
        """Given p, the memory one run traces stays below the block bytes
        plus the per-run output bytes (ZAKAI rows included) that simulate's
        preflight counted."""
        spec = load_spec(zoo, name)
        if steps is not None:
            scale = steps // spec.steps
            spec = IntegrandSpec(spec.dim, spec.wiener_dim, spec.horizon, steps, tuple(
                RuleEntry(e.start * scale, e.stop * scale, e.j, e.rule)
                for e in spec.entries))
        real = wmc._check_run
        seen = []
        monkeypatch.setattr(wmc, "_check_run",
                            lambda *args: seen.append(real(*args)) or seen[-1])
        simulate(spec, 2, seed=0, p=4)   # warm-up: one-time allocations
        tracemalloc.start()
        try:
            simulate(spec, paths, seed=0, p=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes, room = seen[-1]
        assert peak < block_bytes + wmc.BLOCK_MEMORY_BUDGET - room

    def test_workers_capped_by_budget_and_blocks(self):
        assert wmc._workers(64, wmc.BLOCK_MEMORY_BUDGET // 2 + 1) == 1
        assert wmc._workers(1, 8) == 1
        assert 1 <= wmc._workers(64, 8) <= 64

    def test_block_error_reaches_caller(self, monkeypatch):
        class BlockFailure(RuntimeError):
            pass

        real = wmc._block

        def failing(*args):
            if args[-1] == 3:
                raise BlockFailure("block 3")
            return real(*args)

        monkeypatch.setattr(wmc, "_block", failing)
        monkeypatch.setattr(wmc, "_workers", lambda blocks, block_bytes, room: 3)
        with pytest.raises(BlockFailure):
            simulate(constant_integrand(1.0, steps=8), 6 * 1024, seed=1)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("martcheck-mc") and t.is_alive()]

    def test_sign_at_zero_start(self):
        # W(t_0) = 0 and sign(0) = 0, so a single-step SIGN integral is 0
        spec = IntegrandSpec(1, 1, 1.0, 1, (
            RuleEntry(0, 1, 1, Rule("sign", (1.0,), k=1)),))
        batch = simulate(spec, 256, seed=2)
        assert not batch.x_stop.any()

    def test_uncovered_steps_are_zero(self):
        spec = IntegrandSpec(1, 1, 1.0, 16, (
            RuleEntry(0, 8, 1, Rule("const", (1.0,))),))
        batch = simulate(spec, 64, seed=8)
        assert np.all(batch.riemann == 0.5)   # 8 of 16 steps, dt = 1/16


def frozen_cases(zoo):
    """(spec, paths, t, p) runs whose simulate arrays are pinned by digest:
    ragged last blocks, t at the horizon, mid-horizon and 0, batch-means
    groups spanning three blocks, steps before t that no rule covers, and
    a d=2, m=3 constant integrand."""
    cases = []
    for name in ("spec_const1", "spec_lin", "spec_sign", "spec_mixed2d"):
        spec = load_spec(zoo, name)
        for t in (spec.horizon, spec.horizon / 2, 0.0):
            cases.append((spec, 3000, t, 3))
    cases.append((constant_integrand(1.0, steps=4), 40000, None, 3))
    cases.append((IntegrandSpec(1, 1, 1.0, 4, (
        RuleEntry(0, 4, 1, Rule("lin", (1.0,), k=1)),)), 40000, None, 3))
    cases.append((IntegrandSpec(1, 1, 1.0, 16, (
        RuleEntry(8, 16, 1, Rule("const", (1.0,))),)), 2000, 0.25, 4))
    cases.append((constant_integrand(-0.5, dim=2, wiener_dim=3, steps=16),
                  3000, None, 4))
    return cases


def simulate_digest(cases):
    h = hashlib.sha256()
    for seed, (spec, paths, t, p) in enumerate(cases):
        batch = simulate(spec, paths, seed=seed, t=t, p=p)
        for arr in (batch.x_stop, batch.sup_norm, batch.riemann, batch.zakai_rows):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


FROZEN_SIMULATE_DIGEST = "4cc2c73b59e59cc93b58f672ea3e0357e060a544284ecdeffb7dbfd2c19bb5df"


class TestFrozenBits:
    def test_default_workers(self, zoo):
        assert simulate_digest(frozen_cases(zoo)) == FROZEN_SIMULATE_DIGEST

    @pytest.mark.parametrize("workers", [1, 8])
    def test_worker_count_does_not_change_bits(self, zoo, monkeypatch, workers):
        monkeypatch.setattr(wmc, "_workers", lambda blocks, block_bytes, room: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            digest = simulate_digest(frozen_cases(zoo))
        finally:
            sys.setswitchinterval(interval)
        assert digest == FROZEN_SIMULATE_DIGEST


@pytest.fixture(scope="class")
def unit_runs():
    """f == 1 on 1024 steps, 10^5 paths, seed 7: the C-BURK-1 and C-BURK-2
    reports at p = 2 and p = 4, keyed by p."""
    spec = constant_integrand(1.0, steps=1024)
    return {p: eval_continuous(spec, 1.0, p, ["C-BURK-1", "C-BURK-2"], 100000, 7)
            for p in (2, 4)}


class TestEstimateLp:
    """The L^p estimates eval_continuous reports, checked where X_1 ~ N(0, 1)."""

    def test_fourth_moment_oracle(self, unit_runs):
        r = unit_runs[4][0]
        # squared L^4 norm of N(0, 1): (E X^4)^(1/2) = sqrt(3)
        assert r.ci_lhs > 0.0
        assert abs(r.lhs - math.sqrt(3)) <= 2 * r.ci_lhs

    def test_second_moment_oracle(self, unit_runs):
        r = unit_runs[2][0]
        assert abs(r.lhs - 1.0) <= 2 * r.ci_lhs

    def test_riemann_deterministic(self, unit_runs):
        for reports in unit_runs.values():
            for r in reports:
                assert r.rhs / r.constant == 1.0
                assert r.ci_rhs == 0.0

    def test_sup_exceeds_terminal(self, unit_runs):
        term, sup = unit_runs[2]
        assert sup.lhs > term.lhs

    def test_half_width_is_z95(self, unit_runs):
        """ci_lhs is 1.96 delta-method standard errors of (mean |X_1|^4)^(1/2)."""
        batch = simulate(constant_integrand(1.0, steps=1024), 100000, seed=7)
        y = np.abs(batch.x_stop[:, 0]) ** 4
        mean = y.mean()
        se = 0.5 * mean ** -0.5 * y.std(ddof=1) / math.sqrt(len(y))
        assert unit_runs[4][0].ci_lhs == pytest.approx(1.96 * se, rel=1e-12)


class TestEvalContinuous:
    def test_unit_integrand_zakai_p4(self, zoo):
        spec = load_spec(zoo, "spec_const1")
        r, = eval_continuous(spec, 1.0, 4, ["ZAKAI-MAIN"], 100000, 42)
        assert r.rhs == 3.0          # deterministic integrand: exact
        assert r.ci_rhs == 0.0
        assert abs(r.lhs - math.sqrt(3)) < 0.02
        assert r.verdict == "satisfied" and r.satisfied

    def test_unit_integrand_burk_bases(self, zoo):
        spec = load_spec(zoo, "spec_const1")
        r, = eval_continuous(spec, 1.0, 4, ["C-BURK-1"], 20000, 42)
        assert r.rhs == 9.0
        r2, z2 = eval_continuous(spec, 1.0, 2, ["C-BURK-2", "ZAKAI-MAX"], 20000, 3)
        assert r2.rhs == 4.0 and z2.rhs == 4.0
        assert r2.verdict == "satisfied" and z2.verdict == "satisfied"
        assert "grid points" in r2.notes   # sup bias disclosure

    def test_zakai_never_looser_than_burk_deterministic(self, zoo):
        """For deterministic integrands both bases agree analytically and
        the improved constant makes the newer bound the smaller one."""
        spec = load_spec(zoo, "spec_const1")
        for p in (2.0, 3.0, 4.0):
            z, b = eval_continuous(spec, 1.0, p, ["ZAKAI-MAIN", "C-BURK-1"], 2000, 1)
            assert z.rhs <= b.rhs + 1e-12

    def test_isometry_across_zoo(self, zoo):
        """p = 2 turns ZAKAI-MAIN into an equality; the two estimates must
        agree within combined 95% intervals on every shipped spec."""
        for name, seed in (("spec_const1", 11), ("spec_lin", 12),
                           ("spec_sign", 13), ("spec_mixed2d", 14)):
            spec = load_spec(zoo, name)
            r, = eval_continuous(spec, spec.horizon, 2, ["ZAKAI-MAIN"],
                                 100000, seed)
            assert abs(r.lhs - r.rhs) <= r.ci_lhs + r.ci_rhs, (name, r)

    def test_all_ids_on_mixed_spec(self, zoo):
        spec = load_spec(zoo, "spec_mixed2d")
        ids = ["C-BURK-1", "C-BURK-2", "ZAKAI-MAIN", "ZAKAI-MAX"]
        reports = eval_continuous(spec, 2.0, 4, ids, 20000, 5)
        assert [r.id for r in reports] == ids
        for r in reports:
            assert r.verdict == "satisfied", r
            assert r.seed == 5

    def test_time_zero(self, zoo):
        spec = load_spec(zoo, "spec_const1")
        r, = eval_continuous(spec, 0.0, 4, ["ZAKAI-MAIN"], 100, 1)
        assert r.lhs == 0.0 and r.rhs == 0.0
        assert r.ratio == 0.0
        assert r.satisfied

    def test_partial_horizon(self, zoo):
        spec = load_spec(zoo, "spec_const1")
        r, = eval_continuous(spec, 0.5, 4, ["ZAKAI-MAIN"], 20000, 1)
        assert r.rhs == pytest.approx(1.5)   # 3 * integral over [0, 0.5]

    def test_unknown_id(self):
        spec = constant_integrand(1.0, steps=4)
        with pytest.raises(DomainError, match="unknown inequality id"):
            eval_continuous(spec, 1.0, 4, ["D-BURK-1"], 100, 0)
        with pytest.raises(DomainError, match="sequence"):
            eval_continuous(spec, 1.0, 4, "ZAKAI-MAIN", 100, 0)

    def test_deterministic_reports(self, zoo):
        spec = load_spec(zoo, "spec_lin")
        a = eval_continuous(spec, 1.0, 4, ["ZAKAI-MAIN"], 5000, 77)
        b = eval_continuous(spec, 1.0, 4, ["ZAKAI-MAIN"], 5000, 77)
        assert a == b

    def test_multi_component_exact_rhs(self):
        # two unit drivers: g = 2, so the p=4 ZAKAI base is exactly 2
        spec = constant_integrand(1.0, dim=1, wiener_dim=2, steps=64)
        r, = eval_continuous(spec, 1.0, 4, ["ZAKAI-MAIN"], 20000, 9)
        assert r.rhs == 6.0
        assert r.verdict == "satisfied"

    def test_frozen_values_mixed_spec(self, zoo):
        """All four ids share one batch: the C-BURK sides are pinned bit for
        bit, the ZAKAI left sides are the C-BURK ones, and the ZAKAI right
        sides are the left-sum values."""
        spec = load_spec(zoo, "spec_mixed2d")
        b1, b2, zm, zx = eval_continuous(
            spec, 2.0, 4, ["C-BURK-1", "C-BURK-2", "ZAKAI-MAIN", "ZAKAI-MAX"],
            20000, 99)
        assert (b1.lhs, b1.ci_lhs, b1.rhs, b1.ci_rhs) == (
            5.823298366812731, 0.21876313436995537,
            33.799323681411295, 0.3847464788500028)
        assert (b2.lhs, b2.ci_lhs, b2.rhs, b2.ci_rhs) == (
            7.699788796252472, 0.25318683421090793,
            60.087686544731184, 0.6839937401777828)
        assert (zm.lhs, zm.ci_lhs) == (b1.lhs, b1.ci_lhs)
        assert (zx.lhs, zx.ci_lhs) == (b2.lhs, b2.ci_lhs)
        assert zm.rhs == pytest.approx(12.720588619388463, rel=1e-12)
        assert zx.rhs == pytest.approx(22.61437976780171, rel=1e-12)

    def test_zakai_coarse_grid_identity_not_satisfied(self, zoo):
        """spec_lin on 8 steps at p=2 is an identity (both sides 0.4375
        exactly). A trapezoid reaching past the last step gives rhs ~0.50
        and "satisfied"; the left sum must not."""
        with open(zoo / "spec_lin.json") as fh:
            obj = json.load(fh)
        obj["steps"] = 8
        obj["rules"] = [dict(r, range=[0, 8]) for r in obj["rules"]]
        r, = eval_continuous(parse_integrand(obj), 1.0, 2, ["ZAKAI-MAIN"], 200000, 0)
        assert r.verdict != "satisfied"
        assert abs(r.rhs - 0.4375) <= r.ci_rhs


class TestGaussianMoment:
    @pytest.mark.parametrize("p,expect", [(2, 1.0), (4, 3.0), (6, 15.0)])
    def test_even_factorial_pattern(self, p, expect):
        assert gaussian_abs_moment(p) == pytest.approx(expect, abs=1e-9)

    def test_gamma_cross_check(self):
        for p in (1.0, 2.5, 3.3, 7.7):
            closed = 2 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
            assert gaussian_abs_moment(p) == pytest.approx(closed, rel=1e-10)

    def test_zero_and_domain(self):
        assert gaussian_abs_moment(0) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            gaussian_abs_moment(-1)

    def test_large_p(self):
        # near the top of the float range; E|Z|^{p+2} = (p+1) E|Z|^p
        ratio = gaussian_abs_moment(292) / gaussian_abs_moment(290)
        assert ratio == pytest.approx(291.0, rel=1e-10)
        with pytest.raises(DomainError, match="overflows"):
            gaussian_abs_moment(1e4)

    def test_unit_instance_of_time_integral_bound(self):
        # (E|Z|^p)^{2/p} <= p-1 on a half-step grid: the f == 1 case
        p = 2.0
        while p <= 16.0:
            assert gaussian_abs_moment(p) ** (2.0 / p) <= p - 1.0 + 1e-9
            p += 0.5


def test_discretization_consistency_lin_sign(zoo):
    """Doubling the grid moves the C-BURK-1 lhs estimate by less than the
    combined CI for the state-dependent integrands at a million paths."""
    for name, seed in (("spec_lin", 303), ("spec_sign", 404)):
        with open(zoo / f"{name}.json") as fh:
            base = json.load(fh)
        ests = []
        for steps in (256, 512):
            obj = dict(base)
            obj["steps"] = steps
            obj["rules"] = [dict(r, range=[0, steps]) for r in base["rules"]]
            spec = parse_integrand(obj)
            r, = eval_continuous(spec, spec.horizon, 4, ["C-BURK-1"], 10 ** 6, seed)
            ests.append(r)
        diff = abs(ests[0].lhs - ests[1].lhs)
        assert diff <= ests[0].ci_lhs + ests[1].ci_lhs, (name, ests)
