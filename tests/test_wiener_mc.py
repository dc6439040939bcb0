"""Monte Carlo engine: determinism, Gaussian oracles, CI verdicts."""
import hashlib
import inspect
import json
import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
from martcheck.ptree import row_norms
from mc_sides import reference_bands
from mc_whole_block import reference_simulate


def load_spec(zoo, name):
    with open(zoo / f"{name}.json") as fh:
        return parse_integrand(json.load(fh))


def scale_spec(spec, steps):
    """spec's rule layout on a grid of steps steps, a multiple of its own."""
    scale = steps // spec.steps
    return IntegrandSpec(spec.dim, spec.wiener_dim, spec.horizon, steps, tuple(
        RuleEntry(e.start * scale, e.stop * scale, e.j, e.rule) for e in spec.entries))


def redraw_increments(spec, paths, seed):
    """The (paths, steps, m) Wiener increments of a run to the horizon,
    redrawn from the documented streams: 1024-path block b draws standard
    normals in (step, component, path) order from SFC64 keyed by
    SeedSequence(entropy=seed, spawn_key=(10, b)), scaled by sqrt(dt)."""
    blocks = []
    for b, lo in enumerate(range(0, paths, 1024)):
        gen = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(entropy=seed, spawn_key=(10, b))))
        blocks.append(gen.standard_normal(
            (spec.steps, spec.wiener_dim, min(1024, paths - lo))).transpose(2, 0, 1))
    return np.concatenate(blocks) * math.sqrt(spec.dt)


class TestIntegrandSpec:
    def test_constant_helper(self):
        spec = constant_integrand(1.0, steps=16)
        assert spec.dt == pytest.approx(1.0 / 16)
        assert not spec.needs_wiener
        assert spec.ordered[0].rule.kind == "const"

    def test_huge_dim_refused_before_broadcast(self):
        """Two paths' output rows, 16 (dim + 2) bytes, must fit the block
        memory budget; a dimension past that is refused before a scalar
        coefficient is broadcast to it."""
        wmc.check_dim(wmc.BLOCK_MEMORY_BUDGET // 16 - 2)
        with pytest.raises(ResourceLimitError, match="block memory budget"):
            wmc.check_dim(wmc.BLOCK_MEMORY_BUDGET // 16 - 1)
        with pytest.raises(ResourceLimitError, match="block memory budget"):
            constant_integrand(1.0, dim=10 ** 12)

    @pytest.mark.parametrize("make, message", [
        (lambda: IntegrandSpec(2.5, 1, 1.0, 4, ()), "dim must be an integer, got 2.5"),
        (lambda: IntegrandSpec(1, 1.5, 1.0, 4, ()), "wiener_dim must be an integer"),
        (lambda: IntegrandSpec(1, 1, 1.0, float("nan"), ()), "steps must be an integer"),
        (lambda: constant_integrand(1.0, dim=2.5), "dim must be an integer, got 2.5"),
        (lambda: constant_integrand(1.0, wiener_dim=True), "wiener_dim must be an integer"),
        (lambda: constant_integrand(1.0, steps=4.5), "steps must be an integer"),
    ], ids=["spec-dim", "spec-wiener-dim", "spec-steps", "dim", "wiener-dim", "steps"])
    def test_integers_not_truncated(self, make, message):
        """dim, wiener_dim and steps that are not integers are refused with
        DomainError when the spec is built, not by a TypeError in simulate."""
        with pytest.raises(DomainError, match=message):
            make()

    @pytest.mark.parametrize("make", [
        lambda: IntegrandSpec(1, 1, 1.0, 4, (RuleEntry(0.5, 4, 1, Rule("const", (1.0,))),)),
        lambda: IntegrandSpec(1, 1, 1.0, 4, (RuleEntry(0, 4, 1, Rule("lin", (1.0,), k=1.0)),)),
        lambda: IntegrandSpec(1, 1, 1.0, 4, (RuleEntry(0, 4, 1, Rule("const", (1.0,), "x")),)),
        lambda: IntegrandSpec(1, 1, 1.0, 4, (RuleEntry(0, 4, 1, Rule("const", ("x",))),)),
        lambda: IntegrandSpec(2, 1, 1.0, 4, (
            RuleEntry(0, 4, 1, Rule("const", ((1.0, 2.0), 3.0))),)),
        lambda: IntegrandSpec(1, 1, "1.0", 4, ()),
        lambda: constant_integrand("x"),
        lambda: constant_integrand(1.0, horizon="x"),
    ], ids=["entry-start", "rule-k", "const-k", "rule-c", "rule-c-ragged", "spec-horizon",
            "value", "horizon"])
    def test_malformed_fields_refused(self, make):
        """A rule's fractional start, a float k, a k on a const rule, a string
        or nested coefficient and a string horizon or value are refused with
        DomainError, not a bare numpy or Python error when the spec is built
        or simulated."""
        with pytest.raises(DomainError):
            simulate(make(), 2, 0)

    def test_integral_sizes_kept(self):
        spec = constant_integrand(1.0, dim=np.int64(2), wiener_dim=2.0, steps=np.int32(8))
        assert (spec.dim, spec.wiener_dim, spec.steps) == (2, 2, 8)
        assert all(type(v) is int for v in (spec.dim, spec.wiener_dim, spec.steps))
        assert spec == constant_integrand(1.0, dim=2, wiener_dim=2, steps=8)

    @pytest.mark.parametrize("wiener_dim, steps", [
        (10 ** 8, 1),        # entries over the block memory budget
        (10 ** 6, 2000)])    # two paths over the cell cap
    def test_huge_wiener_dim_refused_before_entries(self, wiener_dim, steps):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"wiener_dim={wiener_dim}"):
                constant_integrand(1.0, wiener_dim=wiener_dim, steps=steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_many_components_simulate_in_seconds(self):
        """Rules are grouped by component once, at construction, so 10^5
        components of 4 steps simulate in about a second."""
        spec = constant_integrand(1.0, wiener_dim=10 ** 5, steps=4)
        start = time.perf_counter()
        batch = simulate(spec, 2, 0)
        assert time.perf_counter() - start < 10.0
        assert (batch.riemann == 10.0 ** 5).all()   # g = m on every step

    def test_overlap_rejected(self):
        with pytest.raises(DomainError, match="overlap"):
            IntegrandSpec(1, 1, 1.0, 16, (
                RuleEntry(0, 10, 1, Rule("const", (1.0,))),
                RuleEntry(8, 16, 1, Rule("const", (2.0,)))))

    def test_adjacent_ranges_fine(self):
        spec = IntegrandSpec(1, 1, 1.0, 16, (
            RuleEntry(0, 8, 1, Rule("const", (1.0,))),
            RuleEntry(8, 16, 1, Rule("const", (2.0,)))))
        first, second = spec.ordered
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

    @pytest.mark.parametrize("steps, paths, cpus", [
        (128, 2048, None),   # two blocks on the default workers
        (1024, 1024, 2),     # one block of four chunks of steps, drawing ahead
        (128, 3000, 1),      # three blocks, the last ragged, on one worker
        (128, 3000, None)],  # the same on the default workers
        ids=["two-blocks", "one-block-ahead", "three-blocks-one-worker", "three-blocks"])
    def test_telescoping_for_unit_integrand(self, monkeypatch, steps, paths, cpus):
        """f == 1 makes X_t the sum of the increments, added left to right,
        so every way _block runs draws the documented stream bit for bit."""
        if cpus is not None:
            monkeypatch.setattr(wmc, "_cpus", lambda: cpus)
        spec = constant_integrand(1.0, steps=steps)
        batch = simulate(spec, paths, seed=3)
        total = np.cumsum(redraw_increments(spec, paths, 3)[:, :, 0], axis=1)[:, -1]
        assert np.array_equal(batch.x_stop[:, 0], total)

    def test_step_sum_accuracy(self):
        """f == 1 on 2^14 steps: X_t, the increments added left to right,
        lies within 336 eps sum |dW| of the exact sum of the increments on
        every path."""
        spec = constant_integrand(1.0, steps=2 ** 14)
        dw = redraw_increments(spec, 8, 13)[:, :, 0]
        batch = simulate(spec, 8, seed=13)
        exact = np.array([math.fsum(row) for row in dw.tolist()])
        bound = 336 * np.finfo(float).eps
        assert np.all(np.abs(batch.x_stop[:, 0] - exact) <= bound * np.abs(dw).sum(axis=1))

    def test_zero_integrand(self):
        spec = IntegrandSpec(1, 1, 1.0, 16, ())
        batch = simulate(spec, 100, seed=5)
        assert not batch.x_stop.any()
        assert not batch.sup_norm.any()
        r, = eval_continuous(spec, 1.0, [4], ["C-BURK-1"], 100, 5)
        assert r.lhs == 0.0 and r.ci_lhs == 0.0

    def test_sup_monotone_in_t(self, zoo):
        """The supremum grows with t and bounds ||X_t||, exactly: on 32 steps,
        and on each TERMINAL_SPECS spec at its mid stop (a block draws no
        step after it) against its horizon."""
        spec = constant_integrand(1.0, steps=32)
        half = simulate(spec, 500, seed=9, t=0.5)
        full = simulate(spec, 500, seed=9)
        assert np.all(half.sup_norm <= full.sup_norm)
        assert np.all(full.sup_norm >= np.abs(full.x_stop[:, 0]))
        for name in TERMINAL_SPECS:
            spec = terminal_spec(zoo, name)
            mid = simulate(spec, 500, seed=9, t=TERMINAL_STOPS["mid"](spec.steps) * spec.dt)
            full = simulate(spec, 500, seed=9)
            assert np.all(mid.sup_norm <= full.sup_norm), name
            for batch in (mid, full):
                assert np.all(batch.sup_norm >= row_norms(batch.x_stop)), name

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

    def test_paths_and_seed_are_integers(self):
        """Integral floats and numpy integers run the paths and seed the ints
        run; fractions and non-finite values are refused, not truncated."""
        spec = constant_integrand(1.0, steps=8)
        batch = simulate(spec, 8.0, np.int64(3))
        assert (batch.paths, batch.seed) == (8, 3)
        assert np.array_equal(batch.x_stop, simulate(spec, 8, 3).x_stop)
        for paths, seed, name in ((8, 3.9, "seed"), (8.5, 3, "paths"),
                                  (8, float("nan"), "seed"), (float("inf"), 3, "paths")):
            with pytest.raises(DomainError, match=f"{name} must be an integer"):
                simulate(spec, paths, seed)
        with pytest.raises(DomainError, match="paths must be an integer"):
            eval_continuous(spec, 1.0, [4], ["C-BURK-1"], 64.5, 0)

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
            wmc._check_run(spec, 2 ** 31 - 1, 0, 0, 0)
        block_bytes, room = wmc._check_run(spec, 10 ** 6, 0, 0, 0)
        assert room == wmc.BLOCK_MEMORY_BUDGET - 8 * 10 ** 6 * 3
        assert block_bytes <= room

    def test_block_memory_preflight(self, monkeypatch):
        """Runs whose single block would exceed the budget are refused before
        any block is simulated, though they pass the cell cap: the X and
        rule planes of 10^4 components over one 15-step chunk, 2.6 GB, and a
        2^20-step LIN block's ZAKAI partial rows of three exponents, 768 MiB
        beside as much output."""
        def no_block(*args):
            raise AssertionError("a block was simulated")

        monkeypatch.setattr(wmc, "_block", no_block)
        wide = constant_integrand(1.0, dim=10 ** 4, wiener_dim=2, steps=15)
        lin = IntegrandSpec(1, 1, 1.0, 2 ** 20, (
            RuleEntry(0, 2 ** 20, 1, Rule("lin", (1.0,), k=1)),))
        for spec, p in ((wide, []), (lin, [2, 3, 4])):
            assert 1024 * spec.steps * spec.wiener_dim <= wmc.DEFAULT_CELL_CAP
            with pytest.raises(ResourceLimitError, match="block memory budget"):
                simulate(spec, 1024, seed=0, p=p)

    def test_constant_integrand_peak_within_preflight(self):
        """A constant integrand in many dimensions holds no (m, S, d) table:
        the memory one block traces stays below _check_run's estimate."""
        spec = constant_integrand(1.0, dim=192, wiener_dim=192, steps=192)
        block_bytes, _ = wmc._check_run(spec, 2, 0, spec.steps, 1)
        simulate(spec, 2, seed=0, p=[4])   # warm-up: one-time allocations
        tracemalloc.start()
        try:
            simulate(spec, 2, seed=0, p=[4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes

    @pytest.mark.parametrize("name", ["spec_const1", "spec_lin", "spec_sign",
                                      "spec_mixed2d"])
    @pytest.mark.parametrize("paths, steps, p, sup, ahead", [
        pytest.param(1024, None, [4], True, True, id="1024-None"),
        pytest.param(32, 2 ** 18, [4], True, True, id="32-262144"),
        pytest.param(1024, None, [4, 2, 3], True, True, id="1024-None-p4,2,3"),
        pytest.param(32, 2 ** 18, [4, 2, 3], True, True, id="32-262144-p4,2,3"),
        pytest.param(1024, None, [4], False, True, id="1024-None-terminal"),
        pytest.param(32, 2 ** 18, [4], False, True, id="32-262144-terminal"),
        pytest.param(1024, None, [4, 2, 3], False, True, id="1024-None-p4,2,3-terminal"),
        pytest.param(256, 2 ** 14, [4], True, True, id="256-16384"),
        pytest.param(256, 2 ** 14, [4], True, False, id="256-16384-serial"),
        pytest.param(64, 2 ** 16, [4], True, True, id="64-65536"),
        pytest.param(64, 2 ** 16, [4], True, False, id="64-65536-serial")])
    def test_zakai_run_peak_within_preflight(self, zoo, monkeypatch, name, paths,
                                             steps, p, sup, ahead):
        """Given exponents, the memory one run traces stays below the block
        bytes plus the per-run output bytes (ZAKAI rows of every exponent
        included) that simulate's preflight counted, with or without the
        supremum. A block drawing ahead traces its second dW buffer,
        allocated by the helper thread, too; serial, the charge still holds
        it, as the preflight comes before the worker count."""
        monkeypatch.setattr(wmc, "_cpus", lambda: 1 << 10 if ahead else 1)
        spec = load_spec(zoo, name)
        if steps is not None:
            spec = scale_spec(spec, steps)
        real = wmc._check_run
        seen = []
        monkeypatch.setattr(wmc, "_check_run",
                            lambda *args: seen.append(real(*args)) or seen[-1])
        simulate(spec, 2, seed=0, p=p, sup=sup)   # warm-up: one-time allocations
        tracemalloc.start()
        try:
            simulate(spec, paths, seed=0, p=p, sup=sup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes, room = seen[-1]
        assert peak < block_bytes + wmc.BLOCK_MEMORY_BUDGET - room

    @pytest.mark.parametrize("name", ["spec_const1", "spec_lin", "spec_sign",
                                      "spec_mixed2d"])
    def test_charge_within_twice_peak(self, zoo, monkeypatch, name):
        """At 1024 paths and p = 4 the preflight charges, block and output
        together, less than twice what the run traces, serial or drawing
        ahead."""
        spec = load_spec(zoo, name)
        block_bytes, room = wmc._check_run(spec, 1024, 0, spec.steps, 1)
        for cpus in (1, 1 << 10):
            monkeypatch.setattr(wmc, "_cpus", lambda: cpus)
            simulate(spec, 2, seed=0, p=[4])   # warm-up: one-time allocations
            tracemalloc.start()
            try:
                simulate(spec, 1024, seed=0, p=[4])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert block_bytes + wmc.BLOCK_MEMORY_BUDGET - room < 2 * peak

    def test_long_grid_accepted_on_two_cpus(self, zoo, monkeypatch):
        """The spec_mixed2d layout on 16,384 steps is accepted at 1024 paths
        and p = 2, 4, its block charged about 11 MB, and at 2048 paths its
        two blocks run on two CPUs."""
        spec = scale_spec(load_spec(zoo, "spec_mixed2d"), 2 ** 14)
        wmc._check_run(spec, 1024, 0, spec.steps, 2)
        monkeypatch.setattr(wmc, "_cpus", lambda: 2)
        assert wmc._workers(2, *wmc._check_run(spec, 2048, 0, spec.steps, 2)) == 2

    def test_block_results_charged_with_output(self, zoo):
        """Beside the output (per-path rows, and per exponent the ZAKAI rows
        and g > 0 steps), a run is charged the results of every block, which
        merge may hold at once: groups + blocks - 1 ZAKAI partial rows per
        exponent, as consecutive blocks share one group at most, and a g > 0
        row, a byte a step, per block; none for a constant integrand."""
        for paths in (2, 1025, 3000, 33 * 1024 + 5, 10 ** 5):
            groups, blocks = min(wmc.CI_GROUPS, paths), -(-paths // wmc.BLOCK_PATHS)
            met = sum((min(lo + wmc.BLOCK_PATHS, paths) - 1) * groups // paths + 1
                      - lo * groups // paths for lo in range(0, paths, wmc.BLOCK_PATHS))
            assert met <= groups + blocks - 1   # the groups _block meets
            for name in ("spec_lin", "spec_const1"):
                spec = load_spec(zoo, name)
                for exponents, stop in ((0, spec.steps), (1, spec.steps), (3, 100)):
                    _, room = wmc._check_run(spec, paths, 0, stop, exponents)
                    results = (8 * exponents * (groups + blocks - 1)
                               + blocks * (exponents > 0)) * stop
                    assert wmc.BLOCK_MEMORY_BUDGET - room == (
                        8 * paths * (spec.dim + 2) + 8 * exponents * groups * stop
                        + (exponents > 0) * stop + spec.needs_wiener * results)

    def test_two_worker_peak_within_preflight(self, zoo, monkeypatch):
        """Two worker threads over 192 blocks of spec_lin at six exponents
        trace less than two blocks' charge plus the run's output and block
        results: merge lets each block's results go once it has added them.
        Futures that kept every result until the run returned traced 6.2 MiB
        beside the output, against 5.4 MiB charged for two blocks that
        counted 32 groups of ZAKAI rows each."""
        monkeypatch.setattr(wmc, "_cpus", lambda: 2)
        spec = load_spec(zoo, "spec_lin")
        real = wmc._check_run
        seen = []
        monkeypatch.setattr(wmc, "_check_run",
                            lambda *args: seen.append(real(*args)) or seen[-1])
        simulate(spec, 2, seed=0, p=[4, 2, 3, 6, 5, 8])   # warm-up: one-time allocations
        tracemalloc.start()
        try:
            simulate(spec, 192 * wmc.BLOCK_PATHS, seed=0, p=[4, 2, 3, 6, 5, 8])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes, room = seen[-1]
        assert wmc._workers(192, block_bytes, room) == 2
        assert peak < 2 * block_bytes + wmc.BLOCK_MEMORY_BUDGET - room

    @pytest.mark.parametrize("dim, wiener_dim", [(3, 2), (8, 1)])
    def test_terminal_scan_buffer_within_preflight(self, dim, wiener_dim):
        """A 1024-path block of 16 steps is one chunk, so the charge holds
        little beyond its arrays; a run without the supremum traces its
        carried X and its reduce down the steps on top of them, which
        _check_run charges too."""
        spec = constant_integrand(1.0, dim=dim, wiener_dim=wiener_dim, steps=16)
        block_bytes, room = wmc._check_run(spec, 1024, 0, spec.steps, 1)
        simulate(spec, 2, seed=0, p=[4], sup=False)   # warm-up: one-time allocations
        tracemalloc.start()
        try:
            simulate(spec, 1024, seed=0, p=[4], sup=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes + wmc.BLOCK_MEMORY_BUDGET - room

    def test_mixed_block_peak_pinned(self, zoo, monkeypatch):
        """A 1024-path spec_mixed2d run at p = 4, drawing ahead, traces under
        3.5 MiB: its chunks reduce their own rows of g in arrays the block
        allocates once. A block that held g and g^{p/2} for all its paths
        traced 4.2 MiB."""
        monkeypatch.setattr(wmc, "_cpus", lambda: 1 << 10)
        spec = load_spec(zoo, "spec_mixed2d")
        simulate(spec, 1024, seed=0, p=[4])   # warm-up: one-time allocations
        tracemalloc.start()
        try:
            simulate(spec, 1024, seed=0, p=[4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2 ** 20

    def test_workers_capped_by_budget_and_blocks(self):
        room = wmc.BLOCK_MEMORY_BUDGET
        assert wmc._workers(64, room // 2 + 1, room) == 1
        assert wmc._workers(1, 8, room) == 1
        assert 1 <= wmc._workers(64, 8, room) <= 64

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

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_chunk_error_stops_draw_ahead(self, monkeypatch, error):
        """An error in the third chunk of a one-block run that draws ahead
        reaches the caller, and the helper thread is joined before it does."""
        real, calls = wmc._chunk, []

        def failing(*args):
            calls.append([t.name for t in threading.enumerate()])
            if len(calls) == 3:
                raise error("chunk 3")
            return real(*args)

        monkeypatch.setattr(wmc, "_chunk", failing)
        monkeypatch.setattr(wmc, "_cpus", lambda: 2)
        with pytest.raises(error, match="chunk 3"):
            simulate(constant_integrand(1.0, steps=1024), 1024, seed=1)
        assert len(calls) == 3 and any(n.startswith("martcheck-mc-draw") for n in calls[2])
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("martcheck-mc") and t.is_alive()]

    @pytest.mark.parametrize("paths, cpus, helper", [
        (1024, 1, False), (1024, 2, True), (2048, 2, False), (2048, 4, True),
        (3072, 4, False)])
    def test_draw_ahead_only_on_a_free_cpu(self, monkeypatch, paths, cpus, helper):
        """Blocks draw ahead only if the CPUs leave one free for each worker:
        one block on two CPUs does, two blocks on two or three on four do not."""
        real, names = wmc._chunk, set()

        def spy(*args):
            names.update(t.name for t in threading.enumerate())
            return real(*args)

        monkeypatch.setattr(wmc, "_chunk", spy)
        monkeypatch.setattr(wmc, "_cpus", lambda: cpus)
        simulate(constant_integrand(1.0, steps=1024), paths, seed=1)
        assert any(n.startswith("martcheck-mc-draw") for n in names) == helper

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


def wide_cases():
    """(spec, paths, t, p) runs on integrands wider than the zoo's, pinned by
    digest: d = 3, 8 and 9 (where numpy's own sums of 8 or more components
    would turn pairwise), m = 1 and 3, CONST, LIN and SIGN rules, zero
    coefficients, steps no rule covers, t at mid-horizon, 1500 paths (a
    ragged second block) and three exponents per run."""
    cases = []
    for d in (3, 8, 9):
        def c(scale):
            return tuple(0.0 if q == 1 else scale * (q + 1) / d * (-1) ** q
                         for q in range(d))
        for m in (1, 3):
            if m == 1:
                entries = (RuleEntry(1, 4, 1, Rule("const", c(0.5))),
                           RuleEntry(4, 8, 1, Rule("lin", c(1.0), k=1)),
                           RuleEntry(9, 20, 1, Rule("sign", c(-0.75), k=1)))
            else:
                entries = (RuleEntry(1, 6, 1, Rule("const", c(0.5))),
                           RuleEntry(6, 11, 1, Rule("lin", c(1.5), k=2)),
                           RuleEntry(0, 9, 2, Rule("lin", c(-1.0), k=3)),
                           RuleEntry(3, 20, 3, Rule("sign", c(0.75), k=1)))
            cases.append((IntegrandSpec(d, m, 1.5, 24, entries), 1500, 0.75, (4, 2, 3)))
    return cases


def simulate_digest(cases, first_seed=0):
    h = hashlib.sha256()
    for seed, (spec, paths, t, p) in enumerate(cases, first_seed):
        batch = simulate(spec, paths, seed=seed, t=t, p=p if isinstance(p, tuple) else [p])
        for arr in (batch.x_stop, batch.sup_norm, batch.riemann, batch.zakai_rows):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


FROZEN_SIMULATE_DIGEST = "c91cf33947b99cc51fe08c58d081a9df6911e76fcdc88d93a03e11b5f97f657f"
# wide_cases' d = 3 runs (seeds 0 and 1), and its d = 8 and 9 runs (seeds 2 to 5)
WIDE_D3_DIGEST = "3353917651b2d63fe5535870a44ef5537bbc6c2fcd669230b0645f15bf45e34a"
WIDE_D89_DIGEST = "0f8c7c7a35b65b5af77eb725802d8ec888ad1f43da0a58191674e320056ef312"


def wide_digests():
    cases = wide_cases()
    return simulate_digest(cases[:2]), simulate_digest(cases[2:], 2)


class TestFrozenBits:
    def test_stream_canary(self):
        """numpy pins SFC64's integer stream but not Generator's normal
        algorithm; a numpy whose ziggurat changed fails here, by name,
        before it fails every Monte Carlo digest."""
        def stream(b):
            return np.random.SFC64(np.random.SeedSequence(entropy=0, spawn_key=(10, b)))
        got = (stream(0).random_raw(2).tolist(),
               [np.random.Generator(stream(b)).standard_normal(4).tolist() for b in (0, 1)])
        assert got == (
            [5809849323148613378, 4266959640288583936],
            [[-0.1487021853867499, -3.326094813865118, -0.09440642209439283,
              -0.8656541210366934],
             [0.8077253764418846, 0.7093546472383584, -0.01982782267818545,
              -0.39527976074442633]]), f"the block streams moved under numpy {np.__version__}"

    def test_default_workers(self, zoo):
        assert simulate_digest(frozen_cases(zoo)) == FROZEN_SIMULATE_DIGEST

    @pytest.mark.parametrize("name", ["spec_const1", "spec_lin", "spec_sign",
                                      "spec_mixed2d"])
    def test_exponents_share_one_batch(self, zoo, name):
        """Each exponent's ZAKAI rows of a several-exponent run are those of
        a run given that exponent alone, bit for bit, and the per-path rows
        do not depend on the exponents."""
        spec = load_spec(zoo, name)
        for t in (spec.horizon, spec.horizon / 2):
            batch = simulate(spec, 3000, seed=4, t=t, p=(4, 2, 3))
            assert batch.p == (4.0, 2.0, 3.0)
            for k, p in enumerate(batch.p):
                alone = simulate(spec, 3000, seed=4, t=t, p=(p,))
                assert np.array_equal(batch.zakai_rows[k], alone.zakai_rows[0])
                for field in ("x_stop", "sup_norm", "riemann"):
                    assert np.array_equal(getattr(batch, field), getattr(alone, field))

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


@st.composite
def chunk_cases(draw):
    """(spec, stop, paths, p, chunk steps, step cells, sup, seed): d of 1, 2,
    3 or 9, m of 1 to 3, random CONST, LIN and SIGN rules, stop at 0, 1,
    mid-grid or the horizon, batch-means groups inside a block or spanning
    blocks, 0 to 3 exponents, chunks of 1, 3, 5 or 1024 steps, running sums
    that add each step in one numpy call from 1 cell, from _STEP_CELLS or
    never (np.cumsum down the steps), with and without the supremum."""
    d = draw(st.sampled_from([1, 2, 3, 9]))
    m = draw(st.integers(1, 3))
    steps = draw(st.integers(1, 12))
    coef = st.sampled_from([0.3, 0.0, 1.0, -0.5, 2.0, 1e-3])
    entries = []
    for j in range(1, m + 1):
        cuts = draw(st.sets(st.integers(0, steps), max_size=4))
        cuts = sorted(cuts | {0} if draw(st.booleans()) else cuts)
        for start, stop in zip(cuts[::2], cuts[1::2]):
            kind = draw(st.sampled_from(wmc.RULE_KINDS))
            rule = Rule(kind, tuple(draw(coef) for _ in range(d)),
                        None if kind == "const" else draw(st.integers(1, m)))
            entries.append(RuleEntry(start, stop, j, rule))
    spec = IntegrandSpec(d, m, 1.5, steps, tuple(entries))
    return (spec, draw(st.sampled_from(sorted({0, 1, steps // 2, steps}))),
            draw(st.sampled_from([2, 33, 1000, 2500, 40000])),
            draw(st.lists(st.sampled_from([2.0, 2.5, 3.0, 4.0, 7.0]), max_size=3)),
            draw(st.sampled_from([1, 3, 5, 1024])),
            draw(st.sampled_from([1, wmc._STEP_CELLS, 1 << 62])), draw(st.booleans()),
            draw(st.integers(0, 2 ** 32)))


# g at step 0 is the same on every path (W_0 = 0), positive under CONST rules
# alone; at stop = 1 each group share of its power is one step's sum over
# the share's paths
CUT_AT_STEP_ONE = IntegrandSpec(1, 2, 1.5, 4, (
    RuleEntry(0, 4, 1, Rule("const", (0.3,))), RuleEntry(0, 4, 2, Rule("lin", (1.0,), k=1))))
# d = 3, m = 2: two components' windows start and end inside the first
# chunk of 16 steps and overlap there, and steps 0-2 and 13-19 no rule covers
STAGGERED_D3 = IntegrandSpec(3, 2, 1.5, 40, (
    RuleEntry(3, 11, 1, Rule("lin", (1.0, -0.5, 0.3), k=2)),
    RuleEntry(20, 40, 1, Rule("const", (0.3, 0.7, -1.2))),
    RuleEntry(5, 13, 2, Rule("sign", (0.5, 2.0, -1.0), k=1))))
# a SIGN rule from step 0, where W_0 = 0 and sign(0) = 0, beside a LIN rule
SIGN_FROM_ZERO = IntegrandSpec(3, 2, 1.5, 12, (
    RuleEntry(0, 8, 1, Rule("sign", (1.0, -0.5, 2.0), k=1)),
    RuleEntry(0, 12, 2, Rule("lin", (0.3, 0.3, -0.7), k=1))))
# nine components of one CONST rule, applied as one run (see wmc._plan):
# alone on 48 steps, and on 12 after a LIN rule on the same steps, so that
# the run adds to increments and g already there
SHARED_CONST = Rule("const", (0.7,))
CONST_RUN_SPECS = [constant_integrand(0.7, wiener_dim=9, steps=48), IntegrandSpec(
    1, 10, 1.5, 12, (RuleEntry(0, 12, 1, Rule("lin", (1.3,), k=1)),
                     *(RuleEntry(0, 12, j, SHARED_CONST) for j in range(2, 11))))]
# d = m = 1 on 200 steps, dW scaled in place: X alone, and W, g and X
ONE_COLUMN_SPECS = [constant_integrand(0.7, steps=200), IntegrandSpec(1, 1, 1.5, 200, (
    RuleEntry(0, 120, 1, Rule("const", (0.7,))),
    RuleEntry(120, 200, 1, Rule("lin", (1.3,), k=1))))]


def check_reference(spec, stop, paths, p, steps, cells, sup, seed):
    """simulate, its chunks of the given steps and its running sums taking a
    numpy add per step from the given cells, gives the reference's bits."""
    with mock.patch.multiple(wmc, _chunk_steps=lambda spec, rows: steps, _STEP_CELLS=cells):
        batch = simulate(spec, paths, seed, t=stop * spec.dt, p=p, sup=sup)
    want = reference_simulate(spec, paths, seed, t=stop * spec.dt, p=p)
    got = batch.x_stop, batch.sup_norm, batch.riemann, batch.zakai_rows, batch.g_positive
    for name, a, b in zip(("x_stop", "sup_norm", "riemann", "zakai_rows", "g_positive"),
                          got, want):
        if name == "sup_norm" and not sup:
            assert a is None
            continue
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestChunkedKernel:
    def test_wide_specs(self):
        assert wide_digests() == (WIDE_D3_DIGEST, WIDE_D89_DIGEST)

    @pytest.mark.parametrize("workers", [1, 8])
    @pytest.mark.parametrize("rows", [1, 37, wmc.BLOCK_PATHS])
    def test_chunk_rows_do_not_change_bits(self, zoo, monkeypatch, rows, workers):
        """Blocks drawn and reduced in chunks of 1, 37 or 1024 rows, a
        chunk's rows being its grid steps, give the pinned bits: on one
        worker thread with every block drawing ahead on a helper thread (a
        CPU left free for it), thread switches forced often, and on eight
        worker threads drawing on their own. Chunks of one step take
        np.cumsum for every running sum, chunks of 37 a numpy add per step
        for all of them, even one-cell steps."""
        ahead = workers == 1
        monkeypatch.setattr(wmc, "_chunk_steps", lambda spec, paths: rows)
        monkeypatch.setattr(wmc, "_STEP_CELLS", {1: 1 << 62, 37: 1}.get(rows, wmc._STEP_CELLS))
        monkeypatch.setattr(wmc, "_workers", lambda blocks, block_bytes, room: workers)
        monkeypatch.setattr(wmc, "_cpus", lambda: 1 << 10 if ahead else 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6 if ahead else interval)
        try:
            digests = simulate_digest(frozen_cases(zoo)), wide_digests()
        finally:
            sys.setswitchinterval(interval)
        assert digests == (FROZEN_SIMULATE_DIGEST, (WIDE_D3_DIGEST, WIDE_D89_DIGEST))

    @given(chunk_cases())
    @example((CUT_AT_STEP_ONE, 1, 1000, [3.0], 37, 1, True, 5))
    @example((CUT_AT_STEP_ONE, 1, 40000, [2.5, 2.0], 1, 1 << 62, False, 6))
    # a constant integrand's one row of g, set by simulate, over 40 blocks
    @example((constant_integrand(0.3, dim=2, wiener_dim=2, steps=4), 3, 40000, [3.0, 2.0],
              37, wmc._STEP_CELLS, True, 7))
    # nine coordinates: simulate's one row of g adds ||c||^2 left to right
    @example((IntegrandSpec(9, 3, 1.5, 3, (RuleEntry(0, 1, 1, Rule("const", (0.3,) * 9)),)),
              1, 2, [], 1, wmc._STEP_CELLS, True, 0))
    # grids of 200 steps in chunks of 37, stopped inside a chunk and after
    # rules end, with every running sum at its default
    @example((IntegrandSpec(2, 2, 1.5, 200, (
        RuleEntry(0, 130, 1, Rule("lin", (1.0, -0.5), k=2)),
        RuleEntry(64, 200, 2, Rule("const", (0.3, 2.0))))), 192, 1000, [4.0], 37,
        wmc._STEP_CELLS, True, 8))
    @example((IntegrandSpec(1, 1, 1.5, 200, (RuleEntry(10, 150, 1, Rule("sign", (2.0,), k=1)),)),
              150, 1100, [], 1024, wmc._STEP_CELLS, False, 9))
    @example((STAGGERED_D3, 40, 1000, [4.0], 16, wmc._STEP_CELLS, True, 11))
    @example((SIGN_FROM_ZERO, 12, 33, [3.0], 5, 1, True, 12))
    # BLOCK_PATHS + 1 paths: the runs of nine components add each one-path
    # step in turn, where numpy's reduce would sum them pairwise
    @example((CONST_RUN_SPECS[0], 48, 1025, [4.0], 5, wmc._STEP_CELLS, True, 13))
    @example((CONST_RUN_SPECS[1], 12, 1025, [4.0, 3.0], 5, wmc._STEP_CELLS, True, 14))
    def test_matches_whole_block_reference(self, case):
        """Blocks reduced in chunks of steps give the bits of the one-step-
        at-a-time reference (see chunk_cases)."""
        check_reference(*case)

    @pytest.mark.parametrize("sup", [True, False])
    @pytest.mark.parametrize("spec", ONE_COLUMN_SPECS, ids=["const", "const-lin"])
    def test_one_path_last_block_matches_reference(self, spec, sup):
        """BLOCK_PATHS + 1 paths at d = m = 1: the last block is one path,
        whose X and Riemann sums down 200 steps numpy's reduce would add
        pairwise; they are added left to right, as the first block's are."""
        check_reference(spec, spec.steps, wmc.BLOCK_PATHS + 1, [4.0],
                        wmc._chunk_steps(spec, 1), wmc._STEP_CELLS, sup, 10)

    def test_chunk_rows_sized_and_clamped(self, zoo):
        """A chunk's (steps + 1, paths) arrays, at most 16 of them counted,
        hold at most _CHUNK_CELLS cells: 15 steps or more of a 1024-path
        block."""
        # dW, W, g, the field s, g^(p/2), the planes of f^j and X: 11 arrays
        mixed = load_spec(zoo, "spec_mixed2d")
        lin = load_spec(zoo, "spec_lin")         # dW scaled in place, W, g, s, g^(p/2), f: 6
        const = load_spec(zoo, "spec_const1")    # dW scaled in place: 1
        # dW, the planes of c dW^j and X: 2 + 3 + 3
        const_d3 = constant_integrand(1.0, dim=3, wiener_dim=2, steps=16)
        wide = constant_integrand(1.0, dim=2, wiener_dim=1000, steps=16)   # 16 counted
        for spec, arrays in ((mixed, 11), (lin, 6), (const, 1), (const_d3, 8), (wide, 16)):
            for rows in (wmc.BLOCK_PATHS, 37):
                steps = wmc._chunk_steps(spec, rows)
                assert (steps + 1) * rows * arrays <= wmc._CHUNK_CELLS
                assert (steps + 2) * rows * arrays > wmc._CHUNK_CELLS
        assert wmc._chunk_steps(wide, wmc.BLOCK_PATHS) == 15
        assert wmc._chunk_steps(const, 1) == wmc._CHUNK_CELLS - 1


def terminal_spec(zoo, name):
    if name == "const1":   # d = m = 1: dW scaled in place
        return constant_integrand(1.0)
    if name == "const-d3-m2":
        return constant_integrand(0.7, dim=3, wiener_dim=2)
    return load_spec(zoo, name)


TERMINAL_SPECS = ["const1", "const-d3-m2", "spec_mixed2d", "spec_lin", "spec_sign"]
# the stop index: the horizon, mid-grid (1000 of 1024, 250 of 256: a block
# draws no step after it), and 0
TERMINAL_STOPS = {"horizon": lambda steps: steps, "mid": lambda steps: steps * 125 // 128,
                  "zero": lambda steps: 0}


class TestTerminalOnly:
    """simulate(..., sup=False) scans no path, and keeps every other bit."""

    @pytest.mark.parametrize("stop", TERMINAL_STOPS)
    @pytest.mark.parametrize("name", TERMINAL_SPECS)
    @pytest.mark.parametrize("paths, cpus", [
        (3000, 1),      # three blocks, the last ragged, on one worker
        (3000, 8),      # the same on three workers, each drawing ahead
        (1025, 1),      # a last block of one path
        (1024, 2)],     # one block of several chunks of steps, drawing ahead
        ids=["3000-cpus1", "3000-cpus8", "1025-cpus1", "1024-ahead"])
    def test_batch_matches_scan(self, zoo, monkeypatch, name, stop, paths, cpus):
        spec = terminal_spec(zoo, name)
        monkeypatch.setattr(wmc, "_cpus", lambda: cpus)
        t = TERMINAL_STOPS[stop](spec.steps) * spec.dt
        scan = simulate(spec, paths, seed=17, t=t, p=(4, 3))
        terminal = simulate(spec, paths, seed=17, t=t, p=(4, 3), sup=False)
        assert scan.sup_norm is not None and terminal.sup_norm is None
        for field in ("x_stop", "riemann", "zakai_rows", "g_positive"):
            a, b = getattr(scan, field), getattr(terminal, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field

    @pytest.mark.parametrize("stop", ["horizon", "mid"])
    @pytest.mark.parametrize("name", TERMINAL_SPECS)
    def test_rows_match_all_ids_run(self, zoo, name, stop):
        """C-BURK-1 and ZAKAI-MAIN, run without the scan, report exactly
        their rows of a run of all four ids."""
        spec = terminal_spec(zoo, name)
        t = TERMINAL_STOPS[stop](spec.steps) * spec.dt
        ids = ["C-BURK-1", "ZAKAI-MAIN"]
        alone = eval_continuous(spec, t, [2, 4], ids, 3000, 23)
        every = eval_continuous(spec, t, [2, 4], ["C-BURK-1", "C-BURK-2", "ZAKAI-MAIN",
                                                  "ZAKAI-MAX"], 3000, 23)
        assert list(alone) == [r for r in every if r.id in ids]

    @pytest.mark.parametrize("ids, sup", [
        (["C-BURK-1"], False), (["ZAKAI-MAIN"], False), (["C-BURK-1", "ZAKAI-MAIN"], False),
        (["C-BURK-2"], True), (["ZAKAI-MAX"], True), (["ZAKAI-MAIN", "ZAKAI-MAX"], True),
        (["C-BURK-1", "C-BURK-2", "ZAKAI-MAIN", "ZAKAI-MAX"], True)])
    def test_sup_only_for_sup_ids(self, monkeypatch, ids, sup):
        """eval_continuous asks simulate for the supremum only when one of
        its ids reads it."""
        seen, real = [], wmc.simulate
        signature = inspect.signature(real)

        def spy(*args, **kwargs):
            seen.append(signature.bind(*args, **kwargs).arguments.get("sup", True))
            return real(*args, **kwargs)

        monkeypatch.setattr(wmc, "simulate", spy)
        eval_continuous(constant_integrand(1.0, steps=8), 1.0, [4], ids, 64, 0)
        assert seen == [sup]


@pytest.fixture(scope="class")
def unit_runs():
    """f == 1 on 1024 steps, 10^5 paths, seed 7: the C-BURK-1 and C-BURK-2
    reports at p = 2 and p = 4 from one call, keyed by p."""
    spec = constant_integrand(1.0, steps=1024)
    reports = list(eval_continuous(spec, 1.0, [2, 4], ["C-BURK-1", "C-BURK-2"],
                                   100000, 7))
    return {2: reports[:2], 4: reports[2:]}


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


@st.composite
def band_cases(draw):
    """(rows, p, constants, batch) for wiener_mc._band: per-path rows (batch
    None) or a batch's ZAKAI per-group sums over 1-5 steps, with its g > 0
    steps; from two rows up, 0 or scaled by 2^-1000, 2^1000 or 2^-1070, where
    the means fall below the normal float range."""
    p = draw(st.sampled_from([2.0, 3.0, 4.0, 16.0]) | st.floats(2.0, 64.0))
    paths = draw(st.sampled_from([2, 3, 33]) | st.integers(2, 80))
    scale = draw(st.sampled_from([0, -1000, 1000, -1070]))
    stop = draw(st.integers(1, 5)) if draw(st.booleans()) else None
    shape = (paths,) if stop is None else (min(wmc.CI_GROUPS, paths), stop)
    mantissas = draw(st.lists(st.just(0.0) | st.floats(0.0, 100.0),
                              min_size=math.prod(shape), max_size=math.prod(shape)))
    rows = np.ldexp(np.array(mantissas).reshape(shape), scale)
    constants = draw(st.lists(st.floats(1.0, 1e3), min_size=1, max_size=3))
    if stop is None:
        return rows, p, constants, None
    positive = np.array(draw(st.lists(st.booleans(), min_size=stop, max_size=stop)))
    batch = wmc.WienerBatch(constant_integrand(1.0, steps=stop), 0, paths, stop, np.empty(0),
                            None, np.empty(0), (p,), rows[None], positive)
    return rows, p, constants, batch


class TestBand:
    @given(band_cases())
    @example((np.zeros(2), 4.0, [9.0], None))
    @example((np.ldexp(np.array([3.0, 1.0]), -1070), 2.0, [1.0], None))
    @example((np.ldexp(np.array([3.0, 1.0, 2.0]), 1000), 3.0, [4.0], None))
    def test_matches_reference(self, case):
        """One estimator gives the bits of the delta-method and batch-means
        estimators it replaced and of the bands formed from them: the point,
        the left-side band (constant 1) and the right-side band at each
        constant; it raises their underflow error word for word."""
        rows, p, constants, batch = case
        try:
            point, bands, side = reference_bands(rows, p, constants, batch)
        except DomainError as error:
            with pytest.raises(DomainError) as got:
                wmc._band(rows, p, batch)
            assert str(got.value) == str(error)
            return
        got, band = wmc._band(rows, p, batch)
        assert (got, band(1.0), [band(c) for c in constants]) == (point, side, bands)


class TestEvalContinuous:
    def test_unit_integrand_zakai_p4(self, zoo):
        spec = load_spec(zoo, "spec_const1")
        r, = eval_continuous(spec, 1.0, [4], ["ZAKAI-MAIN"], 100000, 42)
        assert r.rhs == 3.0          # deterministic integrand: exact
        assert r.ci_rhs == 0.0
        assert abs(r.lhs - math.sqrt(3)) < 0.02
        assert r.verdict == "satisfied" and r.satisfied

    def test_unit_integrand_burk_bases(self, zoo):
        spec = load_spec(zoo, "spec_const1")
        r, = eval_continuous(spec, 1.0, [4], ["C-BURK-1"], 20000, 42)
        assert r.rhs == 9.0
        r2, z2 = eval_continuous(spec, 1.0, [2], ["C-BURK-2", "ZAKAI-MAX"], 20000, 3)
        assert r2.rhs == 4.0 and z2.rhs == 4.0
        assert r2.verdict == "satisfied" and z2.verdict == "satisfied"
        assert "grid points" in r2.notes   # sup bias disclosure

    def test_zakai_never_looser_than_burk_deterministic(self, zoo):
        """For deterministic integrands both bases agree analytically and
        the improved constant makes the newer bound the smaller one."""
        spec = load_spec(zoo, "spec_const1")
        for p in (2.0, 3.0, 4.0):
            z, b = eval_continuous(spec, 1.0, [p], ["ZAKAI-MAIN", "C-BURK-1"], 2000, 1)
            assert z.rhs <= b.rhs + 1e-12

    def test_isometry_across_zoo(self, zoo):
        """p = 2 turns ZAKAI-MAIN into an equality; the two estimates must
        agree within combined 95% intervals on every shipped spec."""
        for name, seed in (("spec_const1", 11), ("spec_lin", 12),
                           ("spec_sign", 13), ("spec_mixed2d", 14)):
            spec = load_spec(zoo, name)
            r, = eval_continuous(spec, spec.horizon, [2], ["ZAKAI-MAIN"],
                                 100000, seed)
            assert abs(r.lhs - r.rhs) <= r.ci_lhs + r.ci_rhs, (name, r)

    def test_each_side_estimated_once_per_exponent(self, zoo, monkeypatch):
        calls = []
        real = wmc._band
        monkeypatch.setattr(wmc, "_band", lambda *a: calls.append(a) or real(*a))
        ids = ["C-BURK-1", "C-BURK-2", "ZAKAI-MAIN", "ZAKAI-MAX"]
        table = eval_continuous(load_spec(zoo, "spec_mixed2d"), 2.0, [2, 4], ids, 256, 0)
        assert [(r.p, r.id) for r in table] == [(p, i) for p in (2.0, 4.0) for i in ids]
        # per exponent: the terminal and sup sides and the square-function
        # base from per-path rows, the ZAKAI time integral from per-group rows
        assert [call[1] for call in calls] == [2.0] * 4 + [4.0] * 4
        assert [len(call) == 3 for call in calls].count(True) == 2

    @pytest.mark.parametrize("c, p, message", [
        (1e-170, 1e160, "(the sup, terminal mean powers fall below the normal range"),
        (0.126, 1e200, "(the ZAKAI mean g^(p/2) at step 1 is 0 where g > 0")])
    def test_underflow_refused_before_constant_overflow(self, c, p, message):
        """At these exponents the constant (p-1)^2 overflows a float too, but
        the sides and bases are estimated and checked first: the run is
        refused for their underflow, word for word."""
        spec = IntegrandSpec(1, 1, 1.0, 16, (RuleEntry(0, 16, 1, Rule("lin", (c,), k=1)),))
        ids = ["C-BURK-1", "C-BURK-2", "ZAKAI-MAIN", "ZAKAI-MAX"]
        with pytest.raises(DomainError) as refused:
            eval_continuous(spec, 1.0, [p], ids, 64, 0)
        assert str(refused.value).startswith(f"p={p:g}: the sides underflow a float {message}")

    def test_all_ids_on_mixed_spec(self, zoo):
        spec = load_spec(zoo, "spec_mixed2d")
        ids = ["C-BURK-1", "C-BURK-2", "ZAKAI-MAIN", "ZAKAI-MAX"]
        reports = eval_continuous(spec, 2.0, [4], ids, 20000, 5)
        assert [r.id for r in reports] == ids
        for r in reports:
            assert r.verdict == "satisfied", r
            assert r.seed == 5

    def test_time_zero(self, zoo):
        spec = load_spec(zoo, "spec_const1")
        r, = eval_continuous(spec, 0.0, [4], ["ZAKAI-MAIN"], 100, 1)
        assert r.lhs == 0.0 and r.rhs == 0.0
        assert r.ratio == 0.0
        assert r.satisfied

    def test_partial_horizon(self, zoo):
        spec = load_spec(zoo, "spec_const1")
        r, = eval_continuous(spec, 0.5, [4], ["ZAKAI-MAIN"], 20000, 1)
        assert r.rhs == pytest.approx(1.5)   # 3 * integral over [0, 0.5]

    def test_unknown_id(self):
        spec = constant_integrand(1.0, steps=4)
        with pytest.raises(DomainError, match="unknown inequality id"):
            eval_continuous(spec, 1.0, [4], ["D-BURK-1"], 100, 0)
        with pytest.raises(DomainError, match="sequence"):
            eval_continuous(spec, 1.0, [4], "ZAKAI-MAIN", 100, 0)

    def test_deterministic_reports(self, zoo):
        spec = load_spec(zoo, "spec_lin")
        a = eval_continuous(spec, 1.0, [4], ["ZAKAI-MAIN"], 5000, 77)
        b = eval_continuous(spec, 1.0, [4], ["ZAKAI-MAIN"], 5000, 77)
        assert list(a) == list(b)

    def test_multi_component_exact_rhs(self):
        # two unit drivers: g = 2, so the p=4 ZAKAI base is exactly 2
        spec = constant_integrand(1.0, dim=1, wiener_dim=2, steps=64)
        r, = eval_continuous(spec, 1.0, [4], ["ZAKAI-MAIN"], 20000, 9)
        assert r.rhs == 6.0
        assert r.verdict == "satisfied"

    def test_frozen_values_mixed_spec(self, zoo):
        """All four ids share one batch: the C-BURK sides are pinned bit for
        bit, the ZAKAI left sides are the C-BURK ones, and the ZAKAI right
        sides are the left-sum values."""
        spec = load_spec(zoo, "spec_mixed2d")
        b1, b2, zm, zx = eval_continuous(
            spec, 2.0, [4], ["C-BURK-1", "C-BURK-2", "ZAKAI-MAIN", "ZAKAI-MAX"],
            20000, 99)
        assert (b1.lhs, b1.ci_lhs, b1.rhs, b1.ci_rhs) == (
            5.738760784601864, 0.2343253008425944,
            33.797762766971104, 0.4110922661652064)
        assert (b2.lhs, b2.ci_lhs, b2.rhs, b2.ci_rhs) == (
            7.546338661281039, 0.27478644924391543,
            60.08491158572641, 0.7308306954048113)
        assert (zm.lhs, zm.ci_lhs) == (b1.lhs, b1.ci_lhs)
        assert (zx.lhs, zx.ci_lhs) == (b2.lhs, b2.ci_lhs)
        assert zm.rhs == pytest.approx(12.723771276396413, rel=1e-12)
        assert zx.rhs == pytest.approx(22.62003782470473, rel=1e-12)
        # the batch-means bands, bit for bit
        assert (zm.rhs, zm.ci_rhs) == (12.723771276396413, 0.15920554249654806)
        assert (zx.rhs, zx.ci_rhs) == (22.62003782470473, 0.2830320755494188)

    def test_zakai_coarse_grid_identity_not_satisfied(self, zoo):
        """spec_lin on 8 steps at p=2 is an identity (both sides 0.4375
        exactly). A trapezoid reaching past the last step gives rhs ~0.50
        and "satisfied"; the left sum must not. Its 95% interval on rhs
        covers 0.4375 on all but at most 6 of 40 seeds: at true 95% coverage
        that fails 0.3% of the time, and an interval that misses 20% of the
        time fails it with probability 0.71, where one seed would catch it
        with probability 0.20."""
        with open(zoo / "spec_lin.json") as fh:
            obj = json.load(fh)
        obj["steps"] = 8
        obj["rules"] = [dict(r, range=[0, 8]) for r in obj["rules"]]
        spec = parse_integrand(obj)
        r, = eval_continuous(spec, 1.0, [2], ["ZAKAI-MAIN"], 200000, 0)
        assert r.verdict != "satisfied"
        runs = [eval_continuous(spec, 1.0, [2], ["ZAKAI-MAIN"], 200000, seed)[0]
                for seed in range(11000, 11040)]
        assert not [r for r in runs if r.verdict == "satisfied"]
        misses = [r for r in runs if abs(r.rhs - 0.4375) > r.ci_rhs]
        assert len(misses) <= 6, misses


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
            r, = eval_continuous(spec, spec.horizon, [4], ["C-BURK-1"], 10 ** 6, seed)
            ests.append(r)
        diff = abs(ests[0].lhs - ests[1].lhs)
        assert diff <= ests[0].ci_lhs + ests[1].ci_lhs, (name, ests)
