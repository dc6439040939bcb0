"""Discrete inequality evaluators, the one-step bound and the Taylor bound."""
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import martcheck.formats as formats
import martcheck.ineq as ineq
import martcheck.ptree as ptree
import martcheck.sharpness as sh
from martcheck import (
    DomainError,
    Level,
    PreconditionError,
    ProbTree,
    QuadratureError,
    constant_integrand,
    eval_continuous,
    parse_tree,
)

P_GRID = (2.0, 2.7, 4.0)


def trees():
    return st.builds(
        ptree.random_tree,
        st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))


class TestEvalDiscrete:
    def setup_method(self):
        self.walk = ptree.symmetric_walk(2)

    def test_burk1_equality_at_p2(self):
        r = ineq.eval_discrete(self.walk, 2, 2, "D-BURK-1")
        assert r.lhs == pytest.approx(2.0)
        assert r.rhs == pytest.approx(2.0)
        assert r.constant == 1.0
        assert r.satisfied and r.verdict == "satisfied"

    def test_burk2_sup_side(self):
        r = ineq.eval_discrete(self.walk, 2, 2, "D-BURK-2")
        assert r.lhs == pytest.approx(2.5)
        assert r.rhs == pytest.approx(8.0)
        assert r.ratio == pytest.approx(2.5 / 8.0)

    def test_main_p4(self):
        r = ineq.eval_discrete(self.walk, 2, 4, "PROP1-MAIN")
        assert r.lhs == pytest.approx(math.sqrt(8.0))
        assert r.rhs == pytest.approx(6.0)   # 3 * (0 + 1 + 1)
        assert r.satisfied

    def test_max_p4(self):
        r = ineq.eval_discrete(self.walk, 2, 4, "PROP1-MAX")
        assert r.constant == pytest.approx(16.0 / 3.0)
        assert r.rhs == pytest.approx(2.0 * 16.0 / 3.0)
        assert r.satisfied

    def test_doob_unsquared(self):
        r = ineq.eval_discrete(self.walk, 2, 2, "DOOB")
        assert r.lhs == pytest.approx(math.sqrt(2.5))
        assert r.rhs == pytest.approx(2.0 * math.sqrt(2.0))

    def test_chain_equality_two_point(self):
        # M_0 = 1, M_1 in {2, 0}: the chained bound is tight at p = 2
        t = parse_tree({"m0": [1.0], "tree": {"children": [
            {"prob": 0.5, "incr": [1.0], "node": {}},
            {"prob": 0.5, "incr": [-1.0], "node": {}}]}})
        r = ineq.eval_discrete(t, 1, 2, "RIO-CHAIN")
        assert r.lhs == pytest.approx(2.0)
        assert r.rhs == pytest.approx(2.0)

    def test_rio_step_id_rejected(self):
        with pytest.raises(DomainError):
            ineq.eval_discrete(self.walk, 1, 2, "RIO-STEP")

    def test_unknown_id(self):
        with pytest.raises(DomainError, match="unknown inequality id"):
            ineq.eval_discrete(self.walk, 1, 2, "NO-SUCH")

    def test_invalid_tree_refused(self):
        t = parse_tree({"m0": [0.0], "tree": {"children": [
            {"prob": 0.9, "incr": [1.0], "node": {}},
            {"prob": 0.5, "incr": [-1.8], "node": {}}]}})
        from martcheck import InvalidTreeError
        with pytest.raises(InvalidTreeError):
            ineq.eval_discrete(t, 1, 2, "D-BURK-1")


@given(trees(), st.sampled_from(P_GRID))
def test_all_inequalities_hold(t, p):
    for iid in ineq.DISCRETE_EVAL_IDS:
        for n in range(t.depth + 1):
            r = ineq.eval_discrete(t, n, p, iid)
            assert r.satisfied, (iid, n, p, r.lhs, r.rhs)


@given(trees(), st.sampled_from(P_GRID))
def test_chain_never_looser_than_main(t, p):
    """The chained rhs keeps ||M_0||^2 out of the (p-1) factor, so it is at
    least as tight as the plain incremental rhs."""
    n = t.depth
    chain = ineq.eval_discrete(t, n, p, "RIO-CHAIN")
    main = ineq.eval_discrete(t, n, p, "PROP1-MAIN")
    assert chain.rhs <= main.rhs + 1e-9
    assert chain.lhs == pytest.approx(main.lhs)


@given(trees(), st.floats(0.25, 4.0), st.sampled_from(P_GRID))
def test_ratio_scale_invariant(t, lam, p):
    lvl = ptree.martingale_level(t, t.depth)
    assert lvl.level == t.depth
    s = ProbTree(tuple(lam * v for v in t.m0),
                 [Level(l.parent, l.prob, lam * l.incr) for l in t.levels])
    for iid in ("D-BURK-1", "PROP1-MAIN", "DOOB"):
        a = ineq.eval_discrete(t, t.depth, p, iid)
        b = ineq.eval_discrete(s, t.depth, p, iid)
        if a.rhs > 1e-12:
            assert b.ratio == pytest.approx(a.ratio, rel=1e-8)


def test_doob_squared_links_the_maximal_bounds():
    # sup bound with p^2 follows from the terminal bound via the maximal
    # inequality; check the factorization numerically on random trees
    for seed in range(5):
        t = ptree.random_tree(3, 2, seed=seed)
        p = 4.0
        doob = ineq.eval_discrete(t, t.depth, p, "DOOB")
        assert doob.lhs <= doob.rhs + 1e-12
        b1 = ineq.eval_discrete(t, t.depth, p, "D-BURK-1")
        b2 = ineq.eval_discrete(t, t.depth, p, "D-BURK-2")
        assert b2.lhs <= doob.constant ** 2 * b1.lhs + 1e-9
        # both maximal and terminal bounds share the quadratic-sum base
        assert b2.rhs == pytest.approx(b1.rhs * p ** 2 / (p - 1) ** 2, rel=1e-12)


class TestRioStep:
    def test_symmetric_two_point(self):
        r = ineq.eval_rio_step(
            [(1.0, [1.0])],
            [[(0.5, [0.01]), (0.5, [-0.01])]], 4)
        assert r.lhs == pytest.approx(1.0 + 2.999600119956018e-4, rel=1e-12)
        assert r.rhs == pytest.approx(1.0 + 3.0e-4)
        assert r.satisfied

    def test_negative_control_fails(self):
        """A deliberately shrunk constant 0.9 (p-1) must be caught."""
        r = ineq.eval_rio_step(
            [(1.0, [1.0])],
            [[(0.5, [0.01]), (0.5, [-0.01])]], 4, constant=0.9 * 3.0)
        assert not r.satisfied
        assert r.verdict == "violation"
        assert r.constant == pytest.approx(2.7)

    def test_vector_valued(self):
        # X uniform on {(1,0),(0,1)}, Y = +-(0.3,0.4) independent of X
        cond = [(0.5, [0.3, 0.4]), (0.5, [-0.3, -0.4])]
        r = ineq.eval_rio_step(
            [(0.5, [1.0, 0.0]), (0.5, [0.0, 1.0])], [cond, cond], 3)
        assert r.satisfied
        assert r.rhs == pytest.approx(1.0 + 2.0 * 0.25, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e80, 1e200])
    def test_overflowed_sides_refused(self, scale):
        """Sides beyond the float range raise instead of reading inf <= inf
        as satisfied, whether the power or the norm overflows."""
        cond = [(0.5, [scale]), (0.5, [-scale])]
        with pytest.raises(DomainError, match="overflow"):
            ineq.eval_rio_step([(0.5, [scale]), (0.5, [-scale])], [cond, cond], 4)

    def test_conditional_mean_must_vanish(self):
        with pytest.raises(PreconditionError, match="conditional mean"):
            ineq.eval_rio_step([(1.0, [0.0])], [[(1.0, [0.5])]], 2)

    def test_probabilities_checked(self):
        with pytest.raises(PreconditionError):
            ineq.eval_rio_step([(0.6, [1.0])], [[(0.5, [1]), (0.5, [-1])]], 2)
        with pytest.raises(PreconditionError):
            ineq.eval_rio_step(
                [(1.0, [1.0])], [[(0.7, [1.0]), (0.7, [-1.0])]], 2)
        with pytest.raises(PreconditionError):
            ineq.eval_rio_step([], [], 2)
        with pytest.raises(PreconditionError):
            ineq.eval_rio_step([(1.0, [1.0])], [], 2)


class TestTaylorPointwise:
    def test_orthogonal_unit_pair(self):
        b = ineq.taylor_pointwise([1.0, 0.0], [0.0, 1.0], 4)
        assert b.lhs == pytest.approx(4.0, abs=1e-9)
        # 1 + 0 + 12 * 7/12 = 8
        assert b.rhs == pytest.approx(8.0, abs=1e-9)
        assert b.satisfied

    def test_exact_cancellation(self):
        b = ineq.taylor_pointwise([1.0], [-1.0], 4)
        assert b.lhs == pytest.approx(0.0, abs=1e-12)
        assert b.rhs == pytest.approx(0.0, abs=1e-9)
        assert b.satisfied

    def test_zero_y(self):
        b = ineq.taylor_pointwise([2.0, 1.0], [0.0, 0.0], 3)
        assert b.lhs == pytest.approx(b.rhs, abs=1e-12)
        assert b.satisfied

    def test_zero_x_fractional_p(self):
        # ||ty||^{p-2} has an integrable zero at t = 0 for 2 < p < 3
        b = ineq.taylor_pointwise([0.0], [1.0], 2.5)
        assert b.lhs == pytest.approx(1.0)
        # rhs = 0 + 0 + p(p-1) int_0^1 t^{p-2}(1-t) dt = p(p-1)/((p-1)p) = 1
        assert b.rhs == pytest.approx(1.0, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            ineq.taylor_pointwise([1.0, 0.0], [1.0], 3)

    @given(
        st.integers(1, 3).flatmap(lambda d: st.tuples(
            st.lists(st.floats(-3, 3), min_size=d, max_size=d),
            st.lists(st.floats(-3, 3), min_size=d, max_size=d))),
        st.floats(2.0, 6.0))
    def test_holds_pointwise(self, xy, p):
        x, y = xy
        b = ineq.taylor_pointwise(x, y, p)
        assert b.satisfied, (x, y, p, b)


class TestQuadrature:
    def test_polynomial(self):
        val = ineq.adaptive_panel_quadrature(lambda t: t ** 2)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_kink_with_breakpoint(self):
        f = lambda t: np.abs(t - 1.0 / 3.0)
        val = ineq.adaptive_panel_quadrature(f, breakpoints=(1.0 / 3.0,))
        assert val == pytest.approx(5.0 / 18.0, abs=1e-12)

    def test_nonconvergence_raises(self):
        with pytest.raises(QuadratureError) as exc:
            ineq.adaptive_panel_quadrature(lambda t: t, max_refine=0)
        assert exc.value.achieved == float("inf")

    def test_breakpoints_outside_unit_interval_ignored(self):
        val = ineq.adaptive_panel_quadrature(
            lambda t: np.ones_like(t), breakpoints=(-0.5, 2.0))
        assert val == pytest.approx(1.0, abs=1e-12)


class TestBounds:
    PAIRS = (("D-BURK-1", "C-BURK-1", "classic_main"),
             ("D-BURK-2", "C-BURK-2", "classic_max"),
             ("PROP1-MAIN", "ZAKAI-MAIN", "new_main"),
             ("PROP1-MAX", "ZAKAI-MAX", "new_max"))

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 8.0])
    def test_pairs_share_constants(self, p):
        """Each tree bound and its Ito counterpart report the same constant,
        the one compare_constants lists; p-1 also serves RIO-CHAIN, RIO-STEP
        and the two-point search bound."""
        walk = ptree.symmetric_walk(2)
        comparison = ineq.compare_constants(p)
        ito = eval_continuous(constant_integrand(1.0, steps=4), 1.0, p,
                              [cid for _, cid, _ in self.PAIRS], 64, 0)
        for (tid, cid, field), r in zip(self.PAIRS, ito):
            assert r.id == cid
            assert ineq.eval_discrete(walk, 2, p, tid).constant == r.constant
            assert r.constant == getattr(comparison, field)
        assert ineq.eval_discrete(walk, 2, p, "RIO-CHAIN").constant == comparison.new_main
        step = ineq.eval_rio_step([(1.0, [1.0])], [[(0.5, [1.0]), (0.5, [-1.0])]], p)
        assert step.constant == comparison.new_main
        family = sh.FamilySpec(tag="RIO-TWO-POINT", p=p, a_box=(1, 1), b_box=(0.1, 0.1))
        result = sh.search(sh.SearchConfig(family=family, method="grid", budget=1, seed=0))
        assert result.bound == comparison.new_main


class TestCompareConstants:
    def test_p4(self):
        c = ineq.compare_constants(4)
        assert (c.classic_main, c.new_main) == (9.0, 3.0)
        assert (c.classic_max, c.new_max) == (16.0, pytest.approx(16.0 / 3.0))
        assert c.improved_main and c.improved_max

    def test_p2_degenerate(self):
        c = ineq.compare_constants(2)
        assert c.classic_main == c.new_main == 1.0
        assert c.classic_max == c.new_max == 4.0
        assert not c.improved_main and not c.improved_max

    @given(st.floats(2.0, 50.0))
    def test_always_improved(self, p):
        c = ineq.compare_constants(p)
        assert c.new_main <= c.classic_main
        assert c.new_max <= c.classic_max


class TestSweep:
    def test_small_sweep_all_hold(self):
        reports = list(ineq.sweep_random_trees(
            count=5, max_depth=3, max_dim=2, seed=0, p_values=(2, 4)))
        assert reports and all(r.satisfied for r in reports)
        assert all(r.seed == 0 for r in reports)
        assert all("tree=" in r.notes for r in reports)

    def test_deterministic(self):
        a = [(r.id, r.lhs, r.rhs) for r in ineq.sweep_random_trees(
            3, 3, 2, seed=9, p_values=(2.5,))]
        b = [(r.id, r.lhs, r.rhs) for r in ineq.sweep_random_trees(
            3, 3, 2, seed=9, p_values=(2.5,))]
        assert a == b

    def test_report_count(self, monkeypatch):
        tables = []

        def spy(tree, p):
            tables.append(p)
            return moments(tree, p)

        moments = ptree.moments
        monkeypatch.setattr(ptree, "moments", spy)
        ids = (ineq.InequalityId.PROP1_MAIN, ineq.InequalityId.DOOB)
        reports = list(ineq.sweep_random_trees(
            4, 2, 2, seed=1, p_values=(2, 3, 4), ids=ids))
        assert tables == [2.0, 3.0, 4.0] * 4   # one moment table per tree and p
        per_tree = {}
        for r in reports:
            tree = r.notes.split()[0]
            per_tree[tree] = int(r.notes.split("depth=")[1].split()[0])
        # per tree: (depth+1) levels x 3 exponents x 2 ids
        assert len(per_tree) == 4
        assert len(reports) == sum((d + 1) * 6 for d in per_tree.values())
        assert all(r.satisfied for r in reports)

    def test_bad_sizes_rejected(self):
        for count, max_depth, max_dim in ((-1, 3, 2), (1, 0, 2), (1, 3, 0)):
            with pytest.raises(DomainError):
                list(ineq.sweep_random_trees(count, max_depth, max_dim, 0, (2.0,)))

    def test_frozen_digest(self):
        """Every bit of a 2,400-report sweep is pinned, so a change in any
        level sum's order or in where a root is taken shows here."""
        reports = list(ineq.sweep_random_trees(
            20, 5, 3, 2026, (2.0, 2.5, 3.0, 4.0, 8.0)))
        assert len(reports) == 2400
        rows = json.dumps([formats.report_row(r) for r in reports], sort_keys=True)
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "07e30570b5d7ca99b419ad31ff9395a135f09973f9fcbae44e73922d180635a6")
