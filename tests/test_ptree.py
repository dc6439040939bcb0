"""Exact tree calculus: frozen values, invariant checks, validation."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import martcheck.ptree as ptree
from martcheck import (
    DomainError,
    InvalidTreeError,
    Level,
    LevelRangeError,
    ProbTree,
    ResourceLimitError,
    TreeStructureError,
    parse_tree,
)


def one_step(m0, *branches):
    """A depth-1 tree document read by parse_tree, one (prob, incr) pair per
    child of the root."""
    return parse_tree({"m0": list(m0), "tree": {"children": [
        {"prob": prob, "incr": list(incr), "node": {}} for prob, incr in branches]}})


def level(parent, prob, incr):
    return Level(np.array(parent, dtype=np.intp), np.array(prob, dtype=float),
                 np.array(incr, dtype=float))


def coin(m0=0.0, step=1.0):
    return one_step((m0,), (0.5, (step,)), (0.5, (-step,)))


def trees(draw_depth=(1, 3), draw_dim=(1, 3)):
    return st.builds(
        ptree.random_tree,
        st.integers(*draw_depth), st.integers(*draw_dim),
        st.integers(0, 10**6))


class TestExponent:
    def test_accepts_two_and_up(self):
        assert ptree.as_exponent(2) == 2.0

    @pytest.mark.parametrize("bad", [1.99, 0, -3, float("inf"), float("nan")])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            ptree.as_exponent(bad)


class TestFrozenValues:
    def test_two_point_from_one(self):
        # M_1 in {2, 0} each w.p. 1/2
        t = coin(m0=1.0)
        assert ptree.lp_norm(t, 1, 2) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_walk_depth2_sup(self):
        t = ptree.symmetric_walk(2)
        # sup|M| over the four paths: 1,1,1,2 -> E sup^2 = 2.5
        assert ptree.sup_lp_norm(t, 2, 2) == pytest.approx(
            math.sqrt(2.5), abs=1e-12)
        assert ptree.lp_norm(t, 2, 2) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_planar_two_scale(self):
        t = one_step((0.0, 0.0), (0.25, (1.0, 0.0)), (0.25, (-1.0, 0.0)),
                     (0.25, (0.0, 2.0)), (0.25, (0.0, -2.0)))
        # E||M_1||^4 = (1 + 1 + 16 + 16)/4 = 8.5
        assert ptree.lp_norm(t, 1, 4) ** 2 == pytest.approx(
            math.sqrt(8.5), abs=1e-12)

    def test_start_only(self):
        t = parse_tree({"m0": [3.0, 4.0], "tree": {}})
        assert t.depth == 0
        assert ptree.lp_norm(t, 0, 2) ** 2 == pytest.approx(25.0)
        assert ptree.increment_lp_sum(t, 0, 4) == pytest.approx(25.0)
        assert ptree.quadratic_sum_norm(t, 0, 6) == pytest.approx(25.0)
        assert ptree.sup_lp_norm(t, 0, 2) == pytest.approx(5.0)

    def test_walk_quadratic_sum(self):
        t = ptree.symmetric_walk(3)
        # |d_k| = 1 on every path, so the quadratic sum is constant 3
        assert ptree.quadratic_sum_norm(t, 3, 4) == pytest.approx(3.0)
        assert ptree.increment_lp_sum(t, 3, 4) == pytest.approx(3.0)


class TestValidation:
    def test_probability_sum_residual(self):
        t = one_step((0.0,), (0.5, (1.0,)), (0.4, (-1.25,)))
        v = t.validate()
        assert not v.ok
        kinds = {x.kind for x in v.violations}
        assert kinds == {"probability"}
        assert v.violations[0].residual == pytest.approx(0.1)
        with pytest.raises(InvalidTreeError) as exc:
            t.require_valid()
        assert exc.value.verdict is v

    def test_probability_sum_sign(self):
        """The message shows the signed sum less one; the residual is its size."""
        for second, shown in ((0.4, "1-0.1"), (0.6, "1+0.1")):
            t = one_step((0.0,), (0.5, (1.0,)), (second, (-1.0,)))
            v, = [x for x in t.validate().violations if "sum to" in x.message]
            assert f"sum to {shown} at ()" in v.message
            assert v.residual == pytest.approx(0.1)

    def test_martingale_residual(self):
        t = one_step((0.0,), (0.5, (1.0,)), (0.5, (1.0,)))
        v = t.validate()
        assert [x.kind for x in v.violations] == ["martingale"]
        assert v.violations[0].residual == pytest.approx(1.0)

    def test_negative_probability(self):
        t = one_step((0.0,), (1.5, (1.0,)), (-0.5, (3.0,)))
        assert any(x.kind == "probability" and "]0,1]" in x.message
                   for x in t.validate().violations)

    def test_ragged_depth_is_structural(self):
        # node 1 of level 1 has no child: the parser would pad it
        t = ProbTree((0.0,), [level([0, 0], [0.5, 0.5], [[1.0], [-1.0]]),
                              level([0, 0], [0.5, 0.5], [[1.0], [-1.0]])])
        v = t.validate()
        assert any(x.kind == "structure" for x in v.violations)
        with pytest.raises(TreeStructureError):
            t.require_valid()

    def test_wrong_increment_dimension(self):
        for incr in ([[1.0], [-1.0]], [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]):
            with pytest.raises(TreeStructureError, match=r"level 1: prob and incr "
                               r"must have shapes \(2,\) and \(2, 2\)"):
                ProbTree((0.0, 0.0), [level([0, 0], [0.5, 0.5], incr)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values(self, bad):
        # the parser refuses non-finite numbers, so these come as levels
        t = ProbTree((0.0,), [level([0, 0], [bad, 0.5], [[1.0], [-1.0]])])
        assert any(x.kind == "probability" for x in t.validate().violations)
        assert not any(math.isnan(x.residual) for x in t.validate().violations)
        t = ProbTree((0.0,), [level([0, 0], [0.5, 0.5], [[bad], [-1.0]])])
        assert any(x.kind == "structure" and "non-finite" in x.message
                   for x in t.validate().violations)
        with pytest.raises(TreeStructureError):
            t.require_valid()

    def test_empty_m0(self):
        with pytest.raises(TreeStructureError):
            ProbTree((), [])

    def test_start_only_from_no_levels(self):
        t = ProbTree((3.0, 4.0), [])
        assert t.depth == 0 and t.dim == 2
        assert t.validate().ok

    @pytest.mark.parametrize("levels,message", [
        ([level([0, 1], [0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]])],
         r"level 1: parent must be non-decreasing in 0\.\.0"),
        ([level([0, 0], [0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]]),
          level([1, 0], [1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])],
         r"level 2: parent must be non-decreasing"),
        ([level([0, 0], [0.5, 0.5, 0.0], [[1.0, 0.0], [-1.0, 0.0]])],
         r"level 1: prob and incr must have shapes \(2,\)"),
        ([level([0, 0, 0], [0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]])],
         r"level 1: prob and incr must have shapes \(3,\)"),
        ([level([-1, 0], [0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]])],
         r"level 1: parent must be non-decreasing in 0\.\.0"),
        ([Level(np.zeros(2), np.array([0.5, 0.5]), np.zeros((2, 2)))],
         r"level 1: parent must be a 1-D intp array"),
    ])
    def test_constructor_checks_levels(self, levels, message):
        """A level whose arrays do not fit its place is refused when the
        tree is built: a parent index out of range or decreasing, mismatched
        lengths, a parent array that is not intp."""
        with pytest.raises(TreeStructureError, match=message):
            ProbTree((0.0, 0.0), levels)

    def test_valid_summary(self):
        assert coin().validate().summary() == "valid"

    def test_violation_paths_locate_nodes(self):
        t = parse_tree({"m0": [0.0], "tree": {"children": [
            {"prob": 0.5, "incr": [1.0], "node": {"children": [
                {"prob": 0.7, "incr": [1.0], "node": {}},
                {"prob": 0.5, "incr": [-1.0], "node": {}}]}},
            {"prob": 0.5, "incr": [-1.0], "node": {"children": [
                {"prob": 1.0, "incr": [0.0], "node": {}}]}}]}})
        probs = [x for x in t.validate().violations if x.kind == "probability"]
        assert any(x.path == (0,) for x in probs)


class TestLevels:
    def test_level_range(self):
        t = coin()
        for bad in (-1, 2, 7):
            with pytest.raises(LevelRangeError):
                ptree.lp_norm(t, bad, 2)
            with pytest.raises(LevelRangeError):
                ptree.martingale_level(t, bad)

    def test_martingale_level_mean(self):
        t = ptree.random_tree(3, 2, seed=17)
        lvl = ptree.martingale_level(t, 3)
        assert lvl.probs.sum() == pytest.approx(1.0, abs=1e-12)
        mean = lvl.probs @ lvl.values
        assert np.allclose(mean, t.m0, atol=1e-9)

    def test_level_zero_is_start(self):
        t = ptree.random_tree(2, 3, seed=4)
        lvl = ptree.martingale_level(t, 0)
        assert lvl.values.shape == (1, 3)
        assert tuple(lvl.values[0]) == t.m0

    def test_path_cap(self, monkeypatch):
        monkeypatch.setattr(ptree, "MAX_PATHS", 3)
        t = ptree.symmetric_walk(2)
        with pytest.raises(ResourceLimitError):
            ptree.lp_norm(t, 2, 2)
        with pytest.raises(ResourceLimitError):
            ptree.martingale_level(t, 0)


    def test_random_tree_cap_before_draw(self, monkeypatch):
        """The dimension counts toward the cap, and a huge dimension or depth
        is refused at once, before anything is drawn."""
        def no_draw(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(np.random, "Generator", no_draw)
        with pytest.raises(ResourceLimitError, match="dimension 100000000"):
            ptree.random_tree(1, 10**8, seed=0)
        with pytest.raises(ResourceLimitError):
            ptree.random_tree(14, 3, seed=0)   # 3**14 paths pass alone
        with pytest.raises(ResourceLimitError, match="tree memory budget"):
            ptree.random_tree(14, 1, seed=0, branching=(3,))   # 7.2 M nodes
        with pytest.raises(ResourceLimitError):
            ptree.random_tree(10**9, 1, seed=0)

    def test_random_tree_limits(self, monkeypatch):
        """Bad branching factors and trees that could outgrow MAX_PATHS are
        refused before the first draw, so none recurses or allocates."""
        for bad in ((), (-1,), (0,), (1, 2)):
            with pytest.raises(DomainError, match="branching"):
                ptree.random_tree(2, 1, seed=0, branching=bad)
        for depth in (26, 1100):
            with pytest.raises(ResourceLimitError):
                ptree.random_tree(depth, 1, seed=0)
        monkeypatch.setattr(ptree, "MAX_PATHS", 8)
        assert ptree.random_tree(3, 1, seed=0, branching=(2,)).depth == 3
        with pytest.raises(ResourceLimitError):
            ptree.random_tree(2, 1, seed=0, branching=(2, 3))


@given(trees())
def test_random_trees_validate(t):
    assert t.validate().ok


@given(trees(), st.integers(0, 3))
def test_norm_monotone_in_p(t, n):
    n = min(n, t.depth)
    a = ptree.lp_norm(t, n, 2)
    b = ptree.lp_norm(t, n, 3)
    c = ptree.lp_norm(t, n, 4.5)
    assert a <= b + 1e-9 and b <= c + 1e-9


@given(trees())
def test_sup_dominates_and_grows(t):
    n = t.depth
    assert ptree.sup_lp_norm(t, n, 3) + 1e-12 >= ptree.lp_norm(t, n, 3)
    sups = [ptree.sup_lp_norm(t, k, 3) for k in range(n + 1)]
    assert all(x <= y + 1e-12 for x, y in zip(sups, sups[1:]))


@given(trees(), st.floats(0.1, 5.0))
def test_scale_equivariance(t, lam):
    """Scaling every value by lam scales the L^p norm by lam."""
    lvl = ptree.martingale_level(t, t.depth)
    scaled = ProbTree(tuple(lam * v for v in t.m0),
                      [Level(l.parent, l.prob, lam * l.incr) for l in t.levels])
    assert ptree.lp_norm(scaled, t.depth, 3) == pytest.approx(
        lam * ptree.lp_norm(t, t.depth, 3), rel=1e-9)
    assert len(lvl.probs) > 0


def test_random_tree_deterministic():
    a = ptree.random_tree(3, 2, seed=999)
    b = ptree.random_tree(3, 2, seed=999)
    la, lb = ptree.martingale_level(a, 3), ptree.martingale_level(b, 3)
    assert np.array_equal(la.values, lb.values)
    assert np.array_equal(la.probs, lb.probs)
    c = ptree.random_tree(3, 2, seed=1000)
    assert not np.array_equal(la.values, ptree.martingale_level(c, 3).values)


def test_symmetric_walk_widths():
    t = ptree.symmetric_walk(3)
    for n in range(4):
        assert len(ptree.martingale_level(t, n).probs) == 2 ** n


def test_frozen_random_tree_bits():
    """Every bit of random_tree's level arrays is pinned beyond the default
    branching, for int and SeedSequence seeds, so a change in the draw order
    or in the per-node arithmetic shows here."""
    digest = hashlib.sha256()
    for branching in ((2, 3), (3,), (2, 3, 4), (2, 5, 3, 7)):
        for dim in (1, 2, 3):
            for seed in (41, np.random.SeedSequence(2026, spawn_key=(3, dim))):
                calc = ptree.random_tree(4, dim, seed, branching=branching).calculus()
                for probs, values in zip(calc.probs, calc.values):
                    digest.update(probs.tobytes())
                    digest.update(values.tobytes())
    assert digest.hexdigest() == (
        "08e34052a671e04447b0a6432a41885dd227a2be38075436af91a3eebc822116")
