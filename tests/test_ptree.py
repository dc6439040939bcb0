"""Exact tree calculus: frozen values, invariant checks, validation."""
import hashlib
import json
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import martcheck.ptree as ptree
import martcheck.wiener_mc as wmc
from martcheck import (
    DISCRETE_EVAL_IDS,
    DomainError,
    InvalidTreeError,
    LevelRangeError,
    MartcheckError,
    ProbTree,
    ResourceLimitError,
    TreeStructureError,
    eval_discrete,
    eval_tree,
    parse_tree,
)
from tree_levels import forest_of, forest_tree, level_arrays, node_arrays, per_level


def one_step(m0, *branches):
    """A depth-1 tree document read by parse_tree, one (prob, incr) pair per
    child of the root."""
    return parse_tree({"m0": list(m0), "tree": {"children": [
        {"prob": prob, "incr": list(incr), "node": {}} for prob, incr in branches]}})


def rows_tree(m0, parent, prob, incr):
    """A ProbTree from its rows below the root, given as lists."""
    return ProbTree(m0, np.array(parent, dtype=np.intp), np.array(prob, dtype=float),
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

    @pytest.mark.parametrize("bad", ["x", None, 1j, [4.0], 10**400],
                             ids=["text", "none", "complex", "list", "huge-int"])
    @pytest.mark.parametrize("call", [
        lambda p: ptree.moments(ptree.symmetric_walk(1), [p]),
        lambda p: eval_tree(ptree.symmetric_walk(1), [1], [p], ["DOOB"]),
        lambda p: wmc.simulate(wmc.constant_integrand(1.0, steps=4), 2, 0, p=[p]),
        lambda p: wmc.eval_continuous(wmc.constant_integrand(1.0, steps=4), 1.0, [p],
                                      ["ZAKAI-MAIN"], 2, 0),
    ], ids=["moments", "eval_tree", "simulate", "eval_continuous"])
    def test_non_numbers_rejected(self, call, bad):
        """An exponent float() refuses is a DomainError, not a bare
        ValueError, TypeError or OverflowError."""
        with pytest.raises(DomainError, match="exponent must satisfy"):
            call(bad)


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
        # node 2, on level 1, has no child: the parser would pad it
        t = rows_tree((0.0,), [0, 0, 1, 1], [0.5] * 4, [[1.0], [-1.0], [1.0], [-1.0]])
        v = t.validate()
        assert any(x.kind == "structure" for x in v.violations)
        with pytest.raises(TreeStructureError):
            t.require_valid()

    def test_wrong_increment_dimension(self):
        for incr in ([[1.0], [-1.0]], [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]):
            with pytest.raises(TreeStructureError, match=r"prob and incr must be real "
                               r"arrays of shapes \(2,\) and \(2, 2\)"):
                rows_tree((0.0, 0.0), [0, 0], [0.5, 0.5], incr)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values(self, bad):
        # the parser refuses non-finite numbers, so these come as node arrays
        t = rows_tree((0.0,), [0, 0], [bad, 0.5], [[1.0], [-1.0]])
        assert any(x.kind == "probability" for x in t.validate().violations)
        assert not any(math.isnan(x.residual) for x in t.validate().violations)
        t = rows_tree((0.0,), [0, 0], [0.5, 0.5], [[bad], [-1.0]])
        assert any(x.kind == "structure" and "non-finite" in x.message
                   for x in t.validate().violations)
        with pytest.raises(TreeStructureError):
            t.require_valid()

    def test_empty_m0(self):
        with pytest.raises(TreeStructureError):
            rows_tree((), [], [], [])

    def test_start_only_from_no_levels(self):
        t = ProbTree((3.0, 4.0), np.empty(0, np.intp), np.empty(0), np.empty((0, 2)))
        assert t.depth == 0 and t.dim == 2
        assert t.validate().ok

    @pytest.mark.parametrize("parent,prob,incr,message", [
        ([0, 2], [0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], r"parent\[1\] = 2 is not above its node 2"),
        ([0, 7], [0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], r"parent\[1\] = 7 is not above its node 2"),
        ([0, 0, 2, 1], [0.5, 0.5, 1.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]] + [[0.0, 0.0]] * 2,
         r"parent must start at 0 and never decrease"),
        ([-1, 0], [0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], r"parent must start at 0"),
        ([0, 0], [0.5, 0.5, 0.0], [[1.0, 0.0], [-1.0, 0.0]],
         r"prob and incr must be real arrays of shapes \(2,\) and \(2, 2\)"),
        ([0, 0, 0], [0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], r"of shapes \(3,\)"),
        ([0, 0], [0.5 + 0j, 0.5], [[1.0, 0.0], [-1.0, 0.0]], r"prob and incr must be real"),
        ([0, 0], [0.5, 0.5], [["1", "0"], ["-1", "0"]], r"prob and incr must be real"),
        (np.zeros(2), [0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], r"parent must be a 1-D intp array"),
        (np.zeros((2, 1), np.intp), [0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]],
         r"parent must be a 1-D intp array"),
    ], ids=["self", "beyond", "decreasing", "negative", "prob-shape", "parent-length",
            "complex", "text", "not-intp", "two-d"])
    def test_constructor_checks_node_arrays(self, parent, prob, incr, message):
        """Node arrays that do not form a tree are refused when the tree is
        built: a parent at or after its own node, beyond the rows, decreasing
        or negative; mismatched lengths or values that are not real; a parent
        array that is not 1-D intp."""
        if isinstance(parent, list):
            parent = np.array(parent, dtype=np.intp)
        with pytest.raises(TreeStructureError, match=message):
            ProbTree((0.0, 0.0), parent, np.array(prob), np.array(incr))

    def test_valid_summary(self):
        assert coin().validate().summary() == "valid"

    def test_overflowed_residual_warns_nothing(self):
        """An increment mean whose norm overflows a float reads as an inf
        residual, with no numpy warning on the way."""
        t = one_step((0.0,), (0.5, (1e200,)), (0.5, (-1e199,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = t.validate()
        assert [(x.kind, x.path, x.message) for x in v.violations] == [
            ("martingale", (), "conditional increment mean has norm inf at ()")]
        assert v.violations[0].residual == math.inf

    def test_violation_paths_locate_nodes(self):
        t = parse_tree({"m0": [0.0], "tree": {"children": [
            {"prob": 0.5, "incr": [1.0], "node": {"children": [
                {"prob": 0.7, "incr": [1.0], "node": {}},
                {"prob": 0.5, "incr": [-1.0], "node": {}}]}},
            {"prob": 0.5, "incr": [-1.0], "node": {"children": [
                {"prob": 1.0, "incr": [0.0], "node": {}}]}}]}})
        probs = [x for x in t.validate().violations if x.kind == "probability"]
        assert any(x.path == (0,) for x in probs)


class TestIntegerArguments:
    """Counts, sizes, levels and seeds are integers: ints, numpy integers and
    floats of integral value pass, anything else is refused, and nothing is
    truncated."""

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 3.0, np.float32(3.0)])
    def test_integral_values_pass(self, value):
        n = ptree.as_int(value, "n")
        assert n == 3 and type(n) is int

    @pytest.mark.parametrize("value", [1.9, -2.5, float("nan"), float("inf"), -float("inf"),
                                       True, np.bool_(True), "3", None, 3 + 0j, [3]])
    def test_other_values_refused(self, value):
        with pytest.raises(DomainError, match="n must be an integer"):
            ptree.as_int(value, "n")
        with pytest.raises(LevelRangeError, match="n must be an integer"):
            ptree.as_int(value, "n", LevelRangeError)

    def test_seed(self):
        assert ptree.as_seed(np.int64(5)) == ptree.as_seed(5.0) == 5
        for bad in (2.7, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="seed must be an integer"):
                ptree.as_seed(bad)

    def test_spawn_domains(self):
        """Each seeded stream keeps its spawn-key domain, on which its frozen
        bits depend, and no two streams share one."""
        assert ptree.SPAWN_DOMAINS == {"wiener": 10, "tree": 11, "sweep": 12, "search": 13}
        assert len(set(ptree.SPAWN_DOMAINS.values())) == len(ptree.SPAWN_DOMAINS)

    def test_level(self):
        walk = ptree.symmetric_walk(2)
        assert ptree.lp_norm(walk, 1.0, 2) == ptree.lp_norm(walk, np.int64(1), 2)
        for bad in (1.9, float("nan"), float("inf")):
            with pytest.raises(LevelRangeError, match="level n must be an integer"):
                ptree.lp_norm(walk, bad, 2)

    def test_random_tree_depth_and_dim(self):
        tree = ptree.random_tree(2.0, np.int64(3), seed=4.0)
        same = ptree.random_tree(2, 3, seed=4)
        assert tree.m0 == same.m0
        assert np.array_equal(tree.incr, same.incr) and tree.bounds == same.bounds
        with pytest.raises(DomainError, match="depth must be an integer"):
            ptree.random_tree(2.5, 1, seed=0)
        with pytest.raises(DomainError, match="dim must be an integer"):
            ptree.random_tree(2, float("inf"), seed=0)


    def test_symmetric_walk_depth(self):
        """A fractional or bool depth is refused, as is a negative one;
        integral depths build the walk they always built."""
        for bad in (2.5, True):
            with pytest.raises(DomainError, match="depth must be an integer"):
                ptree.symmetric_walk(bad)
        with pytest.raises(DomainError, match="depth >= 0"):
            ptree.symmetric_walk(-1)
        for depth in (0, 2.0, np.int64(3)):
            walk = ptree.symmetric_walk(depth, step=0.5, m0=1.0)
            assert walk.depth == depth and walk.m0 == (1.0,)
            assert np.diff(walk.bounds).tolist() == [2 ** n for n in range(int(depth) + 1)]
            assert walk.incr[1:, 0].tolist() == [0.5, -0.5] * (2 ** int(depth) - 1)
            assert (walk.prob[1:] == 0.5).all() and walk.validate().ok


class TestLevels:
    def test_level_range(self):
        t = coin()
        for bad in (-1, 2, 7):
            for accessor in (ptree.lp_norm, ptree.sup_lp_norm,
                             ptree.quadratic_sum_norm, ptree.increment_lp_sum):
                with pytest.raises(LevelRangeError):
                    accessor(t, bad, 2)

    def test_martingale_level_mean(self):
        t = ptree.random_tree(3, 2, seed=17)
        calc = t.calculus()
        last = slice(t.bounds[3], t.bounds[4])
        assert calc.node_probs[last].sum() == pytest.approx(1.0, abs=1e-12)
        mean = calc.node_probs[last] @ calc.node_values[last]
        assert np.allclose(mean, t.m0, atol=1e-9)

    def test_level_zero_is_start(self):
        t = ptree.random_tree(2, 3, seed=4)
        values = t.calculus().node_values[:1]
        assert values.shape == (1, 3)
        assert tuple(values[0]) == t.m0

    def test_path_cap(self, monkeypatch):
        monkeypatch.setattr(ptree, "MAX_PATHS", 3)
        t = ptree.symmetric_walk(2)
        with pytest.raises(ResourceLimitError):
            ptree.lp_norm(t, 2, 2)
        with pytest.raises(ResourceLimitError):
            t.calculus()


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
        # a fraction such as 2.5 is refused, not truncated to 2
        for bad in ((), (-1,), (0,), (1, 2), (2.5, 3), (True, 3), (float("nan"),)):
            with pytest.raises(DomainError, match="branching"):
                ptree.random_tree(2, 1, seed=0, branching=bad)
        with pytest.raises(DomainError, match="non-negative"):
            ptree.random_tree(2, 1, seed=-1)
        for depth in (26, 1100):
            with pytest.raises(ResourceLimitError):
                ptree.random_tree(depth, 1, seed=0)
        monkeypatch.setattr(ptree, "MAX_PATHS", 8)
        assert ptree.random_tree(3, 1, seed=0, branching=(2,)).depth == 3
        with pytest.raises(ResourceLimitError):
            ptree.random_tree(2, 1, seed=0, branching=(2, 3))

    def test_integral_branching_factors_kept(self):
        """Integral floats and numpy integers draw the (2, 3) tree bit for bit
        (a fraction such as 2.5 is refused: test_random_tree_limits)."""
        ref = ptree.random_tree(3, 1, 5, branching=(2, 3))
        same = ptree.random_tree(3, 1, 5, branching=(2.0, np.int64(3)))
        assert same.m0 == ref.m0 and same.bounds == ref.bounds
        for name in ("parent", "prob", "incr"):
            np.testing.assert_array_equal(getattr(same, name), getattr(ref, name))


@st.composite
def node_array_inputs(draw):
    """Small constructor inputs, mostly malformed: parent of a wrong dtype or
    shape, negative, decreasing, at or after its own node or beyond the rows;
    prob and incr of mismatched shapes or of a dtype that is not real; NaN
    and inf among the values."""
    n = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 2))
    parent = draw(st.lists(st.integers(-2, n + 2), min_size=n, max_size=n))
    if draw(st.booleans()):   # in order and above each node, so most form a tree
        parent = sorted(min(max(v, 0), i) for i, v in enumerate(parent))
    parent = np.array(parent, dtype=draw(st.sampled_from([np.intp, np.int32, np.float64])))
    parent = parent.reshape(draw(st.sampled_from([(n,), (n, 1), (1, n)])))
    rows = draw(st.sampled_from([n, n, n + 1]))
    dtypes = st.sampled_from([np.float64, np.float64, np.float32, np.int64, np.complex128, "U2"])
    prob = draw(hnp.arrays(draw(dtypes), draw(st.sampled_from([(rows,), (rows, 1)]))))
    incr = draw(hnp.arrays(draw(dtypes), draw(st.sampled_from([(rows, dim), (rows, dim + 1),
                                                               (rows,)]))))
    m0 = draw(st.lists(st.floats(), min_size=dim, max_size=dim))
    return m0, parent, prob, incr


@given(node_array_inputs())
def test_constructor_refuses_or_validates(args):
    """Any input either builds a tree whose validation returns a verdict or
    raises TreeStructureError, never another exception."""
    try:
        tree = ProbTree(*args)
    except TreeStructureError:
        return
    assert isinstance(tree.validate(), ptree.ValidationResult)


@given(trees((0, 4), (1, 3)))
def test_node_arrays_round_trip(t):
    """A tree rebuilt from its own rows below the root has the same bounds
    and, bit for bit, the same calculus."""
    same = ProbTree(t.m0, t.parent[1:], t.prob[1:], t.incr[1:])
    a, b = t.calculus(), same.calculus()
    assert t.bounds == same.bounds
    for x, y in ((a.node_probs, b.node_probs), (a.node_values, b.node_values),
                 (a.node_norms, b.node_norms)):
        assert x.tobytes() == y.tobytes()


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
    probs = t.calculus().node_probs[t.bounds[t.depth]:]
    scaled = ProbTree(tuple(lam * v for v in t.m0), t.parent[1:], t.prob[1:], lam * t.incr[1:])
    assert ptree.lp_norm(scaled, t.depth, 3) == pytest.approx(
        lam * ptree.lp_norm(t, t.depth, 3), rel=1e-9)
    assert len(probs) > 0


@given(trees((0, 4), (1, 3)))
def test_moments_rows_are_single_exponent_tables(t):
    """Each row of the all-exponent table is, bit for bit, the single-exponent
    table at its p, and each side is the float ** root of the 1-D level sums
    of w * r ** e; p=2 is where numpy squares instead of calling pow."""
    ps = (2.0, 2.5, 3.0, 4.0, 8.0)
    table = ptree.moments(t, ps)
    calc = t.calculus()
    for j, p in enumerate(ps):
        single = ptree.moments(t, (p,))
        for name in ("lp", "sup", "quad", "incr"):
            assert (getattr(table, name)[0, j] == getattr(single, name)[0, 0]).all()
        for name, norms, e in zip(("lp", "sup", "quad", "incr"), calc.node_norms,
                                  (p, p, p / 2.0, p)):
            sums = [float(np.sum(w * r ** e)) for w, r in zip(
                per_level(calc.node_probs, t.bounds), per_level(norms, t.bounds))]
            root = 1.0 / p if name in ("lp", "sup") else 2.0 / p
            sides = [s ** root for s in sums]
            if name == "incr":
                sides = np.cumsum(sides)
            assert (getattr(table, name)[0, j] == np.array(sides)).all()


def test_random_tree_deterministic():
    a = ptree.random_tree(3, 2, seed=999)
    b = ptree.random_tree(3, 2, seed=999)
    la, lb = a.calculus(), b.calculus()
    assert np.array_equal(la.node_values, lb.node_values)
    assert np.array_equal(la.node_probs, lb.node_probs)
    c = ptree.random_tree(3, 2, seed=1000)
    assert not np.array_equal(la.node_values[a.bounds[3]:],
                              c.calculus().node_values[c.bounds[3]:])


def test_symmetric_walk_widths():
    t = ptree.symmetric_walk(3)
    assert np.diff(t.bounds).tolist() == [2 ** n for n in range(4)]
    assert len(t.calculus().node_probs) == t.bounds[-1]


def test_frozen_random_tree_bits():
    """Every bit of random_tree's level arrays is pinned beyond the default
    branching, for int and SeedSequence seeds, so a change in the draw order
    or in the per-node arithmetic shows here."""
    digest = hashlib.sha256()
    for branching in ((2, 3), (3,), (2, 3, 4), (2, 5, 3, 7)):
        for dim in (1, 2, 3):
            for seed in (41, np.random.SeedSequence(2026, spawn_key=(3, dim))):
                tree = ptree.random_tree(4, dim, seed, branching=branching)
                calc = tree.calculus()
                for probs, values in zip(per_level(calc.node_probs, tree.bounds),
                                         per_level(calc.node_values, tree.bounds)):
                    digest.update(probs.tobytes())
                    digest.update(values.tobytes())
    assert digest.hexdigest() == (
        "b9fb74bd40fe54feea55e81eccca46c692f056d8c349418180a23df48a7935b4")


def reduceat_sum(terms):
    """A sibling group's sum as np.add.reduceat takes it for up to 8 terms:
    the first term plus the left-to-right sum of the others."""
    rest = terms[1]
    for term in terms[2:]:
        rest += term
    return terms[0] + rest


def per_level_tree(depth, dim, seed, branching):
    """random_tree's draw written out in Python floats: the reference for its
    bits. The same Generator calls (m0, then per level one integers call for
    the nodes' widths and one random call for their children's rows), then
    each sibling group scaled, normalised and centred child by child.
    Returns m0 and one (parent, prob, incr) triple per level."""
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(ptree.SPAWN_DOMAINS["tree"],))
    rng = np.random.Generator(np.random.Philox(ss))
    m0 = tuple(rng.uniform(-1.0, 1.0, dim).tolist())
    nodes, levels = 1, []
    for _ in range(depth):
        widths = [branching[i] for i in rng.integers(0, len(branching), nodes).tolist()]
        raw = rng.random((sum(widths), 1 + dim)).tolist()
        parent, prob, incr = [], [], []
        for i, width in enumerate(widths):
            rows, raw = raw[:width], raw[width:]
            p = [row[0] * 0.9 + 0.1 for row in rows]
            x = [[v * 2.0 - 1.0 for v in row[1:]] for row in rows]
            total = reduceat_sum(p)
            p = [v / total for v in p]
            mean = [reduceat_sum([pj * xj[c] for pj, xj in zip(p, x)]) for c in range(dim)]
            parent += [i] * width
            prob += p
            incr += [[v - m for v, m in zip(xj, mean)] for xj in x]
        levels.append((np.array(parent, dtype=np.intp), np.array(prob),
                       np.array(incr).reshape(-1, dim)))
        nodes = len(parent)
    return m0, levels


seeds = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=(key,)),
              st.integers(0, 2**64 - 1), st.integers(0, 2**16)))


@given(st.integers(0, 5), st.integers(1, 3),
       st.lists(st.integers(2, 7), min_size=1, max_size=4).map(tuple), seeds)
def test_random_tree_matches_per_level_reference(depth, dim, branching, seed):
    """The forest-wide array arithmetic of the draw equals the per-level
    reference in Python floats byte for byte, in every level array and in m0."""
    tree = ptree.random_tree(depth, dim, seed, branching=branching)
    m0, levels = per_level_tree(depth, dim, seed, branching)
    assert np.array(tree.m0).tobytes() == np.array(m0).tobytes()
    assert tree.depth == len(levels)
    for lvl, ref in zip(level_arrays(tree), levels):
        for got, want in zip((lvl.parent, lvl.prob, lvl.incr), ref):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


FOREST_PS = (2.0, 3.0, 4.5)


@given(st.integers(0, 5), st.integers(1, 3),
       st.lists(st.integers(2, 7), min_size=1, max_size=4).map(tuple),
       st.lists(seeds, min_size=1, max_size=9),
       st.none() | st.lists(st.integers(1, 12), min_size=9, max_size=9))
def test_forest_matches_each_tree_alone(depth, dim, branching, tree_seeds, mixed):
    """Each tree of a random forest is, bit for bit, the tree random_tree
    draws from its seed alone: its node arrays, its verdict, its Moments
    table and its report rows for every id, level and exponent. Drawn with
    a dimension per tree (mixed), on both sides of 8 coordinates, where
    numpy's own row sums turn pairwise, each tree is the tree drawn alone
    at its own dimension, padded with zero coordinates."""
    dims = [dim] * len(tree_seeds) if mixed is None else mixed[:len(tree_seeds)]
    forest = ptree.random_forest(depth, dim if mixed is None else dims, tree_seeds, branching)
    assert forest.trees == len(tree_seeds) and forest.depth == depth
    assert forest.dim == max(dims)
    assert_trees_alone(forest, dims, tree_seeds, branching)


def assert_trees_alone(forest, dims, tree_seeds, branching):
    """Tree t of a random forest equals random_tree(forest.depth, dims[t],
    tree_seeds[t], branching) bit for bit, padded with zero coordinates."""
    depth = forest.depth
    table = ptree.moments(forest, FOREST_PS)
    reports = eval_tree(forest, range(depth + 1), FOREST_PS, DISCRETE_EVAL_IDS)
    rows = len(reports) // len(tree_seeds)
    for t, (seed, d) in enumerate(zip(tree_seeds, dims)):
        alone = ptree.random_tree(depth, d, seed, branching)
        root, parent, prob, incr = forest_tree(forest, t)
        assert not root[d:].any() and not incr[:, d:].any()
        for got, want in zip((root[:d], parent, prob, incr[:, :d]),
                             (alone.incr[0], alone.parent[1:], alone.prob[1:], alone.incr[1:])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert forest.validate(t) == alone.validate()
        single = ptree.moments(alone, FOREST_PS)
        for name in ("lp", "sup", "quad", "incr"):
            assert getattr(table, name)[t].tobytes() == getattr(single, name).tobytes()
        own = eval_tree(alone, range(depth + 1), FOREST_PS, DISCRETE_EVAL_IDS)
        for name, column in reports.columns.items():
            assert repr(column[t * rows:(t + 1) * rows]) == repr(own.columns[name])


def faulty_trees():
    """Trees of depth 2 and dimension 2 that each raise alone at p = 4, by
    validation, by an overflowed side or by an underflowed sum."""
    base = ptree.random_tree(2, 2, 17)
    rows = (base.parent[1:], base.prob[1:], base.incr[1:])
    prob = base.prob[1:].copy()
    prob[0] += 1e-3
    keep = base.parent[1:] != 1   # node 1's children go, so it is a leaf
    return [
        pytest.param(ProbTree(base.m0, rows[0], prob, rows[2]), id="probability"),
        pytest.param(ProbTree(base.m0, *(a[keep] for a in rows)), id="childless"),
        pytest.param(ProbTree([1e100, 0.0], *rows), id="overflow"),
        pytest.param(ProbTree([1e-100, 0.0], *rows), id="underflow"),
    ]


@pytest.mark.parametrize("bad", faulty_trees())
def test_faulty_tree_mid_forest_raises_as_alone(bad):
    """A tree that raises alone raises the same exception and message from the
    middle of a forest of valid trees, whose own reports are untouched; a
    validation message also names the tree."""
    p = 4.0
    with pytest.raises(MartcheckError) as alone:
        eval_tree(bad, [bad.depth], [p], ["PROP1-MAIN"])
    good = [ptree.random_tree(2, 2, s) for s in (3, 4, 5, 6)]
    forest = forest_of(good[:2] + [bad] + good[2:])
    with pytest.raises(type(alone.value)) as mid:
        eval_tree(forest, [forest.depth], [p], ["PROP1-MAIN"])
    assert str(mid.value) == str(alone.value).replace("tree: ", "tree: tree 2: ", 1)
    assert forest.validate(2) == bad.validate()
    ratios = eval_tree(forest_of(good), [2], [p], ["PROP1-MAIN"]).columns["ratio"]
    assert ratios == [eval_discrete(t, 2, p, "PROP1-MAIN").ratio for t in good]


@given(trees(), st.lists(st.sampled_from(FOREST_PS), min_size=1, max_size=3))
def test_weighted_forest_of_one_is_the_tree(tree, ps):
    """A forest of one tree with root weight 1 gives the tree's Moments table
    bit for bit, and eval_tree the tree's rows."""
    forest = forest_of([tree], weights=[1.0])
    table, alone = ptree.moments(forest, ps), ptree.moments(tree, ps)
    for name in ("lp", "sup", "quad", "incr"):
        assert getattr(table, name).tobytes() == getattr(alone, name).tobytes()
    levels = range(tree.depth + 1)
    rows = eval_tree(forest, levels, ps, DISCRETE_EVAL_IDS, notes=["one"])
    assert rows.columns == eval_tree(tree, levels, ps, DISCRETE_EVAL_IDS, notes="one").columns


def test_weights_pool_the_trees():
    """Root weights make a forest one martingale with a random start: its
    table has one tree and pools the trees' power sums. Two copies of a
    tree at weight 1/2 are that tree; the walk started at +-1 is the walk
    whose first step is +-1."""
    tree = ptree.random_tree(3, 2, 5)
    twice = ptree.moments(forest_of([tree, tree], weights=[0.5, 0.5]), FOREST_PS)
    alone = ptree.moments(tree, FOREST_PS)
    for name in ("lp", "sup", "quad", "incr"):
        assert getattr(twice, name).tobytes() == getattr(alone, name).tobytes()
    started = forest_of([ptree.symmetric_walk(2, m0=1.0), ptree.symmetric_walk(2, m0=-1.0)],
                        weights=[0.5, 0.5])
    table = ptree.moments(started, [2.0, 4.0])
    walk = ptree.moments(ptree.symmetric_walk(3), [2.0, 4.0])
    assert table.lp.shape == (1, 2, 3)
    np.testing.assert_allclose(table.lp, walk.lp[:, :, 1:], rtol=1e-15)


@pytest.mark.parametrize("weights,error", [
    ([1.0], TreeStructureError), ([[0.5, 0.5]], TreeStructureError),
    (["a", "b"], TreeStructureError), ([0.5, 0.4], InvalidTreeError),
    ([1.5, -0.5], InvalidTreeError), ([1.0, 0.0], InvalidTreeError),
    ([float("nan"), 0.5], InvalidTreeError), ([float("inf"), 0.5], InvalidTreeError)])
def test_weights_checked(weights, error):
    """One root weight per tree, positive and summing to 1."""
    with pytest.raises(error):
        forest_of([coin(1.0), coin(-1.0)], weights=weights)


def test_validation_error_names_the_tree():
    """A forest of several trees names the one that fails; a tree alone, or
    a forest of one, keeps the message without a name."""
    bad = one_step((0.0,), (0.5, (1.0,)), (0.5, (0.5,)))
    message = "invalid tree: conditional increment mean has norm 0.75 at ()"
    for forest in (bad, forest_of([bad])):
        with pytest.raises(InvalidTreeError) as exc:
            forest.require_valid()
        assert str(exc.value) == message
    with pytest.raises(InvalidTreeError) as exc:
        forest_of([coin(), bad]).require_valid("X atom")
    assert str(exc.value) == message.replace("tree: ", "tree: X atom 1: ")
    childless = rows_tree((0.0,), [0, 0, 1, 1], [0.5] * 4, [[1.0], [-1.0], [1.0], [-1.0]])
    with pytest.raises(TreeStructureError, match=r"^malformed tree: tree 1: leaf at depth 1 "):
        forest_of([ptree.symmetric_walk(2), childless]).require_valid()


def test_mixed_dimension_roots_refused():
    with pytest.raises(TreeStructureError, match="roots must be numbers in rows of one length"):
        ptree.Forest([[1.0], [1.0, 2.0]], np.array([0, 0, 1, 1]), np.full(4, 0.5),
                     np.array([[1.0], [-1.0]] * 2))


def test_padding_checked():
    """Trees of any dimensions share a forest, padded with zero coordinates
    that change none of their bits, and random_forest takes one dim per seed."""
    # a planar coin from 0 and a scalar coin from 1, padded to two coordinates
    forest = ptree.Forest([[0.0, 0.0], [1.0, 0.0]], np.array([0, 0, 1, 1]), np.full(4, 0.5),
                          np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]]))
    assert forest.calculus().node_norms[0].tolist() == [0.0, 1.0, 1.0, 1.0, 2.0, 0.0]
    with pytest.raises(DomainError, match="one dim per seed"):
        ptree.random_forest(2, [1, 2], [1])
    # numpy's own row sums would keep the bits of the first four trees padded
    # to 12 coordinates, but not those of a tree of 4 to 7
    dims, tree_seeds = [1, 9, 3, 12, 6], [1, 2, 3, 4, 5]
    wide = ptree.random_forest(3, dims, tree_seeds)
    assert wide.dim == 12
    assert_trees_alone(wide, dims, tree_seeds, (2, 3))


def test_forest_path_calls_no_blas(monkeypatch):
    """Drawing, validating and evaluating a mixed-dimension forest calls
    neither np.matmul nor np.dot nor np.linalg.norm (a BLAS dot product
    without an axis, numpy's pairwise row sums with one), so its bits are
    fixed by the seeds and numpy's Generator; and ptree uses no @ operator,
    which no patch intercepts, and names no np.linalg.norm."""
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call
    monkeypatch.setattr(np, "matmul", refuse("np.matmul"))
    monkeypatch.setattr(np, "dot", refuse("np.dot"))
    monkeypatch.setattr(np.linalg, "norm", refuse("np.linalg.norm"))
    forest = ptree.random_forest(3, [1, 3, 2, 3], [4, 5, 6, 7], (2, 3, 4))
    assert all(forest.validate(t).ok for t in range(forest.trees))
    rows = eval_tree(forest, range(forest.depth + 1), FOREST_PS, DISCRETE_EVAL_IDS)
    assert len(rows) == forest.trees * (forest.depth + 1) * len(FOREST_PS) * len(
        DISCRETE_EVAL_IDS)
    source = pathlib.Path(ptree.__file__).read_text()
    assert all(line.lstrip().startswith("@") for line in source.splitlines() if "@" in line)
    assert "np.linalg.norm" not in source


# traced bytes a node at the draws below: 52.1 at dim 1 and 93.6 at dim 3
PEAK_PER_NODE = {1: 58, 3: 103}


@pytest.mark.parametrize("depth,dim,branching", [(16, 1, (2,)), (11, 3, (3,))])
def test_random_tree_peak_within_byte_charge(depth, dim, branching):
    """The traced peak of a draw, at about the largest depth that draws in
    under a second, stays within the 256 + 24 * dim bytes per node that
    random_tree charges against MAX_TREE_BYTES, and below PEAK_PER_NODE:
    the draw frees its raw blocks before the centring (held through it, they
    raised the peak to 64.1 and 112.0 bytes a node)."""
    width = branching[0]
    nodes = (width ** (depth + 1) - 1) // (width - 1)
    ptree.random_tree(2, dim, 3, branching=branching)   # one-off allocations
    tracemalloc.start()
    try:
        tree = ptree.random_tree(depth, dim, 3, branching=branching)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tree.parent) == nodes
    assert peak <= nodes * (256 + 24 * dim)
    assert peak <= nodes * PEAK_PER_NODE[dim]


def test_underflowed_moments_refused():
    """At p = 1000 the increments' powers 0.3^p underflow to 0 while the
    norms do not: the moment table refuses them rather than sum to 0. Norms
    that are all 0 (M_0 = 0) and powers that stay normal are accepted."""
    with pytest.raises(DomainError, match="underflow a float"):
        ptree.moments(ptree.symmetric_walk(2, step=0.3), [1000])
    table = ptree.moments(ptree.symmetric_walk(2, step=1.0), [1000])
    assert table.lp[0, 0].tolist() == [s ** (1.0 / 1000) for s in (0.0, 1.0, 2.0 ** 999)]


def reference_path(levels, k, i):
    """Child-index path from the root to node i on level k, read level by level."""
    path = []
    for lvl in reversed(levels[:k]):
        up = int(lvl.parent[i])
        path.append(i - int(np.searchsorted(lvl.parent, up)))
        i = up
    return tuple(reversed(path))


def reference_violations(tree):
    """The validator as first written, one pass per level: the reference for
    the one-pass validator's violations, their order and residual bits."""
    out = []
    levels = level_arrays(tree)
    for k, lvl in enumerate(levels, start=1):
        above = len(levels[k - 2].parent) if k > 1 else 1
        for i in np.flatnonzero(np.bincount(lvl.parent, minlength=above) == 0).tolist():
            path = reference_path(levels, k - 1, i)
            out.append(ptree.Violation(
                "structure", path, float(tree.depth - len(path)),
                f"leaf at depth {len(path)} in a depth-{tree.depth} tree at {path}"))
        prob = lvl.prob
        starts = np.flatnonzero(np.diff(lvl.parent, prepend=-1))
        ends = np.append(starts[1:], len(prob))
        non_finite = ~np.isfinite(lvl.incr).all(axis=1)
        any_non_finite = np.logical_or.reduceat(non_finite, starts)
        any_outside = np.logical_or.reduceat(~((prob > 0.0) & (prob <= 1.0)), starts)
        excess = np.add.reduceat(prob, starts) - 1.0
        resid = np.linalg.norm(np.add.reduceat(prob[:, None] * lvl.incr, starts), axis=1)
        failed = (any_non_finite | any_outside
                  | (np.abs(excess) > ptree.PROB_TOL) | (resid > ptree.PROB_TOL))
        for g in np.flatnonzero(failed).tolist():
            path = reference_path(levels, k - 1, int(lvl.parent[starts[g]]))
            rows = slice(starts[g], ends[g])
            if any_non_finite[g]:
                bad = np.flatnonzero(non_finite[rows]).tolist()
                out.append(ptree.Violation(
                    "structure", path, float(len(bad)),
                    f"non-finite increment on children {bad} at {path}"))
            if any_outside[g]:
                worst = float(np.max(np.maximum(prob[rows] - 1.0, -prob[rows])))
                worst = float("inf") if np.isnan(worst) else worst
                out.append(ptree.Violation(
                    "probability", path, worst,
                    f"branch probability outside ]0,1] at {path}"))
            if abs(excess[g]) > ptree.PROB_TOL:
                out.append(ptree.Violation(
                    "probability", path, float(abs(excess[g])),
                    f"branch probabilities sum to 1{excess[g]:+.3g} at {path}"))
            if resid[g] > ptree.PROB_TOL:
                out.append(ptree.Violation(
                    "martingale", path, float(resid[g]),
                    f"conditional increment mean has norm {resid[g]:.3g} at {path}"))
    out.sort(key=lambda v: (len(v.path), v.path, v.kind))
    return out


def drop_children(levels, k, i):
    """Remove the children of node i on level k, and their subtrees, from
    mutable [parent, prob, incr] levels (levels[k] holds level k + 1)."""
    kept_above = None
    for m in range(k, len(levels)):
        parent, prob, incr = levels[m]
        if m == k:
            keep = parent != i
            moved = parent[keep]
        else:
            keep = kept_above[parent]
            moved = (np.cumsum(kept_above) - 1)[parent[keep]]
        levels[m] = [moved.astype(np.intp), prob[keep], incr[keep]]
        kept_above = keep


FAULTS = ("sum", "above_one", "nan", "uncentred", "childless", "zero", "nan_prob", "inf")


@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 10**6),
       st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 2**16),
                          st.integers(0, 2**16)), max_size=5))
def test_validation_matches_level_by_level_reference(depth, dim, seed, faults):
    """Faults injected at random levels of a random tree (a probability sum
    off by 1e-9, a probability above 1, a NaN increment, a group not
    recentred, a childless node; also a zero or NaN probability and an
    infinite increment) give the violations the level-by-level validator
    gives: same kinds, paths, messages and order, and residuals equal bit
    for bit."""
    tree = ptree.random_tree(depth, dim, seed)
    levels = [[lvl.parent, lvl.prob.copy(), lvl.incr.copy()] for lvl in level_arrays(tree)]
    for fault, k, i in faults:
        k %= depth
        if fault == "childless":   # node i of level k, above the last level
            width = len(levels[k - 1][0]) if k else 1
            if width:
                drop_children(levels, k, i % width)
            continue
        parent, prob, incr = levels[k]
        if not len(parent):
            continue
        i %= len(parent)
        if fault == "sum":
            prob[i] += 1e-9
        elif fault == "above_one":
            prob[i] = 1.25
        elif fault == "nan":
            incr[i, i % dim] = math.nan
        elif fault == "zero":
            prob[i] = 0.0
        elif fault == "nan_prob":
            prob[i] = math.nan
        elif fault == "inf":
            incr[i, i % dim] = -math.inf
        else:
            incr[parent == parent[i]] += 0.25
    faulty = ProbTree(tree.m0, *node_arrays(levels, dim))
    with np.errstate(all="ignore"):
        want = reference_violations(faulty)
    got = faulty.validate().violations
    assert [(v.kind, v.path, v.message) for v in got] == [
        (v.kind, v.path, v.message) for v in want]
    assert [np.float64(v.residual).tobytes() for v in got] == [
        np.float64(v.residual).tobytes() for v in want]
    assert faulty.validate().ok == (not want)


def row_norms_in_floats(rows):
    """Each row's Euclidean norm in Python floats, its squares added left to
    right from the first coordinate."""
    norms = []
    for row in rows.tolist():
        total = 0.0
        for v in row:
            total += v * v
        norms.append(math.sqrt(total))
    return np.array(norms)


def reference_calc(tree):
    """The level calculus as first written, one level at a time: the
    reference for the bits of the calculus built on the node arrays."""
    values = [np.array([tree.m0], dtype=float)]
    root_norm = row_norms_in_floats(values[0])
    probs = [np.ones(1)]
    m_norm = [root_norm]
    sup_norm = [root_norm.copy()]
    quad = [root_norm**2]
    d_norm = [root_norm.copy()]
    for lvl in level_arrays(tree):
        pidx = lvl.parent
        values.append(values[-1][pidx] + lvl.incr)
        nn = row_norms_in_floats(values[-1])
        dn = row_norms_in_floats(lvl.incr)
        probs.append(probs[-1][pidx] * lvl.prob)
        m_norm.append(nn)
        sup_norm.append(np.maximum(sup_norm[-1][pidx], nn))
        quad.append(quad[-1][pidx] + dn**2)
        d_norm.append(dn)
    return {"probs": probs, "values": values, "m_norm": m_norm,
            "sup_norm": sup_norm, "quad": quad, "d_norm": d_norm}


ZOO_TREES = sorted((pathlib.Path(__file__).resolve().parent.parent / "zoo").glob("tree_*.json"))


@pytest.mark.parametrize("make", [
    *(lambda dim=dim, seed=seed, branching=branching: ptree.random_tree(
        4, dim, seed, branching=branching)
      for dim in (1, 3, 8, 9) for seed in (0, 7) for branching in ((2, 3), (9,))),
    lambda: ptree.symmetric_walk(6),
    lambda: ptree.symmetric_walk(3, step=0.3, m0=2.5),
    *(lambda path=path: parse_tree(json.loads(path.read_text())) for path in ZOO_TREES),
], ids=[*(f"random-dim{dim}-seed{seed}-b{max(branching)}" for dim in (1, 3, 8, 9)
          for seed in (0, 7) for branching in ((2, 3), (9,))),
        "walk6", "walk3", *(path.stem for path in ZOO_TREES)])
def test_calculus_matches_level_by_level_reference(make):
    """Every per-level list of the calculus equals, bit for bit, the calculus
    built one level at a time, its row norms in Python floats: dims from 8
    on, where numpy's own row sums turn pairwise, add their squares left to
    right too, and levels of 8 or more nodes take the wide gathers."""
    tree = make()
    calc = tree.calculus()
    want = reference_calc(tree)
    assert any(len(level) >= 8 for level in want["probs"]) or tree.depth < 3
    flat = dict(zip(("probs", "values", "m_norm", "sup_norm", "quad", "d_norm"),
                    (calc.node_probs, calc.node_values, *calc.node_norms)))
    for name, levels in want.items():
        got = per_level(flat[name], tree.bounds)
        assert len(got) == len(levels) == tree.depth + 1
        for a, b in zip(got, levels):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
