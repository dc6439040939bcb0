"""Discrete inequality evaluators, the one-step bound and the Taylor bound."""
import hashlib
import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import martcheck.formats as formats
import martcheck.ineq as ineq
import martcheck.ptree as ptree
import martcheck.sharpness as sh
from martcheck import (
    DomainError,
    InvalidTreeError,
    LevelRangeError,
    MartcheckError,
    PreconditionError,
    ProbTree,
    QuadratureError,
    TreeStructureError,
    constant_integrand,
    eval_continuous,
    parse_tree,
    simulate,
)
from rio_atoms import rio_step_atoms

P_GRID = (2.0, 2.7, 4.0)


def trees():
    return st.builds(
        ptree.random_tree,
        st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))


SWEEP_PS = (2.0, 2.5, 3.0, 4.0, 8.0, 300.0)


def sweep_tree_by_tree(count, max_depth, max_dim, seed, p_values, ids):
    """Reference sweep: each tree drawn alone by random_tree from its
    (seed, t) substream and evaluated alone, the tables' rows in tree order."""
    columns = {name: [] for name in ineq.REPORT_FIELDS}
    for t in range(count):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(ptree.SPAWN_DOMAINS["sweep"], t))
        rng = np.random.Generator(np.random.Philox(ss))
        depth = int(rng.integers(1, max_depth + 1))
        dim = int(rng.integers(1, max_dim + 1))
        tree = ptree.random_tree(depth, dim, ss.spawn(1)[0])
        table = ineq.eval_tree(tree, range(depth + 1), p_values, ids, seed=seed,
                               notes=f"tree={t} depth={depth} dim={dim}")
        for name, column in columns.items():
            column.extend(table.columns[name])
    return ineq.ReportTable(columns)


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

    def test_level_outside_tree_refused(self):
        """A level outside 0..depth is refused through both evaluators, so
        a negative n never reads the last level."""
        coin = parse_tree({"m0": [0.0], "tree": {"children": [
            {"prob": 0.5, "incr": [1.0], "node": {}},
            {"prob": 0.5, "incr": [-1.0], "node": {}}]}})
        with pytest.raises(LevelRangeError, match="n=-1 outside 0..1"):
            ineq.eval_discrete(coin, -1, 2, "D-BURK-1")
        with pytest.raises(LevelRangeError, match="n=2 outside 0..1"):
            ineq.eval_tree(coin, [2], [2], list(ineq.DISCRETE_EVAL_IDS))

    def test_level_is_an_integer(self):
        """A fractional or non-finite level is refused, not truncated to a
        level of the tree."""
        walk = ptree.symmetric_walk(2)
        r = ineq.eval_discrete(walk, 1.0, 2, "D-BURK-1")
        assert r.n_or_t == 1.0
        for bad in (1.9, float("inf"), float("nan")):
            with pytest.raises(LevelRangeError, match="level n must be an integer"):
                ineq.eval_discrete(walk, bad, 2, "D-BURK-1")

    def test_invalid_tree_refused(self):
        t = parse_tree({"m0": [0.0], "tree": {"children": [
            {"prob": 0.9, "incr": [1.0], "node": {}},
            {"prob": 0.5, "incr": [-1.8], "node": {}}]}})
        from martcheck import InvalidTreeError
        with pytest.raises(InvalidTreeError):
            ineq.eval_discrete(t, 1, 2, "D-BURK-1")


WALK = ptree.symmetric_walk(2)
MC_SPEC = constant_integrand(1.0, steps=4)


@pytest.mark.parametrize("call", [
    lambda: eval_continuous(MC_SPEC, 1.0, 4, ["C-BURK-1"], 64, 0),
    lambda: simulate(MC_SPEC, 64, 0, p=4),
    lambda: ptree.moments(WALK, 4),
    lambda: ineq.eval_tree(WALK, 2, [4], ["DOOB"]),
    lambda: ineq.eval_tree(WALK, [1], [4], "DOOB"),
    lambda: ineq.eval_tree(WALK, [1], [4], ineq.InequalityId.DOOB),
    lambda: ineq.sweep_random_trees(2, 2, 2, 0, 4),
    lambda: ineq.sweep_random_trees(2, 2, 2, 0, [4], "DOOB"),
], ids=["mc-p", "simulate-p", "moments-p", "tree-levels", "tree-ids-str", "tree-ids-enum",
        "sweep-p", "sweep-ids-str"])
def test_sequence_arguments_refuse_scalars_and_strings(call):
    """Exponents, levels and ids are sequences: a scalar, a string (which
    would be read letter by letter) or a single id is refused with
    DomainError, not a bare TypeError or an unknown id 'D'."""
    with pytest.raises(DomainError, match="must be a sequence"):
        call()


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
    assert t.calculus().node_probs.shape == (t.bounds[-1],)
    s = ProbTree(tuple(lam * v for v in t.m0), t.parent[1:], t.prob[1:], lam * t.incr[1:])
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

    def test_underflowed_sides_refused(self):
        """At p = 1000, 0.3^p underflows to 0, so ||Y||_p^2 would read 0 and
        the rhs ||X||_p^2 alone: a "violation" (ratio 1.69) though the
        two-point gain is 7.6 < 999. The side is refused instead."""
        with pytest.raises(DomainError, match="underflow a float"):
            ineq.eval_rio_step([(1.0, [1.0])], [[(0.5, [0.3]), (0.5, [-0.3])]], 1000)
        assert sh.rio_gain(1.0, 0.3, 1000) < 999.0

    def test_conditional_mean_must_vanish(self):
        with pytest.raises(PreconditionError, match="conditional increment mean"):
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

    def test_invalid_distribution_is_a_precondition(self):
        """X probabilities are the forest's root weights, checked as it checks
        them; an invalid tree is a failed distributional precondition."""
        assert issubclass(InvalidTreeError, PreconditionError)
        with pytest.raises(InvalidTreeError, match="root weights must be positive"):
            ineq.eval_rio_step([(0.6, [1.0])], [[(0.5, [1]), (0.5, [-1])]], 2)

    def test_empty_conditional_is_a_leaf(self):
        """An X atom without Y atoms is a leaf above the last level, refused
        by its index before any forest is built."""
        coin = [(0.5, [1.0]), (0.5, [-1.0])]
        with pytest.raises(TreeStructureError,
                           match="^X atom 1 has no Y atoms: a leaf at depth 0"):
            ineq.eval_rio_step([(0.5, [1.0]), (0.5, [-1.0])], [coin, []], 2)
        with pytest.raises(TreeStructureError,
                           match="^X atom 0 has no Y atoms: a leaf at depth 0"):
            ineq.eval_rio_step([(1.0, [1.0])], [[]], 2)

    def test_errors_name_the_x_atom(self):
        """An X atom whose Y|X law fails its checks is named by its index."""
        coin = [(0.5, [1]), (0.5, [-1])]
        with pytest.raises(PreconditionError, match=r"^invalid tree: X atom 1: "
                           r"conditional increment mean has norm 0.3 at \(\)$"):
            ineq.eval_rio_step([(0.5, [1.0]), (0.5, [2.0])], [coin, [(1.0, [0.3])]], 2)

    def test_ragged_atoms_refused(self):
        """Atoms of mixed dimension raise TreeStructureError; they once
        broadcast into a verdict ("violation", ratio 1.125)."""
        coin = [(0.5, [1]), (0.5, [-1])]
        for x_atoms, y_given_x in [
                ([(0.5, [1.0]), (0.5, [1.0, 2.0])], [coin, coin]),
                ([(1.0, [1.0])], [[(0.5, [1.0]), (0.5, [-1.0, 0.0])]]),
                ([(1.0, [1.0])], [[(0.5, [1.0, 0.0]), (0.5, [-1.0, 0.0])]])]:
            with pytest.raises(TreeStructureError):
                ineq.eval_rio_step(x_atoms, y_given_x, 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1, 0.0, "x", "3", True])
    def test_constant_is_finite_positive(self, bad):
        with pytest.raises(DomainError, match="constant must be positive and finite"):
            ineq.eval_rio_step([(1.0, [1.0])], [[(0.5, [0.1]), (0.5, [-0.1])]], 4,
                               constant=bad)

    def test_one_atom_is_rio_chain(self):
        """With one X atom the forest is the tree of X and its Y atoms, and
        RIO-STEP reads RIO-CHAIN's level-1 sides bit for bit."""
        step = ineq.eval_rio_step([(1.0, [1.0, 0.5])],
                                  [[(0.25, [0.6, -0.3]), (0.75, [-0.2, 0.1])]], 3)
        tree = ProbTree([1.0, 0.5], np.zeros(2, np.intp), np.array([0.25, 0.75]),
                        np.array([[0.6, -0.3], [-0.2, 0.1]]))
        chain = ineq.eval_discrete(tree, 1, 3, "RIO-CHAIN")
        assert (step.lhs, step.rhs, step.constant) == (chain.lhs, chain.rhs, chain.constant)

    def test_pooled_underflow_refused(self):
        """Each tree's sums stay normal, but the X atom of weight 1e-300
        pools ||X||^p to 0 from a nonzero norm: refused, not read as 0."""
        with pytest.raises(DomainError, match="underflow a float"):
            ineq.eval_rio_step([(1.0, [0.0]), (1e-300, [0.5])],
                               [[(1.0, [0.0])], [(0.5, [0.1]), (0.5, [-0.1])]], 100)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 8.0])
    def test_two_point_gain_is_exact(self, p):
        """X = a, Y = b(1-q) w.p. q, -bq w.p. 1-q: at the constant
        asym_two_point_gain(a, b, q, p) both sides are equal."""
        for a, r, q in itertools.product((0.5, 1.0, 3.0), (1e-2, 0.1, 1.0, 10.0),
                                         (0.1, 0.3, 0.5, 0.9)):
            b = a * r
            gain = sh.asym_two_point_gain(a, b, q, p)
            step = ineq.eval_rio_step([(1.0, [a])],
                                      [[(q, [b * (1.0 - q)]), (1.0 - q, [-b * q])]],
                                      p, constant=gain)
            assert abs(step.ratio - 1.0) <= 1e-12

    @given(st.data())
    def test_matches_atom_reference(self, data):
        """The forest form holds the atom-by-atom reference to 1e-15
        relative, with its verdict."""
        x_atoms, y_given_x, p = data.draw(rio_cases())
        got = ineq.eval_rio_step(x_atoms, y_given_x, p)
        want = rio_step_atoms(x_atoms, y_given_x, p)
        assert got.lhs == pytest.approx(want.lhs, rel=1e-15, abs=0.0)
        assert got.rhs == pytest.approx(want.rhs, rel=1e-15, abs=0.0)
        assert (got.verdict, got.constant) == (want.verdict, want.constant)


@st.composite
def rio_cases(draw):
    """(x_atoms, y_given_x, p): 1-4 X atoms of dimension 1-2, each with 1-4
    Y|X atoms recentred to mean 0; probabilities from integer weights and
    values on a quarter-unit grid, so no moment nears the float range's ends."""
    dim = draw(st.integers(1, 2))

    def atoms(n):
        weights = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), float)
        values = draw(st.lists(st.lists(st.integers(-8, 8), min_size=dim, max_size=dim),
                               min_size=n, max_size=n))
        return weights / weights.sum(), np.array(values, float) / 4.0

    qx, xs = atoms(draw(st.integers(1, 4)))
    y_given_x = []
    for _ in qx:
        qy, ys = atoms(draw(st.integers(1, 4)))
        ys -= (qy[:, None] * ys).sum(axis=0)
        y_given_x.append(list(zip(qy.tolist(), ys.tolist())))
    p = draw(st.sampled_from((2.0, 2.5, 3.0, 4.0, 8.0)))
    return list(zip(qx.tolist(), xs.tolist())), y_given_x, p


TINY = 5e-324   # the least subnormal

INF = float("inf")

# (lhs_lo, lhs_hi, rhs_lo, rhs_hi, verdict): each side's band
DECIDE_CASES = [
    (0.5, 1.5, 1.5, 2.5, 1),               # lhs_hi == rhs_lo: satisfied
    (1.5, 2.5, 0.5, 1.5, 0),               # lhs_lo == rhs_hi: inconclusive, not -1
    (0.5, 1.5, 1.25, 2.75, 0),             # the bands overlap
    (1.75, 2.25, 0.5, 1.5, -1),            # lhs_lo above rhs_hi
    (1.0, 1.0, 1.0, 1.0, 1),               # zero-width bands: a tie is satisfied
    (1.0 + 2**-52, 1.0 + 2**-52, 1.0, 1.0, -1),   # and the next float up a violation
    (-TINY, TINY, 0.0, 0.0, 0),            # a subnormal width makes a tie inconclusive
    (0.0, 0.0, -TINY, TINY, 0),
    (0.0, 0.0, -0.0, -0.0, 1),             # signed zeros are equal
    (-0.0, -0.0, 0.0, 0.0, 1),
    (0.0, INF, 1.7e308, 1.7e308, 0),       # an edge that overflowed to inf
    (1.0, 1.0, 0.5, INF, 0),               # an rhs band open above never reads -1
    (-INF, 0.5, 1.0, 1.0, 1),              # an lhs band open below can read 1
    (0.5, 0.5, -INF, 2.0, 0),              # an rhs band open below never reads 1
    (0.875, 1.5, 1.25, 1.25, 0),           # lhs 1, 0.125 below and 0.5 above: inconclusive,
    (0.875, 1.125, 1.25, 1.25, 1),         # where 1 -+ 0.125 would read satisfied
    (float("nan"), float("nan"), 1.0, 1.0, 0),   # NaN reads 0; no caller passes one
]


# (lhs, rhs, lhs_hw, rhs_hw, scale, verdict): the truth table of decide's
# half-width and exact modes before bands; None half-widths are exact sides
HALF_WIDTH_CASES = [
    (1.0, 2.0, 0.5, 0.5, 1.0, 1),          # lhs_hi == rhs_lo: satisfied
    (2.0, 1.0, 0.5, 0.5, 1.0, 0),          # lhs_lo == rhs_hi: inconclusive, not -1
    (1.0, 2.0, 0.5, 0.75, 1.0, 0),         # the bands overlap
    (2.0, 1.0, 0.25, 0.5, 1.0, -1),        # lhs_lo above rhs_hi
    (1.0, 1.0, 0.0, 0.0, 1.0, 1),          # zero-width bands: a tie is satisfied
    (1.0 + 2**-52, 1.0, 0.0, 0.0, 1.0, -1),  # and the next float up a violation
    (0.0, 0.0, TINY, 0.0, 1.0, 0),         # a subnormal width makes a tie inconclusive
    (0.0, -0.0, 0.0, 0.0, 1.0, 1),         # signed zeros are equal
    (-0.0, 0.0, -0.0, -0.0, 1.0, 1),
    (1.7e308, 1.7e308, 1.7e308, 0.0, 1.0, 0),   # a band edge beyond the float range
    (1.0, 1.0, None, None, 1.0, 1),        # exact sides: ties satisfied
    (0.0, -0.0, None, None, 1.0, 1),
    (1.0 + 1e-9, 1.0, None, None, 1.0, 1),  # within ABS_TOL
    (1.0 + 2e-9, 1.0, None, None, 1.0, -1),
    (1e6 + 1e-4, 1e6, None, None, 1.0, -1),
    (1e6 + 1e-4, 1e6, None, None, 1e6, 1),  # ABS_TOL scaled
    (2.0, 1.0, None, None, 1.0, -1),       # exact sides never read 0
]


def inline_verdicts(lhs, rhs, ci_lhs=None, ci_rhs=None):
    """The two verdict rules written inline before decide: report_table's for
    exact sides and eval_continuous's for sampled ones (the reference)."""
    if ci_lhs is None:
        return ["satisfied" if ok else "violation"
                for ok in (lhs <= rhs + ineq.ABS_TOL).tolist()]
    lhs_hw, rhs_hw = ci_lhs, ci_rhs
    with np.errstate(over="ignore"):
        return ["satisfied" if ok else "violation-candidate" if bad else "inconclusive"
                for ok, bad in zip((lhs + lhs_hw <= rhs - rhs_hw).tolist(),
                                   (lhs - lhs_hw > rhs + rhs_hw).tolist())]


# dyadic values make band-edge ties common; subnormals, values near 1e300
# and near the float maximum sit among them
EDGE_VALUES = (0.0, -0.0, 0.25, 0.5, 1.0, 1.5, 2.0, TINY, 2 * TINY, 2.2250738585072014e-308,
               1e-9, 1e300, 1.5e300, 1e300 * (1 + 2**-52), 1.7e308)


@st.composite
def verdict_columns(draw):
    """lhs, rhs and (for sampled rows) nonnegative half-widths, each entry
    one of a few values so that ties are common."""
    pool = draw(st.lists(st.one_of(st.sampled_from(EDGE_VALUES),
                                   st.floats(-1e300, 1e300)), min_size=1, max_size=4))
    n = draw(st.integers(1, 8))

    def column():
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))

    lhs, rhs = column(), column()
    if not draw(st.booleans()):
        return lhs, rhs, None, None
    return lhs, rhs, np.abs(column()), np.abs(column())


#: inline_verdicts' words as decide's verdicts
VERDICT_CODES = {"satisfied": 1, "inconclusive": 0, "violation": -1, "violation-candidate": -1}


def caller_bands(lhs, rhs, lhs_hw, rhs_hw, scale):
    """The bands decide's callers pass: lhs -+ lhs_hw and rhs -+ rhs_hw, or for
    exact sides (no half-widths) the point lhs against the point rhs + ABS_TOL * scale."""
    if lhs_hw is None:
        tol = rhs + ineq.ABS_TOL * scale
        return lhs, lhs, tol, tol
    return lhs - lhs_hw, lhs + lhs_hw, rhs - rhs_hw, rhs + rhs_hw


class TestDecide:
    @pytest.mark.parametrize("lhs_lo, lhs_hi, rhs_lo, rhs_hi, want", DECIDE_CASES)
    def test_band_truth_table(self, lhs_lo, lhs_hi, rhs_lo, rhs_hi, want):
        assert ineq.decide(lhs_lo, lhs_hi, rhs_lo, rhs_hi) == want

    @pytest.mark.parametrize("lhs, rhs, lhs_hw, rhs_hw, scale, want", HALF_WIDTH_CASES)
    def test_truth_table(self, lhs, rhs, lhs_hw, rhs_hw, scale, want):
        """The callers' bands keep the verdicts of the modes decide had."""
        assert ineq.decide(*caller_bands(lhs, rhs, lhs_hw, rhs_hw, scale)) == want

    def test_elementwise(self):
        """On arrays it gives the scalar verdicts, entry by entry."""
        *bands, want = np.array(DECIDE_CASES).T
        assert ineq.decide(*bands).tolist() == want.tolist()

    @given(st.floats(allow_nan=False), st.floats(allow_nan=False),
           st.floats(0.0, 1e300, exclude_min=True))
    def test_exact_sides_never_inconclusive(self, lhs, rhs, scale):
        assert ineq.decide(*caller_bands(lhs, rhs, None, None, scale)) in (1, -1)

    @given(verdict_columns(), st.floats(0.0, 1e300, exclude_min=True))
    def test_bands_give_half_width_and_exact_verdicts(self, sides, scale):
        """Bands x -+ hw read the half-width rule's verdicts; the exact points
        (lhs, lhs, t, t), t = rhs + ABS_TOL * scale, read lhs <= t as +-1."""
        lhs, rhs, ci_lhs, ci_rhs = sides
        with np.errstate(over="ignore"):   # band edges beyond the float range
            got = ineq.decide(*caller_bands(lhs, rhs, ci_lhs, ci_rhs, scale)).tolist()
        if ci_lhs is None:
            assert got == [1 if ok else -1 for ok in (lhs <= rhs + ineq.ABS_TOL * scale).tolist()]
        else:
            assert got == [VERDICT_CODES[v] for v in inline_verdicts(lhs, rhs, ci_lhs, ci_rhs)]

    @given(verdict_columns())
    def test_report_table_matches_inline_rules(self, sides):
        """report_table's verdicts are the inline rules' that decide replaced,
        and `satisfied` and `verdict` stay Python bools and strs."""
        lhs, rhs, ci_lhs, ci_rhs = sides
        n = len(lhs)
        table = ineq.report_table(["X"] * n, [2.0] * n, [1.0] * n, lhs, rhs, np.ones(n),
                                  ci_lhs, ci_rhs)
        want = inline_verdicts(lhs, rhs, ci_lhs, ci_rhs)
        assert table.columns["verdict"] == want
        assert table.columns["satisfied"] == [v == "satisfied" for v in want]
        assert {type(v) for v in table.columns["satisfied"]} == {bool}
        assert {type(v) for v in table.columns["verdict"]} == {str}

    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    @pytest.mark.parametrize("value", [float("nan"), INF, -INF])
    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_report_table_refuses_non_finite_sides(self, side, value, sampled):
        """No NaN or infinite side reaches decide, whose bands read NaN as 0."""
        sides = {"lhs": np.array([1.0, 2.0]), "rhs": np.array([2.0, 2.0])}
        sides[side][1] = value
        half_widths = (np.full(2, 0.5), np.full(2, 0.5)) if sampled else (None, None)
        with pytest.raises(DomainError, match=f"X at p=2: .*{side}={value}"):
            ineq.report_table(["X"] * 2, [2.0] * 2, [1.0] * 2, sides["lhs"], sides["rhs"],
                              np.ones(2), *half_widths)

    @pytest.mark.parametrize("x, y, p, match", [
        ([float("nan")], [0.0], 3, "not finite"),
        ([1e100], [0.0], 4, "overflows a float"),
        ([float("inf")], [0.0], 3, r"x=\[inf\] is not finite"),
        ([1.0], [float("inf")], 3, r"y=\[inf\] is not finite"),
        ([float("nan")], [1.0], 3, r"x=\[nan\] is not finite")],
        ids=["nan", "inf", "x-inf", "y-inf", "x-nan-y-one"])
    def test_taylor_refuses_non_finite_sides(self, x, y, p, match):
        """A NaN side, or one whose power overflows, never reaches decide; a
        non-finite input is refused by name before any arithmetic, so no
        numpy warning or quadrature on NaN comes first."""
        with pytest.raises(DomainError, match=match):
            ineq.taylor_pointwise(x, y, p)

    def test_python_types(self):
        """Taylor's `satisfied` and a search's `exceeded` are Python bools, so
        the JSON writers take them."""
        assert type(ineq.taylor_pointwise([1.0], [0.5], 3).satisfied) is bool
        family = sh.FamilySpec(tag="RIO-TWO-POINT", p=3.0, a_box=(1, 1), b_box=(0.1, 0.1))
        result = sh.search(sh.SearchConfig(family=family, method="grid", budget=1, seed=0))
        assert type(result.exceeded) is bool
        assert json.loads(json.dumps(formats.search_result_to_obj(result)))["exceeded"] is False


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

    def test_calls_no_blas(self, monkeypatch):
        """The Taylor sides and their panel quadrature call neither np.matmul
        nor np.dot, so their bits do not depend on the linked BLAS; and ineq
        uses no @ operator, which no patch intercepts."""
        def refuse(*args, **kwargs):
            raise AssertionError("BLAS called")
        monkeypatch.setattr(np, "matmul", refuse)
        monkeypatch.setattr(np, "dot", refuse)
        assert ineq.taylor_pointwise([1.3, -0.7, 0.2], [0.4, 0.9, -1.1], 2.5).satisfied
        source = pathlib.Path(ineq.__file__).read_text()
        assert all(line.lstrip().startswith("@") for line in source.splitlines() if "@" in line)

    @given(
        st.integers(1, 3).flatmap(lambda d: st.tuples(
            st.lists(st.floats(-3, 3), min_size=d, max_size=d),
            st.lists(st.floats(-3, 3), min_size=d, max_size=d))),
        st.floats(2.0, 6.0))
    def test_holds_pointwise(self, xy, p):
        x, y = xy
        b = ineq.taylor_pointwise(x, y, p)
        assert b.satisfied, (x, y, p, b)

    def test_no_nan_verdict_at_huge_p(self):
        """At p = 1e300, p(p-1) overflows. With y = 0 the remainder term is
        exactly 0, so the bound is the equality 1 <= 1; elsewhere an
        overflowed constant times an underflowed integral is refused, not
        read as a NaN "violation"."""
        assert ineq.taylor_pointwise([1.0], [0.0], 1e300) == ineq.TaylorBound(1.0, 1.0, True)
        with pytest.raises(DomainError, match="not finite"):
            ineq.taylor_pointwise([0.5], [0.1], 1e300)


@pytest.mark.parametrize("call", [
    lambda: ineq.taylor_pointwise([1.0, 0.5], [0.3, -0.2], 1e5),
    lambda: ineq.compare_constants(1e308),
    lambda: ineq.BOUNDS[ineq.InequalityId.D_BURK_1].constant(1e200),
    lambda: sh.rio_gain(1.0, 0.1, 1e5),
    lambda: sh.asym_two_point_gain(1.0, 0.1, 0.3, 1e5)],
    ids=["taylor", "compare", "constant", "rio-gain", "asym-gain"])
def test_huge_exponent_is_an_error(call):
    """Float ** and the math functions raise OverflowError where numpy gives
    inf; a result beyond the float range ends in the package's error."""
    with pytest.raises(MartcheckError, match="overflows a float"):
        call()


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
        ito = eval_continuous(constant_integrand(1.0, steps=4), 1.0, [p],
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

        def spy(tree, p_values):
            tables.append((tree.trees, list(p_values)))
            return moments(tree, p_values)

        moments = ptree.moments
        monkeypatch.setattr(ptree, "moments", spy)
        ids = (ineq.InequalityId.PROP1_MAIN, ineq.InequalityId.DOOB)
        # eight trees of four shapes, two depths: a forest holds both dims
        reports = list(ineq.sweep_random_trees(
            8, 2, 2, seed=1, p_values=(2, 3, 4), ids=ids))
        per_tree = {}
        for r in reports:
            tree, depth, dim = (field.split("=")[1] for field in r.notes.split())
            per_tree[int(tree)] = int(depth), int(dim)
        # one moment table per forest, one forest per depth, each carrying
        # every exponent
        assert len(set(per_tree.values())) == 4
        depths = [depth for depth, _ in per_tree.values()]
        assert sorted(trees for trees, _ in tables) == sorted(map(depths.count, set(depths)))
        assert all(ps == [2.0, 3.0, 4.0] for _, ps in tables)
        # per tree: (depth+1) levels x 3 exponents x 2 ids, in tree order
        assert list(per_tree) == list(range(8))
        assert len(reports) == sum((d + 1) * 6 for d, _ in per_tree.values())
        assert all(r.satisfied for r in reports)

    @given(st.integers(0, 30), st.integers(1, 5), st.integers(1, 10), st.integers(0, 2**32),
           st.lists(st.sampled_from(SWEEP_PS), min_size=1, max_size=3, unique=True),
           st.lists(st.sampled_from(ineq.DISCRETE_EVAL_IDS), min_size=1, unique=True))
    def test_sweep_matches_tree_by_tree(self, count, max_depth, max_dim, seed, ps, ids):
        """The sweep's table is, bit for bit, the concatenation of one
        eval_tree table per tree drawn alone by random_tree, and a failing
        sweep raises what the first failing tree raises alone (at p = 300
        some trees' sums underflow and others' do not). Dimensions reach 10,
        on both sides of 8 coordinates, where numpy's own row sums turn
        pairwise, and trees of every dimension share their depth's forests."""
        args = (count, max_depth, max_dim, seed, ps, ids)
        try:
            want = sweep_tree_by_tree(*args)
        except MartcheckError as e:
            with pytest.raises(type(e)) as got:
                ineq.sweep_random_trees(*args)
            assert str(got.value) == str(e)
        else:
            got = ineq.sweep_random_trees(*args)
            assert repr(got.columns) == repr(want.columns)

    @pytest.mark.parametrize("trees", [1, 2])
    def test_forests_split_by_byte_budget(self, monkeypatch, trees):
        """With the forest byte budget cut to one or two of the largest trees,
        the shapes' trees are split over several forests, rows unchanged."""
        want = sweep_tree_by_tree(40, 5, 3, 7, P_GRID, ineq.DISCRETE_EVAL_IDS)
        monkeypatch.setattr(ptree, "FOREST_BYTES", trees * ptree.tree_bytes(5, 3, (2, 3)))
        got = ineq.sweep_random_trees(40, 5, 3, 7, P_GRID)
        assert repr(got.columns) == repr(want.columns)

    def test_first_failing_tree_raises(self, monkeypatch):
        """At p = 2000 tree 0 overflows a side; tree 1, in the same depth-4
        forest, underflows a sum, which the forest pass meets first, as its
        refusal under the tree-by-tree fallback shows once that is cut off."""
        with pytest.raises(DomainError) as err:
            ineq.sweep_random_trees(40, 5, 3, 3, [2000.0])
        assert str(err.value) == (
            "D-BURK-1 at p=2000: the sides overflow a float (lhs=inf, rhs=7613399.272032723)")

        class NoFallback(Exception):
            pass

        def no_fallback(*args):
            raise NoFallback
        monkeypatch.setattr(ptree, "random_tree", no_fallback)
        with pytest.raises(NoFallback) as err:
            ineq.sweep_random_trees(40, 5, 3, 3, [2000.0])
        assert str(err.value.__context__) == (
            "p=2000: the sides underflow a float (E ||M_n||^p at level 0 is 0 from nonzero norms)")

    def test_table_rows_are_single_evaluations(self):
        """A table row is the report eval_discrete gives for its (n, p, id),
        in (n, p, id) nesting order, however it is read."""
        tree = ptree.random_tree(3, 2, 5)
        table = ineq.eval_tree(tree, range(4), P_GRID, ineq.DISCRETE_EVAL_IDS)
        expected = [ineq.eval_discrete(tree, n, p, i) for n in range(4)
                    for p in P_GRID for i in ineq.DISCRETE_EVAL_IDS]
        assert len(table) == len(expected) and list(table) == expected
        assert table[7] == expected[7]
        def table_of(reports):
            return ineq.ReportTable({name: [getattr(r, name) for r in reports]
                                     for name in ineq.REPORT_FIELDS})
        assert list(table_of(expected)) == expected

    def test_one_note_per_tree(self):
        """A forest's rows carry their tree's note; a note count that is not
        the tree count is refused."""
        forest = ptree.random_forest(2, 1, [4, 5, 6])
        table = ineq.eval_tree(forest, range(3), P_GRID, ["DOOB"], notes=["a", "b", "c"])
        assert table.columns["notes"] == [n for n in "abc" for _ in range(9)]
        with pytest.raises(PreconditionError, match="one note per tree"):
            ineq.eval_tree(forest, [0], P_GRID, ["DOOB"], notes=["a", "b"])

    def test_report_table_verdicts_and_refusal(self):
        """satisfied follows the verdict column; a non-finite half-width is
        refused like a non-finite side."""
        one = np.array([1.0])
        r, = ineq.report_table(["C-BURK-1"], [4.0], [1.0], one, 2 * one, one,
                               0.25 * one, 0.8 * one, seed=3)
        assert (r.verdict, r.satisfied, r.ratio, r.ci_lhs, r.ci_rhs, r.seed) == (
            "inconclusive", False, 0.5, 0.25, 0.8, 3)
        r, = ineq.report_table(["DOOB"], [4.0], [1.0], 2 * one, one, one)
        assert (r.verdict, r.satisfied, r.ci_lhs) == ("violation", False, None)
        with pytest.raises(DomainError, match="overflow a float"):
            ineq.report_table(["C-BURK-1"], [4.0], [1.0], one, one, one,
                              np.array([np.nan]), one)

    def test_bad_sizes_rejected(self):
        for count, max_depth, max_dim in ((-1, 3, 2), (1, 0, 2), (1, 3, 0)):
            with pytest.raises(DomainError):
                list(ineq.sweep_random_trees(count, max_depth, max_dim, 0, (2.0,)))

    def test_counts_and_seed_are_integers(self):
        """Integral floats and numpy integers run the sweep the ints run;
        fractions and non-finite values are refused, not truncated."""
        a = ineq.sweep_random_trees(2, 2, 2, 2, (2.0,))
        b = ineq.sweep_random_trees(2.0, np.int64(2), 2.0, np.uint16(2), (2.0,))
        assert a.columns == b.columns
        for args, name in (((1, 2, 1, 2.7), "seed"), ((1.5, 2, 1, 2), "count"),
                           ((1, 2.5, 1, 2), "max_depth"), ((1, 2, float("nan"), 2), "max_dim")):
            with pytest.raises(DomainError, match=f"{name} must be an integer"):
                ineq.sweep_random_trees(*args, (2.0,))

    def test_frozen_digest(self):
        """Every bit of a 2,400-report sweep is pinned, so a change in any
        level sum's order or in where a root is taken shows here."""
        reports = list(ineq.sweep_random_trees(
            20, 5, 3, 2026, (2.0, 2.5, 3.0, 4.0, 8.0)))
        assert len(reports) == 2400
        rows = json.dumps([formats.report_row(r) for r in reports], sort_keys=True)
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "9ff61b614fa2ce5ec050a076e3ed5ea396a44f97920c4a1c4dc7f958e1cf7be5")
