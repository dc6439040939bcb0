"""Gain evaluators and witness searches."""
import decimal
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import martcheck.ineq as ineq
import martcheck.ptree as ptree
import martcheck.sharpness as sh
from martcheck import (ConfigError, DomainError, FamilySpec, MartcheckError,
                       ResourceLimitError, SearchConfig, parse_search)
from martcheck.cli import main as cli_main

# 50-digit decimal enumeration oracles for rio_gain(1, b, 4)
GAIN_ORACLES = {
    0.1: 2.96115772464876475156630060027939,
    0.01: 2.99960011995601799212361028923131,
    0.001: 2.99999600001199995600017999921200,
    1e-4: 2.99999996000000119999995600000180,
    1.0: 1.82842712474619009760337744841940,   # 2 sqrt(2) - 1
}


def decimal_rio_gain(b, p):
    """rio_gain(1, b, p) to 50 digits, b and p read exactly from their floats:
    ((((1 + b)^p + |1 - b|^p) / 2)^(2/p) - 1) / b^2. At p = 4 the moment is
    1 + 6b^2 + b^4, so the gain is (sqrt(1 + 6b^2 + b^4) - 1) / b^2."""
    with decimal.localcontext(decimal.Context(prec=50)):
        b, p = decimal.Decimal(b), decimal.Decimal(p)
        moment = ((1 + b) ** p + abs(1 - b) ** p) / 2
        return float((moment ** (2 / p) - 1) / (b * b))


class TestRioGain:
    @pytest.mark.parametrize("b,expect", sorted(GAIN_ORACLES.items()))
    def test_frozen_oracles(self, b, expect):
        assert sh.rio_gain(1.0, b, 4) == pytest.approx(expect, abs=5e-12)

    def test_small_b_stays_accurate(self):
        """The expm1/log1p form must not lose the O(b^2) term; a naive
        moment evaluation is off by ~1e-8 at b = 1e-4."""
        assert abs(sh.rio_gain(1.0, 1e-4, 4) - GAIN_ORACLES[1e-4]) < 1e-9

    def test_p2_is_exactly_one(self):
        for b in (0.5, 0.01, 1e-5):
            assert sh.rio_gain(1.0, b, 2) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant_in_a(self):
        assert sh.rio_gain(3.0, 0.3, 4) == pytest.approx(
            sh.rio_gain(1.0, 0.1, 4), rel=1e-12)

    def test_large_b_branch(self):
        # r >= 1 takes the direct power branch
        assert sh.rio_gain(1.0, 2.5, 4) > 0.0
        assert sh.rio_gain(1.0, 1.0, 4) == pytest.approx(
            math.sqrt(8.0) - 1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            sh.rio_gain(bad, 0.1, 4)
        with pytest.raises(DomainError, match="^b must"):
            sh.rio_gain(1.0, bad, 4)
        # b is finite but the width 2b is not
        with pytest.raises(DomainError, match=r"^b = 1e\+308: the width 2b overflows"):
            sh.rio_gain(1.0, 1e308, 4)

    @pytest.mark.parametrize("b", [0.06, 0.09])
    def test_series_handover_band(self, b):
        """At p = 4 and b in [0.05, 0.1[, the width 2b is at or just past the
        binomial series' cut-off 0.1, so these gains come from expm1/log1p
        right where the series hands over."""
        assert decimal_rio_gain(b, 4) == pytest.approx(
            (math.sqrt(1 + 6 * b**2 + b**4) - 1) / b**2, rel=1e-14)
        assert sh.rio_gain(1.0, b, 4) == pytest.approx(decimal_rio_gain(b, 4), abs=5e-12)

    def test_p_past_the_underflow_of_the_norm(self):
        """At q = 1/2, q(1-q)^p + (1-q)q^p = 2^-p is 0 as a float from p ~ 1075
        on; the gain is still finite there, and below p - 1."""
        expect = 1098.447373680909
        assert decimal_rio_gain(5e-5, 1100) == pytest.approx(expect, rel=1e-12)
        gain = sh.asym_two_point_gain(1, 1e-4, 0.5, 1100)
        assert gain == pytest.approx(expect, rel=1e-12) and gain <= 1100 - 1
        assert sh.rio_gain(1, 5e-5, 1100) == pytest.approx(expect, rel=1e-12)

    @given(st.floats(1e-6, 10.0), st.floats(2.0, 8.0))
    def test_never_exceeds_limit(self, b, p):
        """gain < p-1 for every b > 0: the one-step constant is a strict
        supremum, approached only in the b -> 0 limit."""
        assert sh.rio_gain(1.0, b, p) <= p - 1.0 + 1e-9


class TestAsymGain:
    def test_q_half_matches_symmetric(self):
        # width 2b at q = 1/2 is Y = +-b with equal probability
        for b, expect in GAIN_ORACLES.items():
            assert sh.asym_two_point_gain(1, 2 * b, 0.5, 4) == pytest.approx(expect, abs=5e-12)

    def test_q_half_matches_symmetric_small_b(self):
        # the same law through the series branch; the odd moments vanish
        # and must not truncate the series early
        assert sh.asym_two_point_gain(1, 0.002, 0.5, 4) == pytest.approx(
            GAIN_ORACLES[0.001], rel=1e-14)
        assert sh.asym_two_point_gain(2, 0.02, 0.5, 3) == pytest.approx(
            decimal_rio_gain(0.005, 3), rel=1e-13)

    def test_frozen_quarter(self):
        assert sh.asym_two_point_gain(1, 1, 0.25, 4) == pytest.approx(
            2.11887831444941392847707580335, abs=1e-12)

    def test_q_domain(self):
        for q in (0.0, 1.0, -0.2, 1.5, 5e-324):   # and no subnormal q
            with pytest.raises(DomainError):
                sh.asym_two_point_gain(1, 1, q, 4)

    @given(st.floats(1e-5, 2.0), st.floats(0.05, 0.95), st.floats(2.0, 6.0))
    def test_bounded_by_limit(self, b, q, p):
        assert sh.asym_two_point_gain(1.0, b, q, p) <= p - 1.0 + 1e-9

    @pytest.mark.parametrize("a,b,q,p", [
        (1, 1e-200, 0.3, 4),      # (b/a)^2 underflows to 0
        (1, 1e-155, 0.5, 4),      # ... to a subnormal
        (1e-300, 1e300, 0.3, 4),  # b/a overflows to inf
        (1, 1e-10, 1e-300, 2),    # r^2 ||Y/b||_p^2 underflows
    ])
    def test_outside_the_float_range_refused(self, a, b, q, p):
        with pytest.raises(DomainError, match="float range"):
            sh.asym_two_point_gain(a, b, q, p)

    @given(st.floats(5e-324, 1e308), st.floats(5e-324, 1e308),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(2.0, 1e6))
    def test_finite_or_refused(self, a, b, q, p):
        """Every finite input gives a gain in [0, p - 1] or a MartcheckError."""
        try:
            gain = sh.asym_two_point_gain(a, b, q, p)
        except MartcheckError:
            return
        assert 0.0 <= gain <= (p - 1.0) * (1.0 + 1e-12)


class TestProbe:
    def test_probe_values(self):
        gains = sh.asymptotic_gain_probe(4, (0.1, 0.01, 0.001))
        assert gains == pytest.approx(
            [GAIN_ORACLES[0.1], GAIN_ORACLES[0.01], GAIN_ORACLES[0.001]],
            abs=1e-10)
        assert gains[0] < gains[1] < gains[2] < 3.0

    def test_final_gain_near_limit(self):
        gains = sh.asymptotic_gain_probe(4, (0.1, 0.01, 0.001))
        assert abs(gains[-1] - 3.0) <= 10 * 0.001

    def test_p3(self):
        gains = sh.asymptotic_gain_probe(3, (0.001,))
        assert abs(gains[-1] - 2.0) < 0.01

    def test_p2_all_one(self):
        assert sh.asymptotic_gain_probe(2, (0.2, 0.1)) == pytest.approx(
            [1.0, 1.0], abs=1e-12)

    def test_sequence_validation(self):
        with pytest.raises(DomainError):
            sh.asymptotic_gain_probe(4, ())
        with pytest.raises(DomainError):
            sh.asymptotic_gain_probe(4, (0.1, 0.2))
        with pytest.raises(DomainError):
            sh.asymptotic_gain_probe(4, (0.1, -0.01))


class TestFamilyConfig:
    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            FamilySpec(tag="NO-SUCH", p=4)

    def test_two_point_needs_boxes(self):
        with pytest.raises(ConfigError):
            FamilySpec(tag="RIO-TWO-POINT", p=4, a_box=(1, 1))

    def test_random_tree_rejects_boxes(self):
        with pytest.raises(ConfigError):
            FamilySpec(tag="RANDOM-TREE", p=4, depth=2, dim=1, a_box=(1, 2))

    @pytest.mark.parametrize("name, value, json_value",
                             [("depth", -5, 3), ("dim", "x", 0), ("branching", ("z",), [1])])
    def test_two_point_rejects_tree_fields(self, name, value, json_value):
        """A two-point family refuses a RANDOM-TREE field, through the API and
        through parse_search, instead of dropping it from the manifest."""
        with pytest.raises(ConfigError, match=f"^RIO-TWO-POINT takes no {name}$"):
            FamilySpec(tag="RIO-TWO-POINT", p=4, a_box=(1, 1), b_box=(0.1, 1),
                       **{name: value})
        with pytest.raises(ConfigError, match=f"^RIO-TWO-POINT takes no {name}$"):
            parse_search({"family": "RIO-TWO-POINT", "p": 4, "method": "grid",
                          "a": [1, 1], "b": [0.1, 1], "budget": 4, "seed": 0,
                          name: json_value})

    def test_random_tree_branching(self):
        # a fraction such as 2.5 is refused, not truncated to 2
        for bad in ((), (-1,), (0,), (1, 3), (2.5,), (2, 3.5), (True, 3), (float("nan"),)):
            with pytest.raises(ConfigError, match="branching"):
                FamilySpec(tag="RANDOM-TREE", p=4, depth=2, dim=1, branching=bad)

    def test_random_tree_integral_branching_kept(self):
        fam = FamilySpec(tag="RANDOM-TREE", p=4, depth=2, dim=1, branching=[2.0, np.int64(3)])
        assert fam.branching == (2, 3) and all(type(w) is int for w in fam.branching)

    @pytest.mark.parametrize("name", ["depth", "dim"])
    @pytest.mark.parametrize("bad", [2.5, True, float("nan"), float("inf"), "3"])
    def test_random_tree_depth_and_dim_not_truncated(self, name, bad):
        """A RANDOM-TREE depth or dim that is not an integer is refused at
        construction, not at the first tree."""
        sizes = {"depth": 2, "dim": 1, name: bad}
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            FamilySpec(tag="RANDOM-TREE", p=4, **sizes)

    def test_random_tree_integral_depth_and_dim_kept(self):
        fam = FamilySpec(tag="RANDOM-TREE", p=4, depth=2.0, dim=np.int64(1))
        assert (fam.depth, fam.dim) == (2, 1)
        assert type(fam.depth) is int and type(fam.dim) is int

    @pytest.mark.parametrize("bad", [2.7, True, float("nan"), float("inf"), "3"])
    def test_budget_not_truncated(self, bad):
        """2.7 is not cut to 2, True is not 1, and NaN raises ConfigError, not
        a bare ValueError."""
        fam = FamilySpec(tag="RIO-TWO-POINT", p=4, a_box=(1, 1), b_box=(0.1, 1))
        with pytest.raises(ConfigError, match="budget must be an integer"):
            SearchConfig(family=fam, method="grid", budget=bad, seed=0)

    def test_integral_budget_kept(self):
        fam = FamilySpec(tag="RIO-TWO-POINT", p=4, a_box=(1, 1), b_box=(0.1, 1))
        cfg = SearchConfig(family=fam, method="grid", budget=17.0, seed=0)
        assert cfg.budget == 17 and type(cfg.budget) is int

    def test_q_box_range(self):
        with pytest.raises(ConfigError):
            FamilySpec(tag="ASYM-TWO-POINT", p=4, a_box=(1, 1),
                       b_box=(0.1, 1), q_box=(0.0, 0.5))

    @pytest.mark.parametrize("box", [(1.0,), 5.0, (1.0, 2.0, 3.0)])
    def test_box_must_be_a_pair(self, box):
        with pytest.raises(ConfigError, match="a_box must be a"):
            FamilySpec(tag="RIO-TWO-POINT", p=4, a_box=box, b_box=(0.1, 1))

    def test_target_constraints(self):
        fam = FamilySpec(tag="RIO-TWO-POINT", p=4, a_box=(1, 1), b_box=(0.1, 1))
        with pytest.raises(ConfigError):
            SearchConfig(family=fam, method="grid", budget=10, seed=0,
                         target="PROP1-MAIN")
        tree_fam = FamilySpec(tag="RANDOM-TREE", p=4, depth=2, dim=1)
        with pytest.raises(ConfigError):
            SearchConfig(family=tree_fam, method="nelder-mead", budget=10, seed=0,
                         target="PROP1-MAIN")
        with pytest.raises(ConfigError):
            SearchConfig(family=tree_fam, method="grid", budget=10, seed=0,
                         target="RIO-STEP")

    def test_unknown_method(self):
        fam = FamilySpec(tag="RIO-TWO-POINT", p=4, a_box=(1, 1), b_box=(0.1, 1))
        with pytest.raises(ConfigError):
            SearchConfig(family=fam, method="anneal", budget=10, seed=0)


def _grid_config(budget=1000):
    fam = FamilySpec(tag="RIO-TWO-POINT", p=4.0,
                     a_box=(1.0, 1.0), b_box=(1e-4, 1.0))
    return SearchConfig(family=fam, method="grid", budget=budget, seed=7)


class TestSearch:
    def test_grid_approaches_bound(self):
        res = sh.search(_grid_config())
        assert res.best_ratio >= 2.999
        assert res.best_params["b"] == pytest.approx(1e-4)
        assert res.evaluations == 1000
        assert res.bound == 3.0
        assert not res.exceeded

    def test_trace_monotone(self):
        res = sh.search(_grid_config())
        ratios = [r for _, r in res.trace]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert res.trace[-1][1] == res.best_ratio

    def test_deterministic_random_method(self):
        fam = FamilySpec(tag="ASYM-TWO-POINT", p=4.0, a_box=(0.5, 2.0),
                         b_box=(1e-3, 1.0), q_box=(0.1, 0.9))
        cfg = SearchConfig(family=fam, method="random", budget=200, seed=42)
        a, b = sh.search(cfg), sh.search(cfg)
        assert a.best_ratio == b.best_ratio
        assert a.best_params == b.best_params
        assert a.trace == b.trace

    def test_nelder_mead_converges(self):
        fam = FamilySpec(tag="ASYM-TWO-POINT", p=4.0, a_box=(1.0, 1.0),
                         b_box=(1e-3, 1.0), q_box=(0.1, 0.9))
        cfg = SearchConfig(family=fam, method="nelder-mead", budget=300, seed=3)
        res = sh.search(cfg)
        # optimum pushes b to the box floor and q toward 1/2
        assert res.best_ratio >= 2.999
        assert res.best_params["b"] == pytest.approx(1e-3)
        assert abs(res.best_params["q"] - 0.5) < 0.05
        assert not res.exceeded

    def test_random_tree_search(self):
        fam = FamilySpec(tag="RANDOM-TREE", p=4.0, depth=2, dim=2)
        cfg = SearchConfig(family=fam, method="grid", budget=25, seed=0,
                           target="PROP1-MAIN")
        res = sh.search(cfg)
        assert 0.0 < res.best_ratio <= 1.0
        assert res.bound == 1.0
        assert res.evaluations == 25
        assert set(res.best_params) == {"tree_seed"}

    def test_frozen_random_tree_search(self, zoo):
        """The zoo RANDOM-TREE search finds the same witness to the last bit."""
        with open(zoo / "search_tree_random.json") as fh:
            res = sh.search(parse_search(json.load(fh)))
        assert res.best_ratio == 0.4626691374497822
        assert res.best_params == {"tree_seed": 5539685859285031941}

    def test_budget_respected(self):
        res = sh.search(_grid_config(budget=17))
        assert res.evaluations == 17

    def test_reevaluation_matches(self):
        """best_params must reproduce best_ratio exactly when re-evaluated."""
        for cfg in (_grid_config(200),
                    SearchConfig(family=FamilySpec(
                        tag="RANDOM-TREE", p=3.0, depth=2, dim=1),
                        method="random", budget=10, seed=5,
                        target="D-BURK-1")):
            res = sh.search(cfg)
            again = sh.family_ratio(cfg.family, res.best_params, cfg.target)
            assert again == pytest.approx(res.best_ratio, abs=1e-12)

    def test_soundness_flag_positive_control(self, zoo, monkeypatch, capsys):
        """A family whose ratio sits just above the proven constant p-1 must
        raise the flag, and the CLI must report it with exit code 1."""
        monkeypatch.setattr(sh, "family_ratio",
                            lambda family, params, target="RIO-STEP":
                            family.p - 1.0 + 1e-6)
        res = sh.search(_grid_config(100))
        assert res.exceeded and res.best_ratio == res.bound + 1e-6
        assert cli_main(["sharpness", "--config",
                         str(zoo / "search_rio_grid.json")]) == 1
        assert "soundness bound exceeded" in capsys.readouterr().err


def lone_tree_ratio(family, seed, target):
    """A RANDOM-TREE point's ratio from the tree drawn and evaluated alone,
    not as a forest: the reference for family_ratio and search."""
    tree = sh.ptree.random_tree(family.depth, family.dim, seed, family.branching)
    return ineq.eval_discrete(tree, family.depth, family.p, target).ratio


def sequential_tree_search(cfg):
    """A RANDOM-TREE search as one lone tree per point, in order: the
    reference for the forests search draws and evaluates."""
    rec = sh._Recorder(["tree_seed"])
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(ptree.SPAWN_DOMAINS["search"],))))
    for t in range(cfg.budget):
        prm = {"tree_seed": t if cfg.method == "grid" else sh._draw(rng, 0, 2**63, "seed")}
        rec.record(prm, lone_tree_ratio(cfg.family, prm["tree_seed"], cfg.target))
    return sh.SearchResult(rec.best_ratio, rec.best_params, rec.count, tuple(rec.trace),
                           1.0, rec.best_ratio > 1.0 + ineq.ABS_TOL)


@pytest.mark.parametrize("method", ["grid", "random"])
def test_forests_give_the_tree_by_tree_result(monkeypatch, method):
    """A RANDOM-TREE search whose budget spans several forests returns the
    SearchResult of evaluating one tree at a time, as does one forest."""
    fam = FamilySpec(tag="RANDOM-TREE", p=3.0, depth=3, dim=2, branching=(2, 3, 4))
    cfg = SearchConfig(family=fam, method=method, budget=23, seed=9, target="PROP1-MAX")
    want = sequential_tree_search(cfg)
    assert sh.search(cfg) == want   # one forest
    monkeypatch.setattr(sh.ptree, "FOREST_BYTES", 5 * sh.ptree.tree_bytes(3, 2, (2, 3, 4)))
    assert sh.search(cfg) == want   # forests of 5, 5, 5, 5 and 3 trees


@pytest.mark.parametrize("branching", [(2, 3), (2, 3, 4)])
@pytest.mark.parametrize("target", ["PROP1-MAX", "DOOB"])
@pytest.mark.parametrize("dim", [1, 3])
def test_family_ratio_is_the_lone_trees(dim, target, branching):
    """A RANDOM-TREE point, a forest of one, gives the ratio of its tree
    drawn and evaluated alone, bit for bit."""
    fam = FamilySpec(tag="RANDOM-TREE", p=3.0, depth=3, dim=dim, branching=branching)
    for seed in range(10):
        assert (sh.family_ratio(fam, {"tree_seed": seed}, target)
                == lone_tree_ratio(fam, seed, target))


def test_family_ratio_error_is_the_lone_trees():
    """A RANDOM-TREE point whose tree fails raises what the tree raises
    alone, with no detour back through the forest of one."""
    fam = FamilySpec(tag="RANDOM-TREE", p=2000.0, depth=2, dim=3)
    with pytest.raises(MartcheckError) as alone:
        lone_tree_ratio(fam, 0, "D-BURK-1")
    with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
        sh.family_ratio(fam, {"tree_seed": 0}, "D-BURK-1")


def test_forest_error_is_the_first_trees():
    """A search whose trees fail raises what its first tree raises alone."""
    fam = FamilySpec(tag="RANDOM-TREE", p=2000.0, depth=2, dim=3)
    cfg = SearchConfig(family=fam, method="grid", budget=8, seed=0, target="D-BURK-1")
    with pytest.raises(MartcheckError) as alone:
        sh.family_ratio(fam, {"tree_seed": 0}, "D-BURK-1")
    with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
        sh.search(cfg)


def test_nelder_mead_minimizes_quadratic():
    f = lambda z: float((z[0] - 1.5) ** 2 + (z[1] + 0.5) ** 2)
    x, fx, evals = sh.nelder_mead(f, [0.0, 0.0], [1.0, 1.0], budget=400)
    assert fx < 1e-12
    assert abs(x[0] - 1.5) < 1e-6 and abs(x[1] + 0.5) < 1e-6
    assert evals <= 400


def test_nelder_mead_restart_after_collapse():
    # flat region first: the simplex collapses, restarts, then descends
    f = lambda z: float(max(abs(z[0]) - 1.0, 0.0) ** 2)
    x, fx, evals = sh.nelder_mead(f, [3.0, 0.0], [0.5, 0.5], budget=500)
    assert fx == 0.0


def _pin_configs():
    """Every search path: grid, random and Nelder-Mead on both two-point
    families with fixed and free boxes, plus RANDOM-TREE grid and random."""
    fams = [
        FamilySpec(tag="RIO-TWO-POINT", p=4.0, a_box=(1.0, 1.0), b_box=(1e-4, 1.0)),
        FamilySpec(tag="RIO-TWO-POINT", p=3.0, a_box=(0.5, 2.0), b_box=(1e-3, 0.5)),
        FamilySpec(tag="RIO-TWO-POINT", p=2.5, a_box=(1.5, 1.5), b_box=(0.2, 0.2)),
        FamilySpec(tag="ASYM-TWO-POINT", p=4.0, a_box=(1.0, 1.0),
                   b_box=(1e-3, 1.0), q_box=(0.1, 0.9)),
        FamilySpec(tag="ASYM-TWO-POINT", p=3.5, a_box=(0.5, 2.0),
                   b_box=(1e-3, 1.0), q_box=(0.3, 0.3)),
        FamilySpec(tag="ASYM-TWO-POINT", p=5.0, a_box=(0.5, 2.0),
                   b_box=(1e-2, 2.0), q_box=(0.05, 0.95)),
    ]
    for fam in fams:
        for method in sh.METHODS:
            for budget in (1, 17, 100):
                yield SearchConfig(family=fam, method=method, budget=budget, seed=5)
    tree = FamilySpec(tag="RANDOM-TREE", p=3.0, depth=2, dim=2)
    for method in ("grid", "random"):
        for budget in (1, 17, 100):
            yield SearchConfig(family=tree, method=method, budget=budget, seed=5,
                               target="PROP1-MAIN")


def test_frozen_search_paths():
    """Every search path returns the same result to the last bit, including
    the order and Python type of each best_params value."""
    parts = []
    for cfg in _pin_configs():
        res = sh.search(cfg)
        types = tuple((k, type(v).__name__) for k, v in res.best_params.items())
        parts.append(repr((res.best_ratio, res.best_params, types, res.evaluations,
                           res.trace, res.bound, res.exceeded)))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert len(parts) == 60
    assert digest == "a7f7f760c72406d965ced358b43986c2fb9e148104b9e0706fcd2a9978dc1f63"


class TestEvaluatorCalls:
    """Each method evaluates exactly its budget's points, each point once."""

    @staticmethod
    def spy(monkeypatch, name):
        calls, real = [], getattr(sh, name)

        def counted(family, arg, target="RIO-STEP"):
            calls.append(dict(arg) if isinstance(arg, dict) else list(arg))
            return real(family, arg, target)

        monkeypatch.setattr(sh, name, counted)
        return calls

    def test_grid_cut_to_the_budget(self, monkeypatch):
        """Two free boxes at budget 3 make a 2 x 2 grid; its 4th point is
        never evaluated."""
        fam = FamilySpec(tag="RIO-TWO-POINT", p=4.0, a_box=(0.5, 2.0), b_box=(1e-3, 1.0))
        made = [{"a": float(a), "b": float(b)} for a in np.geomspace(0.5, 2.0, 2)
                for b in np.geomspace(1e-3, 1.0, 2)]
        calls = self.spy(monkeypatch, "family_ratio")
        res = sh.search(SearchConfig(family=fam, method="grid", budget=3, seed=0))
        assert calls == made[:3] and made[3] not in calls
        assert res.evaluations == 3

    @pytest.mark.parametrize("method", ["random", "nelder-mead"])
    def test_random_and_nelder_mead_use_the_budget(self, monkeypatch, method):
        fam = FamilySpec(tag="ASYM-TWO-POINT", p=4.0, a_box=(0.5, 2.0),
                         b_box=(1e-3, 1.0), q_box=(0.1, 0.9))
        calls = self.spy(monkeypatch, "family_ratio")
        res = sh.search(SearchConfig(family=fam, method=method, budget=17, seed=0))
        assert len(calls) == res.evaluations == 17

    def test_tree_grid_seeds_each_once_in_order(self, monkeypatch):
        """23 seeds in forests of at most 5 trees: each seed is evaluated once,
        in order, and no tree goes through family_ratio."""
        monkeypatch.setattr(sh.ptree, "FOREST_BYTES", 5 * sh.ptree.tree_bytes(3, 2, (2, 3)))
        fam = FamilySpec(tag="RANDOM-TREE", p=3.0, depth=3, dim=2)
        forests = self.spy(monkeypatch, "_forest_ratios")
        lone = self.spy(monkeypatch, "family_ratio")
        res = sh.search(SearchConfig(family=fam, method="grid", budget=23, seed=0,
                                     target="PROP1-MAX"))
        assert forests == [list(range(i, min(i + 5, 23))) for i in range(0, 23, 5)]
        assert not lone and res.evaluations == 23


class TestGridCap:
    def test_huge_grid_refused_before_allocating(self):
        """One free box at budget 10^15 would need a 10^15-point axis."""
        with pytest.raises(ResourceLimitError, match="cap"):
            sh.search(_grid_config(budget=10**15))

    def test_cap_is_per_axis(self, monkeypatch):
        monkeypatch.setattr(sh.ptree, "MAX_PATHS", 16)
        assert sh.search(_grid_config(budget=16)).evaluations == 16
        with pytest.raises(ResourceLimitError):
            sh.search(_grid_config(budget=17))
        # two free boxes: 17 points in the budget, 4 on each axis
        fam = FamilySpec(tag="RIO-TWO-POINT", p=4.0, a_box=(0.5, 2.0), b_box=(1e-3, 1.0))
        cfg = SearchConfig(family=fam, method="grid", budget=17, seed=0)
        assert sh.search(cfg).evaluations == 16

    def test_tree_seed_grid_is_lazy(self, monkeypatch):
        """A RANDOM-TREE grid enumerates seeds without allocating them, so a
        budget of 10^12 is not refused and starts evaluating at seed 0, with
        the first forest's seeds only."""
        class Stop(Exception):
            pass

        seen = []

        def first_only(depth, dim, seeds, branching=(2, 3)):
            seen.append(list(seeds))
            raise Stop

        monkeypatch.setattr(sh.ptree, "random_forest", first_only)
        fam = FamilySpec(tag="RANDOM-TREE", p=4.0, depth=2, dim=1)
        with pytest.raises(Stop):
            sh.search(SearchConfig(family=fam, method="grid", budget=10**12, seed=0,
                                   target="PROP1-MAIN"))
        size = sh.ptree.forest_size(2, 1)
        assert 1 < size < 10**6
        assert seen == [list(range(size))]
