"""Serialization round trips and structural error paths."""
import hashlib
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from martcheck import (
    ConfigError,
    MartcheckError,
    csv_row,
    eval_discrete,
    exact_report,
    integrand_to_obj,
    lp_norm,
    parse_integrand,
    parse_search,
    parse_tree,
    random_tree,
    report_row,
    search,
    search_result_to_obj,
    search_to_obj,
    tree_to_obj,
)
from martcheck.formats import CSV_FIELDS, REPORT_FIELDS


# -- seeded tree documents: valid, padded, invalid and malformed --------

def _bad_value(rng):
    return rng.choice(["x", None, True, [0.5, "a"], {}, [], float("nan"), 10**400])


def _random_node(rng, dim, depth, shape):
    """A node of a random tree document. shape holds the deepest level,
    the chance that a node above it is a leaf and the chance that a branch
    is mutated; no mutation changes an increment's length."""
    max_depth, p_leaf, p_mut = shape
    if depth == max_depth or (depth and rng.random() < p_leaf):
        return rng.choice([{}, {"children": []}])
    width = rng.randrange(1, 4)
    weights = [rng.uniform(0.1, 1.0) for _ in range(width)]
    probs = [w / sum(weights) for w in weights]
    raw = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(width)]
    mean = [sum(p * r[i] for p, r in zip(probs, raw)) for i in range(dim)]
    children = []
    for prob, r in zip(probs, raw):
        incr = [x - m for x, m in zip(r, mean)]
        branch = {"prob": prob, "incr": incr[0] if dim == 1 and rng.random() < 0.3 else incr,
                  "node": _random_node(rng, dim, depth + 1, shape)}
        if rng.random() < p_mut:
            key = rng.choice(["prob", "incr", "node"])
            how = rng.randrange(6)
            if how == 0:
                del branch[key]
            elif how == 1:
                branch[key] = _bad_value(rng)
            elif how == 2:
                branch["prob"] = prob * rng.choice([0.8, 1.3, -1.0, 0.0, 7.0])
            elif how == 3:
                branch["incr"] = [x + rng.choice([0.5, -2.0]) for x in incr]
            elif how == 4:
                branch["node"] = rng.choice([{"children": 3}, {"children": [7]}, 7])
            else:
                branch = _bad_value(rng)
        children.append(branch)
    return {"children": children}


def random_documents(seed, count):
    """count seeded tree documents in dimensions 1-3 and depths 0-4."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randrange(1, 4)
        shape = (rng.randrange(0, 5), rng.choice([0.0, 0.3]), rng.choice([0.0, 0.03, 0.15]))
        m0 = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        yield {"m0": m0[0] if dim == 1 and rng.random() < 0.3 else m0,
               "tree": _random_node(rng, dim, 0, shape)}


def document_digest(docs) -> str:
    """sha256 over each document's first parse error or, for a parsed tree,
    its level arrays, violations and written-back form. Violation residuals
    are left out, and so is the sign of a probability-sum message."""
    h = hashlib.sha256()
    for doc in docs:
        try:
            tree = parse_tree(doc)
        except MartcheckError as exc:
            h.update(f"{type(exc).__name__}: {exc}\n".encode())
            continue
        h.update(repr((tree.m0, tree.depth)).encode())
        for lvl in tree.levels:
            for arr in (lvl.parent, lvl.prob, lvl.incr):
                h.update(f"{arr.dtype}{arr.shape}".encode() + arr.tobytes())
        for v in tree.validate().violations:
            message = re.sub(r"sum to 1[+-]", "sum to 1\u00b1", v.message)
            h.update(repr((v.kind, v.path, message)).encode())
        h.update(json.dumps(tree_to_obj(tree), sort_keys=True).encode())
    return h.hexdigest()


def load(zoo, name):
    with open(zoo / f"{name}.json") as fh:
        return json.load(fh)


class TestTreeFormat:
    def test_round_trip_zoo(self, zoo):
        for name in ("tree_coin", "tree_walk2", "tree_r2"):
            tree = parse_tree(load(zoo, name))
            assert tree.validate().ok
            obj = tree_to_obj(tree)
            again = parse_tree(obj)
            assert tree_to_obj(again) == obj
            assert lp_norm(again, again.depth, 3) == lp_norm(tree, tree.depth, 3)

    def test_shallow_leaf_padding(self, zoo):
        tree = parse_tree(load(zoo, "tree_pad"))
        assert tree.validate().ok
        # every leaf sits at the last level: each node above it has a child
        above = 1
        for lvl in tree.levels:
            assert np.array_equal(np.unique(lvl.parent), np.arange(above))
            above = len(lvl.parent)
        # the padded branch holds its value 0 at level 2 while the deep
        # branch splits 1+1 into {3, 1}: E X_2^2 = (9 + 1)/4 + 0 = 2.5
        assert lp_norm(tree, 2, 2) ** 2 == pytest.approx(2.5, abs=1e-12)

    def test_scalar_increment_promotes(self):
        tree = parse_tree({"m0": 0.0, "tree": {"children": [
            {"prob": 0.5, "incr": 1.0, "node": {}},
            {"prob": 0.5, "incr": -1.0, "node": {}}]}})
        assert tree.dim == 1
        assert tree.validate().ok

    def test_deep_chain_round_trip(self):
        """A chain far deeper than the interpreter's recursion limit parses,
        validates and writes back out."""
        depth = 5000
        node = {}
        for _ in range(depth):
            node = {"children": [{"prob": 1.0, "incr": [0.0], "node": node}]}
        doc = {"m0": [0.5], "tree": node}
        tree = parse_tree(doc)
        assert tree.depth == depth
        assert tree.validate().ok
        obj = tree_to_obj(tree)
        assert obj["m0"] == [0.5]
        out, given = obj["tree"], doc["tree"]
        for _ in range(depth):
            (a,), (b,) = out["children"], given["children"]
            assert (a["prob"], a["incr"]) == (b["prob"], b["incr"])
            out, given = a["node"], b["node"]
        assert out == {"children": []}

    @given(st.integers(0, 5), st.integers(1, 3), st.integers(0, 10**6),
           st.sampled_from([(2, 3), (3,), (2, 5, 3)]))
    def test_round_trip_random_trees(self, depth, dim, seed, branching):
        """Writing a tree out as JSON text and parsing it back gives the
        same m0 and level arrays, bit for bit."""
        tree = random_tree(depth, dim, seed, branching=branching)
        again = parse_tree(json.loads(json.dumps(tree_to_obj(tree))))
        assert again.m0 == tree.m0 and again.depth == tree.depth
        for a, b in zip(again.levels, tree.levels):
            for x, y in ((a.parent, b.parent), (a.prob, b.prob), (a.incr, b.incr)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("children,message", [
        ([{"prob": 0.5, "incr": [0.0], "node": {}},
          {"prob": 0.5, "incr": [0.0, "a"], "node": {}}],
         "tree.children[1].incr[1] must be a number, got 'a'"),
        ([{"prob": 1.0, "incr": [0.0], "node": {"children": 3}}],
         "tree.children[0].node.children must be a list"),
        ([{"prob": 1.0, "incr": [0.0]}],
         "tree.children[0] is missing required key 'node'"),
        ([{"prob": 0.5, "incr": [0.0], "node": {"children": [
            {"prob": 1.0, "incr": [0.0], "node": 7}]}},
          {"prob": "x", "incr": [0.0], "node": {}}],
         "tree.children[0].node.children[0].node must be an object, got int"),
    ])
    def test_error_locations(self, children, message):
        """The first problem in depth-first order is reported, located by
        its path from the root."""
        with pytest.raises(ConfigError) as info:
            parse_tree({"m0": [0.0], "tree": {"children": children}})
        assert str(info.value) == message

    def test_frozen_document_digest(self):
        """Parse errors, level arrays, violations and write-back of 3,000
        seeded documents, frozen."""
        assert document_digest(random_documents(2026, 3000)) == (
            "a3f19ad80610b0f2e29c652a296a9c9499cc4fef1a89696e04761665c719b10c")

    @pytest.mark.parametrize("incr,given", [([1.0], 1), (1.0, 1), ([1.0, 0.0, 2.0], 3)])
    def test_increment_dimension_located(self, incr, given):
        """An increment whose length is not m0's is refused at parse, as a
        list or as a scalar, located by its path."""
        doc = {"m0": [0.0, 0.0], "tree": {"children": [
            {"prob": 0.5, "incr": [1.0, 0.0], "node": {}},
            {"prob": 0.5, "incr": incr, "node": {"children": "not reached"}}]}}
        with pytest.raises(ConfigError) as info:
            parse_tree(doc)
        assert str(info.value) == (
            f"tree.children[1].incr has dimension {given}, m0 has dimension 2")

    @pytest.mark.parametrize("m0", [10**400, [10**400], float("nan"), -float("inf")])
    def test_scalars_checked_like_lists(self, m0):
        """An integer beyond float range and a non-finite scalar are refused
        as config errors, whether given alone or in a list."""
        with pytest.raises(ConfigError):
            parse_tree({"m0": m0, "tree": {}})

    @pytest.mark.parametrize("doc", [
        "not a dict",
        {"tree": {}},                                   # m0 missing
        {"m0": [0.0]},                                  # tree missing
        {"m0": [], "tree": {}},                         # empty vector
        {"m0": [True], "tree": {}},                     # bool is not a number
        {"m0": [0.0], "tree": {"children": "zero"}},
        {"m0": [0.0], "tree": {"children": [{"prob": 1.0, "node": {}}]}},
        {"m0": [0.0], "tree": {"children": [
            {"prob": "half", "incr": [0.0], "node": {}}]}},
        {"m0": [0.0], "tree": {"children": [                # NaN passes range checks
            {"prob": float("nan"), "incr": [0.0], "node": {}}]}},
        {"m0": [0.0], "tree": {"children": [
            {"prob": 1.0, "incr": [float("inf")], "node": {}}]}},
        {"m0": [-float("inf")], "tree": {}},
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises(ConfigError):
            parse_tree(doc)


class TestIntegrandFormat:
    def test_round_trip_zoo(self, zoo):
        for name in ("spec_const1", "spec_lin", "spec_sign", "spec_mixed2d"):
            spec = parse_integrand(load(zoo, name))
            obj = integrand_to_obj(spec)
            assert parse_integrand(obj) == spec

    def test_scalar_c_broadcasts(self):
        spec = parse_integrand({
            "dim": 3, "wiener_dim": 1, "horizon": 1.0, "steps": 4,
            "rules": [{"range": [0, 4], "j": 1, "kind": "const", "c": 2.0}]})
        assert spec.entries[0].rule.c == (2.0, 2.0, 2.0)

    def test_k_survives_round_trip(self):
        obj = {"dim": 1, "wiener_dim": 2, "horizon": 1.0, "steps": 8,
               "rules": [{"range": [0, 8], "j": 2, "kind": "sign",
                          "c": [1.5], "k": 2}]}
        assert integrand_to_obj(parse_integrand(obj)) == obj

    @pytest.mark.parametrize("doc", [
        {"wiener_dim": 1, "horizon": 1.0, "steps": 4, "rules": []},
        {"dim": 1.5, "wiener_dim": 1, "horizon": 1.0, "steps": 4, "rules": []},
        {"dim": 1, "wiener_dim": 1, "horizon": 1.0, "steps": 4, "rules": 7},
        {"dim": 1, "wiener_dim": 1, "horizon": 1.0, "steps": 4,
         "rules": [{"range": [0, 2.5], "j": 1, "kind": "const", "c": 1.0}]},
        {"dim": 1, "wiener_dim": 1, "horizon": 1.0, "steps": 4,
         "rules": [{"j": 1, "kind": "const", "c": 1.0}]},
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises(ConfigError):
            parse_integrand(doc)


class TestSearchFormat:
    def test_round_trip_zoo(self, zoo):
        for name in ("search_rio_grid", "search_tree_random"):
            config = parse_search(load(zoo, name))
            obj = search_to_obj(config)
            assert parse_search(obj) == config

    def test_target_defaults(self):
        config = parse_search({"family": "RIO-TWO-POINT", "p": 4.0,
                               "method": "grid", "budget": 9, "seed": 0,
                               "a": [1.0, 1.0], "b": [0.1, 1.0]})
        assert config.target == "RIO-STEP"

    def test_result_serialization(self, zoo):
        config = parse_search(load(zoo, "search_rio_grid"))
        config = type(config)(family=config.family, method=config.method,
                              budget=16, seed=config.seed, target=config.target)
        obj = search_result_to_obj(search(config))
        assert set(obj) == {"best_ratio", "best_params", "evaluations",
                            "bound", "exceeded", "trace"}
        assert obj["evaluations"] == 16
        assert not obj["exceeded"]
        assert obj["trace"][-1]["ratio"] == obj["best_ratio"]
        json.dumps(obj)   # plain types only

    def test_branching_must_be_list(self):
        with pytest.raises(ConfigError):
            parse_search({"family": "RANDOM-TREE", "p": 4.0, "method": "random",
                          "budget": 4, "seed": 0, "branching": 3})


class TestReportRows:
    def setup_method(self):
        self.report = exact_report("D-BURK-1", 2.0, 1, 1.0, 2.0, 1.0)

    def test_report_row_fields(self):
        row = report_row(self.report)
        assert tuple(row) == REPORT_FIELDS
        assert row["id"] == "D-BURK-1"

    def test_csv_row_fields(self):
        row = csv_row(self.report)
        assert set(row) == set(CSV_FIELDS)
        assert row["inequality"] == "D-BURK-1"
        assert "notes" not in row and "verdict" not in row

    def test_rows_from_eval(self, zoo):
        tree = parse_tree(load(zoo, "tree_coin"))
        report = eval_discrete(tree, 1, 2.0, "D-BURK-1")
        assert csv_row(report)["satisfied"] is True


# -- fuzz: every document parses or raises a MartcheckError ------------

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                             max_size=3),
    max_leaves=6)
_NUMBERS = (st.floats() | st.integers() | st.sampled_from([0.5, 1.0, 0.25, -0.5])
            | st.sampled_from([10**400, True]))
_VECTORS = _NUMBERS | st.lists(_NUMBERS, max_size=3)
_NODES = st.recursive(
    st.fixed_dictionaries({}),
    lambda nodes: st.fixed_dictionaries({}, optional={"children": st.lists(
        st.fixed_dictionaries({"prob": _NUMBERS, "incr": _VECTORS, "node": nodes},
                              optional={"extra": _JUNK}) | _JUNK,
        max_size=3) | _JUNK}),
    max_leaves=12)
_TREE_DOCS = st.fixed_dictionaries(
    {"m0": _VECTORS, "tree": _NODES | _JUNK}) | _JUNK
_RULES = st.fixed_dictionaries(
    {"range": st.lists(_NUMBERS | st.integers(0, 8), max_size=3) | _JUNK,
     "j": st.integers(-1, 3) | _JUNK,
     "kind": st.sampled_from(["const", "lin", "sign", "cubic"]) | _JUNK,
     "c": _VECTORS | _JUNK},
    optional={"k": st.integers(-1, 3) | _JUNK})
_INTEGRAND_DOCS = st.fixed_dictionaries(
    {"dim": st.integers(-1, 3) | _JUNK, "wiener_dim": st.integers(-1, 3) | _JUNK,
     "horizon": _NUMBERS | _JUNK, "steps": st.integers(-1, 8) | _JUNK},
    optional={"rules": st.lists(_RULES | _JUNK, max_size=3) | _JUNK}) | _JUNK
_BOX = st.lists(_NUMBERS, max_size=3) | _JUNK
_SEARCH_DOCS = st.fixed_dictionaries(
    {"family": st.sampled_from(["RIO-TWO-POINT", "ASYM-TWO-POINT", "RANDOM-TREE",
                                "NONE"]) | _JUNK,
     "p": _NUMBERS | _JUNK,
     "method": st.sampled_from(["grid", "random", "nelder-mead", "anneal"]) | _JUNK,
     "budget": st.integers(-2, 10**30) | _JUNK, "seed": st.integers() | _JUNK},
    optional={"target": st.sampled_from(["RIO-STEP", "PROP1-MAIN", "DOOB", "X"]) | _JUNK,
              "a": _BOX, "b": _BOX, "q": _BOX,
              "depth": st.integers(-1, 30) | _JUNK, "dim": st.integers(-1, 4) | _JUNK,
              "branching": st.lists(st.integers(-1, 10**20), max_size=3) | _JUNK}) | _JUNK


class TestParserFuzz:
    """Any JSON-like document ends in a parsed object or a MartcheckError,
    never in another exception."""

    @given(_TREE_DOCS)
    def test_parse_tree(self, doc):
        try:
            tree = parse_tree(doc)
        except MartcheckError:
            return
        verdict = tree.validate()
        if verdict.ok:
            tree.calculus()

    @given(_INTEGRAND_DOCS)
    def test_parse_integrand(self, doc):
        try:
            parse_integrand(doc)
        except MartcheckError:
            pass

    @given(_SEARCH_DOCS)
    def test_parse_search(self, doc):
        try:
            parse_search(doc)
        except MartcheckError:
            pass
