"""End-to-end CLI behavior: exit codes, output files, reproducibility."""
import csv
import hashlib
import json
import subprocess
import sys
import warnings

import pytest

import martcheck
from martcheck import cli, wiener_mc
from martcheck.cli import main

COIN = "tree_coin.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyDiscrete:
    def test_valid_tree_all_defaults(self, zoo, capsys):
        code, out, err = run(capsys, "verify-discrete",
                             "--tree", str(zoo / COIN), "--p", "2", "3")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 2 * 2 * 6   # levels 0..1, two p, six ids
        assert all("satisfied" in l for l in lines)

    def test_single_level_single_id(self, zoo, capsys):
        code, out, _ = run(capsys, "verify-discrete",
                           "--tree", str(zoo / COIN), "--p", "2",
                           "--n", "1", "--ineq", "D-BURK-1")
        assert code == 0
        assert out.count("D-BURK-1") == 1
        assert "lhs=1 rhs=1 ratio=1" in out   # squared coin equality

    def test_level_outside_tree_exits_1(self, zoo, capsys):
        code, out, err = run(capsys, "verify-discrete", "--tree", str(zoo / COIN),
                             "--p", "2", "--n", "-1")
        assert code == 1
        assert err == "error: level n=-1 outside 0..1\n" and not out

    def test_invalid_tree_exits_1(self, tmp_path, capsys):
        doc = {"m0": [0.0], "tree": {"children": [
            {"prob": 0.7, "incr": [1.0], "node": {}},
            {"prob": 0.7, "incr": [-1.0], "node": {}}]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify-discrete",
                           "--tree", str(path), "--p", "2")
        assert code == 1
        assert "error:" in err

    def test_non_finite_number_exits_1(self, tmp_path, capsys):
        # NaN comparisons are false, so a NaN probability would slip past
        # validation and turn into a NaN report with a "violation" verdict
        doc = {"m0": [0.0], "tree": {"children": [
            {"prob": float("nan"), "incr": [1.0], "node": {}},
            {"prob": 0.5, "incr": [-1.0], "node": {}}]}}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-discrete",
                             "--tree", str(path), "--p", "2")
        assert code == 1
        assert "must be finite" in err and not out

    def test_deeply_nested_exits_1(self, tmp_path, capsys):
        # a probability-1 chain nested past the JSON decoder's recursion
        # limit; written as a string because json.dump recurses too
        chain = '{"children": [{"prob": 1.0, "incr": [0.0], "node": ' * 1000
        path = tmp_path / "deep.json"
        path.write_text('{"m0": [0.0], "tree": ' + chain + "{}" + "}]}" * 1000 + "}")
        code, out, err = run(capsys, "verify-discrete",
                             "--tree", str(path), "--p", "2")
        assert code == 1
        assert "nested too deeply" in err and not out

    def test_huge_integer_exits_1(self, tmp_path, capsys):
        # the decoder refuses integers of more than 4300 digits with a
        # ValueError that is not a JSONDecodeError
        path = tmp_path / "huge.json"
        path.write_text('{"m0": [' + "1" * 5000 + '], "tree": {}}')
        code, out, err = run(capsys, "verify-discrete",
                             "--tree", str(path), "--p", "2")
        assert code == 1
        assert "not valid JSON" in err and not out

    @pytest.mark.parametrize("ids", [(), ("--ineq", "D-BURK-1")])
    def test_overflowed_sides_exit_1(self, tmp_path, capsys, ids):
        # E M^4 of values near 1e100 overflows a float; inf <= inf must not
        # read as satisfied
        doc = {"m0": [1e100], "tree": {"children": [
            {"prob": 0.5, "incr": [1e100], "node": {}},
            {"prob": 0.5, "incr": [-1e100], "node": {}}]}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-discrete",
                             "--tree", str(path), "--p", "4", *ids)
        assert code == 1
        assert "overflow a float" in err and not out

    def test_overflow_raises_no_warning(self, tmp_path, capsys):
        """Sides beyond the float range end in the error alone: no numpy
        overflow warning escapes, so none becomes an error either."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e100, 1e200):
                doc = {"m0": [scale], "tree": {"children": [
                    {"prob": 0.5, "incr": [scale], "node": {}},
                    {"prob": 0.5, "incr": [-scale], "node": {}}]}}
                path = tmp_path / "big.json"
                path.write_text(json.dumps(doc))
                code, out, err = run(capsys, "verify-discrete",
                                     "--tree", str(path), "--p", "4")
                assert code == 1
                assert "overflow a float" in err and not out
            for scale in (1e80, 1e200):
                cond = [(0.5, [scale]), (0.5, [-scale])]
                with pytest.raises(martcheck.DomainError, match="overflow"):
                    martcheck.eval_rio_step([(0.5, [scale]), (0.5, [-scale])],
                                            [cond, cond], 4)

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "verify-discrete",
                           "--tree", "/nonexistent.json", "--p", "2")
        assert code == 1
        assert "error: cannot read" in err

    def test_unknown_id_exits_1(self, zoo, capsys):
        code, _, err = run(capsys, "verify-discrete",
                           "--tree", str(zoo / COIN), "--p", "2",
                           "--ineq", "NOT-AN-ID")
        assert code == 1 and "error:" in err

    def test_step_id_rejected_for_trees(self, zoo, capsys):
        code, _, err = run(capsys, "verify-discrete",
                           "--tree", str(zoo / COIN), "--p", "2",
                           "--ineq", "RIO-STEP")
        assert code == 1
        assert "not a tree inequality" in err

    def test_usage_error_exits_1(self, zoo, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-discrete", "--p", "2"])   # --tree missing
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_out_files(self, zoo, tmp_path, capsys):
        base = str(tmp_path / "run")
        code, out, _ = run(capsys, "verify-discrete",
                           "--tree", str(zoo / COIN), "--p", "2",
                           "--out", base)
        assert code == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert set(doc) == {"manifest", "results"}
        assert doc["manifest"]["command"] == "verify-discrete"
        assert doc["manifest"]["version"]
        assert len(doc["results"]) == len(out.strip().splitlines())
        with open(tmp_path / "run.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["inequality", "p", "n_or_t", "lhs", "rhs",
                           "constant", "ratio", "satisfied",
                           "ci_lhs", "ci_rhs", "seed"]
        assert len(rows) == len(doc["results"]) + 1


class TestVerifyContinuous:
    def test_satisfied_exits_0(self, zoo, capsys):
        code, out, _ = run(capsys, "verify-continuous",
                           "--integrand", str(zoo / "spec_const1.json"),
                           "--p", "4", "--paths", "4096", "--seed", "1",
                           "--ineq", "ZAKAI-MAIN")
        assert code == 0
        assert "satisfied" in out

    def test_equality_case_is_inconclusive(self, zoo, capsys):
        argv = ["verify-continuous",
                "--integrand", str(zoo / "spec_const1.json"),
                "--p", "2", "--paths", "2048", "--seed", "1",
                "--ineq", "ZAKAI-MAIN"]
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert "inconclusive" in out
        code2, _, _ = run(capsys, *(argv + ["--allow-inconclusive"]))
        assert code2 == 0

    def test_default_ids_share_one_simulation(self, zoo, capsys, monkeypatch):
        from martcheck import wiener_mc
        calls = []
        real = wiener_mc.simulate
        monkeypatch.setattr(wiener_mc, "simulate",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        code, out, _ = run(capsys, "verify-continuous",
                           "--integrand", str(zoo / "spec_mixed2d.json"),
                           "--p", "4", "--paths", "2000", "--seed", "3",
                           "--allow-inconclusive")
        assert code == 0
        assert len(calls) == 1
        ids = [line.split()[0] for line in out.splitlines() if line]
        assert ids == ["C-BURK-1", "C-BURK-2", "ZAKAI-MAIN", "ZAKAI-MAX"]

    def test_several_exponents_share_one_simulation(self, zoo, tmp_path, capsys,
                                                    monkeypatch):
        """--p 2 4 writes its rows in (p, id) order from one simulation, each
        row the one a run given that exponent alone writes, and its exit code
        is taken over all rows: the p=2 identity is inconclusive, though the
        last exponent's rows are all satisfied."""
        calls = []
        real = wiener_mc.simulate
        monkeypatch.setattr(wiener_mc, "simulate",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        argv = ["verify-continuous", "--integrand", str(zoo / "spec_const1.json"),
                "--paths", "4096", "--seed", "1", "--ineq", "ZAKAI-MAIN", "C-BURK-1"]
        code, _, _ = run(capsys, *argv, "--p", "2", "4", "--out", str(tmp_path / "both"))
        assert code == 2
        assert len(calls) == 1
        doc = json.loads((tmp_path / "both.json").read_text())
        assert doc["manifest"]["params"]["p"] == [2.0, 4.0]
        assert [(r["p"], r["id"]) for r in doc["results"]] == [
            (2.0, "ZAKAI-MAIN"), (2.0, "C-BURK-1"), (4.0, "ZAKAI-MAIN"), (4.0, "C-BURK-1")]
        for p, rows, alone_code in (("2", doc["results"][:2], 2),
                                    ("4", doc["results"][2:], 0)):
            code, _, _ = run(capsys, *argv, "--p", p, "--out", str(tmp_path / p))
            assert code == alone_code
            assert json.loads((tmp_path / f"{p}.json").read_text())["results"] == rows

    def test_huge_dim_is_an_error(self, tmp_path, capsys):
        """A scalar coefficient is not broadcast to a dimension no run could
        hold."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dim": 10 ** 12, "wiener_dim": 1, "horizon": 1.0,
                                    "steps": 4, "rules": [{"range": [0, 4], "j": 1,
                                                           "kind": "const", "c": 1.0}]}))
        code, _, err = run(capsys, "verify-continuous", "--integrand", str(path),
                           "--p", "4")
        assert code == 1
        assert err.startswith("error:") and "budget" in err and "Traceback" not in err

    def test_const_rule_with_k_is_an_error(self, tmp_path, capsys):
        """A const rule reads no W^k, so a k on it is refused, not written back."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dim": 1, "wiener_dim": 1, "horizon": 1.0, "steps": 4,
                                    "rules": [{"range": [0, 4], "j": 1, "kind": "const",
                                               "k": 99, "c": 1.0}]}))
        code, out, err = run(capsys, "verify-continuous", "--integrand", str(path),
                             "--p", "4")
        assert code == 1 and not out
        assert err.startswith("error:") and "k=99" in err and "Traceback" not in err

    @pytest.mark.parametrize("paths", ["64", "4096"])
    def test_overflow_raises_no_warning(self, tmp_path, capsys, paths):
        """Sides beyond the float range end in the error alone, as for trees:
        no inf/NaN report or output file, and no numpy overflow warning from
        the estimators or from the blocks (4096 paths run on worker threads,
        which do not inherit the caller's numpy error state)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rule in ({"kind": "const", "c": 1e200}, {"kind": "lin", "k": 1, "c": 1e100}):
                path = tmp_path / "big.json"
                path.write_text(json.dumps({
                    "dim": 1, "wiener_dim": 1, "horizon": 1.0, "steps": 16,
                    "rules": [{"range": [0, 16], "j": 1, **rule}]}))
                code, out, err = run(capsys, "verify-continuous", "--integrand", str(path),
                                     "--p", "4", "--paths", paths,
                                     "--out", str(tmp_path / "op"))
                assert code == 1
                assert err.startswith("error:") and "overflow a float" in err and not out
                assert not list(tmp_path.glob("op.*"))

    @pytest.mark.parametrize("c, p", [(1e-170, "2"), (1e-170, "4"), (1e-100, "4")])
    def test_underflow_is_an_error(self, tmp_path, capsys, c, p):
        """Sides whose powers fall below the float range end in an error, as
        overflowed ones do, not in 0 <= 0 read as satisfied (at p = 2,
        ZAKAI-MAIN is an identity); no numpy warning is raised."""
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"dim": 1, "wiener_dim": 1, "horizon": 1.0, "steps": 16,
                                    "rules": [{"range": [0, 16], "j": 1, "kind": "lin",
                                               "k": 1, "c": c}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify-continuous", "--integrand", str(path),
                                 "--p", p, "--paths", "64", "--out", str(tmp_path / "op"))
        assert code == 1
        assert err.startswith("error:") and "underflow a float" in err and not out
        assert not list(tmp_path.glob("op.*"))

    @staticmethod
    def _lin_spec(tmp_path, c):
        path = tmp_path / f"lin_{c}.json"
        path.write_text(json.dumps({"dim": 1, "wiener_dim": 1, "horizon": 1.0, "steps": 16,
                                    "rules": [{"range": [0, 16], "j": 1, "kind": "lin",
                                               "k": 1, "c": c}]}))
        return str(path)

    def test_half_widths_are_scale_free(self, tmp_path, capsys):
        """Every side is homogeneous of degree 2 in c, so scaling the integrand
        moves no verdict: tiny sides keep their half-widths instead of reading
        0 and "satisfied" (at c = 1, C-BURK-1 and ZAKAI-MAIN are inconclusive)."""
        argv = ["verify-continuous", "--p", "2", "--paths", "64", "--seed", "0"]
        outcomes = []
        for c in (1.0, 1e-100, 1e-150):
            code, out, _ = run(capsys, *argv, "--integrand", self._lin_spec(tmp_path, c))
            outcomes.append((code, [line.split()[-1] for line in out.splitlines()]))
        assert outcomes[0] == (2, ["inconclusive", "satisfied", "inconclusive", "satisfied"])
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]

    def test_subnormal_sides_are_an_error(self, tmp_path, capsys):
        """At c = 1e-160 the p = 2 means fall below the normal float range
        (lhs ~3e-321, not 3e-301 * 1e-20): refused, not read as satisfied."""
        code, out, err = run(capsys, "verify-continuous", "--p", "2", "--paths", "64",
                             "--integrand", self._lin_spec(tmp_path, 1e-160))
        assert code == 1
        assert err.startswith("error:") and "underflow a float" in err and not out

    def test_underflowed_zakai_step_is_an_error(self, tmp_path, capsys):
        """At p = 400, c = 0.126 and seed 0, g^{p/2} underflows to exactly 0
        on every path at steps 1-4 though g > 0 there; the ZAKAI rhs would
        drop those steps, so it is refused. Step 0 (W_0 = 0) is a true zero."""
        code, out, err = run(capsys, "verify-continuous", "--p", "400", "--paths", "64",
                             "--seed", "0", "--ineq", "ZAKAI-MAIN", "C-BURK-1",
                             "--integrand", self._lin_spec(tmp_path, 0.126))
        assert code == 1 and not out
        assert err.startswith("error: p=400: the sides underflow a float") and "step 1 " in err

    def test_out_csv_has_seed_column(self, zoo, tmp_path, capsys):
        base = str(tmp_path / "mc")
        code, _, _ = run(capsys, "verify-continuous",
                         "--integrand", str(zoo / "spec_lin.json"),
                         "--p", "4", "--paths", "2048", "--seed", "9",
                         "--ineq", "C-BURK-1", "--out", base)
        assert code == 0
        with open(tmp_path / "mc.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["seed"] == "9"
        assert row["inequality"] == "C-BURK-1"
        assert float(row["ci_lhs"]) > 0


class TestSharpness:
    def test_grid_search(self, zoo, tmp_path, capsys):
        base = str(tmp_path / "sh")
        code, out, _ = run(capsys, "sharpness",
                           "--config", str(zoo / "search_rio_grid.json"),
                           "--out", base)
        assert code == 0
        assert "best_ratio=" in out
        doc = json.loads((tmp_path / "sh.json").read_text())
        assert doc["results"]["best_ratio"] >= 2.999
        assert doc["results"]["bound"] == 3.0
        assert not doc["results"]["exceeded"]

    def test_random_tree_search(self, zoo, capsys):
        code, out, _ = run(capsys, "sharpness",
                           "--config", str(zoo / "search_tree_random.json"))
        assert code == 0
        assert "best_params=" in out

    @pytest.mark.parametrize("family, extra", [
        ("RIO-TWO-POINT", {"b": [5e-5, 5e-5]}),
        ("ASYM-TWO-POINT", {"b": [1e-4, 1e-4], "q": [0.5, 0.5]})])
    def test_two_point_past_the_norm_underflow(self, tmp_path, family, extra):
        """At q = 1/2 and p = 1100, q(1-q)^p + (1-q)q^p = 2^-p is 0 as a float;
        the console script still reports the finite gain, without a
        traceback or a numpy warning."""
        path = tmp_path / "search.json"
        path.write_text(json.dumps({"family": family, "p": 1100, "method": "grid",
                                    "a": [1, 1], "budget": 4, "seed": 1, **extra}))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "martcheck.cli", "sharpness", "--config", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "best_ratio=1098.44737368 bound=1099" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_huge_grid_is_an_error(self, zoo, tmp_path, capsys):
        config = json.loads((zoo / "search_rio_grid.json").read_text())
        path = tmp_path / "search.json"
        path.write_text(json.dumps(dict(config, budget=10**15)))
        code, _, err = run(capsys, "sharpness", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and "cap" in err and "Traceback" not in err


class TestSweepAndTables:
    def test_random_trees(self, capsys):
        code, out, _ = run(capsys, "random-trees", "--count", "10",
                           "--max-depth", "3", "--seed", "4", "--p", "2", "4")
        assert code == 0
        assert "0 violations" in out

    @pytest.mark.parametrize("flag,value", [("--count", "-1"), ("--max-depth", "0"),
                                            ("--max-dim", "0"), ("--seed", "-1")])
    def test_random_trees_bad_sizes(self, capsys, flag, value):
        argv = {"--count": "2", "--max-depth": "3", "--max-dim": "2", flag: value}
        code, _, err = run(capsys, "random-trees", *(x for kv in argv.items() for x in kv))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("extra", [{"branching": [0]}, {"branching": [-1]},
                                       {"depth": 26}, {"depth": 1100}, {"seed": -1}])
    def test_random_tree_search_limits(self, zoo, tmp_path, capsys, extra):
        config = json.loads((zoo / "search_tree_random.json").read_text())
        path = tmp_path / "search.json"
        path.write_text(json.dumps(dict(config, target="DOOB", **extra)))
        code, _, err = run(capsys, "sharpness", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_sweep_rows_capped_before_any_tree(self, capsys, monkeypatch):
        """A sweep whose report rows could outgrow the sweep memory budget is
        an error before any tree is drawn; criterion 1's sweep (500 trees up
        to depth 5, five exponents, six ids) charges under an eighth of it."""
        from martcheck import ineq, ptree

        def no_tree(*args):
            raise AssertionError("a tree was drawn")

        monkeypatch.setattr(ptree, "random_tree", no_tree)
        monkeypatch.setattr(ptree, "random_forest", no_tree)
        code, _, err = run(capsys, "random-trees", "--count", "10000000",
                           "--max-depth", "5", "--p", "2", "3", "4")
        assert code == 1
        assert err.startswith("error:") and "budget" in err and "Traceback" not in err
        assert 500 * 6 * 5 * 6 * ineq._SWEEP_ROW_BYTES < ineq.SWEEP_MEMORY_BUDGET / 8

    def test_sweep_peak_within_row_charge(self, tmp_path, capsys):
        """The memory random-trees --out traces stays below the rows it was
        charged for."""
        import tracemalloc

        from martcheck import ineq

        argv = ["random-trees", "--count", "100", "--max-depth", "5", "--seed", "1",
                "--out", str(tmp_path / "sweep")]
        run(capsys, *argv)   # warm-up: one-time allocations
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 100 * 6 * 3 * 6 * ineq._SWEEP_ROW_BYTES

    @pytest.mark.parametrize("verdicts, allow, code", [
        ([], False, 0),
        (["satisfied"], False, 0),
        (["satisfied", "violation"], False, 1),
        (["inconclusive", "violation-candidate"], True, 1),
        (["inconclusive", "satisfied"], False, 2),
        (["inconclusive", "satisfied"], True, 0)])
    def test_exit_code_from_verdicts(self, verdicts, allow, code):
        assert cli._exit_code(martcheck.ReportTable({"verdict": verdicts}), allow) == code

    def test_underflowed_tree_sides_are_an_error(self, capsys):
        """At p = 1000 every ||d_k||^p of levels 1-2 underflows, which read
        two RIO-CHAIN "violation" rows (ratio 3.93; 0.008 on normalized
        norms); the sweep now ends in an error instead."""
        code, out, err = run(capsys, "random-trees", "--count", "1", "--max-depth", "3",
                             "--p", "1000")
        assert code == 1
        assert err.startswith("error:") and "underflow a float" in err and not out

    def test_compare_constants(self, capsys):
        code, out, _ = run(capsys, "compare-constants", "--p", "2", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert "improved=False" in lines[0]   # p=2: constants coincide
        assert "improved=True" in lines[1]

    def test_gaussian_moment(self, capsys):
        code, out, _ = run(capsys, "gaussian-moment", "--p", "4")
        assert code == 0
        assert out.strip().endswith("= 3")


@pytest.mark.parametrize("argv", [("verify-discrete", "--tree", "ZOO/" + COIN, "--p", "2"),
                                  ("compare-constants", "--p", "2")])
def test_out_into_missing_directory_is_an_error(zoo, tmp_path, capsys, argv):
    """Both the tabular (JSON + CSV) and the JSON-only writers report an
    unwritable --out as an error line, not a traceback."""
    argv = [a.replace("ZOO/", f"{zoo}/") for a in argv]
    base = str(tmp_path / "missing" / "run")
    code, _, err = run(capsys, *argv, "--out", base)
    assert code == 1
    assert err.startswith("error: cannot write") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify-continuous", "--integrand", "ZOO/spec_const1.json", "--p", "1e308", "--paths", "4"),
    ("verify-discrete", "--tree", "ZOO/" + COIN, "--p", "1e200"),
    ("random-trees", "--count", "1", "--max-depth", "3", "--p", "1e308"),
    ("compare-constants", "--p", "1e308"),
    ("gaussian-moment", "--p", "1e308"),
    ("sharpness", "--config", "RIO-TWO-POINT"),
    ("sharpness", "--config", "ASYM-TWO-POINT")],
    ids=["verify-continuous", "verify-discrete", "random-trees", "compare-constants",
         "gaussian-moment", "sharpness-rio", "sharpness-asym"])
def test_huge_exponent_is_an_error(zoo, tmp_path, capsys, argv):
    """Exponents whose constants or powers exceed the float range end in an
    error line and exit 1, not in an OverflowError traceback."""
    family = argv[-1]
    if family.endswith("TWO-POINT"):
        config = {"family": family, "p": 100000, "method": "grid", "a": [1, 1],
                  "b": [0.1, 1], "budget": 4, "seed": 1}
        if family == "ASYM-TWO-POINT":
            config["q"] = [0.3, 0.5]
        path = tmp_path / "search.json"
        path.write_text(json.dumps(config))
        argv = argv[:-1] + (str(path),)
    code, _, err = run(capsys, *(a.replace("ZOO/", f"{zoo}/") for a in argv))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


#: report commands whose --out files are pinned, with the digest of their rows
FROZEN_OUT_CASES = [
    (("random-trees", "--count", "20", "--max-depth", "5", "--max-dim", "3",
      "--p", "2", "2.5", "3", "4", "8", "--seed", "2026"),
     "d4db9cccbf832e12804f1f39ffcc05f4f83ff4a88d93cc2997f24259f237e08c"),
    (("verify-discrete", "--tree", COIN, "--p", "2", "3"),
     "6b8c3236804991cc51393769a8a19ea1baf0a5c484fc48343b489e4398434d0a"),
    (("verify-continuous", "--integrand", "spec_mixed2d.json", "--p", "2", "4",
      "--paths", "2048", "--seed", "5", "--allow-inconclusive"),
     "352fcd86ee52ff108e8c35d07afa61d599bbfe4375a824d20473980a673e9435"),
    (("verify-continuous", "--integrand", "spec_lin.json", "--p", "3", "--t", "0.5",
      "--paths", "2048", "--ineq", "ZAKAI-MAX", "C-BURK-1"),
     "9918674aba82f0689b069e57774f97c8268832b02b879f6047264e08e6e8cc14"),
    (("verify-continuous", "--integrand", "spec_const1.json", "--p", "4",
      "--ineq", "ZAKAI-MAIN", "--paths", "4096"),
     "615190815e9c4af943ddc6d9123c1eeb2ef81fcbf2dd6deb5d636f5e2f1a4fb5"),
]


_DISCRETE_IDS = ["D-BURK-1", "D-BURK-2", "PROP1-MAIN", "PROP1-MAX", "RIO-CHAIN", "DOOB"]

#: one run of every subcommand with its exit code and --out params
MANIFEST_CASES = [
    (("verify-discrete", "--tree", COIN, "--p", "2", "3", "--n", "1"), 0,
     {"tree": COIN, "p": [2.0, 3.0], "n": 1, "ineq": _DISCRETE_IDS}),
    (("verify-continuous", "--integrand", "spec_const1.json", "--p", "2", "--paths", "256",
      "--seed", "1", "--ineq", "ZAKAI-MAIN"), 2,
     {"integrand": "spec_const1.json", "t": 1.0, "p": [2.0], "paths": 256, "seed": 1,
      "ineq": ["ZAKAI-MAIN"]}),
    (("sharpness", "--config", "search_rio_grid.json"), 0,
     {"family": "RIO-TWO-POINT", "p": 4.0, "method": "grid", "a": [1.0, 1.0],
      "b": [0.0001, 1.0], "budget": 1000, "seed": 7, "target": "RIO-STEP"}),
    (("random-trees", "--count", "3", "--max-depth", "3", "--seed", "4", "--p", "2", "4"), 0,
     {"count": 3, "max_depth": 3, "max_dim": 3, "seed": 4, "p": [2.0, 4.0],
      "ineq": _DISCRETE_IDS}),
    (("compare-constants", "--p", "2", "4"), 0, {"p": [2.0, 4.0]}),
    (("gaussian-moment", "--p", "4"), 0, {"p": 4.0}),
]


@pytest.mark.parametrize("argv, code, params", MANIFEST_CASES)
def test_out_manifest(zoo, tmp_path, capsys, argv, code, params):
    """Every subcommand writes the same manifest: its name, the argv it was
    given, its params, the version and a duration; a non-zero exit code
    (here the inconclusive p=2 identity) still writes its files."""
    def in_zoo(a):
        return str(zoo / a) if a.endswith(".json") else a

    argv = [in_zoo(a) for a in argv] + ["--out", str(tmp_path / "op")]
    params = {k: in_zoo(v) if isinstance(v, str) else v for k, v in params.items()}
    got, _, _ = run(capsys, *argv)
    assert got == code
    manifest = json.loads((tmp_path / "op.json").read_text())["manifest"]
    duration = manifest.pop("duration_s")
    assert isinstance(duration, float) and duration >= 0
    assert manifest == {"command": argv[0], "argv": argv, "params": params,
                        "version": martcheck.__version__}


class TestReproducibility:
    def test_rerun_is_byte_identical_apart_from_duration(self, zoo, tmp_path,
                                                         capsys):
        outputs = []
        for tag in ("a", "b"):
            base = str(tmp_path / tag)
            code, _, _ = run(capsys, "verify-continuous",
                             "--integrand", str(zoo / "spec_mixed2d.json"),
                             "--p", "3", "--paths", "3000", "--seed", "17",
                             "--out", base)
            assert code == 0
            doc = json.loads((tmp_path / f"{tag}.json").read_text())
            outputs.append((json.dumps(doc["results"], sort_keys=True),
                            (tmp_path / f"{tag}.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv, digest", FROZEN_OUT_CASES)
    def test_frozen_out_files(self, zoo, tmp_path, capsys, argv, digest):
        """Every bit of the written rows is pinned: the canonical JSON results
        and the CSV bytes, hashed together."""
        argv = [str(zoo / a) if a.endswith(".json") else a for a in argv]
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "op"))
        assert code == 0
        results = json.loads((tmp_path / "op.json").read_text())["results"]
        h = hashlib.sha256(json.dumps(results, sort_keys=True,
                                      separators=(",", ":")).encode())
        h.update((tmp_path / "op.csv").read_bytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("argv", [argv for argv, _ in FROZEN_OUT_CASES])
    def test_out_json_is_standard_encoding(self, zoo, tmp_path, capsys, argv):
        """The written JSON is byte for byte what json.dumps(sort_keys=True)
        writes for it: separators, key order and escaping included, which the
        frozen digests, taken over re-encoded results, cannot see."""
        argv = [str(zoo / a) if a.endswith(".json") else a for a in argv]
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "op"))
        assert code == 0
        text = (tmp_path / "op.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_search_rerun_identical(self, zoo, tmp_path, capsys):
        docs = []
        for tag in ("x", "y"):
            base = str(tmp_path / tag)
            run(capsys, "sharpness",
                "--config", str(zoo / "search_tree_random.json"),
                "--out", base)
            doc = json.loads((tmp_path / f"{tag}.json").read_text())
            docs.append(json.dumps(doc["results"], sort_keys=True))
        assert docs[0] == docs[1]


def test_public_names_resolve_once():
    assert len(martcheck.__all__) == len(set(martcheck.__all__))
    for name in martcheck.__all__:
        assert hasattr(martcheck, name), name
    assert martcheck.ContinuousId is wiener_mc.ContinuousId


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "martcheck.cli",
                           "gaussian-moment", "--p", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "1" in proc.stdout
