"""The four benchmark workloads: seeded inputs, per-op argv and oracles.

Every op is one `martcheck.cli.main(argv)` call with the argv a user would
type. Inputs (integrand spec, search config, per-op seeds) are derived from
the workload seed only, and every op writes `--out` so its results can be
checked and hashed. Paths are relative to the checkout root, which is the
working directory of the workload process, so the argv recorded in each
manifest does not depend on where the checkout lives.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORK_DIR = Path("perfbench") / "runs" / "work"


def op_seed(workload: str, seed: int, index) -> int:
    """Seed of one op, a 31-bit integer fixed by (workload, seed, index)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class OpOutput:
    """What one op left behind: exit code, captured text and --out files."""

    rc: int | None
    text: str
    doc: dict | None = None
    csv_rows: list[dict] | None = None
    digest: str = ""


def results_digest(doc: dict | None, csv_bytes: bytes) -> str:
    """sha256 of the op's `results` (canonical JSON) and its CSV bytes.

    The manifest is left out: it holds `duration_s` and other per-run
    bookkeeping, while `results` must be bit-identical for a given seed.
    """
    h = hashlib.sha256()
    results = None if doc is None else doc.get("results")
    h.update(json.dumps(results, sort_keys=True, separators=(",", ":")).encode())
    h.update(csv_bytes)
    return h.hexdigest()


class Workload:
    """Base class; subclasses fill in argv, oracle, tamper and work units."""

    name = ""
    yardstick = "interp"   # machine-speed probe whose time this workload tracks
    op_s = 1.0             # typical scaled op time; a run makes --seconds / op_s ops
    rng_block: tuple[int, ...] | None = None   # Philox block shape of one MC block
    cells_per_scan = 0                          # paths * steps * m of one MC scan

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.dir = WORK_DIR / self.name
        self.out_base = self.dir / "op"

    def prepare(self) -> None:
        """Write the seeded input files."""
        self.dir.mkdir(parents=True, exist_ok=True)

    def argv(self, index) -> list[str]:
        raise NotImplementedError

    def check(self, out: OpOutput) -> list[str]:
        """Oracle: the list of problems with the op's output (empty = correct)."""
        raise NotImplementedError

    def tamper(self, doc: dict) -> None:
        """Corrupt a correct output in place; the oracle must then reject it."""
        raise NotImplementedError

    def work(self, doc: dict) -> dict:
        """Work units delivered by one op: reports, and path_steps or trees."""
        raise NotImplementedError

    def clear_outputs(self) -> None:
        for suffix in (".json", ".csv"):
            self.out_base.with_suffix(suffix).unlink(missing_ok=True)

    def read_outputs(self, rc: int | None, text: str) -> OpOutput:
        out = OpOutput(rc=rc, text=text)
        json_path = self.out_base.with_suffix(".json")
        csv_path = self.out_base.with_suffix(".csv")
        csv_bytes = b""
        if json_path.exists():
            with open(json_path, encoding="utf-8") as fh:
                out.doc = json.load(fh)
        if csv_path.exists():
            csv_bytes = csv_path.read_bytes()
            out.csv_rows = list(csv.DictReader(csv_bytes.decode().splitlines()))
        out.digest = results_digest(out.doc, csv_bytes)
        return out

    def _write_json(self, name: str, obj) -> None:
        with open(self.dir / name, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _rows(out: OpOutput) -> list[dict]:
    if out.doc is None or not isinstance(out.doc.get("results"), list):
        return []
    return out.doc["results"]


class _McWorkload(Workload):
    yardstick = "array"
    paths = 0
    steps = 0
    wiener_dim = 0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cells_per_scan = self.paths * self.steps * self.wiener_dim
        self.rng_block = (min(1024, self.paths), self.steps, self.wiener_dim)
        self.spec_path = str(self.dir / "integrand.json")

    def work(self, doc: dict) -> dict:
        reports = len(doc["results"])
        return {"reports": reports, "path_steps": reports * self.paths * self.steps}

    def _common_checks(self, out: OpOutput, ids: set[str]) -> list[str]:
        rows = _rows(out)
        problems = []
        if {r.get("id") for r in rows} != ids or len(rows) != len(ids):
            problems.append(f"expected one row per id {sorted(ids)}, got "
                            f"{[r.get('id') for r in rows]}")
        if out.csv_rows is None or len(out.csv_rows) != len(rows):
            problems.append("CSV row count differs from the JSON report count")
        for r in rows:
            if not _finite(r.get("lhs"), r.get("rhs"), r.get("ci_lhs"), r.get("ci_rhs")):
                problems.append(f"{r.get('id')}: non-finite side or half-width")
        return problems


class McConst(_McWorkload):
    """f = 1, ZAKAI-MAIN at p=4: the acceptance criterion 5 shape."""

    name = "mc-const"
    op_s = 0.30
    paths = 8192
    steps = 1024
    wiener_dim = 1

    def prepare(self) -> None:
        super().prepare()
        self._write_json("integrand.json", {
            "dim": 1, "wiener_dim": 1, "horizon": 1.0, "steps": self.steps,
            "rules": [{"range": [0, self.steps], "j": 1, "kind": "const", "c": [1.0]}]})

    def argv(self, index) -> list[str]:
        return ["verify-continuous", "--integrand", self.spec_path, "--p", "4",
                "--ineq", "ZAKAI-MAIN", "--paths", str(self.paths),
                "--seed", str(op_seed(self.name, self.seed, index)),
                "--out", str(self.out_base)]

    def check(self, out: OpOutput) -> list[str]:
        if out.rc != 0:
            return [f"exit code {out.rc}"]
        problems = self._common_checks(out, {"ZAKAI-MAIN"})
        for r in _rows(out):
            # ||W_1||_4^2 = sqrt(E W^4) = sqrt(3); (p-1) * int_0^1 ||1||_2 du = 3
            if r.get("rhs") != 3.0:
                problems.append(f"rhs {r.get('rhs')!r} is not exactly 3")
            if _finite(r.get("lhs"), r.get("ci_lhs")) and \
                    abs(r["lhs"] - math.sqrt(3.0)) > 4.0 * r["ci_lhs"]:
                problems.append(f"lhs {r['lhs']} is more than 4 ci_lhs from sqrt(3)")
            if r.get("verdict") != "satisfied":
                problems.append(f"verdict {r.get('verdict')!r}, expected satisfied")
        return problems

    def tamper(self, doc: dict) -> None:
        doc["results"][0]["rhs"] = 2.0


class McMixed(_McWorkload):
    """Default (all ids) verify-continuous on the spec_mixed2d rule layout,
    with coefficients drawn from the workload seed."""

    name = "mc-mixed"
    op_s = 0.30
    paths = 1024
    steps = 256
    wiener_dim = 2
    IDS = {"C-BURK-1", "C-BURK-2", "ZAKAI-MAIN", "ZAKAI-MAX"}

    def prepare(self) -> None:
        super().prepare()
        rnd = random.Random(f"{self.name}:{self.seed}")

        def c():
            return [rnd.uniform(-1.0, 1.0), rnd.uniform(-1.0, 1.0)]
        self._write_json("integrand.json", {
            "dim": 2, "wiener_dim": 2, "horizon": 2.0, "steps": self.steps,
            "rules": [
                {"range": [0, 128], "j": 1, "kind": "const", "c": c()},
                {"range": [128, 256], "j": 1, "kind": "lin", "k": 2, "c": c()},
                {"range": [64, 192], "j": 2, "kind": "sign", "k": 1, "c": c()}]})

    def argv(self, index) -> list[str]:
        return ["verify-continuous", "--integrand", self.spec_path, "--p", "4",
                "--paths", str(self.paths),
                "--seed", str(op_seed(self.name, self.seed, index)),
                "--out", str(self.out_base)]

    def check(self, out: OpOutput) -> list[str]:
        if out.rc not in (0, 2):     # 2 = an inconclusive verdict, not a failure
            return [f"exit code {out.rc}"]
        problems = self._common_checks(out, self.IDS)
        for r in _rows(out):
            if r.get("verdict") == "violation-candidate":
                problems.append(f"{r.get('id')}: violation-candidate")
        return problems

    def tamper(self, doc: dict) -> None:
        doc["results"][0]["verdict"] = "violation-candidate"


_SWEEP_LINE = re.compile(r"^(\d+) checks on (\d+) trees: (\d+) satisfied, (\d+) violations$",
                         re.MULTILINE)


class TreeSweep(Workload):
    """random-trees over every level, five exponents and six ids, with --out."""

    name = "tree-sweep"
    op_s = 0.47
    count = 40

    def argv(self, index) -> list[str]:
        return ["random-trees", "--count", str(self.count), "--max-depth", "5",
                "--max-dim", "3", "--p", "2", "2.5", "3", "4", "8",
                "--seed", str(op_seed(self.name, self.seed, index)),
                "--out", str(self.out_base)]

    def check(self, out: OpOutput) -> list[str]:
        if out.rc != 0:
            return [f"exit code {out.rc}"]
        rows = _rows(out)
        match = _SWEEP_LINE.search(out.text)
        if match is None:
            return ["no summary line on stdout"]
        reports, trees = int(match.group(1)), int(match.group(2))
        problems = []
        if trees != self.count:
            problems.append(f"{trees} trees, expected {self.count}")
        if len(rows) != reports:
            problems.append(f"{len(rows)} JSON rows for {reports} reports")
        if out.csv_rows is None or len(out.csv_rows) != reports:
            problems.append("CSV row count differs from the report count")
        if not rows:
            problems.append("no report rows")
        bad = [r for r in rows if r.get("satisfied") is not True
               or r.get("verdict") != "satisfied"]
        if bad:
            problems.append(f"{len(bad)} rows not satisfied")
        for r in rows:
            # PROP1-MAIN at p=2 is the orthogonality identity
            if r.get("id") == "PROP1-MAIN" and r.get("p") == 2.0 and \
                    not abs(r.get("ratio", math.nan) - 1.0) <= 1e-10:
                problems.append(f"PROP1-MAIN p=2 ratio {r.get('ratio')!r} is not 1")
                break
        return problems

    def tamper(self, doc: dict) -> None:
        doc["results"][-1]["satisfied"] = False

    def work(self, doc: dict) -> dict:
        return {"reports": len(doc["results"]), "trees": self.count}


class TreeSearch(Workload):
    """sharpness random search over depth-6, dim-3 trees, target PROP1-MAIN."""

    name = "tree-search"
    op_s = 0.38
    budget = 32

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config_path = str(self.dir / "config.json")

    def argv(self, index) -> list[str]:
        # the config carries the op's seed, so it is rewritten before every op
        self._write_json("config.json", {
            "family": "RANDOM-TREE", "p": 4.0, "method": "random", "depth": 6,
            "dim": 3, "budget": self.budget, "seed": op_seed(self.name, self.seed, index),
            "target": "PROP1-MAIN"})
        return ["sharpness", "--config", self.config_path, "--out", str(self.out_base)]

    def check(self, out: OpOutput) -> list[str]:
        if out.rc != 0:
            return [f"exit code {out.rc}"]
        res = (out.doc or {}).get("results")
        if not isinstance(res, dict):
            return ["no results object"]
        problems = []
        if res.get("exceeded") is not False:
            problems.append("soundness bound exceeded")
        if res.get("evaluations") != self.budget:
            problems.append(f"{res.get('evaluations')} evaluations, budget {self.budget}")
        ratio = res.get("best_ratio")
        if not (_finite(ratio) and ratio <= 1.0):
            problems.append(f"best_ratio {ratio!r} is not <= 1")
        return problems

    def tamper(self, doc: dict) -> None:
        doc["results"]["exceeded"] = True

    def work(self, doc: dict) -> dict:
        evaluations = doc["results"]["evaluations"]
        return {"reports": evaluations, "trees": evaluations}


WORKLOADS = {w.name: w for w in (McConst, McMixed, TreeSweep, TreeSearch)}
