"""Golden artifacts of `boxqft all --seed 3`, held across changes.

`golden/all_seed3.json` holds every artifact the command writes, parsed:
each CSV as its header and rows of cells as written, and each report JSON as
its schema, command and pass flag (its check records are the rows of the
matching *_checks.csv, which the test requires).  Text cells (check names,
labels, provenances, pass flags) and headers must match exactly.  Numeric
cells must agree to 1e-12 relative, above an absolute floor far below what
the value is checked against: 1e-6 of the row's tolerance for the computed
and expected columns of a check table, and 1e-15 of the column's largest
magnitude elsewhere, so values at the roundoff floor (the ~1e-32 vacuum
variances) may move in their last digits but nowhere near a tolerance.

A change that moves a value beyond this rewrites the golden file and says
so.  Regenerate with

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

import csv
import json
import math
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "all_seed3.json"
ARGS = ["all", "--seed", "3", "--format", "csv"]
REL = 1e-12
CHECK_FLOOR = 1e-6      # of the row's tolerance, in a check table
COLUMN_FLOOR = 1e-15    # of the column's largest magnitude, elsewhere


def parse_artifacts(out: Path) -> dict:
    """{file name: parsed artifact} for every file in an artifact directory."""
    parsed = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            parsed[path.name] = {"header": header, "rows": rows}
        else:
            doc = json.loads(path.read_text())
            parsed[path.name] = {k: doc[k] for k in ("schema", "command", "passed")}
            parsed[path.name]["checks"] = [
                [v if isinstance(v, str) else repr(v) for v in
                 (c["name"], c["computed"], c["expected"], c["provenance"],
                  c["tolerance"], c["passed"])] for c in doc["checks"]]
    return parsed


def run_all(out: Path) -> dict:
    from click.testing import CliRunner
    from boxqft.cli import main
    res = CliRunner().invoke(main, ARGS + ["--out", str(out)])
    assert res.exit_code == 0, res.output
    return parse_artifacts(out)


def _number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _floors(name: str, header, rows):
    """Absolute floor per (row, column) of a golden table."""
    if name.endswith("_checks.csv"):
        tol = header.index("tolerance")
        return [[CHECK_FLOOR * float(row[tol]) if h in ("computed", "expected")
                 else 0.0 for h in header] for row in rows]
    scale = [max((abs(_number(r[j]) or 0.0) for r in rows), default=0.0)
             for j in range(len(header))]
    return [[COLUMN_FLOOR * s for s in scale] for _ in rows]


def table_mismatches(name: str, got: dict, want: dict):
    """Cells of one CSV artifact outside the golden rules, as messages."""
    if got["header"] != want["header"]:
        return [f"{name}: header {got['header']} != {want['header']}"]
    if len(got["rows"]) != len(want["rows"]):
        return [f"{name}: {len(got['rows'])} rows != {len(want['rows'])}"]
    bad = []
    floors = _floors(name, want["header"], want["rows"])
    for i, (row, ref, floor) in enumerate(zip(got["rows"], want["rows"], floors)):
        for col, cell, gold, fl in zip(want["header"], row, ref, floor):
            g, w = _number(cell), _number(gold)
            if w is None or g is None:
                ok = cell == gold
            else:
                ok = abs(g - w) <= REL * abs(w) + fl
            if not ok:
                bad.append(f"{name}[{i}].{col}: {cell} != golden {gold}")
    return bad


def test_all_seed3_matches_golden_artifacts(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_all(tmp_path)
    assert sorted(got) == sorted(golden)
    bad = []
    for name, want in golden.items():
        if name.endswith(".json"):
            # the report's records are the rows of its checks table, exactly
            checks = got[name].pop("checks")
            assert checks == got[name.replace("_report.json", "_checks.csv")]["rows"]
            if got[name] != want:
                bad.append(f"{name}: {got[name]} != {want}")
        else:
            bad += table_mismatches(name, got[name], want)
    assert not bad, "\n".join(bad[:20])


def test_golden_rules_catch_a_moved_value():
    golden = json.loads(GOLDEN.read_text())
    name = "sagnac_regression.csv"
    want = golden[name]
    col = want["header"].index("value")
    moved = json.loads(json.dumps(want))
    w = float(want["rows"][0][col])
    moved["rows"][0][col] = repr(w * (1 + 1e-11))
    assert table_mismatches(name, moved, want)
    moved["rows"][0][col] = repr(w * (1 + 1e-13))
    assert not table_mismatches(name, moved, want)
    # a check's computed value at the roundoff floor may move far below its
    # tolerance, not up to it
    name = "noiseless_checks.csv"
    want = golden[name]
    i = next(i for i, r in enumerate(want["rows"]) if r[0].startswith("vacvar"))
    moved = json.loads(json.dumps(want))
    moved["rows"][i][1] = repr(float(want["rows"][i][4]) * 1e-7)
    assert not table_mismatches(name, moved, want)
    moved["rows"][i][1] = repr(float(want["rows"][i][4]) * 1e-5)
    assert table_mismatches(name, moved, want)
    moved["rows"][i][1] = want["rows"][i][1]
    moved["rows"][i][5] = "False"
    assert table_mismatches(name, moved, want)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        parsed = run_all(Path(tmp))
    for doc in parsed.values():
        doc.pop("checks", None)
    # one artifact row per line, so a moved value shows as a one-line diff
    lines = ",\n".join(
        f"{json.dumps(name)}: {{\"header\": {json.dumps(doc['header'])}, "
        f"\"rows\": [\n  " + ",\n  ".join(json.dumps(r) for r in doc["rows"])
        + "]}" if "header" in doc else f"{json.dumps(name)}: {json.dumps(doc)}"
        for name, doc in sorted(parsed.items()))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + lines + "\n}\n")
    sys.exit(0)
