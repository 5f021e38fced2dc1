import csv
import json

import pytest
import scipy.sparse as sp
from click.testing import CliRunner

from boxqft import measurement

from boxqft.cli import (COMMANDS, DEFAULT_CONFIG, RunReport, cmd_fdt,
                        cmd_homodyne, cmd_threepoint, main, merge_config)
from boxqft.errors import ConfigInvalid


def test_merge_config_validation():
    cfg = merge_config({"threepoint": {"w": 3.0}})
    assert cfg["threepoint"]["w"] == 3.0
    assert cfg["threepoint"]["m"] == DEFAULT_CONFIG["threepoint"]["m"]
    with pytest.raises(ConfigInvalid):
        merge_config({"nonsense": 1})
    with pytest.raises(ConfigInvalid):
        merge_config({"threepoint": {"bogus": 1}})
    with pytest.raises(ConfigInvalid):
        merge_config({"threepoint": 5})


def test_report_bookkeeping(tmp_path):
    rep = RunReport("demo")
    rep.add("a", 1.0, 1.0, "prov", 1e-12)
    rep.add("b", 2.0, 1.0, "prov", 1e-12)
    assert not rep.passed
    doc = json.loads(rep.to_json())
    assert doc["command"] == "demo" and doc["passed"] is False
    assert "runtime" not in json.dumps(doc)  # artifacts carry no timings
    path = tmp_path / "checks.csv"
    rep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "name,computed,expected,provenance,tolerance,passed"
    assert len(lines) == 3


@pytest.fixture(scope="module")
def all_csv_artifacts(tmp_path_factory):
    """Every CSV written by one ``boxqft all --seed 3`` run, read back with
    csv.reader: {file name: (header, rows)}."""
    out = tmp_path_factory.mktemp("all")
    res = CliRunner().invoke(main, ["all", "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    tables = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        tables[path.name] = (header, rows)
    return tables


def test_every_csv_artifact_of_all_parses_to_its_header_width(all_csv_artifacts):
    # provenances such as "vacuum current correlation, space-like p" hold
    # commas, so fields must be quoted where needed
    stems = [cmd.replace("-", "_") for cmd in COMMANDS]
    assert {f"{s}_checks.csv" for s in stems} | {"threepoint_values.csv"} <= \
        set(all_csv_artifacts)
    commas = 0
    for name, (header, rows) in all_csv_artifacts.items():
        assert rows and all(len(row) == len(header) for row in rows), name
        commas += sum("," in field for row in rows for field in row)
    assert commas > 0


# columns that hold labels; every other column of every CSV is a number
TEXT_COLUMNS = {"name", "provenance", "passed", "check", "X", "Y", "norm_tag",
                "state", "component", "config", "observable", "matched_variant"}


def test_every_numeric_csv_field_of_all_parses_as_float(all_csv_artifacts):
    # numpy >= 2 writes repr(np.float64(-3.0)) as "np.float64(-3.0)"
    numeric = 0
    for name, (header, rows) in all_csv_artifacts.items():
        for row in rows:
            for column, field in zip(header, row):
                if column not in TEXT_COLUMNS:
                    try:
                        float(field)
                    except ValueError:
                        pytest.fail(f"{name}: {column} = {field!r}")
                    numeric += 1
    assert numeric > 0


def test_cmd_reports_pass():
    cfg = merge_config(None)
    assert cmd_threepoint(cfg).passed
    assert cmd_fdt(cfg).passed
    assert cmd_homodyne(cfg).passed


def test_cli_threepoint_exit_zero(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["threepoint", "--out", str(tmp_path)])
    assert res.exit_code == 0
    assert (tmp_path / "threepoint_checks.csv").exists()
    assert (tmp_path / "threepoint_report.json").exists()
    assert "PASS" in res.output


def test_cli_check_filter(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["threepoint", "--out", str(tmp_path),
                               "--check", "noiseless combo"])
    assert res.exit_code == 0
    doc = json.loads((tmp_path / "threepoint_report.json").read_text())
    assert len(doc["checks"]) == 1


def test_cli_bad_config_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    runner = CliRunner()
    res = runner.invoke(main, ["threepoint", "--config", str(bad),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2


def test_cli_config_override(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"threepoint": {"w": 4.0, "m": 0.0}}))
    runner = CliRunner()
    res = runner.invoke(main, ["threepoint", "--config", str(cfgfile),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 0
    doc = json.loads((tmp_path / "o" / "threepoint_report.json").read_text())
    by_name = {c["name"]: c for c in doc["checks"]}
    # w^2/8 + m^2/2 at w=4, m=0
    assert by_name["prefactor[mu=nu=3,v=0]"]["expected"] == pytest.approx(2.0)


def test_cli_json_format(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["threepoint", "--out", str(tmp_path),
                               "--format", "json"])
    assert res.exit_code == 0
    assert (tmp_path / "threepoint_report.json").exists()
    assert not (tmp_path / "threepoint_checks.csv").exists()


def test_cli_show_config():
    runner = CliRunner()
    res = runner.invoke(main, ["show-config"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert merge_config(None)["sagnac"]["mass"] == doc["sagnac"]["mass"]


def test_cli_dimension_overflow_exit_one(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"suppression": {"n_max_mode": 400}}))
    runner = CliRunner()
    res = runner.invoke(main, ["suppression", "--config", str(cfgfile),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 1


def _budget_check(report):
    (check,) = [c for c in report.checks if c.name == "darkcount.variance.budget"]
    return check


def test_homodyne_budget_check_compares_the_difference_operator(monkeypatch):
    # the check passes on the real balanced difference (1+x)+(1+x)-(1-x)+(1-x)
    cfg = merge_config(None)
    check = _budget_check(cmd_homodyne(cfg))
    assert check.passed and check.expected > 0
    assert check.computed != 0.0

    # and fails when the x+ half of the operator is dropped: 2x, not 4x
    def without_dagger(x):
        one = sp.identity(x.shape[0], dtype=complex, format="csr")
        return ((one + x) - (one - x)).tocsr()

    monkeypatch.setattr(measurement, "balanced_difference", without_dagger)
    broken = _budget_check(cmd_homodyne(cfg))
    assert not broken.passed
    assert abs(broken.computed - broken.expected / 4) <= 1e-18
