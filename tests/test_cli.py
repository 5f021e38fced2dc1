import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from click.testing import CliRunner

from conftest import csr

from boxqft import cli, measurement

from boxqft.cli import (COMMANDS, DEFAULT_CONFIG, RunReport, cmd_fdt,
                        cmd_homodyne, cmd_noiseless, cmd_sagnac, cmd_threepoint,
                        main, merge_config, write_table)
from boxqft.errors import ConfigInvalid
from boxqft.fields import em_field_strength_density
from boxqft.spacetime import FourVector
from boxqft.spectral import NORM_TAG


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


def test_flag_records_one_or_zero_with_its_pass_state():
    rep = RunReport("demo")
    rep.flag("yes", True, "prov")
    rep.flag("no", np.bool_(False), "prov")
    yes, no = rep.checks
    assert (yes.computed, yes.expected, yes.tolerance, yes.passed) == \
        (1.0, 1.0, 0.5, True)
    assert (no.computed, no.expected, no.tolerance, no.passed) == \
        (0.0, 1.0, 0.5, False)
    assert not rep.passed


def test_write_table_quotes_text_and_writes_repr(tmp_path):
    path = tmp_path / "table.csv"
    text, x = 'a, "quoted" label', 0.1 + 0.2
    write_table(path, ["text", "none", "flag", "count", "value"],
                [(text, None, True, 4, x)])
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["text", "none", "flag", "count", "value"],
            [text, "None", "True", "4", repr(x)]]
    assert b"\r" not in path.read_bytes()


@pytest.fixture(scope="module")
def all_run(tmp_path_factory):
    """One ``boxqft all --seed 3`` run with ``cli.write_table`` wrapped by a
    recorder: (artifact directory, paths written through write_table)."""
    out = tmp_path_factory.mktemp("all")
    written = []

    def recording(path, header, rows):
        written.append(Path(path))
        write_table(path, header, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "write_table", recording)
        res = CliRunner().invoke(main, ["all", "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out, written


def test_every_csv_artifact_is_written_by_write_table(all_run):
    # a table written any other way is in the directory but not recorded
    out, written = all_run
    assert len(written) == len(set(written))
    assert sorted(written) == sorted(out.glob("*.csv"))


@pytest.fixture(scope="module")
def all_csv_artifacts(all_run):
    """Every CSV written by one ``boxqft all --seed 3`` run, read back with
    csv.reader: {file name: (header, rows)}."""
    out, _ = all_run
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


def test_fdt_samples_and_sagnac_regression_tables(all_csv_artifacts):
    header, rows = all_csv_artifacts["fdt_samples.csv"]
    assert header == ["p0", "p1", "p2", "p3", "ReG", "ImG", "beta", "X", "Y",
                      "norm_tag"]
    # two densities x the betas x 3 spatial x 7 frequency samples
    assert len(rows) == 2 * len(DEFAULT_CONFIG["fdt"]["betas"]) * 21
    assert all(row[-1] == NORM_TAG for row in rows)
    header, rows = all_csv_artifacts["sagnac_regression.csv"]
    assert header == ["config", "observable", "n", "value", "paper_value_main",
                      "paper_value_appendix", "defect", "matched_variant"]
    # four configurations x moments n = 1..n_max
    assert len(rows) == 4 * DEFAULT_CONFIG["sagnac"]["n_max"]


def test_noiseless_seed_comes_from_config():
    def projector_values(seed):
        report = cmd_noiseless(merge_config({"seed": seed}))
        return report, [c.computed for c in report.checks
                        if c.name.startswith("projector.")]

    first, values = projector_values(5)
    again, same = projector_values(5)
    _, other = projector_values(6)
    assert first.to_json() == again.to_json()
    assert len(values) == 2 and values == same
    assert other != values


def test_field_strength_sign_folding_gives_the_full_tensor():
    # F^{nu mu} = -F^{mu nu}: six densities and signs must reproduce the
    # tensor of all twelve ordered densities exactly; at beta = inf and the
    # space-like p of the artifacts every entry is zero, so a dropped sign
    # shows only at a thermal beta and a momentum with lines
    space = cli._photon_space(2 * math.pi, 1, caps=(1, 2))
    folded = cli._field_strength_densities(space)
    assert len({id(F) for _, F in folded.values()}) == 6
    full = {I: (1, em_field_strength_density(space, *I)) for I in folded}
    p = FourVector(1.0, 0.0, 0.0, 1.0)
    G_folded, terms_folded = cli._pipeline_tensor(space, folded, p, 0.7)
    G_full, terms_full = cli._pipeline_tensor(space, full, p, 0.7)
    assert np.count_nonzero(G_full) > 0
    assert np.array_equal(G_folded, G_full)
    assert terms_folded == terms_full > 0


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


def test_cli_unknown_format_in_config_exit_two(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"format": "xml"}))
    res = CliRunner().invoke(main, ["threepoint", "--config", str(cfgfile),
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "format" in res.output


@pytest.mark.parametrize("n_random", [0, -4, 2.5, "10", True])
def test_cli_n_random_below_one_or_not_integer_exit_two(tmp_path, n_random):
    # zero random inputs would pass both projector checks vacuously
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"noiseless": {"n_random": n_random}}))
    res = CliRunner().invoke(main, ["noiseless", "--config", str(cfgfile),
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "n_random" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [
    ("n_periods", 0), ("n_periods", -1), ("n_periods", 1.5), ("n_periods", True),
    ("n_max", 0), ("n_max", 7), ("n_max", "4"), ("n_max", False)])
def test_cli_sagnac_counts_out_of_range_exit_two(tmp_path, key, value):
    # n_periods = 0 gives tau = 0, where every signal check passes as 0 = 0;
    # n_max = 0 leaves no moment to report
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"sagnac": {key: value}}))
    res = CliRunner().invoke(main, ["sagnac", "--config", str(cfgfile),
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert f"sagnac.{key}" in res.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_max", [2, 4])
def test_sagnac_defect_provenance_names_the_moments_computed(n_max):
    report = cmd_sagnac(merge_config({"sagnac": {"n_max": n_max}}))
    defects = [c for c in report.checks if c.name.startswith("defect[")]
    assert len(defects) == 4 and report.passed
    assert {c.provenance for c in defects} == {
        f"eigenstate property, moments n<={n_max}"}


def test_single_random_projector_input_is_checked():
    cfg = merge_config({"noiseless": {"n_random": 1}})
    report = RunReport("noiseless")
    cli._tensor_synthetic_checks(report, cfg["noiseless"], 7)
    checks = {c.name: c for c in report.checks}
    for name in ("vector", "tensor"):
        check = checks[f"projector.{name}.transversality"]
        assert check.passed and 0.0 < check.computed < 1e-15
        assert "on 1 random" in check.provenance


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


def test_cli_json_format_writes_no_check_table_for_noiseless(tmp_path):
    # the command used to write its own checks CSV whatever the format
    res = CliRunner().invoke(main, ["noiseless", "--out", str(tmp_path),
                                    "--format", "json"])
    assert res.exit_code == 0
    assert (tmp_path / "noiseless_report.json").exists()
    assert not list(tmp_path.glob("*.csv"))


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
        x = csr(x)
        one = sp.identity(x.shape[0], dtype=complex, format="csr")
        return ((one + x) - (one - x)).tocsr()

    monkeypatch.setattr(measurement, "balanced_difference", without_dagger)
    broken = _budget_check(cmd_homodyne(cfg))
    assert not broken.passed
    assert abs(broken.computed - broken.expected / 4) <= 1e-18
