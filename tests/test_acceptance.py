"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, matching the contract: run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time

from conftest import BOX, sagnac_space

from boxqft.cli import (cmd_fdt, cmd_homodyne, cmd_noiseless, cmd_sagnac,
                        cmd_scaling, cmd_suppression, cmd_threepoint,
                        cmd_wick_check, merge_config)
from boxqft.fock import SagnacConfig, SagnacSpecies
from boxqft.measurement import sagnac_regression


def _report(number: int, label: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} ({elapsed:.2f}s "
          f"< {limit:.0f}s limit)")
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_eigenstate_property():
    t0 = time.perf_counter()
    u = 2 * math.pi / BOX
    configs = [
        SagnacConfig(SagnacSpecies.DIRAC_A, 1.0, u),
        SagnacConfig(SagnacSpecies.DIRAC_B, 1.0, u),
        SagnacConfig(SagnacSpecies.SCALAR, 1.0, u),
        SagnacConfig(SagnacSpecies.PHOTON_V, 0.0, u),
    ]
    # 1-axis grids with 4 modes, Fock truncation at 2 particles
    rows = sagnac_regression(sagnac_space, configs,
                             n_periods=2, n_max=4)
    worst = max(r.defect for r in rows)
    ok = worst <= 1e-10 and len({r.config for r in rows}) == 4
    _report(1, f"eigenstate defect {worst:.2e} <= 1e-10 for n=1..4, "
               "4 configurations", ok, time.perf_counter() - t0, 30)


def test_criterion_2_signal_values():
    t0 = time.perf_counter()
    cfg = merge_config(None)
    report = cmd_sagnac(cfg)
    ok = report.passed
    # >= 3 (m, k3) pairs per Dirac signal at 1e-10
    names = [c.name for c in report.checks]
    ok = ok and sum(n.startswith("signal.dirac_a") for n in names) >= 3
    ok = ok and sum(n.startswith("signal.dirac_b") for n in names) >= 3
    # the regression table records which quoted variant the oracle matches
    u = 2 * math.pi / BOX
    rows = sagnac_regression(
        sagnac_space,
        [SagnacConfig(SagnacSpecies.SCALAR, 1.0, u),
         SagnacConfig(SagnacSpecies.PHOTON_V, 0.0, u)], n_periods=2, n_max=2)
    variants = {r.config: r.matched_variant for r in rows if r.n == 1}
    ok = ok and variants["scalar"] == "main_text"
    ok = ok and variants["photon_v"] == "main_text"
    _report(2, f"signal values tau*m/2E, tau*k3/2E at 1e-10; variants "
               f"matched: {variants}", ok, time.perf_counter() - t0, 30)


def test_criterion_3_noiseless_vacuum_and_suppression():
    t0 = time.perf_counter()
    cfg = merge_config(None)
    rep_a = cmd_noiseless(cfg)
    var_checks = [c for c in rep_a.checks if c.name.startswith("vacvar[p")]
    ok = len(var_checks) >= 10
    ok = ok and all(c.computed <= 1e-12 for c in var_checks)
    ok = ok and all(c.passed for c in var_checks)
    rep_b = cmd_suppression(cfg)
    ok = ok and rep_b.passed  # fitted slope within 5% of the bound
    worst = max(c.computed for c in var_checks)
    _report(3, f"vacuum variance <= 1e-12 at {len(var_checks)} space-like p "
               f"(worst {worst:.1e}); beta in [2,12] slopes within 5%",
            ok, time.perf_counter() - t0, 120)


def test_criterion_4_fdt():
    t0 = time.perf_counter()
    report = cmd_fdt(merge_config(None))
    worst = max(c.computed for c in report.checks)
    ok = report.passed and worst <= 1e-10
    _report(4, f"detailed balance worst residual {worst:.1e} <= 1e-10, "
               "beta in {0.5, 1, 2}", ok, time.perf_counter() - t0, 60)


def test_criterion_5_tensor_zeros():
    t0 = time.perf_counter()
    cfg = merge_config(None)
    report = cmd_noiseless(cfg)
    by = {c.name: c for c in report.checks}
    ok = all(by[k].passed and by[k].tolerance <= 1e-8 for k in (
        "pipeline.vector.xi", "pipeline.symmetric.v", "pipeline.symmetric.f",
        "pipeline.antisymmetric.maxG"))
    ok = ok and all(by[k].passed and by[k].tolerance <= 1e-10 for k in (
        "synthetic.vector.eta", "synthetic.symmetric.w",
        "synthetic.symmetric.b", "synthetic.symmetric.a"))
    ok = ok and all(by[k].passed and by[k].tolerance <= 1e-12 for k in (
        "projector.vector.transversality", "projector.tensor.transversality"))
    _report(5, "pipeline zeros <= 1e-8, synthetic recovery <= 1e-10, "
               "projector identities <= 1e-12 on 1000 random inputs",
            ok, time.perf_counter() - t0, 60)


def test_criterion_6_scaling_exponents(tmp_path):
    t0 = time.perf_counter()
    report = cmd_scaling(merge_config(None), tmp_path)
    by = {c.name: c for c in report.checks}
    expect = {"exponent[current,D=1]": 0.0, "exponent[current,D=2]": -2.0,
              "exponent[current,D=3]": -4.0, "exponent[energy,D=1]": -2.0,
              "exponent[energy,D=2]": -4.0, "exponent[energy,D=3]": -6.0}
    ok = all(abs(by[k].computed - v) <= 0.1 for k, v in expect.items())
    ok = ok and all((tmp_path / f"fig2_D{d}.csv").exists() for d in (1, 2, 3))
    _report(6, "tau exponents {0,-2,-4} (current), {-2,-4,-6} (energy) "
               "within 0.1; signal/noise data files emitted",
            ok, time.perf_counter() - t0, 60)


def test_criterion_7_threepoint_values():
    t0 = time.perf_counter()
    report = cmd_threepoint(merge_config(None))
    ok = report.passed and all(c.tolerance <= 1e-14 for c in report.checks)
    vals = {c.name: c.computed for c in report.checks}
    _report(7, f"closed-form prefactors {vals} at 1e-14",
            ok, time.perf_counter() - t0, 1)


def test_criterion_8_wick_oracle():
    t0 = time.perf_counter()
    report = cmd_wick_check(merge_config(None))
    worst = max(c.computed for c in report.checks)
    ok = report.passed and worst <= 1e-10
    _report(8, f"Wick engine vs exact diagonalization worst {worst:.1e} "
               "<= 1e-10, both species, beta in {1, 2, inf}",
            ok, time.perf_counter() - t0, 120)


def test_criterion_9_homodyne():
    t0 = time.perf_counter()
    report = cmd_homodyne(merge_config(None))
    ok = report.passed
    _report(9, "difference = 4*alpha*S exactly; vacuum variance within the "
               "localization budget, leakage monotone in sigma_t",
            ok, time.perf_counter() - t0, 30)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    from click.testing import CliRunner
    from boxqft.cli import main
    runner = CliRunner()
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        res = runner.invoke(main, ["all", "--out", str(out)])
        assert res.exit_code == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    ok = files_a == files_b and len(files_a) > 0
    for name in files_a:
        same = (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        ok = ok and same
    _report(10, f"two full runs byte-identical across {len(files_a)} "
                "artifacts", ok, time.perf_counter() - t0, 300)
