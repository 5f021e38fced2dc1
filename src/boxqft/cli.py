"""Reproducible experiment driver.

Each subcommand exercises one family of claims on desk-scale lattices and
emits deterministic CSV/JSON artifacts plus a pass/fail summary.  Exit codes:
0 all checks pass, 1 at least one check failed, 2 configuration error.
Timings are printed to the console but never written into artifacts, so two
runs with the same configuration produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import click

from . import measurement, spectral
from .correlators import (OrderingScheme, exact_contour_correlator,
                          insertion, three_point_combination,
                          three_point_T_phi_phi, wick_npoint)
from .errors import BoxQFTError, ConfigInvalid
from .fields import (dirac_current_density, dirac_space_channels,
                     em_field_strength_density, photon_space_channels,
                     scalar_bilinear_density, scalar_density,
                     stress_tensor_scalar)
from .fock import (FockSpace, ModeGrid, SagnacConfig, SagnacSpecies, Species,
                   build_fock_space, sagnac_state, expectation)
from .measurement import (HomodyneConfig, MeasurementWindow, RegressionRow,
                          commensurate_tau, homodyne_difference,
                          localization_effect, spacelike_windowed_observable,
                          vacuum_variance)
from .spacetime import METRIC, FourVector, ctp_contour
from .spectral import (lehmann_spectral_density, noise_exponent_fit,
                       signal_vs_noise_curve, suppression_slope)
from .tensors import (TensorCorrelation, decompose_antisymmetric,
                      decompose_symmetric, decompose_vector,
                      project_noiseless_tensor, project_noiseless_vector,
                      symmetric_model_product_form)

# ---------------------------------------------------------------------------
# configuration


DEFAULT_CONFIG: Dict = {
    "out": "artifacts",
    "seed": 20240613,
    "format": "csv",
    "fdt": {"box": 2 * math.pi, "betas": [0.5, 1.0, 2.0], "tol": 1e-10},
    "suppression": {"box": 2 * math.pi, "n_max_mode": 4,
                    "betas_range": [2.0, 12.0], "n_beta": 21,
                    "samples": [[0.0, 4], [1.0, 5], [0.0, 6], [2.0, 6], [1.0, 7]],
                    "rel_tol": 0.05},
    "noiseless": {"box": 2 * math.pi, "n_max_mode": 6, "variance_tol": 1e-12,
                  "pipeline_tol": 1e-8, "synthetic_tol": 1e-10,
                  "projector_tol": 1e-12, "n_random": 1000},
    "scaling": {"volume": 1.0, "tau_range": [10.0, 100.0], "n_points": 16,
                "exp_tol": 0.1},
    "sagnac": {"box": 2 * math.pi, "mass": 1.0, "k3_mode": 1, "n_periods": 2,
               "n_max": 4, "defect_tol": 1e-10, "signal_tol": 1e-10,
               "extra_pairs": [[1.0, 1], [2.0, 1], [0.5, 2]]},
    "homodyne": {"alphas": [0.02, 0.05, 0.1], "signal": 0.5,
                 "sigmas": [0.8, 1.2, 1.6, 2.0, 2.6], "k3": 1.0},
    "wick": {"box": math.pi / 2, "n_max_per_mode": 10, "betas": [1.0, 2.0, math.inf],
             "tol": 1e-10},
    "threepoint": {"w": 2.0, "m": 1.0, "v": 1.0, "tol": 1e-14},
}


def merge_config(overrides: Optional[dict]) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if not overrides:
        return cfg
    for key, val in overrides.items():
        if key not in cfg:
            raise ConfigInvalid(f"unknown config key {key!r}")
        if isinstance(cfg[key], dict):
            if not isinstance(val, dict):
                raise ConfigInvalid(f"config key {key!r} must be a table")
            for k2, v2 in val.items():
                if k2 not in cfg[key]:
                    raise ConfigInvalid(f"unknown config key {key}.{k2}")
                cfg[key][k2] = v2
        else:
            cfg[key] = val
    if cfg["format"] not in ("csv", "json"):
        raise ConfigInvalid(f"format must be csv or json, not {cfg['format']!r}")
    # counts that would otherwise pass vacuously (0 draws, tau = 0) or crash
    for section, key, hi in (("noiseless", "n_random", math.inf),
                             ("sagnac", "n_periods", math.inf), ("sagnac", "n_max", 6)):
        val = cfg[section][key]
        if isinstance(val, bool) or not isinstance(val, int) or not 1 <= val <= hi:
            raise ConfigInvalid(f"{section}.{key} must be an integer in "
                                f"[1, {hi}], not {val!r}")
    return cfg


# ---------------------------------------------------------------------------
# reports


def write_table(path, header, rows) -> None:
    """Write one CSV artifact: csv quoting, "\n" row ends, and every field
    that is not a str written as its repr (floats round-trip exactly)."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([f if isinstance(f, str) else repr(f) for f in row]
                      for row in rows)


@dataclass
class CheckRecord:
    name: str
    computed: float
    expected: float
    provenance: str
    tolerance: float
    passed: bool


@dataclass
class RunReport:
    command: str
    checks: List[CheckRecord] = field(default_factory=list)

    def add(self, name, computed, expected, provenance, tolerance) -> None:
        self.checks.append(CheckRecord(
            name, float(computed), float(expected), provenance,
            float(tolerance), bool(abs(computed - expected) <= tolerance)))

    def flag(self, name, ok, provenance) -> None:
        """A yes/no check: float(ok) against 1.0 within 0.5."""
        self.add(name, float(ok), 1.0, provenance, 0.5)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        doc = {"schema": "boxqft/report-v1", "command": self.command,
               "passed": self.passed,
               "checks": [asdict(c) for c in self.checks]}
        return json.dumps(doc, sort_keys=True, indent=1)

    def write_csv(self, path) -> None:
        write_table(path, [f.name for f in fields(CheckRecord)],
                    map(astuple, self.checks))


# ---------------------------------------------------------------------------
# shared builders


def _scalar_space(box: float, n_mode: int, mass: float = 0.0,
                  caps=(2, 2)) -> FockSpace:
    grid = ModeGrid(axes=(3,), lengths=(box,), ranges=((-n_mode, n_mode),),
                    species=Species.BOSON, mass=mass)
    return build_fock_space([("phi", grid)], caps[0], caps[1])


def _dirac_space(box: float, n_mode: int, mass: float,
                 caps=(1, 2)) -> FockSpace:
    grid = ModeGrid(axes=(3,), lengths=(box,), ranges=((-n_mode, n_mode),),
                    species=Species.FERMION, mass=mass)
    return build_fock_space(dirac_space_channels(grid), caps[0], caps[1])


def _photon_space(box: float, n_mode: int, caps=(2, 2)) -> FockSpace:
    grid = ModeGrid(axes=(3,), lengths=(box,), ranges=((-n_mode, n_mode),),
                    species=Species.BOSON, mass=0.0)
    return build_fock_space(photon_space_channels(grid), caps[0], caps[1])


# ---------------------------------------------------------------------------
# commands


def cmd_fdt(config: dict, out: Optional[Path] = None) -> RunReport:
    """Detailed balance G(-p) = e^{-beta p0} G(p) on a 2-mode scalar space."""
    cfg = config["fdt"]
    report = RunReport("fdt")
    space = _scalar_space(cfg["box"], 1, mass=0.0, caps=(4, 4))
    densities = [scalar_density(space), scalar_bilinear_density(space)]
    samples = []
    u = 2 * math.pi / cfg["box"]
    for X in densities:
        for beta in cfg["betas"]:
            worst = 0.0
            for n3 in (0, 1, 2):
                for n0 in (-3, -2, -1, 0, 1, 2, 3):
                    p = FourVector(n0 * u, 0.0, 0.0, n3 * u)
                    lhs, rhs, sample = spectral.fdt_ratio(space, X, p, beta)
                    samples.append(sample)
                    if abs(sample.G) > 1e-13:
                        worst = max(worst, abs(lhs - rhs) / abs(sample.G))
            report.add(f"fdt[{X.label},beta={beta}]", worst, 0.0,
                       "detailed balance, thermal eigenstate sum",
                       cfg["tol"])
    if out:
        write_table(out / "fdt_samples.csv",
                    ["p0", "p1", "p2", "p3", "ReG", "ImG", "beta", "X", "Y",
                     "norm_tag"],
                    ([*s.p, s.G.real, s.G.imag, s.beta, s.X, s.Y, s.norm_tag]
                     for s in samples))
    return report


def cmd_suppression(config: dict, out: Optional[Path] = None) -> RunReport:
    """Exponential suppression of space-like correlations versus beta."""
    cfg = config["suppression"]
    report = RunReport("suppression")
    space = _scalar_space(cfg["box"], cfg["n_max_mode"], mass=0.0, caps=(2, 2))
    X = scalar_bilinear_density(space)
    u = 2 * math.pi / cfg["box"]
    betas = np.linspace(cfg["betas_range"][0], cfg["betas_range"][1],
                        cfg["n_beta"])
    rows = []
    for p0_lat, p3_lat in cfg["samples"]:
        p = FourVector(p0_lat * u, 0.0, 0.0, p3_lat * u)
        slope, bound, _ = suppression_slope(space, X, p, betas)
        rel = abs(slope - bound) / abs(bound)
        report.add(f"slope[p0={p0_lat},p3={p3_lat}]", rel, 0.0,
                   "beta-slope of log|G| vs (|p|-|p0|)/2", cfg["rel_tol"])
        report.flag(f"bound[p0={p0_lat},p3={p3_lat}]",
                    slope <= bound * (1 - cfg["rel_tol"]),
                    "suppression at least the damping bound")
        rows.append((p0_lat, p3_lat, slope, bound))
    if out:
        write_table(out / "suppression_fits.csv",
                    ["p0_lat", "p3_lat", "slope", "bound"], rows)
    return report


def _vacuum_variance_cases(box: float):
    u = 2 * math.pi / box
    cases = []
    for p3 in range(2, 7):
        for p0 in range(0, p3):
            cases.append(FourVector(p0 * u, 0.0, 0.0, p3 * u))
    return cases[:12]


def cmd_noiseless(config: dict, out: Optional[Path] = None) -> RunReport:
    """Vacuum variance of space-like windowed observables and tensor zeros."""
    cfg = config["noiseless"]
    report = RunReport("noiseless")
    box = cfg["box"]
    space = _scalar_space(box, cfg["n_max_mode"], mass=0.0, caps=(2, 2))
    t00 = stress_tensor_scalar(space, 0, 0)
    tau = box  # one light-crossing: commensurate with every lattice frequency
    w = MeasurementWindow(tau=tau)
    for p in _vacuum_variance_cases(box):
        obs = spacelike_windowed_observable(t00, p, w)
        var = vacuum_variance(space, obs)
        report.add(f"vacvar[p0={p.t:.3f},p3={p.z:.3f}]", var, 0.0,
                   "space-like windowed T00, exact lattice", cfg["variance_tol"])
    # contrast: a time-like readout momentum resonates with pair creation
    # (massive dispersion keeps E1+E2 > |k1+k2| strictly time-like)
    import warnings
    u = 2 * math.pi / box
    mspace = _scalar_space(box, 2, mass=1.0, caps=(2, 2))
    g = mspace.grid("phi")
    p0_res = g.energy((1,)) + g.energy((2,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p_time = FourVector(p0_res, 0.0, 0.0, u)
        obs = spacelike_windowed_observable(stress_tensor_scalar(mspace, 0, 0),
                                            p_time, w)
    var_t = vacuum_variance(mspace, obs)
    report.flag("vacvar[timelike contrast]", var_t > 1e-6,
                "pair-creation resonance at time-like p")

    # pipeline tensor zeros at beta = inf (structural: no eigenstate pairs)
    _tensor_zero_checks(report, cfg, box)
    # synthetic recovery and projector identities
    _tensor_synthetic_checks(report, cfg, config["seed"])
    return report


def _pipeline_tensor(space: FockSpace, densities: Dict, p: FourVector,
                     beta: float):
    """G[I + J] = s_I s_J G_{X_I X_J}(p) over the index tuples I, J of
    `densities`, which maps I -> (s_I, X_I) with s_I = +-1 (zero elsewhere),
    and the term counts summed over every entry.  Each distinct pair of
    density objects (hashed by identity) is sampled once."""
    rank = len(next(iter(densities)))
    G = np.zeros((4,) * (2 * rank), dtype=complex)
    samples = {}
    terms = 0
    for I, (sI, X) in densities.items():
        for J, (sJ, Y) in densities.items():
            if (X, Y) not in samples:
                samples[X, Y] = lehmann_spectral_density(space, X, Y, p, beta)
            G[I + J] = sI * sJ * samples[X, Y].G
            terms += samples[X, Y].term_count
    return G, terms


def _field_strength_densities(space: FockSpace) -> Dict:
    """(mu, nu) -> (s, F) for mu != nu, one density per unordered pair:
    F^{nu mu} = -F^{mu nu}."""
    fdens = {}
    for mu in range(4):
        for nu in range(mu + 1, 4):
            F = em_field_strength_density(space, mu, nu)
            fdens[mu, nu], fdens[nu, mu] = (1, F), (-1, F)
    return fdens


def _tensor_zero_checks(report: RunReport, cfg: dict, box: float) -> None:
    u = 2 * math.pi / box
    tol = cfg["pipeline_tol"]
    beta = math.inf
    # vector: Dirac current at space-like p
    dspace = _dirac_space(box, 2, mass=1.0, caps=(1, 2))
    jdens = {(mu,): (1, dirac_current_density(dspace, mu)) for mu in range(4)}
    p = FourVector(0.6 * u, 0.0, 0.0, 2 * u)
    Gv, terms = _pipeline_tensor(dspace, jdens, p, beta)
    fit = decompose_vector(TensorCorrelation("vector", p, Gv))
    report.add("pipeline.vector.xi", abs(fit.coefficients["xi"]), 0.0,
               "vacuum current correlation, space-like p", tol)
    report.flag("pipeline.vector.eta_nonneg",
                fit.coefficients["eta"].real >= -1e-10, "eta sign consistency")
    report.add("pipeline.vector.terms", float(terms), 0.0,
               "structural zero: no contributing eigenstate pairs", 0.5)

    # symmetric: scalar stress tensor, one density per unordered pair
    sspace = _scalar_space(box, 2, mass=0.0, caps=(2, 2))
    tdens = {}
    for mu in range(4):
        for nu in range(mu, 4):
            tdens[(mu, nu)] = stress_tensor_scalar(sspace, mu, nu)
    Gs, terms = _pipeline_tensor(
        sspace, {(mu, nu): (1, tdens[tuple(sorted((mu, nu)))])
                 for mu in range(4) for nu in range(4)}, p, beta)
    fit = decompose_symmetric(TensorCorrelation("symmetric2", p, Gs))
    report.add("pipeline.symmetric.v", abs(fit.coefficients["v"]), 0.0,
               "vacuum stress correlation, space-like p", tol)
    report.add("pipeline.symmetric.f", abs(fit.coefficients["f"]), 0.0,
               "vacuum stress correlation, space-like p", tol)
    report.add("pipeline.symmetric.terms", float(terms), 0.0,
               "structural zero", 0.5)

    # antisymmetric: EM field strength
    pspace = _photon_space(box, 2, caps=(2, 2))
    Ga, _ = _pipeline_tensor(pspace, _field_strength_densities(pspace), p, beta)
    report.add("pipeline.antisymmetric.maxG", float(np.max(np.abs(Ga))), 0.0,
               "vacuum F correlation, space-like p", tol)
    fit = decompose_antisymmetric(TensorCorrelation("antisymmetric2", p, Ga))
    for name in ("a", "v", "f"):
        report.add(f"pipeline.antisymmetric.{name}",
                   abs(fit.coefficients[name]), 0.0, "fit of zero data", tol)


def _tensor_synthetic_checks(report: RunReport, cfg: dict, seed: int) -> None:
    rng = np.random.default_rng(seed or 1234)
    tol, ptol = cfg["synthetic_tol"], cfg["projector_tol"]
    p = FourVector(0.0, 0.0, 0.0, 1.0)
    pa = p.as_array()

    G = 2.5 * np.outer(pa, pa)
    fit = decompose_vector(TensorCorrelation("vector", p, G))
    report.add("synthetic.vector.eta", abs(fit.coefficients["eta"] - 2.5), 0.0,
               "planted eta=2.5", tol)
    report.add("synthetic.vector.xi", abs(fit.coefficients["xi"]), 0.0,
               "planted xi=0", tol)

    Gs = symmetric_model_product_form(p, w=1.0, b=0.3, a=0.2)
    fit = decompose_symmetric(TensorCorrelation("symmetric2", p, Gs))
    report.add("synthetic.symmetric.w", abs(fit.coefficients["w"] - 1.0), 0.0,
               "planted w=1", tol)
    report.add("synthetic.symmetric.b", abs(fit.coefficients["b_reduced"] - 0.3),
               0.0, "planted b=0.3 (product form)", tol)
    report.add("synthetic.symmetric.a", abs(fit.coefficients["a_reduced"] - 0.2),
               0.0, "planted a=0.2 (product form)", tol)

    n = cfg["n_random"]
    qa, A, B = _synthetic_projector_inputs(rng, n)
    g = np.diag(METRIC)
    q_low = qa * g
    qnorm = np.linalg.norm(qa, axis=-1)
    At = project_noiseless_vector(A, qa)
    resid = np.abs(np.sum(q_low * At, axis=-1))
    worst_v = float(np.max(resid / (qnorm * np.linalg.norm(At, axis=-1))))
    # transversalize, then the conserved-variant projector must stay
    # transverse and traceless (defects relative to |p| |B~|)
    B = (B + np.swapaxes(B, -1, -2)) / 2
    s = np.sum(q_low * qa, axis=-1)
    proj = np.eye(4) - qa[:, :, None] * q_low[:, None, :] / s[:, None, None]
    Bt = proj @ B @ np.swapaxes(proj, -1, -2)
    Btil = project_noiseless_tensor(Bt, qa, conserved=True)
    tr = np.abs(np.einsum("...mm,m->...", Btil, g))
    div = np.max(np.abs(np.einsum("...m,...mn->...n", q_low, Btil)), axis=-1)
    scale = qnorm * np.linalg.norm(Btil, axis=(-2, -1))
    worst_t = float(np.max(np.maximum(div, tr) / scale))
    report.add("projector.vector.transversality", worst_v, 0.0,
               f"p.A~=0 on {n} random inputs, relative", ptol)
    report.add("projector.tensor.transversality", worst_t, 0.0,
               f"p.B~=0 and trace 0 on {n} random conserved inputs, relative",
               ptol)


def _synthetic_projector_inputs(rng, n: int):
    """n space-like momenta (n, 4) with |p0| < |p3|, complex vectors (n, 4)
    and complex tensors (n, 4, 4), drawn per input in that order."""
    qa = np.zeros((n, 4))
    A = np.empty((n, 4), dtype=complex)
    B = np.empty((n, 4, 4), dtype=complex)
    for i in range(n):
        t, z = rng.normal(), 2.0 + rng.random()
        if abs(t) >= abs(z):
            t = t / (2 * abs(t / z))
        qa[i, 0], qa[i, 3] = t, z
        a = rng.normal(size=8)
        A[i] = a[:4] + 1j * a[4:]
        b = rng.normal(size=32)
        B[i] = (b[:16] + 1j * b[16:]).reshape(4, 4)
    return qa, A, B


def cmd_scaling(config: dict, out: Optional[Path] = None) -> RunReport:
    """Window-duration exponents of the massless vacuum noise."""
    cfg = config["scaling"]
    report = RunReport("scaling")
    t0, t1 = cfg["tau_range"]
    for s_type in ("current", "energy"):
        for D in (1, 2, 3):
            fit = noise_exponent_fit(s_type, D, cfg["volume"], t0, t1,
                                     cfg["n_points"])
            report.add(f"exponent[{s_type},D={D}]", fit.exponent, fit.expected,
                       "log-log fit over one decade", cfg["exp_tol"])
            if out:
                write_table(out / f"noise_{s_type}_D{D}.csv", ["tau", "noise"],
                            fit.points)
    if out:
        taus = list(np.geomspace(0.1, 10.0, 41))
        for D in (1, 2, 3):
            curve = signal_vs_noise_curve(D, 1.0, taus)
            write_table(out / f"fig2_D{D}.csv",
                        ["tau", "signal", "noise", "ratio"], curve.rows)
    return report


def cmd_sagnac(config: dict, out: Optional[Path] = None) -> RunReport:
    """Counter-propagating eigenstate property and signal values."""
    cfg = config["sagnac"]
    report = RunReport("sagnac")
    box = cfg["box"]
    u = 2 * math.pi / box
    k3 = cfg["k3_mode"] * u
    m = cfg["mass"]
    spaces: Dict = {}

    def space_of(scfg: SagnacConfig) -> FockSpace:
        """One Fock space per (species family, mass) for the whole command."""
        dirac = scfg.species in (SagnacSpecies.DIRAC_A, SagnacSpecies.DIRAC_B)
        key = ("dirac" if dirac else scfg.species.value, scfg.mass)
        if key not in spaces:
            if dirac:
                spaces[key] = _dirac_space(box, 2, mass=scfg.mass, caps=(1, 2))
            elif scfg.species is SagnacSpecies.SCALAR:
                spaces[key] = _scalar_space(box, 2, mass=scfg.mass, caps=(2, 2))
            else:
                spaces[key] = _photon_space(box, 2, caps=(2, 2))
        return spaces[key]

    dirac_configs = [SagnacConfig(SagnacSpecies.DIRAC_A, m, k3),
                     SagnacConfig(SagnacSpecies.DIRAC_B, m, k3)]
    configs = dirac_configs + [SagnacConfig(SagnacSpecies.SCALAR, m, k3),
                               SagnacConfig(SagnacSpecies.PHOTON_V, 0.0, k3)]
    rows = measurement.sagnac_regression(space_of, configs,
                                         n_periods=cfg["n_periods"],
                                         n_max=cfg["n_max"])
    for r in rows:
        if r.n == 1:
            report.add(f"defect[{r.config}]", r.defect, 0.0,
                       f"eigenstate property, moments n<={cfg['n_max']}",
                       cfg["defect_tol"])
    # signal values for extra (mass, k3) pairs
    for mass, nk in cfg["extra_pairs"]:
        pair = [SagnacConfig(species, mass, nk * u)
                for species in (SagnacSpecies.DIRAC_A, SagnacSpecies.DIRAC_B)]
        for r in measurement.sagnac_regression(space_of, pair,
                                               cfg["n_periods"], n_max=1):
            report.add(f"signal.{r.config}[m={mass},n={nk}]", r.value,
                       r.paper_value_main,
                       "tau*m/2E" if r.config == "dirac_a" else "tau*k3/2E",
                       cfg["signal_tol"])
    # scalar and photon: record which quoted variant the exact value matches
    for r in rows:
        if r.n == 1 and r.config in ("scalar", "photon_v"):
            report.flag(f"variant[{r.config}]", r.matched_variant != "none",
                        f"matched={r.matched_variant}")
    if out:
        write_table(out / "sagnac_regression.csv",
                    [f.name for f in fields(RegressionRow)], map(astuple, rows))
        _write_current_component_table(out, space_of(dirac_configs[0]),
                                       dirac_configs, cfg["n_periods"])
    return report


def _write_current_component_table(out: Path, space: FockSpace, configs,
                                   n_periods) -> None:
    """All four current components for both Dirac states.  The two states
    share tau and the readout momentum (0, 0, 0, 2 k3), so each windowed
    current and each state is built once."""
    w = MeasurementWindow(tau=commensurate_tau(configs[0].energy, n_periods))
    currents = [spacelike_windowed_observable(
        dirac_current_density(space, mu), configs[0].momentum_transfer,
        w).matrix() for mu in range(4)]
    states = [sagnac_state(space, cfg) for cfg in configs]
    write_table(out / "dirac_current_components.csv",
                ["state", "component", "value"],
                ((cfg.species.value, f"j{mu}", expectation(state, current).real)
                 for cfg, state in zip(configs, states)
                 for mu, current in enumerate(currents)))


def cmd_homodyne(config: dict, out: Optional[Path] = None) -> RunReport:
    """Balanced difference signal and dark-count suppression."""
    cfg = config["homodyne"]
    report = RunReport("homodyne")
    sbar = cfg["signal"]
    for alpha in cfg["alphas"]:
        res = homodyne_difference(sbar, HomodyneConfig(alpha=alpha))
        report.add(f"difference[alpha={alpha}]", res.exact, 4 * alpha * sbar,
                   "|1+aS|^2-|1-aS|^2 = 4aS for real aS", 1e-14)
    res = homodyne_difference(0.0, HomodyneConfig(alpha=cfg["alphas"][0]))
    report.add("difference[vacuum]", res.exact, 0.0, "no particle, no signal",
               1e-15)
    # phase pi/2 kills the signal; the tuning offset restores it
    res = homodyne_difference(sbar, HomodyneConfig(alpha=0.1, phase=math.pi / 2))
    report.add("difference[phase=pi/2]", res.exact, 0.0,
               "quadrature phase removes the signal", 1e-12)
    res = homodyne_difference(sbar, HomodyneConfig(alpha=0.1, phase=math.pi / 2,
                                                   tune=-math.pi / 2))
    report.add("difference[retuned]", res.exact, 4 * 0.1 * sbar,
               "tuning offset restores the signal", 1e-14)

    # dark counts: vacuum variance of the localized observable vs leakage
    box = 2 * math.pi
    space = _scalar_space(box, 4, mass=0.0, caps=(2, 2))
    dens = stress_tensor_scalar(space, 0, 0)
    pbar = FourVector(0.0, 0.0, 0.0, 2 * cfg["k3"])
    rep = localization_effect(pbar, cfg["sigmas"], envelope="gauss",
                              density=dens)
    report.flag("leakage.monotone", rep.leakage_is_monotone(),
                "Gaussian leakage decreases with sigma_t")
    variances = [r.vacuum_variance for r in rep.rows]
    mono = all(b <= a + 1e-18 for a, b in zip(variances, variances[1:]))
    report.flag("darkcount.variance.monotone", mono,
                "vacuum variance decreases with sigma_t")
    # vacuum variance of the balanced difference |1+x|^2 - |1-x|^2 as an
    # operator, x = alpha*S at the widest sigma_t; exactly 4x for Hermitian S
    alpha = cfg["alphas"][0]
    widest = max(rep.rows, key=lambda r: r.sigma_t)
    budget = (4 * alpha) ** 2 * widest.vacuum_variance
    diff = measurement.balanced_difference(alpha * widest.observable.matrix())
    diff_var = measurement.operator_vacuum_variance(space, diff)
    report.add("darkcount.variance.budget", diff_var, budget,
               "vacuum variance of the balanced difference operator vs "
               "(4 alpha)^2 var(S) at the widest sigma_t", 1e-18)
    if out:
        write_table(out / "homodyne_localization.csv",
                    ["sigma_t", "leakage", "vacuum_variance"],
                    ((r.sigma_t, r.leakage, r.vacuum_variance)
                     for r in rep.rows))
    return report


def _wick_catalog(space: FockSpace, channel: str, contour, modes) -> List[List]:
    """Deterministic 2- and 4-point insertion lists over branches and times."""
    times = (0.0, 0.35, 0.8)
    cases = []
    m0, m1 = modes[0], modes[1 % len(modes)]
    for b1 in (0, 1):
        for b2 in (0, 1):
            for t1 in times[:2]:
                for t2 in times[1:]:
                    cases.append([(channel, m0, "a", contour.time(b1, t1)),
                                  (channel, m0, "c", contour.time(b2, t2))])
    cases.append([(channel, m0, "c", contour.time(0, 0.0)),
                  (channel, m0, "a", contour.time(1, 0.5))])
    for b in (0, 1):
        cases.append([
            (channel, m0, "a", contour.time(b, 0.0)),
            (channel, m0, "c", contour.time(1 - b, 0.35)),
            (channel, m0, "a", contour.time(1, 0.6)),
            (channel, m0, "c", contour.time(0, 0.9)),
        ])
        cases.append([
            (channel, m0, "a", contour.time(0, 0.1)),
            (channel, m1, "c", contour.time(b, 0.4)),
            (channel, m1, "a", contour.time(1, 0.7)),
            (channel, m0, "c", contour.time(1, 0.2)),
        ])
        cases.append([
            (channel, m0, "c", contour.time(b, 0.25)),
            (channel, m0, "c", contour.time(1, 0.5)),
            (channel, m0, "a", contour.time(0, 0.75)),
            (channel, m0, "a", contour.time(1 - b, 0.05)),
        ])
    return cases


def cmd_wick_check(config: dict, out: Optional[Path] = None) -> RunReport:
    """Wick engine against the exact-diagonalization oracle."""
    cfg = config["wick"]
    report = RunReport("wick")
    box = cfg["box"]
    bos_grid = ModeGrid(axes=(3,), lengths=(box,), ranges=((1, 3),),
                        species=Species.BOSON, mass=0.0)
    bos = build_fock_space([("phi", bos_grid)], cfg["n_max_per_mode"], 24)
    fer_grid = ModeGrid(axes=(3,), lengths=(box,), ranges=((1, 3),),
                        species=Species.FERMION, mass=0.0)
    fer = build_fock_space([("psi", fer_grid)], 1, 3)
    contour = ctp_contour(math.inf, 2)
    for label, space, channel in (("boson", bos, "phi"), ("fermion", fer, "psi")):
        modes = list(space.grid(channel).modes)
        for beta in cfg["betas"]:
            worst = 0.0
            for case in _wick_catalog(space, channel, contour, modes):
                ins = [insertion(space, ch, n, kind, t) for ch, n, kind, t in case]
                engine = wick_npoint(ins, beta)
                oracle = exact_contour_correlator(space, ins, beta)
                scale = max(1.0, abs(oracle))
                worst = max(worst, abs(engine - oracle) / scale)
            report.add(f"wick[{label},beta={beta}]", worst, 0.0,
                       "engine vs exact diagonalization", cfg["tol"])
    return report


def cmd_threepoint(config: dict, out: Optional[Path] = None) -> RunReport:
    """Closed-form three-point prefactors."""
    cfg = config["threepoint"]
    report = RunReport("threepoint")
    wv, m, v = cfg["w"], cfg["m"], cfg["v"]
    k = FourVector(0.0, 0.0, 0.0, wv)
    p = FourVector(0.0, 0.0, 0.0, wv / 2)
    q = FourVector(0.0, 0.0, 0.0, wv / 2)
    res = three_point_T_phi_phi(k, p, q, 3, 3, m)
    report.add("prefactor[mu=nu=3,v=0]", res.numerator.real,
               wv ** 2 / 8 + m ** 2 / 2, "w^2/8 + m^2/2", cfg["tol"])
    pv = FourVector(v, 0.0, 0.0, wv / 2)
    qv = FourVector(-v, 0.0, 0.0, wv / 2)
    weights = ((2.0, (0, 0)), (1.0, (1, 1)), (1.0, (2, 2)))
    res = three_point_combination(k, pv, qv, weights, m)
    report.add("prefactor[noiseless combo]", res.numerator.real, -2 * v ** 2,
               "-2 v^2 for 2T00+T11+T22", cfg["tol"])
    E = math.sqrt(m ** 2 + wv ** 2 / 4)
    pE = FourVector(E, 0.0, 0.0, wv / 2)
    qE = FourVector(-E, 0.0, 0.0, wv / 2)
    res = three_point_combination(k, pE, qE, weights, m,
                                  scheme=OrderingScheme.THREE_BRANCH)
    report.add("prefactor[three-branch on-shell]", res.onshell_prefactor.real,
               -2 * E ** 2, "-2 E^2 on the middle branch", cfg["tol"])
    if out:
        write_table(out / "threepoint_values.csv",
                    ["check", "computed", "expected"],
                    ((c.name, c.computed, c.expected) for c in report.checks))
    return report


COMMANDS = {
    "fdt": cmd_fdt,
    "suppression": cmd_suppression,
    "noiseless": cmd_noiseless,
    "scaling": cmd_scaling,
    "sagnac": cmd_sagnac,
    "homodyne": cmd_homodyne,
    "wick-check": cmd_wick_check,
    "threepoint": cmd_threepoint,
}


# ---------------------------------------------------------------------------
# click wiring


def _run(command: str, config_path, out, seed, check_filter, fmt) -> int:
    try:
        overrides = None
        if config_path:
            overrides = json.loads(Path(config_path).read_text())
        cfg = merge_config(overrides)
        if out:
            cfg["out"] = out
        if seed is not None:
            cfg["seed"] = seed
        if fmt:
            cfg["format"] = fmt
    except (ConfigInvalid, json.JSONDecodeError, OSError) as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [command] if command != "all" else list(COMMANDS)
    ok = True
    for name in names:
        t0 = time.perf_counter()
        try:
            report = COMMANDS[name](cfg, out_dir)
        except ConfigInvalid as exc:
            click.echo(f"config error: {exc}", err=True)
            return 2
        except BoxQFTError as exc:   # DimensionOverflow and friends
            click.echo(f"{name} failed: {exc}", err=True)
            return 1
        dt = time.perf_counter() - t0
        if check_filter:
            report.checks = [c for c in report.checks if check_filter in c.name]
        stem = name.replace("-", "_")
        if cfg["format"] == "csv":
            report.write_csv(out_dir / f"{stem}_checks.csv")
        (out_dir / f"{stem}_report.json").write_text(report.to_json())
        for c in report.checks:
            mark = "PASS" if c.passed else "FAIL"
            click.echo(f"[{mark}] {name}:{c.name} computed={c.computed:.6g} "
                       f"expected={c.expected:.6g} tol={c.tolerance:g}")
        click.echo(f"{name}: {'PASS' if report.passed else 'FAIL'} "
                   f"({len(report.checks)} checks, {dt:.2f}s)")
        ok = ok and report.passed
    return 0 if ok else 1


def _add_common(cmd):
    cmd = click.option("--config", "config_path", type=click.Path(exists=True),
                       default=None, help="JSON config overriding defaults")(cmd)
    cmd = click.option("--out", default=None, help="artifact directory")(cmd)
    cmd = click.option("--seed", default=None, type=int,
                       help="seed for sampled inputs")(cmd)
    cmd = click.option("--check", "check_filter", default=None,
                       help="only report checks whose name contains this")(cmd)
    cmd = click.option("--format", "fmt", default=None,
                       type=click.Choice(["csv", "json"]))(cmd)
    return cmd


@click.group()
def main():
    """Experiment CLI: free relativistic fields in a periodic box and the
    noise structure of space-like-spectrum observables."""


@main.command(name="show-config")
def show_config():
    """Print the in-repo default configuration as JSON."""
    click.echo(json.dumps(DEFAULT_CONFIG, indent=1, sort_keys=True))


def _make_command(name):
    @_add_common
    def cmd(config_path, out, seed, check_filter, fmt):
        raise SystemExit(_run(name, config_path, out, seed, check_filter, fmt))
    cmd.__name__ = name.replace("-", "_")
    return main.command(name=name)(cmd)


for _name in list(COMMANDS) + ["all"]:
    _make_command(_name)


if __name__ == "__main__":
    main()
