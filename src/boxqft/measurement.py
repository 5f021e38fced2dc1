"""Windowed observables, counter-propagating measurement statistics,
localization effects and the balanced homodyne readout model.

The time window is centered on 0, so its transform T(w) = tau*sinc(w*tau/2)
is real; diagonal (zero-transfer) pairs pick up the factor V*tau of the
plain window, while commensurate durations (tau a multiple of 2*pi/E) kill
pair-creation terms exactly and realize the clean eigenstate structure of
counter-propagating superpositions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import BoxQFTError, DimensionMismatch, DimensionOverflow
from .fields import (QuadraticObservable, _check_space, _vacuum_records,
                     dirac_current_density, stress_tensor_em,
                     stress_tensor_scalar)
from .fock import (DensityOperator, FockSpace, SagnacConfig, SagnacSpecies,
                   StateVector, expectation, sagnac_state)
from .operator import Operator
from .spacetime import FourVector, IntervalClass, classify_interval
from .spectral import _check_positive

# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class MeasurementWindow:
    """Integration region: the full box spatially, duration tau in time;
    tau must be finite and > 0 (a zero-length window has no terms, and its
    variance would read as the structural zero).

    envelope "rect": sharp window of length tau centered at t=0.
    envelope "gauss": Gaussian time envelope exp(-t^2/(2 sigma_t^2)) of
    width sigma_t = tau/2.
    """
    tau: float
    envelope: str = "rect"

    def __post_init__(self):
        _check_positive("tau", self.tau)
        if self.envelope not in ("rect", "gauss"):
            raise BoxQFTError("envelope must be 'rect' or 'gauss'")

    def time_transform(self, omega):
        """integral over the window of e^{i omega t}, elementwise for an
        array of omega."""
        if self.envelope == "rect":
            return self.tau * np.sinc(omega * self.tau / (2 * math.pi))
        sigma_t = self.tau / 2.0
        return math.sqrt(2 * math.pi) * sigma_t * \
            np.exp(-0.5 * (sigma_t * omega) ** 2)


def commensurate_tau(energy: float, periods: int = 1) -> float:
    """Duration equal to an integer number of mode periods 2*pi/E."""
    return periods * 2 * math.pi / energy


def _box_windowed(S: QuadraticObservable, w: MeasurementWindow, label: str,
                  targets) -> QuadraticObservable:
    """S under the box window: targets lists (lattice transfer, scale, shift),
    and a term at a target's transfer gets scale * V * T(q0 + shift), summed
    over the targets it meets.  The box is a Kronecker filter, so the terms
    at no target are dropped first and the rest alone are transformed."""
    hits = S.lattice_hits([t for t, _, _ in targets])
    keep = np.flatnonzero(np.logical_or.reduce(hits))
    q0 = S.transfers(keep)[0][:, 0]
    factor = np.zeros(len(keep))
    for hit, (_, scale, shift) in zip(hits, targets):
        on = hit[keep]
        factor[on] += scale * S.space.volume * w.time_transform(q0[on] + shift)
    return S.weighted(label, factor, keep)


def windowed_observable(S: QuadraticObservable,
                        w: MeasurementWindow) -> QuadraticObservable:
    """S integrated over the box and the time window (plain weight).  The
    box keeps the terms at lattice transfer 0 only, and only those are
    transformed."""
    return _box_windowed(S, w, f"{S.label}|win", [((0, 0, 0), 1.0, 0.0)])


def spacelike_windowed_observable(S: QuadraticObservable, p: FourVector,
                                  w: MeasurementWindow) -> QuadraticObservable:
    """Cosine-modulated window: integral of cos(x.p) S(x) over box and tau.

    cos splits into two plane waves, so each mode pair with transfer q gets
    (V/2)[delta(q_sp, -p_sp) T(q0 + p0) + delta(q_sp, +p_sp) T(q0 - p0)].
    The box keeps the terms at lattice transfer -lat(p) or +lat(p) (one
    target when lat(p) = 0), and only those are transformed.
    """
    if classify_interval(p) is not IntervalClass.SPACELIKE:
        warnings.warn("readout momentum p is not space-like; vacuum noise "
                      "suppression does not apply", stacklevel=2)
    lat_p = S.space.lattice_of(p)
    return _box_windowed(S, w, f"{S.label}|cos", [
        (tuple(-v for v in lat_p), 0.5, p.t), (lat_p, 0.5, -p.t)])


# ---------------------------------------------------------------------------
# moments


@dataclass(frozen=True)
class MomentsResult:
    values: Tuple[complex, ...]            # <S^n> for n = 1..n_max
    eigenstate_defect: float

    @property
    def mean(self) -> complex:
        return self.values[0]


def moments(state, S: QuadraticObservable, n_max: int = 4) -> MomentsResult:
    """Exact Fock-space moments <S^n> for n = 1..n_max (n_max <= 6).

    A state vector is propagated by repeated application of S.  A density
    operator is diagonal (a thermal state) and uses Tr(rho S^n) =
    sum_i w_i (S^a S^b)_ii with a = ceil(n/2), b = floor(n/2): the diagonal
    is the row sum of S^a∘(S^b)ᵀ, from Operator powers up to S^ceil(n_max/2),
    so no dense rho is formed.  These diagonals do not depend on the state,
    so S keeps them for the largest n_max asked so far: a later diagonal
    state costs n_max weighted sums and no Operator product.

    Reports the eigenstate defect over n = 2..n_max: max_n |<S^n> - <S>^n| /
    |<S>|^n, and at <S> = 0, where an eigenstate has eigenvalue 0 and every
    moment vanishes, max_n |<S^n>| / (<1> s^n) with <1> the state's squared
    norm or trace and s = max_ij |S_ij|.  Both are unchanged when S is
    rescaled, and vanish iff the state is an eigenstate of S.
    """
    if n_max < 1:
        raise BoxQFTError(f"moments need n_max >= 1, not {n_max!r}")
    if n_max > 6:
        raise DimensionOverflow("operator powers limited to n_max <= 6")
    mat = S.matrix()
    vals: List[complex] = []
    if isinstance(state, StateVector):
        v = state.amplitudes
        norm = np.vdot(v, v).real
        for _ in range(n_max):
            v = mat @ v
            vals.append(complex(np.vdot(state.amplitudes, v)))
    elif isinstance(state, DensityOperator):
        norm = np.sum(state.diagonal)
        vals = [complex(np.sum(state.diagonal * diag))
                for diag in _moment_diagonals(S, n_max)[:n_max]]
    else:
        raise BoxQFTError(f"unsupported state type {type(state)!r}")
    mean = vals[0]
    defect = 0.0
    if abs(mean) > 0:
        for n in range(2, n_max + 1):
            defect = max(defect, abs(vals[n - 1] - mean ** n) / abs(mean) ** n)
    elif mat.nnz:                               # S = 0 has every state as eigenstate
        s = float(np.max(np.abs(mat.value)))
        for n in range(2, n_max + 1):
            defect = max(defect, abs(vals[n - 1]) / (norm * s ** n))
    return MomentsResult(tuple(vals), float(defect))


def _moment_diagonals(S: QuadraticObservable, n_max: int) -> List[np.ndarray]:
    """diag(S^a∘(S^b)ᵀ·1), a = ceil(n/2), b = floor(n/2), for n = 1..n_max
    or more: S's kept list, rebuilt when n_max exceeds it."""
    if len(S._moment_diagonals) < n_max:
        mat = S.matrix()
        powers = [None, mat]                     # powers[k] = S^k
        while len(powers) <= (n_max + 1) // 2:
            powers.append(powers[-1] @ mat)
        ones = np.ones(mat.dim)
        S._moment_diagonals = [mat.diagonal()] + [
            powers[(n + 1) // 2].hadamard_transpose(powers[n // 2]) @ ones
            for n in range(2, n_max + 1)]
    return S._moment_diagonals


def vacuum_variance(space: FockSpace, S: QuadraticObservable) -> float:
    """<0|S^2|0> - <0|S|0>^2 = |S|0>|^2 for a normal-ordered Hermitian S
    on space, exactly, from the vacuum column of its terms
    (fields._vacuum_records)."""
    _check_space(space, S)
    column = _vacuum_records(space, S.terms, True)[2]
    return float(np.vdot(column, column).real)


def operator_vacuum_variance(space: FockSpace, mat: Operator) -> float:
    """<0|O^2|0> - <0|O|0>^2 for a Hermitian Fock-space operator O.  O|0>
    is O's column at the vacuum, so this is sum_i |O_i0|^2 - |O_00|^2.
    O must act on space: its dimension is space's."""
    if mat.dim != space.dim:
        raise DimensionMismatch(f"operator dimension {mat.dim} is not the "
                                f"space's {space.dim}")
    vac = space.state_index(np.zeros(len(space.modes), dtype=np.int8))
    on = mat.col == vac
    column = mat.value[on]
    mean = column[mat.row[on] == vac].sum()
    return float(np.vdot(column, column).real - abs(mean) ** 2)


# ---------------------------------------------------------------------------
# counter-propagating (Sagnac) measurement


_PHOTON_SELECTORS: Dict[str, Sequence[Tuple[float, Tuple[int, int]]]] = {
    "T11+T00": ((1.0, (1, 1)), (1.0, (0, 0))),
    "(T11-T22)/2": ((0.5, (1, 1)), (-0.5, (2, 2))),
    "T11": ((1.0, (1, 1)),),
    "-T22": ((-1.0, (2, 2)),),
    "T00": ((1.0, (0, 0)),),
}


def photon_signal(space: FockSpace, config: SagnacConfig, selector: str,
                  w: MeasurementWindow) -> float:
    """Expectation of a stress-tensor combination on the vertical-polarization
    counter-propagating state, under the cosine window at p = (0,0,0,2k3)."""
    if selector not in _PHOTON_SELECTORS:
        raise BoxQFTError(f"unknown selector {selector!r}; options: "
                          f"{sorted(_PHOTON_SELECTORS)}")
    state = sagnac_state(space, config)
    p = config.momentum_transfer
    total = 0.0
    for weight, (mu, nu) in _PHOTON_SELECTORS[selector]:
        dens = stress_tensor_em(space, mu, nu)
        obs = spacelike_windowed_observable(dens, p, w)
        total += weight * expectation(state, obs.matrix()).real
    return total


# ---------------------------------------------------------------------------
# localization window effects


@dataclass(frozen=True)
class LocalizationRow:
    sigma_t: float
    leakage: float
    vacuum_variance: float
    observable: QuadraticObservable = field(repr=False, compare=False)


def localization_effect(pbar: FourVector, sigmas: Sequence[float],
                        density: QuadraticObservable
                        ) -> Tuple[LocalizationRow, ...]:
    """Leakage of a localized readout window into the time-like region, one
    row per time width.

    For each time width sigma_t: the normalized weight of |N(p-pbar)|^2
    over p.p > 0, and the exact lattice vacuum variance of the density
    under the Gaussian window of duration tau = 2 sigma_t, whose observable
    the row keeps.  The spatial part of N is the box-sharp (Kronecker)
    window, so the leakage is the fraction of the Gaussian time transform
    beyond |p0| > |pbar3|: erfc(sigma_t |pbar3|).
    """
    rows = []
    for s in sigmas:
        obs = spacelike_windowed_observable(
            density, pbar, MeasurementWindow(tau=2 * s, envelope="gauss"))
        rows.append(LocalizationRow(
            sigma_t=float(s), leakage=float(math.erfc(s * abs(pbar.z))),
            vacuum_variance=vacuum_variance(density.space, obs), observable=obs))
    return tuple(rows)


# ---------------------------------------------------------------------------
# balanced homodyne readout


@dataclass(frozen=True)
class HomodyneConfig:
    """Interaction coefficient alpha and phase offsets.

    The reference arm amplitude is 1; the signal arm acquires
    exp(i (phase + tune)) * alpha * S.  |alpha*S| << 1 is the calibrated
    linear regime.
    """
    alpha: float
    phase: float = 0.0
    tune: float = 0.0


def balanced_difference(x: Operator) -> Operator:
    """The balanced readout as an operator, (1 + x)^+ (1 + x) - (1 - x)^+ (1 - x),
    for the signal-arm operator x: the identity and x^+ x cancel, leaving
    2 (x + x^+)."""
    return 2.0 * (x + x.adjoint())


def homodyne_difference(s_value: float, cfg: HomodyneConfig) -> float:
    """Balanced difference |1 + x|^2 - |1 - x|^2 with x the modulated signal.

    For real x the identity gives exactly 4*alpha*S; a phase offset phi
    rescales it to 4*cos(phi)*alpha*S.
    """
    x = np.exp(1j * (cfg.phase + cfg.tune)) * cfg.alpha * s_value
    return float(abs(1 + x) ** 2 - abs(1 - x) ** 2)


# ---------------------------------------------------------------------------
# regression table for the counter-propagating signal values


@dataclass(frozen=True)
class RegressionRow:
    config: str
    observable: str
    n: int
    value: float
    paper_value_main: float
    paper_value_appendix: float
    defect: float
    matched_variant: str


def _match_variant(value, main, appendix) -> str:
    hits = []
    if abs(value - main) <= 1e-9 * max(1.0, abs(main)):
        hits.append("main_text")
    if abs(value - appendix) <= 1e-9 * max(1.0, abs(appendix)):
        hits.append("appendix")
    return "+".join(hits) if hits else "none"


def sagnac_readout(space: FockSpace, cfg: SagnacConfig, tau: float):
    """(label, density, main, appendix): the density that reads out the
    counter-propagating state of cfg on space, and the main-text and
    appendix values of its n=1 signal over the window duration tau."""
    E, m, k3 = cfg.energy, cfg.mass, cfg.k3
    if cfg.species is SagnacSpecies.DIRAC_A:
        value = tau * m / (2 * E)
        return "j0", dirac_current_density(space, 0), value, value
    if cfg.species is SagnacSpecies.DIRAC_B:
        value = tau * k3 / (2 * E)
        return "j1", dirac_current_density(space, 1), value, value
    if cfg.species is SagnacSpecies.SCALAR:
        return "T00", stress_tensor_scalar(space, 0, 0), \
            tau * m * m / (2 * E), tau * m * m / (4 * E)
    return "T11", stress_tensor_em(space, 1, 1), E * tau / 2, tau * E


def sagnac_regression(space_of, configs: Sequence[SagnacConfig],
                      n_periods: int = 2, n_max: int = 4) -> List[RegressionRow]:
    """Signal values and moments for each configuration vs both quoted values.

    space_of(config) -> FockSpace supplies the space the configuration's
    state lives on; sagnac_readout picks the density read out on it.
    """
    rows: List[RegressionRow] = []
    for cfg in configs:
        space = space_of(cfg)
        tau = commensurate_tau(cfg.energy, n_periods)
        label, density, main, appendix = sagnac_readout(space, cfg, tau)
        obs = spacelike_windowed_observable(density, cfg.momentum_transfer,
                                            MeasurementWindow(tau=tau))
        mom = moments(sagnac_state(space, cfg), obs, n_max=n_max)
        for n in range(1, n_max + 1):
            val = mom.values[n - 1].real
            rows.append(RegressionRow(
                config=cfg.species.value, observable=label, n=n, value=val,
                paper_value_main=main ** n, paper_value_appendix=appendix ** n,
                defect=mom.eigenstate_defect,
                matched_variant=_match_variant(val, main ** n, appendix ** n)))
    return rows
