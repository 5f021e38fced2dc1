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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoxQFTError, DimensionOverflow
from .fields import (QuadraticObservable, _vacuum_records,
                     dirac_current_density, stress_tensor_em,
                     stress_tensor_scalar)
from .fock import (DensityOperator, FockSpace, SagnacConfig, SagnacSpecies,
                   StateVector, expectation, sagnac_state)
from .operator import Operator
from .spacetime import FourVector, IntervalClass, classify_interval

# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class MeasurementWindow:
    """Integration region: the full box spatially, duration tau in time.

    envelope "rect": sharp window of length tau centered at t=0.
    envelope "gauss": Gaussian time envelope exp(-t^2/(2 sigma_t^2)); an
    optional spatial Gaussian exp(-|x|^2/(2 sigma_x^2)) replaces the sharp
    box (treated in open space, valid for sigma_x << L).
    """
    tau: float
    envelope: str = "rect"
    sigma_t: Optional[float] = None
    sigma_x: Optional[float] = None

    def __post_init__(self):
        if self.envelope not in ("rect", "gauss"):
            raise BoxQFTError("envelope must be 'rect' or 'gauss'")
        if self.envelope == "gauss" and self.sigma_t is None:
            object.__setattr__(self, "sigma_t", self.tau / 2.0)

    def time_transform(self, omega):
        """integral over the window of e^{i omega t}, elementwise for an
        array of omega."""
        if self.envelope == "rect":
            return self.tau * np.sinc(omega * self.tau / (2 * math.pi))
        return math.sqrt(2 * math.pi) * self.sigma_t * \
            np.exp(-0.5 * (self.sigma_t * omega) ** 2)


def commensurate_tau(energy: float, periods: int = 1) -> float:
    """Duration equal to an integer number of mode periods 2*pi/E."""
    return periods * 2 * math.pi / energy


def _spatial_factor(space: FockSpace, lattice: np.ndarray, target,
                    w: MeasurementWindow, transfer: np.ndarray,
                    p_spatial: np.ndarray) -> np.ndarray:
    """Box (Kronecker) or Gaussian spatial transform of every term, from the
    terms' lattice (n, 3) and four-momentum (n, 4) transfers."""
    if w.sigma_x is None:
        return np.where(np.all(lattice == target, axis=1), space.volume, 0.0)
    d = transfer[:, 1:] + p_spatial   # residual spatial transfer after the weight
    return (math.sqrt(2 * math.pi) * w.sigma_x) ** 3 * \
        np.exp(-0.5 * w.sigma_x ** 2 * np.sum(d * d, axis=1))


def windowed_observable(S: QuadraticObservable,
                        w: MeasurementWindow) -> QuadraticObservable:
    """S integrated over the box and the time window (plain weight)."""
    q, lat = S.transfers()
    factor = _spatial_factor(S.space, lat, (0, 0, 0), w, q, np.zeros(3)) * \
        w.time_transform(q[:, 0])
    return S.weighted(f"{S.label}|win", factor)


def spacelike_windowed_observable(S: QuadraticObservable, p: FourVector,
                                  w: MeasurementWindow) -> QuadraticObservable:
    """Cosine-modulated window: integral of cos(x.p) S(x) over box and tau.

    cos splits into two plane waves, so each mode pair with transfer q gets
    (V/2)[delta(q_sp, -p_sp) T(q0 + p0) + delta(q_sp, +p_sp) T(q0 - p0)].
    """
    space = S.space
    if classify_interval(p) is not IntervalClass.SPACELIKE:
        warnings.warn("readout momentum p is not space-like; vacuum noise "
                      "suppression does not apply", stacklevel=2)
    lat_p = np.array(space.lattice_of(p))
    q, lat = S.transfers()
    factor = 0.5 * _spatial_factor(space, lat, -lat_p, w, q, +p.spatial) * \
        w.time_transform(q[:, 0] + p.t)
    factor = factor + 0.5 * _spatial_factor(space, lat, lat_p, w, q, -p.spatial) * \
        w.time_transform(q[:, 0] - p.t)
    return S.weighted(f"{S.label}|cos", factor)


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
    """<0|S^2|0> - <0|S|0>^2 = |S|0>|^2 for a normal-ordered Hermitian S,
    exactly, from the vacuum column of its terms (fields._vacuum_records)."""
    column = _vacuum_records(space, S.terms, True)[2]
    return float(np.vdot(column, column).real)


def operator_vacuum_variance(space: FockSpace, mat: Operator) -> float:
    """<0|O^2|0> - <0|O|0>^2 for a Hermitian Fock-space operator O.  O|0>
    is O's column at the vacuum, so this is sum_i |O_i0|^2 - |O_00|^2."""
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
                  w: MeasurementWindow, em_config=None) -> float:
    """Expectation of a stress-tensor combination on the vertical-polarization
    counter-propagating state, under the cosine window at p = (0,0,0,2k3)."""
    if selector not in _PHOTON_SELECTORS:
        raise BoxQFTError(f"unknown selector {selector!r}; options: "
                          f"{sorted(_PHOTON_SELECTORS)}")
    state = sagnac_state(space, config)
    p = config.momentum_transfer
    total = 0.0
    for weight, (mu, nu) in _PHOTON_SELECTORS[selector]:
        dens = stress_tensor_em(space, mu, nu, em_config)
        obs = spacelike_windowed_observable(dens, p, w)
        total += weight * expectation(state, obs.matrix()).real
    return total


# ---------------------------------------------------------------------------
# localization window effects


@dataclass(frozen=True)
class LocalizationRow:
    sigma_t: float
    leakage: float
    vacuum_variance: Optional[float]
    observable: Optional[QuadraticObservable] = field(default=None, repr=False,
                                                      compare=False)


@dataclass(frozen=True)
class LocalizationReport:
    envelope: str
    p: Tuple[float, float, float, float]
    rows: Tuple[LocalizationRow, ...]

    def leakage_is_monotone(self) -> bool:
        ls = [r.leakage for r in self.rows]
        return all(b <= a + 1e-15 for a, b in zip(ls, ls[1:]))


def _sine_integral_tail(z: float) -> float:
    """int_z^inf sin(t)/t dt = pi/2 - Si(z), for z >= 0.

    Up to z = 4, pi/2 minus the power series of Si (24 terms reach below
    1e-20 there).  Beyond, the integral along t = z + i*s, s >= 0, which is
    Im(i e^{iz} int_0^inf e^{-s}/(z + i*s) ds), on a 60-node Gauss-Laguerre
    rule: the tail keeps its own relative accuracy where it is small.
    """
    if z <= 4.0:
        term = si = z
        for k in range(1, 25):
            term *= -z * z / ((2 * k) * (2 * k + 1))
            si += term / (2 * k + 1)
        return math.pi / 2 - si
    s, w = np.polynomial.laguerre.laggauss(60)
    return float((1j * np.exp(1j * z) * np.sum(w / (z + 1j * s))).imag)


def _timelike_leakage(pbar3: float, sigma_t: float, envelope: str) -> float:
    """Normalized weight of |N(p - pbar)|^2 in the time-like region.

    The spatial part of N is kept box-sharp (Kronecker), so the leakage is
    the fraction of the time transform beyond |p0| > |pbar3|: erfc for a
    Gaussian.  For a rectangular window of duration tau = 2 sigma_t it is
    the sinc^2 tail (2/pi) int_x^inf sin^2(u)/u^2 du with
    x = |pbar3| tau/2 = |pbar3| sigma_t, in closed form
    2 (sin^2(x)/x + pi/2 - Si(2x))/pi.
    """
    q = abs(pbar3)
    if envelope == "gauss":
        return float(math.erfc(sigma_t * q))
    if envelope == "rect":
        x = q * sigma_t
        head = math.sin(x) ** 2 / x if x else 0.0
        return 2.0 * (head + _sine_integral_tail(2.0 * x)) / math.pi
    raise BoxQFTError("envelope must be 'gauss' or 'rect'")


def localization_effect(pbar: FourVector, sigmas: Sequence[float],
                        envelope: str = "gauss",
                        density: Optional[QuadraticObservable] = None,
                        ) -> LocalizationReport:
    """Leakage of a localized readout window into the time-like region.

    For each time width sigma_t: the normalized leakage weight of
    |N(p-pbar)|^2 over p.p > 0, plus (when a density is given) the exact
    lattice vacuum variance of the correspondingly smeared observable, which
    the row keeps.
    """
    rows = []
    for s in sigmas:
        leak = _timelike_leakage(pbar.z, s, envelope)
        var = obs = None
        if density is not None:
            w = MeasurementWindow(tau=2 * s, envelope="gauss", sigma_t=s) \
                if envelope == "gauss" else MeasurementWindow(tau=2 * s)
            obs = spacelike_windowed_observable(density, pbar, w)
            var = vacuum_variance(density.space, obs)
        rows.append(LocalizationRow(sigma_t=float(s), leakage=leak,
                                    vacuum_variance=var, observable=obs))
    return LocalizationReport(envelope=envelope, p=tuple(pbar.as_array()),
                              rows=tuple(rows))


# ---------------------------------------------------------------------------
# balanced homodyne readout


@dataclass(frozen=True)
class HomodyneConfig:
    """Interaction coefficient alpha, arm attenuation, and phase offsets.

    The reference arm amplitude is 1; the signal arm acquires
    attenuation * exp(i (phase + tune)) * alpha * S.  |alpha*S| << 1 is the
    calibrated linear regime.
    """
    alpha: float
    attenuation: float = 1.0
    phase: float = 0.0
    tune: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.attenuation <= 1.0):
            raise BoxQFTError("attenuation must be in (0, 1]")


@dataclass(frozen=True)
class HomodyneResult:
    exact: float
    linearized: float
    linearization_error: float


def balanced_difference(x: Operator) -> Operator:
    """The balanced readout as an operator, (1 + x)^+ (1 + x) - (1 - x)^+ (1 - x),
    for the signal-arm operator x: the identity and x^+ x cancel, leaving
    2 (x + x^+)."""
    return 2.0 * (x + x.adjoint())


def homodyne_difference(s_value: float, cfg: HomodyneConfig) -> HomodyneResult:
    """Balanced difference |1 + x|^2 - |1 - x|^2 with x the modulated signal.

    For real x the identity gives exactly 4*alpha*S; attenuation and phase
    offsets rescale it to 4*eta*cos(phi)*alpha*S, reported against the ideal
    linearization 4*alpha*S.
    """
    x = cfg.attenuation * np.exp(1j * (cfg.phase + cfg.tune)) * cfg.alpha * s_value
    exact = float(abs(1 + x) ** 2 - abs(1 - x) ** 2)
    linear = 4 * cfg.alpha * s_value
    return HomodyneResult(
        exact=exact,
        linearized=linear,
        linearization_error=abs(exact - linear),
    )


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


def _match_variant(value, main, appendix, tol=1e-9) -> str:
    hits = []
    if abs(value - main) <= tol * max(1.0, abs(main)):
        hits.append("main_text")
    if abs(value - appendix) <= tol * max(1.0, abs(appendix)):
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
