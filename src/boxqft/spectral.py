"""Momentum-space spectral densities and their structural properties.

The eigenstate (Lehmann-type) sum is evaluated on the occupation basis, in
which the free Hamiltonian and total momentum are diagonal:

    G_XY(p) = (1/V) sum_{n,m} e^{-beta E_n}/Z  <n|X(p)|m><m|Y(-p)|n>
              * [ |p0 - (E_m - E_n)| <= dw/2 ]

with X(p) the spatial Fourier transform over the box (exact Kronecker
selection by total lattice momentum) and the energy delta binned with width
dw.  The reported value is the bin sum, so isolated lattice lines are stable
under bin halving.

Structural consequences carried by this sum: at beta = inf and space-like p
no eigenstate pair satisfies the constraints (E >= |P| forbids it), so G
vanishes with zero contributing terms; at finite beta the dominant Boltzmann
weight obeys E_min >= (|p| - |p0|)/2, the exponential suppression bound.

Neither the momentum blocks A = X(-lat), B = Y(lat) nor their elementwise
product A∘Bᵀ depends on p0 or beta.  The product's nonzero entries, with
their energy differences, form a LineSpectrum; a sample takes the Boltzmann
weights from thermal_state and evaluates the line spectrum (bin mask,
weighted sum, dominant weight, count).  Entries keep the product's row-major
order, so every sum adds the same numbers in the same order as a sum over a
freshly built product.

Each QuadraticDensity holds one memo slot for the pair {lat, -lat} it was
last asked about: at most two block observables, realized through
QuadraticObservable.matrix(), and its auto line spectra (Y is X) at +-lat.
A request for another |lat| replaces the slot, so memory stays bounded; once
both auto spectra exist the blocks are released.  Cross spectra are built
from the two densities' blocks and not stored.  The slot holds no reference
to its density, so a density is freed by reference counting alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoxQFTError
from .fields import QuadraticDensity, QuadraticObservable
from .fock import FockSpace, thermal_state
from .operator import Operator
from .spacetime import FourVector, minkowski_dot

NORM_TAG = "box: X(p)=int_V e^{-ip.x}X dx; G = binsum/(V); delta0=bin"


@dataclass(frozen=True)
class SpectralSample:
    p: Tuple[float, float, float, float]
    G: complex
    beta: float
    X: str
    Y: str
    norm_tag: str
    dominant_weight: float
    term_count: int
    delta_omega: float


@dataclass(frozen=True)
class LineSpectrum:
    """Nonzero entries of A∘Bᵀ for A = X(-lat), B = Y(lat), row-major.

    Entry k is the transition from state row[k] to state col[k], at energy
    de[k] = E[col] - E[row], with value[k] = A[row, col] * B[col, row].  It
    depends on neither p0 nor beta; a Lehmann sample is a masked sum over it.
    """
    row: np.ndarray
    col: np.ndarray
    de: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        # kept on the density and handed to every caller
        for a in (self.row, self.col, self.de, self.value):
            a.flags.writeable = False

    def evaluate(self, p0: float, weights: np.ndarray,
                 delta_omega: float) -> Tuple[complex, float, int]:
        """(sum of w_row * value, dominant w_row, count) over the entries in
        the bin |p0 - de| <= delta_omega/2 with nonzero weight."""
        mask = np.abs(p0 - self.de) <= delta_omega / 2.0
        mask &= weights[self.row] > 0.0
        w = weights[self.row[mask]]
        dom = float(w.max()) if len(w) else 0.0
        return (self.value[mask] * w).sum(), dom, len(w)


class _MomentumSlot:
    """One density's memo for a pair {lat, -lat}: its momentum-block
    observables and its auto line spectra, keyed by lattice target."""
    __slots__ = ("key", "blocks", "lines")

    def __init__(self, key: frozenset):
        self.key = key
        self.blocks: Dict[Tuple[int, int, int], QuadraticObservable] = {}
        self.lines: Dict[Tuple[int, int, int], LineSpectrum] = {}


def _slot(density: QuadraticDensity, lat: Tuple[int, int, int]) -> _MomentumSlot:
    """The density's memo for the pair {lat, -lat}; a request for another
    pair replaces it."""
    key = frozenset((lat, tuple(-v for v in lat)))
    slot = density._momentum_slot
    if slot is None or slot.key != key:
        slot = density._momentum_slot = _MomentumSlot(key)
    return slot


def _momentum_block(space: FockSpace, density: QuadraticDensity,
                    lattice_target: Tuple[int, int, int]):
    """Fock operator of int_V e^{-ip.x} X(0,x) dx: keeps terms whose spatial
    transfer equals -p (lattice units), weighted by the volume.  Built once
    per slot of the density."""
    target = tuple(lattice_target)
    blocks = _slot(density, target).blocks
    if target not in blocks:
        _, lat = density.transfers()
        hit = np.all(lat == target, axis=1)
        blocks[target] = density.weighted(f"{density.label}(p)",
                                          np.where(hit, space.volume, 0.0))
    return blocks[target].matrix()


def _line_spectrum(space: FockSpace, A: Operator, B: Operator) -> LineSpectrum:
    prod = A.hadamard_transpose(B)               # entries A[n,m] * B[m,n]
    return LineSpectrum(row=prod.row.astype(np.int32),
                        col=prod.col.astype(np.int32),
                        de=space.energies[prod.col] - space.energies[prod.row],
                        value=prod.value)


def line_spectrum(space: FockSpace, X: QuadraticDensity, Y: QuadraticDensity,
                  lat: Tuple[int, int, int]) -> LineSpectrum:
    """Line spectrum of A = X(-lat), B = Y(lat).

    The auto spectrum (Y is X) is kept in X's slot; a cross spectrum is built
    from the two densities' memoized blocks and not stored.
    """
    lat = tuple(lat)
    neg = tuple(-v for v in lat)
    if Y is not X:
        return _line_spectrum(space, _momentum_block(space, X, neg),
                              _momentum_block(space, Y, lat))
    slot = _slot(X, lat)
    if lat not in slot.lines:
        slot.lines[lat] = _line_spectrum(space, _momentum_block(space, X, neg),
                                         _momentum_block(space, X, lat))
        if neg in slot.lines:
            # both auto spectra of the pair exist: the blocks are only
            # needed again by a cross spectrum, which rebuilds them
            slot.blocks.clear()
    return slot.lines[lat]


def default_delta_omega(space: FockSpace) -> float:
    """Bin width: smallest single-mode energy quantum 2*pi*v_c/L over all
    channels and axes, / 8."""
    quantum = min(2 * math.pi * grid.v_c / L
                  for _, grid in space.channels for L in grid.lengths)
    return quantum / 8.0


def lehmann_spectral_density(space: FockSpace, X: QuadraticDensity,
                             Y: QuadraticDensity, p: FourVector, beta: float,
                             delta_omega: Optional[float] = None) -> SpectralSample:
    """Box-normalized eigenstate double sum for G_XY(p).

    Returns the sample together with the dominant Boltzmann weight among
    contributing terms and the number of contributing (n, m) pairs; a zero
    term count at space-like p and beta = inf is the structural statement
    that no eigenstate pair satisfies the energy-momentum constraint.
    """
    if delta_omega is None:
        delta_omega = default_delta_omega(space)
    lines = line_spectrum(space, X, Y, space.lattice_of(p))
    weights = thermal_state(space, beta).diagonal
    p_tuple = tuple(p.as_array().tolist())
    if len(lines.value) == 0:
        return SpectralSample(p_tuple, 0.0, beta, X.label, Y.label,
                              NORM_TAG, 0.0, 0, delta_omega)
    total, dom, count = lines.evaluate(p.t, weights, delta_omega)
    return SpectralSample(p_tuple, complex(total) / space.volume, beta, X.label,
                          Y.label, NORM_TAG, dom, count, delta_omega)


def fdt_ratio(space: FockSpace, X: QuadraticDensity, p: FourVector,
              beta: float, delta_omega: Optional[float] = None):
    """(G(-p), e^{-beta p0} G(p)) for the detailed-balance check."""
    g_plus = lehmann_spectral_density(space, X, X, p, beta, delta_omega)
    g_minus = lehmann_spectral_density(space, X, X, -1.0 * p, beta, delta_omega)
    return g_minus.G, math.exp(-beta * p.t) * g_plus.G, g_plus


def suppression_slope(space: FockSpace, X: QuadraticDensity, p: FourVector,
                      betas: Sequence[float]) -> Tuple[float, float, List[Tuple[float, float]]]:
    """Least-squares beta-slope of log|G| at fixed space-like p.

    Returns (slope, bound, points) where bound = -(|p| - |p0|)/2 is the
    exponential suppression exponent the slope must not exceed.
    """
    pts = []
    for beta in betas:
        s = lehmann_spectral_density(space, X, X, p, beta)
        if abs(s.G) > 0:
            pts.append((float(beta), math.log(abs(s.G))))
    if len(pts) < 2:
        raise BoxQFTError("not enough nonzero samples for a slope fit")
    xs = np.array([b for b, _ in pts])
    ys = np.array([y for _, y in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    bound = -(float(np.linalg.norm(p.spatial)) - abs(p.t)) / 2.0
    return slope, bound, pts


# ---------------------------------------------------------------------------
# massless current spectra and window-noise scaling


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Closed-form massless spectrum: support function per dimension and a
    tensor prefactor, with proportionality constants fixed to 1.

    support: 'lightcone_delta' (D=1), 'inverse_sqrt' (D=2), 'step' (D=3).
    s_type 'current': prefactor (p^mu p^nu - g^{mu nu} p.p);
    s_type 'energy': prefactor |p_spatial|^4 (two more derivatives).
    Evaluation is identically zero for p.p < 0 in every dimension.
    """
    dimension: int
    s_type: str
    support: str

    def tensor_prefactor(self, p: FourVector, mu: int = 1, nu: int = 1) -> float:
        if self.s_type == "energy":
            r2 = float(p.spatial @ p.spatial)
            return r2 * r2
        pa = p.as_array()
        from .spacetime import METRIC
        return float(pa[mu] * pa[nu] - METRIC[mu, nu] * minkowski_dot(p, p))

    def support_value(self, p: FourVector) -> float:
        s = minkowski_dot(p, p)
        if s < 0:
            return 0.0
        if self.support == "lightcone_delta":
            # distributional; finite evaluation only through quadrature
            return math.inf if s == 0 else 0.0
        if self.support == "inverse_sqrt":
            return math.inf if s == 0 else 1.0 / math.sqrt(s)
        return 1.0

    def evaluate(self, p: FourVector, mu: int = 1, nu: int = 1) -> float:
        s = minkowski_dot(p, p)
        if s < 0:
            return 0.0
        return self.tensor_prefactor(p, mu, nu) * self.support_value(p)


_SUPPORTS = {1: "lightcone_delta", 2: "inverse_sqrt", 3: "step"}


def massless_current_spectrum(D: int, s_type: str = "current") -> SpectrumDescriptor:
    if D not in (1, 2, 3):
        raise BoxQFTError("D must be 1, 2 or 3")
    if s_type not in ("current", "energy"):
        raise BoxQFTError("s_type must be 'current' or 'energy'")
    return SpectrumDescriptor(dimension=D, s_type=s_type, support=_SUPPORTS[D])


def _time_window_sq(w: np.ndarray, tau: float, envelope: str) -> np.ndarray:
    """|time transform|^2 for a window of duration tau."""
    if envelope == "rect":
        return (tau * np.sinc(w * tau / (2 * math.pi))) ** 2
    sigma = tau / 2.0
    return 2 * math.pi * sigma ** 2 * np.exp(-(sigma * w) ** 2)


def _box_window_sq(p: np.ndarray, L: float) -> np.ndarray:
    return (L * np.sinc(p * L / (2 * math.pi))) ** 2


def windowed_noise(s_type: str, D: int, V: float, tau,
                   envelope: str = "gauss", n_grid: int = 48):
    """Vacuum noise <Sbar^2> of the box-and-duration windowed observable.

    Quadrature of the massless spectrum against the squared window
    transforms.  ``tau`` is a float (returns a float) or a 1-D array of
    durations (returns an array); the parts of the quadrature that do not
    depend on tau are built once per call.

    D >= 2 uses the Gaussian envelope of width sigma = tau/2 and a
    Gauss-Legendre grid of n_grid nodes per axis on [0, 12/sigma].  In the
    scaled variable u = sigma*p those nodes are fixed, u = 6(x+1), and the
    time part and spectral prefactor depend only on u times a power of
    sigma.  The remaining tau dependence is the box window, which factorizes
    per axis, a_i(tau) = w_i |W_L(u_i/sigma)|^2, so each tau is a contraction
    of one u-space core with a (D=2: a.core.a, D=3: core.a.a.a).

    D = 1 integrates the light-cone branches on a 8*n_grid (at least 256)
    point rule and supports the sharp (rect) envelope too.  Sharp switching
    excites arbitrarily hard modes, so for D >= 2 the integral would be
    dominated by high frequencies, burying the infrared scaling law; a rect
    envelope there is rejected.  Durations below 3*V^(1/D) are warned about.
    """
    import warnings
    massless_current_spectrum(D, s_type)            # validates D and s_type
    if envelope == "rect" and D >= 2:
        raise BoxQFTError("rect time envelopes are only supported in D=1; "
                          "use the Gaussian envelope for D >= 2")
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1:
        raise BoxQFTError("tau must be a float or a 1-D array")
    taus = np.atleast_1d(taus)
    L = V ** (1.0 / D)
    if np.any(taus < 3 * L):
        warnings.warn("windowed_noise assumes tau >> V^(1/D)", stacklevel=2)
    meas = 1.0 / (2 * math.pi) ** (D + 1)

    if D == 1:
        # delta support: p0 = +-|p1|, Jacobian 1/(2|p1|), two branches;
        # one row of nodes per tau
        x, wts = np.polynomial.legendre.leggauss(max(n_grid * 8, 256))
        t = taus[:, None]
        K = 40.0 / t + 16.0 * math.pi / L
        pv = 0.5 * K * (x + 1.0)
        jw = 0.5 * K * wts
        pref = pv ** 2 if s_type == "current" else pv ** 4
        integ = _box_window_sq(pv, L) * pref / pv * _time_window_sq(pv, t, envelope)
        out = 2 * meas * np.sum(jw * integ, axis=1)
        return float(out[0]) if np.ndim(tau) == 0 else out

    x, wg = np.polynomial.legendre.leggauss(n_grid)
    u = 6.0 * (x + 1.0)                      # u = sigma*p on [0, 12]
    uw = 6.0 * wg                            # sigma*dp
    sigma = taus / 2.0
    # a[t, i] = w_i |W_L(u_i/sigma_t)|^2, the per-axis box factor
    a = wg * _box_window_sq(u / sigma[:, None], L)

    if D == 2:
        # substitute p0 = sqrt(s^2 + r^2): 2*int_0^inf ds f(w)/w * [pref];
        # the s-integral is summed into the core
        u1, u2, us = np.meshgrid(u, u, u, indexing="ij")
        r2 = u1 ** 2 + u2 ** 2
        w0 = np.sqrt(us ** 2 + r2)
        pref = (u1 ** 2 + us ** 2) if s_type == "current" else r2 ** 2
        core = (pref * np.exp(-w0 ** 2) / w0) @ uw
        power = -2 if s_type == "current" else -4
        # quadrant symmetry in p1,p2 (x4), two p0 branches via the 2 factor
        out = 4 * 2 * meas * 2 * math.pi * 6.0 ** 2 * sigma ** power * \
            np.einsum("ti,ij,tj->t", a, core, a)
    else:
        # D = 3, theta support: p0 integral in closed form per spatial
        # point; int_{|w|>r} e^{-sigma^2 w^2} dw and the w^2 moment, times
        # sigma^3
        from scipy.special import erfc
        u1, u2, u3 = np.meshgrid(u, u, u, indexing="ij")
        rho = np.sqrt(u1 ** 2 + u2 ** 2 + u3 ** 2)
        i0 = math.sqrt(math.pi) * erfc(rho)
        if s_type == "current":
            # prefactor (p1^2 + w^2 - r^2)
            core = (u1 ** 2 - rho ** 2) * i0 + rho * np.exp(-rho ** 2) + i0 / 2
            power = -4
        else:
            core = rho ** 4 * i0
            power = -6
        n = len(u)
        contracted = np.einsum("tjk,tj,tk->t",
                               (a @ core.reshape(n, n * n)).reshape(-1, n, n),
                               a, a)
        out = 8 * meas * 2 * math.pi * 6.0 ** 3 * sigma ** power * contracted
    return float(out[0]) if np.ndim(tau) == 0 else out


@dataclass(frozen=True)
class NoiseExponentFit:
    s_type: str
    dimension: int
    exponent: float
    expected: float
    points: Tuple[Tuple[float, float], ...]


def noise_exponent_fit(s_type: str, D: int, V: float, tau_min: float,
                       tau_max: float, n_points: int = 16) -> NoiseExponentFit:
    """Least-squares tau-exponent of <Sbar^2> over [tau_min, tau_max].

    Expected exponents: current 2-2D, energy -2D.
    """
    if tau_max < 10 * tau_min * 0.999:
        raise BoxQFTError("fit range must cover at least one decade")
    taus = np.geomspace(tau_min, tau_max, n_points)
    vals = windowed_noise(s_type, D, V, taus)
    coef = np.polyfit(np.log(taus), np.log(vals), 1)
    expected = float(2 - 2 * D) if s_type == "current" else float(-2 * D)
    pts = tuple((float(t), float(v)) for t, v in zip(taus, vals))
    return NoiseExponentFit(s_type, D, float(coef[0]), expected, pts)


# ---------------------------------------------------------------------------
# qualitative signal vs noise curves


@dataclass(frozen=True)
class SignalNoiseCurve:
    dimension: int
    energy: float
    rows: Tuple[Tuple[float, float, float, float], ...]  # tau, signal, noise, ratio
    tau_star: float


def signal_vs_noise_curve(D: int, E: float, taus: Sequence[float]) -> SignalNoiseCurve:
    """Qualitative single-particle signal (~tau) against vacuum noise
    (~tau^(1-D)) with unit prefactors; the crossover is tau* = 1."""
    rows = []
    for tau in taus:
        signal = float(tau)
        noise = float(tau ** (1 - D))
        rows.append((float(tau), signal, noise, signal / noise))
    return SignalNoiseCurve(dimension=D, energy=float(E), rows=tuple(rows),
                            tau_star=1.0)

