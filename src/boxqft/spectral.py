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
weights from thermal_state and forms a masked sum over the line spectrum
(bin mask, weighted sum, dominant weight, count).  Entries are in the
product's row-major order, so every sum adds the same numbers in the same
order as a sum over a freshly built product.

No block is realized for it.  A unique normal-ordered term changes a basis
state by its own signature (the modes it creates and annihilates), so it
alone fills its entries of a block; the entry of B that meets A[n, m] comes
from the one term of Y whose key is that of the X term's normal-ordered
adjoint.  A line spectrum is therefore a join of X's terms with Y's on
that key, once per term: X's partnered terms are composed through the
matrices' own kernel (fields._compose), and each line reuses the X term's
amplitude for B, negated where two fermionic slots swap.  The exception is
the diagonal at lat = 0, where every number term c_j a_j lands: there each
block's diagonal is summed on its own, in term order, as the block's
canonicalization would sum it.  Values are bit for bit those of the
product of the realized blocks.

At beta = inf all the weight, 1.0, is on the vacuum, so only its row of A
and its column of B contribute.  Both are read from the terms alone
(fields._vacuum_records), and their join on the shared states e_lo + e_hi,
in basis order, is the sample's line spectrum, at energies E_lo + E_hi: bit
for bit the blocks' lines, with no block or ladder operator built.

Both paths refuse hand-built terms that are not unique and normal-ordered;
a builder's terms are so by construction.

Each density holds one memo, a plain dict, for the pair {lat, -lat} it was
last asked about: the block terms of both targets, one auto line spectrum
(Y is X) and its vacuum records.  The block terms are the density's
selection at the pair (QuadraticObservable.select: a builder's density
evaluates its slot matrix at the pair's O(M) partner slots alone, and
never forms its full terms), which a cosine window at the same p shares,
weighted by V in one pass.  The auto spectrum at -lat is the one at
+lat transposed, so the memo keeps only the side a sample asked for first,
and a pair costs one join.  A finite-beta sample at the other side reads it
in place: it selects the lines in the bin at the negated energies (negating
a float is exact), sorts only those into the transposed row-major order and
takes the weights at their columns, so the sum adds the same numbers in the
same order as a sum over the transposed spectrum.  A cross spectrum (Y is
not X), and any spectrum asked of line_spectrum, is joined afresh on each
request.  The memo holds no reference to its density, so a density is freed
by reference counting alone.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoxQFTError
from .fields import (QuadraticObservable, _check_normal_ordered,
                     _check_space, _compose, _vacuum_records, _weighted)
from .fock import FockSpace, thermal_state
from .operator import _cmul, _group_sums
from .spacetime import METRIC, FourVector, minkowski_dot

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


@dataclass(frozen=True)
class LineSpectrum:
    """Nonzero entries of A∘Bᵀ for A = X(-lat), B = Y(lat), row-major.

    Entry k is the transition from state row[k] to state col[k], at energy
    de[k] = E[col] - E[row], with value[k] = A[row, col] * B[col, row].  It
    depends on neither p0 nor beta; a Lehmann sample is a masked sum over it.
    It is joined from the blocks' terms, not from the blocks (see the module
    docstring): off the diagonal each entry pairs one term of X with its
    adjoint term of Y, and the diagonal, at lat = 0 only, pairs the summed
    number terms of each.
    """
    row: np.ndarray
    col: np.ndarray
    de: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        # kept on the density and handed to every caller
        for a in (self.row, self.col, self.de, self.value):
            a.flags.writeable = False


def _memo(space: FockSpace, density: QuadraticObservable,
          lat: Tuple[int, int, int]) -> dict:
    """The density's memo for the pair {lat, -lat}, replacing one for another
    pair; both targets' block terms come from one selection
    (QuadraticObservable.select), which a window at the same pair shares,
    and only they are weighted by V.  Terms given by hand are checked to be
    unique and normal-ordered; a builder's are so by construction."""
    pair = {lat, tuple(-v for v in lat)}
    memo = density._momentum_memo
    if memo is None or memo["terms"].keys() != pair:
        targets = tuple(pair)
        terms, hits = density.select(targets)
        if density._slot_matrix is None:
            _check_normal_ordered(space, terms)
        terms, hits = _weighted(terms, space.volume, hits)
        memo = density._momentum_memo = {"lines": {}, "vacuum": {}, "terms": {
            t: terms[on] for t, on in zip(targets, hits)}}
    return memo


def _vacuum_record(space: FockSpace, density: QuadraticObservable,
                   target: Tuple[int, int, int], creators: bool):
    """The vacuum's column (creators) or row of the momentum block at target,
    from the block terms (fields._vacuum_records), once per memo."""
    memo = _memo(space, density, target)
    if (target, creators) not in memo["vacuum"]:
        memo["vacuum"][target, creators] = _vacuum_records(
            space, memo["terms"][target], creators)
    return memo["vacuum"][target, creators]


def _diagonal(space: FockSpace, terms: np.ndarray) -> np.ndarray:
    """The diagonal of the terms' matrix, each entry summed from zero in term
    order, as Operator.from_triplets sums it."""
    term, src, _, amp = _compose(space, terms)
    return _group_sums(src, _cmul(terms["coeff"][term], amp), space.dim)


def _line_spectrum(space: FockSpace, x_terms: np.ndarray,
                   y_terms: np.ndarray) -> LineSpectrum:
    """A∘Bᵀ from the block terms of A = X(-lat) and B = Y(lat), joined on
    the adjoint key (module docstring).  X's term t fills A[n, m] with
    c_t amp + 0.0, and B[m, n] is c_s (±amp) + 0.0 for its partner s, bit for
    bit what from_triplets would store in the realized blocks.  Both term
    sets come from _memo, unique and normal-ordered."""
    M, dim = len(space.modes), space.dim
    # each X term's adjoint op(r̄) op(l̄), s̄ = s with creator and annihilator
    # swapped, normal-ordered as (lo, hi): swapping two fermionic slots
    # negates it
    left, right = x_terms["left"], x_terms["right"]
    bar_l = np.where(left < 0, -1, (left + M) % (2 * M))
    bar_r = (right + M) % (2 * M)
    lo, hi = np.minimum(bar_l, bar_r), np.maximum(bar_l, bar_r)
    odd = ((bar_l >= 0) & (bar_r > bar_l) & space.fermionic[bar_l % M]
           & space.fermionic[bar_r % M])
    # both keys are unique, and a number term is its own adjoint
    _, i, j = np.intersect1d(
        (lo + 1) * 2 * M + hi, (y_terms["left"] + 1) * 2 * M + y_terms["right"],
        assume_unique=True, return_indices=True)
    x_number, y_number = ((t["left"] >= 0) & (t["left"] + M == t["right"])
                          for t in (x_terms, y_terms))
    i, j = i[~x_number[i]], j[~x_number[i]]
    partner = np.where(odd[i], -y_terms["coeff"][j], y_terms["coeff"][j])
    term, src, tgt, amp = _compose(space, x_terms[i])
    a, b = _cmul(x_terms["coeff"][i][term], amp), _cmul(partner[term], amp)
    a += 0.0                            # -0.0 parts become 0.0, as in a sum
    b += 0.0
    row, col, value = tgt, src, _cmul(a, b)
    if x_number.any() and y_number.any():
        # each state's diagonal entry of A and of B, summed on its own; an
        # auto spectrum at lat = 0 has one diagonal, squared
        a = _diagonal(space, x_terms[x_number])
        diag = _cmul(a, a if y_terms is x_terms else
                     _diagonal(space, y_terms[y_number]))
        on = np.arange(dim)
        row, col = np.concatenate([row, on]), np.concatenate([col, on])
        value = np.concatenate([value, diag])
    # each term's entries ascend: a stable sort merges the runs
    keep = np.flatnonzero(value != 0)
    keep = keep[np.argsort(row[keep] * dim + col[keep], kind="stable")]
    row, col = row[keep].astype(np.int32), col[keep].astype(np.int32)
    return LineSpectrum(row, col, space.energies[col] - space.energies[row],
                        value[keep])


def _auto_lines(space: FockSpace, X: QuadraticObservable,
                lat: Tuple[int, int, int]) -> Tuple[LineSpectrum, bool]:
    """X's auto spectrum at lat as (lines, flipped): the one that X's memo
    keeps for the pair {lat, -lat}, joined at the side asked for first, and
    whether it is the spectrum at -lat, to be read transposed."""
    neg = tuple(-v for v in lat)
    memo = _memo(space, X, lat)
    lines = memo["lines"]
    if lat in lines:
        return lines[lat], False
    if neg in lines:
        return lines[neg], True
    lines[lat] = _line_spectrum(space, memo["terms"][neg], memo["terms"][lat])
    return lines[lat], False


def line_spectrum(space: FockSpace, X: QuadraticObservable,
                  Y: QuadraticObservable,
                  lat: Tuple[int, int, int]) -> LineSpectrum:
    """Line spectrum of A = X(-lat), B = Y(lat), joined afresh from the
    block terms in X's and Y's memos; the spectrum is not stored.  X and Y
    must be densities on space."""
    _check_space(space, X, Y)
    lat = tuple(lat)
    neg = tuple(-v for v in lat)
    return _line_spectrum(space, _memo(space, X, neg)["terms"][neg],
                          _memo(space, Y, lat)["terms"][lat])


def default_delta_omega(space: FockSpace) -> float:
    """Bin width: smallest single-mode energy quantum 2*pi*v_c/L over all
    channels and axes, / 8."""
    quantum = min(2 * math.pi * grid.v_c / L
                  for _, grid in space.channels for L in grid.lengths)
    return quantum / 8.0


def lehmann_spectral_density(space: FockSpace, X: QuadraticObservable,
                             Y: QuadraticObservable, p: FourVector, beta: float,
                             delta_omega: Optional[float] = None) -> SpectralSample:
    """Box-normalized eigenstate double sum for G_XY(p).

    Returns the sample together with the dominant Boltzmann weight among
    contributing terms and the number of contributing (n, m) pairs; a zero
    term count at space-like p and beta = inf is the structural statement
    that no eigenstate pair satisfies the energy-momentum constraint.  X and
    Y must be densities on space.
    """
    _check_space(space, X, Y)
    if delta_omega is None:
        delta_omega = default_delta_omega(space)
    elif (isinstance(delta_omega, bool)
          or not isinstance(delta_omega, numbers.Real) or not delta_omega >= 0):
        # a negative or nan width selects no line and would read as the
        # structural zero
        raise BoxQFTError(f"delta_omega must be None or a number >= 0, "
                          f"not {delta_omega!r}")
    lat = space.lattice_of(p)
    if beta == math.inf:
        # only the vacuum has weight, 1.0: its row of X(-lat) meets its column
        # of Y(lat) on their shared states, joined on keys that ascend in
        # basis order; a product that is exactly zero is no line
        lo, hi, a = _vacuum_record(space, X, tuple(-v for v in lat), False)
        lo_b, hi_b, b = _vacuum_record(space, Y, lat, True)
        M = len(space.modes)
        _, i, j = np.intersect1d(-lo * (M + 1) - hi, -lo_b * (M + 1) - hi_b,
                                 assume_unique=True, return_indices=True)
        value = _cmul(a[i], b[j])
        energy = np.append(space.mode_energies, 0.0)
        de, w = energy[lo[i]] + energy[hi[i]], (value != 0) * 1.0
        # the lines in the bin |p0 - de| <= dw/2 with nonzero weight
        mask = (np.abs(p.t - de) <= delta_omega / 2.0) & (w > 0.0)
        value, w = value[mask], w[mask]
    else:
        lines, flipped = ((line_spectrum(space, X, Y, lat), False)
                          if Y is not X else _auto_lines(space, X, lat))
        if flipped:
            # the lines at -lat read transposed: entry (n, m) is (m, n) at
            # energy -de, exactly, so p0 - (-de) is p0 + de; the lines in the
            # bin, in the transposed spectrum's row-major order
            on = np.flatnonzero(np.abs(p.t + lines.de) <= delta_omega / 2.0)
            on = on[np.argsort(lines.col[on].astype(np.int64) * space.dim
                               + lines.row[on])]
            row = lines.col[on]
        else:
            on = np.flatnonzero(np.abs(p.t - lines.de) <= delta_omega / 2.0)
            row = lines.row[on]
        # their Boltzmann weights; a line of zero weight is dropped
        w = thermal_state(space, beta).diagonal[row]
        kept = w > 0.0
        value, w = lines.value[on][kept], w[kept]
    return SpectralSample(tuple(p.as_array().tolist()),
                          complex((value * w).sum()) / space.volume, beta,
                          X.label, Y.label, NORM_TAG,
                          float(w.max()) if len(w) else 0.0, len(w))


def fdt_ratio(space: FockSpace, X: QuadraticObservable, p: FourVector,
              beta: float):
    """(G(-p), e^{-beta p0} G(p), the sample at p) for the detailed-balance
    check, at the default bin width; beta must be finite, and e^{-beta p0} a
    float."""
    if not math.isfinite(beta):
        # at beta = inf, e^{-beta p0} G(p) is 0 * inf or nan
        raise BoxQFTError(f"detailed balance needs a finite beta, not {beta!r}")
    g_plus = lehmann_spectral_density(space, X, X, p, beta)
    g_minus = lehmann_spectral_density(space, X, X, -1.0 * p, beta)
    try:
        weight = math.exp(-beta * p.t)
    except OverflowError:
        raise BoxQFTError(f"e^(-beta p0) overflows at beta = {beta!r}, "
                          f"p0 = {p.t!r}") from None
    return g_minus.G, weight * g_plus.G, g_plus


def suppression_slope(space: FockSpace, X: QuadraticObservable, p: FourVector,
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
    s_type 'current': prefactor (p^mu p^nu - g^{mu nu} p.p), evaluated at
    mu = nu = 1; s_type 'energy': prefactor |p_spatial|^4 (two more
    derivatives).  Evaluation is identically zero for p.p < 0 in every
    dimension.
    """
    s_type: str
    support: str

    def tensor_prefactor(self, p: FourVector, mu: int = 1, nu: int = 1) -> float:
        if self.s_type == "energy":
            r2 = float(p.spatial @ p.spatial)
            return r2 * r2
        pa = p.as_array()
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

    def evaluate(self, p: FourVector) -> float:
        s = minkowski_dot(p, p)
        if s < 0:
            return 0.0
        return self.tensor_prefactor(p) * self.support_value(p)


_SUPPORTS = {1: "lightcone_delta", 2: "inverse_sqrt", 3: "step"}


def massless_current_spectrum(D: int, s_type: str = "current") -> SpectrumDescriptor:
    if D not in (1, 2, 3):
        raise BoxQFTError("D must be 1, 2 or 3")
    if s_type not in ("current", "energy"):
        raise BoxQFTError("s_type must be 'current' or 'energy'")
    return SpectrumDescriptor(s_type=s_type, support=_SUPPORTS[D])


def _time_window_sq(w: np.ndarray, tau: float) -> np.ndarray:
    """|time transform|^2 for the Gaussian window of duration tau."""
    sigma = tau / 2.0
    return 2 * math.pi * sigma ** 2 * np.exp(-(sigma * w) ** 2)


def _box_window_sq(p: np.ndarray, L: float) -> np.ndarray:
    return (L * np.sinc(p * L / (2 * math.pi))) ** 2


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1]: read-only nodes, weights."""
    return _read_only(*np.polynomial.legendre.leggauss(n))


@functools.lru_cache(maxsize=8)
def _noise_cores(D: int, n_grid: int):
    """The read-only u-space cores of windowed_noise for D = 2 or 3, as
    (current, energy).  Both share one meshgrid (D=2: w0 and exp(-w0^2);
    D=3: rho and i0)."""
    x, wg = _gauss_legendre(n_grid)
    u = 6.0 * (x + 1.0)                      # u = sigma*p on [0, 12]
    if D == 2:
        # substitute p0 = sqrt(s^2 + r^2): 2*int_0^inf ds f(w)/w * [pref];
        # the s-integral is summed into the core
        uw = 6.0 * wg                        # sigma*dp
        u1, u2, us = np.meshgrid(u, u, u, indexing="ij")
        r2 = u1 ** 2 + u2 ** 2
        w0 = np.sqrt(us ** 2 + r2)
        damp = np.exp(-w0 ** 2)
        current = ((u1 ** 2 + us ** 2) * damp / w0) @ uw
        energy = (r2 ** 2 * damp / w0) @ uw
    else:
        # D = 3, theta support: p0 integral in closed form per spatial
        # point; int_{|w|>r} e^{-sigma^2 w^2} dw and the w^2 moment, times
        # sigma^3.  On rho <= 12*sqrt(3) math.erfc is within 3 ulp of the exact
        # value (scipy.special.erfc up to about 250).
        u1, u2, u3 = np.meshgrid(u, u, u, indexing="ij")
        rho = np.sqrt(u1 ** 2 + u2 ** 2 + u3 ** 2)
        erfc = np.fromiter(map(math.erfc, rho.ravel().tolist()), float,
                           count=rho.size).reshape(rho.shape)
        i0 = math.sqrt(math.pi) * erfc
        # prefactor (p1^2 + w^2 - r^2)
        current = (u1 ** 2 - rho ** 2) * i0 + rho * np.exp(-rho ** 2) + i0 / 2
        energy = rho ** 4 * i0
    return _read_only(current, energy)


def _check_count(name: str, value, least: int) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise BoxQFTError(f"{name} must be an integer >= {least}, not {value!r}")


def _check_positive(name: str, value) -> None:
    """Raise unless value, a number or an array of them, is finite and > 0."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf" or not np.all(np.isfinite(a) & (a > 0)):
        raise BoxQFTError(f"{name} must be finite and > 0, not {value!r}")


def windowed_noise(s_type: str, D: int, V: float, tau, n_grid: int = 48):
    """Vacuum noise <Sbar^2> of the box-and-duration windowed observable.

    Quadrature of the massless spectrum against the squared window
    transforms.  ``tau`` is a float (returns a float) or a 1-D array of
    durations (returns an array).  The parts of the quadrature that depend
    on neither tau nor V are built once per process: the Gauss-Legendre
    rule per node count and the u-space cores per (D, n_grid), kept
    read-only in small memos.

    The time window is the Gaussian envelope of width sigma = tau/2.  Sharp
    switching would excite arbitrarily hard modes, so for D >= 2 the
    integral would be dominated by high frequencies, burying the infrared
    scaling law.  D >= 2 uses a Gauss-Legendre grid of n_grid nodes per axis on [0, 12/sigma].  In the
    scaled variable u = sigma*p those nodes are fixed, u = 6(x+1), and the
    time part and spectral prefactor depend only on u times a power of
    sigma.  The remaining tau dependence is the box window, which factorizes
    per axis, a_i(tau) = w_i |W_L(u_i/sigma)|^2, so each tau is a contraction
    of one u-space core with a (D=2: a.core.a, D=3: core.a.a.a).  The D=3
    core takes erfc from the standard library's math.erfc, so the
    quadrature needs no scipy.

    D = 1 integrates the light-cone branches on a 8*n_grid (at least 256)
    point rule.  Durations below 3*V^(1/D) are warned about.
    """
    massless_current_spectrum(D, s_type)            # validates D and s_type
    _check_count("n_grid", n_grid, 1)
    n_grid = int(n_grid)
    _check_positive("V", V)
    _check_positive("tau", tau)
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
        x, wts = _gauss_legendre(max(n_grid * 8, 256))
        t = taus[:, None]
        K = 40.0 / t + 16.0 * math.pi / L
        pv = 0.5 * K * (x + 1.0)
        jw = 0.5 * K * wts
        pref = pv ** 2 if s_type == "current" else pv ** 4
        integ = _box_window_sq(pv, L) * pref / pv * _time_window_sq(pv, t)
        out = 2 * meas * np.sum(jw * integ, axis=1)
        return float(out[0]) if np.ndim(tau) == 0 else out

    x, wg = _gauss_legendre(n_grid)
    u = 6.0 * (x + 1.0)
    sigma = taus / 2.0
    # a[t, i] = w_i |W_L(u_i/sigma_t)|^2, the per-axis box factor
    a = wg * _box_window_sq(u / sigma[:, None], L)
    current, energy = _noise_cores(D, n_grid)
    core = current if s_type == "current" else energy

    if D == 2:
        power = -2 if s_type == "current" else -4
        # quadrant symmetry in p1,p2 (x4), two p0 branches via the 2 factor
        out = 4 * 2 * meas * 2 * math.pi * 6.0 ** 2 * sigma ** power * \
            np.einsum("ti,ij,tj->t", a, core, a)
    else:
        power = -4 if s_type == "current" else -6
        n = len(u)
        contracted = np.einsum("tjk,tj,tk->t",
                               (a @ core.reshape(n, n * n)).reshape(-1, n, n),
                               a, a)
        out = 8 * meas * 2 * math.pi * 6.0 ** 3 * sigma ** power * contracted
    return float(out[0]) if np.ndim(tau) == 0 else out


@dataclass(frozen=True)
class NoiseExponentFit:
    exponent: float
    expected: float
    points: Tuple[Tuple[float, float], ...]


def noise_exponent_fit(s_type: str, D: int, V: float, tau_min: float,
                       tau_max: float, n_points: int = 16) -> NoiseExponentFit:
    """Least-squares tau-exponent of <Sbar^2> over [tau_min, tau_max].

    Expected exponents: current 2-2D, energy -2D.
    """
    _check_positive("tau_min and tau_max", (tau_min, tau_max))
    _check_count("n_points", n_points, 2)
    if tau_max < 10 * tau_min * 0.999:
        raise BoxQFTError("fit range must cover at least one decade")
    taus = np.geomspace(tau_min, tau_max, n_points)
    vals = windowed_noise(s_type, D, V, taus)
    coef = np.polyfit(np.log(taus), np.log(vals), 1)
    expected = float(2 - 2 * D) if s_type == "current" else float(-2 * D)
    pts = tuple((float(t), float(v)) for t, v in zip(taus, vals))
    return NoiseExponentFit(float(coef[0]), expected, pts)


# ---------------------------------------------------------------------------
# qualitative signal vs noise curves


def signal_vs_noise_curve(D: int, taus: Sequence[float]
                          ) -> Tuple[Tuple[float, float, float, float], ...]:
    """Qualitative single-particle signal (~tau) against vacuum noise
    (~tau^(1-D)) with unit prefactors, as rows (tau, signal, noise, ratio);
    the crossover is tau* = 1."""
    rows = []
    for tau in taus:
        signal = float(tau)
        noise = float(tau ** (1 - D))
        rows.append((float(tau), signal, noise, signal / noise))
    return tuple(rows)
