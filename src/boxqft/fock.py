"""Discretized momentum grids, truncated Fock spaces and mode operators.

Momenta live on the reciprocal lattice k_a = 2*pi*n_a/L_a of a periodic box.
Occupation-number bases are enumerated deterministically (modes sorted by
(channel, n1, n2, n3), occupations lexicographic) so that operator matrix
elements, Jordan-Wigner signs and oracle computations all agree on one
ordering.

Grids, states and basis arrays are immutable after construction.  A
FockSpace realizes each ladder operator lazily, on first use, and caches it
on the space; expectation values are pure functions and safe to evaluate in
parallel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import (BoxQFTError, DimensionMismatch, DimensionOverflow,
                     OffLatticeMomentum, UnknownMode)
from .operator import Operator
from .spacetime import FourVector

DIM_LIMIT_DEFAULT = 200_000


class Species(Enum):
    BOSON = "boson"
    FERMION = "fermion"


@dataclass(frozen=True)
class ModeGrid:
    """Momentum modes of one field channel in a periodic box.

    axes: which spatial axes (subset of (1,2,3)) carry modes; D = len(axes).
    ranges: inclusive integer bounds (lo, hi) per axis.
    The k=0 mode is excluded for fermion grids and wherever its energy is
    zero: massless grids, and masses so small that mass**2 underflows
    (dispersionless zero modes break thermal sums and have no finite field
    amplitude 1/sqrt(2 E V), and the helicity spinors are ambiguous at k3=0).
    """
    axes: Tuple[int, ...]
    lengths: Tuple[float, ...]
    ranges: Tuple[Tuple[int, int], ...]
    species: Species
    mass: float = 0.0
    v_c: float = 1.0

    def __post_init__(self):
        if not self.axes or any(a not in (1, 2, 3) for a in self.axes):
            raise BoxQFTError("axes must be a non-empty subset of (1,2,3)")
        if tuple(sorted(self.axes)) != self.axes:
            raise BoxQFTError("axes must be sorted")
        if len(self.lengths) != len(self.axes) or len(self.ranges) != len(self.axes):
            raise BoxQFTError("lengths/ranges must match axes")
        if any(L <= 0 for L in self.lengths):
            raise BoxQFTError("box lengths must be positive")
        if any(lo > hi for lo, hi in self.ranges):
            raise BoxQFTError("mode ranges must satisfy lo <= hi")
        if self.mass < 0 or self.v_c <= 0:
            raise BoxQFTError("mass must be >= 0 and v_c > 0")

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def excludes_zero_mode(self) -> bool:
        return self.mass ** 2 == 0.0 or self.species is Species.FERMION

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def modes(self) -> Tuple[Tuple[int, ...], ...]:
        """Mode index tuples, lexicographically ascending."""
        out = []
        grids = [range(lo, hi + 1) for lo, hi in self.ranges]
        import itertools
        for n in itertools.product(*grids):
            if self.excludes_zero_mode and all(v == 0 for v in n):
                continue
            out.append(tuple(n))
        return tuple(out)

    def lattice3(self, n: Tuple[int, ...]) -> Tuple[int, int, int]:
        """Mode indices padded to all three spatial axes."""
        full = [0, 0, 0]
        for a, v in zip(self.axes, n):
            full[a - 1] = v
        return tuple(full)

    def wavevector(self, n: Tuple[int, ...]) -> np.ndarray:
        k = np.zeros(3)
        for a, L, v in zip(self.axes, self.lengths, n):
            k[a - 1] = 2 * math.pi * v / L
        return k

    def energy(self, n: Tuple[int, ...]) -> float:
        k = self.wavevector(n)
        return math.sqrt(self.mass ** 2 + self.v_c ** 2 * float(k @ k))

    def momentum(self, n: Tuple[int, ...]) -> FourVector:
        k = self.wavevector(n)
        return FourVector(self.energy(n), k[0], k[1], k[2])

    def mode_for_wavenumber(self, k3: float) -> Tuple[int, ...]:
        """Mode tuple whose axis-3 wavenumber equals k3 (single-axis grids)."""
        if self.axes != (3,):
            raise UnknownMode("wavenumber lookup requires a grid on axis 3 only")
        n = k3 * self.lengths[0] / (2 * math.pi)
        n_int = int(round(n))
        if abs(n - n_int) > 1e-9 or (n_int,) not in set(self.modes):
            raise UnknownMode(f"k3={k3} is not a grid mode")
        return (n_int,)


@dataclass(frozen=True)
class Mode:
    channel: str
    n: Tuple[int, ...]


class FockSpace:
    """Truncated occupation-number space over labelled mode grids.

    Basis enumeration: global mode order is (channel order as given, then
    mode tuples lexicographically); basis states are all occupation tuples
    with per-mode caps (1 for fermions) and total cap, listed in
    lexicographic order of the occupation tuple.
    """

    def __init__(self, channels: Sequence[Tuple[str, ModeGrid]],
                 n_max_per_mode: int = 4, n_max_total: int = 4,
                 dim_limit: int = DIM_LIMIT_DEFAULT):
        if n_max_per_mode < 1 or n_max_total < 1:
            raise BoxQFTError("occupation caps must be >= 1")
        self.channels: Tuple[Tuple[str, ModeGrid], ...] = tuple(channels)
        if len({lbl for lbl, _ in self.channels}) != len(self.channels):
            raise BoxQFTError("channel labels must be unique")
        if len({(g.axes, g.lengths) for _, g in self.channels}) > 1:
            raise BoxQFTError("all channels must share one box: the same "
                              "axes and lengths")
        self.n_max_per_mode = int(n_max_per_mode)
        self.n_max_total = int(n_max_total)
        self._grid: Dict[str, ModeGrid] = dict(self.channels)

        modes: List[Mode] = []
        for lbl, grid in self.channels:
            modes.extend(Mode(lbl, n) for n in grid.modes)
        self.modes: Tuple[Mode, ...] = tuple(modes)
        self.mode_index: Dict[Tuple[str, Tuple[int, ...]], int] = {
            (m.channel, m.n): i for i, m in enumerate(self.modes)}

        caps = np.array([1 if self._grid[m.channel].species is Species.FERMION
                         else self.n_max_per_mode for m in self.modes], dtype=np.int64)
        self.caps = caps
        self.fermionic = np.array(
            [self._grid[m.channel].species is Species.FERMION for m in self.modes])

        basis = _enumerate_occupations(caps, self.n_max_total, dim_limit)
        self.occupations = basis                     # (dim, n_modes) int8
        self.dim = basis.shape[0]
        self._keys = _row_keys(basis)                # sorted: basis is lexicographic

        # (n_modes, 4) on-shell four-momenta (E, k1, k2, k3)
        self.mode_momenta = np.array(
            [self._grid[m.channel].momentum(m.n).as_array() for m in self.modes]
        ).reshape(-1, 4)
        self.mode_energies = self.mode_momenta[:, 0].copy()
        self.energies = basis.astype(float) @ self.mode_energies

        lat = np.array([self._grid[m.channel].lattice3(m.n) for m in self.modes],
                       dtype=np.int64)
        self.mode_lattice = lat
        self.lattice_momentum = basis.astype(np.int64) @ lat   # (dim, 3) exact ints

        self._op_cache: Dict[Tuple[str, Tuple[int, ...], str], Operator] = {}

    # -- bookkeeping -------------------------------------------------------

    def grid(self, channel: str) -> ModeGrid:
        try:
            return self._grid[channel]
        except KeyError:
            raise UnknownMode(f"unknown channel {channel!r}")

    def is_fermionic(self, channel: str) -> bool:
        return self.grid(channel).species is Species.FERMION

    @property
    def volume(self) -> float:
        return self.channels[0][1].volume

    def lattice_of(self, p: FourVector) -> Tuple[int, int, int]:
        """Spatial part of p in lattice units of the box; raises
        OffLatticeMomentum unless it is integral on the active axes and zero
        on the others."""
        grid = self.channels[0][1]
        out = [0, 0, 0]
        ps = p.spatial
        for a in (1, 2, 3):
            if a in grid.axes:
                L = grid.lengths[grid.axes.index(a)]
                n = ps[a - 1] * L / (2 * math.pi)
                if abs(n - round(n)) > 1e-9:
                    raise OffLatticeMomentum(f"momentum off lattice on axis {a}")
                out[a - 1] = int(round(n))
            elif abs(ps[a - 1]) > 1e-12:
                raise OffLatticeMomentum(f"momentum on inactive axis {a}")
        return tuple(out)

    def state_index(self, occ) -> int:
        """Position of an occupation row in the basis, by binary search."""
        occ = np.asarray(occ)
        if occ.shape == self.caps.shape and np.all((occ >= 0) & (occ <= self.caps)):
            key = _row_keys(occ[None, :])
            i = int(np.searchsorted(self._keys, key)[0])
            if i < self.dim and self._keys[i] == key[0]:
                return i
        raise UnknownMode("occupation configuration outside the basis")

    # -- operators ----------------------------------------------------------

    def annihilation(self, channel: str, n: Tuple[int, ...]) -> Operator:
        return self._operator(channel, tuple(n), "a")

    def creation(self, channel: str, n: Tuple[int, ...]) -> Operator:
        return self._operator(channel, tuple(n), "c")

    def ladder_map(self, channel: str, n: Tuple[int, ...], kind: str):
        """One ladder operator as a partial index map.

        Returns (source, target, amplitude) arrays sorted by source: the
        operator sends basis state source[i] to amplitude[i] times basis state
        target[i], and every other state to zero.  Each basis state has at
        most one image, so products of ladder operators compose on these
        index arrays.  These are the arrays of the cached operator, realized
        through annihilation/creation, so they are shared, not copied.
        """
        op = (self.creation if kind == "c" else self.annihilation)(channel, n)
        return op.col, op.row, op.value

    def _operator(self, channel, n, kind) -> Operator:
        key = (channel, n, kind)
        if key in self._op_cache:
            return self._op_cache[key]
        if (channel, n) not in self.mode_index:
            raise UnknownMode(f"mode {n} not on channel {channel!r}")
        j = self.mode_index[(channel, n)]
        occ = self.occupations
        src = np.flatnonzero(occ[:, j] > 0)        # states annihilation acts on
        lowered = occ[src]
        lowered[:, j] -= 1
        tgt = np.searchsorted(self._keys, _row_keys(lowered))
        if self.fermionic[j]:
            # Jordan-Wigner string over the fermionic modes preceding j
            parity = lowered[:, :j][:, self.fermionic[:j]].sum(axis=1) % 2
            amp = (1.0 - 2.0 * parity).astype(complex)
        else:
            amp = np.sqrt(occ[src, j].astype(float)).astype(complex)
        # lowering one column keeps lexicographic order, so tgt ascends too:
        # the annihilator's rows tgt and the creator's rows src both ascend,
        # one entry each, which is canonical as built
        self._op_cache[(channel, n, "a")] = Operator(tgt, src, amp, self.dim)
        self._op_cache[(channel, n, "c")] = Operator(src, tgt, amp.conj(), self.dim)
        return self._op_cache[key]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "schema": "boxqft/fockspace-v1",
            "n_max_per_mode": self.n_max_per_mode,
            "n_max_total": self.n_max_total,
            "channels": [
                {"label": lbl, "axes": list(g.axes), "lengths": list(g.lengths),
                 "ranges": [list(r) for r in g.ranges], "species": g.species.value,
                 "mass": g.mass, "v_c": g.v_c}
                for lbl, g in self.channels],
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FockSpace":
        doc = json.loads(text)
        if doc.get("schema") != "boxqft/fockspace-v1":
            raise BoxQFTError("unknown FockSpace schema")
        channels = [
            (c["label"],
             ModeGrid(axes=tuple(c["axes"]), lengths=tuple(c["lengths"]),
                      ranges=tuple(tuple(r) for r in c["ranges"]),
                      species=Species(c["species"]), mass=c["mass"], v_c=c["v_c"]))
            for c in doc["channels"]]
        return FockSpace(channels, doc["n_max_per_mode"], doc["n_max_total"])


def _row_keys(occ: np.ndarray) -> np.ndarray:
    """Int8 occupation rows as void keys; for 0..127 byte order is lexicographic."""
    occ = np.ascontiguousarray(occ, dtype=np.int8)
    # not occ.view(...): with no modes that gives no key at all, not one per row
    return np.ndarray(len(occ), np.dtype((np.void, occ.shape[1])), occ)


def _count_occupations(caps: np.ndarray, total_cap: int) -> np.ndarray:
    """Number of occupation tuples of each total 0..total_cap, by
    convolution over modes (cheap overflow precheck)."""
    counts = np.zeros(total_cap + 1, dtype=object)
    counts[0] = 1
    for cap in caps:
        new = np.zeros(total_cap + 1, dtype=object)
        for t in range(total_cap + 1):
            if counts[t]:
                for v in range(min(int(cap), total_cap - t) + 1):
                    new[t + v] += counts[t]
        counts = new
    return counts


def _enumerate_occupations(caps: np.ndarray, total_cap: int, dim_limit: int) -> np.ndarray:
    """All occupation tuples with per-mode and total caps, lexicographic.

    Built from the last mode backwards, one mode prepended per stage: the
    rows of a stage are the suffixes that fit under the total cap, listed as
    (value of the new mode, ascending) x (fitting rows of the previous stage,
    in order), which keeps every stage lexicographic.  A row is stored as its
    value and the index of its tail row, and the full tuples are gathered
    once at the end.
    """
    if min(int(max(caps, default=0)), total_cap) > 127:
        raise BoxQFTError("occupations above 127 exceed the int8 basis arrays; "
                          "lower the per-mode or total cap")
    dims = np.cumsum(_count_occupations(caps, total_cap))   # per total cap
    dim = int(dims[-1])
    if dim > dim_limit:
        smaller = ", ".join(f"{t}: {int(d)}" for t, d in enumerate(dims[1:-1], 1))
        raise DimensionOverflow(
            f"Fock dimension {dim} exceeds limit {dim_limit} for {len(caps)} "
            f"modes with per-mode cap {int(max(caps, default=0))} and total cap "
            f"{total_cap}; smaller total caps give dimensions {{{smaller}}}; "
            f"shrink the grid or the caps")
    used = np.zeros(1, dtype=np.int64)              # total occupation per row
    values, tails = [], []
    for cap in caps[::-1]:
        val, tail = [], []
        for v in range(min(int(cap), total_cap) + 1):
            keep = np.flatnonzero(used <= total_cap - v)
            val.append(np.full(len(keep), v, dtype=np.int8))
            tail.append(keep)
        values.append(np.concatenate(val))
        tails.append(np.concatenate(tail))
        used = values[-1] + used[tails[-1]]
    out = np.empty((len(used), len(caps)), dtype=np.int8)
    row = np.arange(len(used))
    for j, (val, tail) in enumerate(zip(values[::-1], tails[::-1])):
        out[:, j] = val[row]
        row = tail[row]
    return out


def build_fock_space(channels, n_max_per_mode: int = 4, n_max_total: int = 4,
                     dim_limit: int = DIM_LIMIT_DEFAULT) -> FockSpace:
    return FockSpace(channels, n_max_per_mode, n_max_total, dim_limit)


@dataclass(frozen=True)
class ModeOperator:
    """Index-triplet realization of one ladder operator."""
    matrix: Operator
    kind: str                    # "a" annihilate / "c" create
    channel: str
    n: Tuple[int, ...]


def mode_operator(space: FockSpace, channel: str, n, kind: str) -> ModeOperator:
    if kind not in ("a", "c"):
        raise BoxQFTError("kind must be 'a' (annihilate) or 'c' (create)")
    mat = space.annihilation(channel, tuple(n)) if kind == "a" \
        else space.creation(channel, tuple(n))
    return ModeOperator(matrix=mat, kind=kind, channel=channel, n=tuple(n))


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           np.asarray(self.amplitudes, dtype=complex))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def validate(self, tol: float = 1e-12) -> None:
        if abs(self.norm - 1.0) > tol:
            raise BoxQFTError(f"state norm {self.norm} deviates from 1")


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian unit-trace state.  Thermal states are stored diagonally."""
    diagonal: np.ndarray = None
    matrix: np.ndarray = None

    def __post_init__(self):
        if (self.diagonal is None) == (self.matrix is None):
            raise BoxQFTError("provide exactly one of diagonal or matrix")

    @property
    def dim(self) -> int:
        return len(self.diagonal) if self.diagonal is not None else self.matrix.shape[0]

    def validate(self, tol: float = 1e-12) -> None:
        if self.diagonal is not None:
            tr = float(np.sum(self.diagonal))
            if abs(tr - 1.0) > tol:
                raise BoxQFTError(f"trace {tr} deviates from 1")
            if np.min(self.diagonal) < -tol:
                raise BoxQFTError("negative thermal weight")
        else:
            if abs(np.trace(self.matrix) - 1.0) > tol:
                raise BoxQFTError("trace deviates from 1")
            if np.max(np.abs(self.matrix - self.matrix.conj().T)) > tol:
                raise BoxQFTError("density matrix not Hermitian")
            if np.min(np.linalg.eigvalsh(self.matrix)) < -tol:
                raise BoxQFTError("density matrix not positive semidefinite")


def vacuum_state(space: FockSpace) -> StateVector:
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.state_index(np.zeros(len(space.modes), dtype=np.int8))] = 1.0
    return StateVector(amp)


def basis_state(space: FockSpace, occupation: Dict[Tuple[str, Tuple[int, ...]], int]) -> StateVector:
    occ = np.zeros(len(space.modes), dtype=np.int8)
    for (ch, n), v in occupation.items():
        occ[space.mode_index[(ch, tuple(n))]] = v
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.state_index(occ)] = 1.0
    return StateVector(amp)


def free_hamiltonian(space: FockSpace) -> Operator:
    """Diagonal H0 with eigenvalue sum_k n_k E(k) (vacuum energy dropped)."""
    return Operator.from_diagonal(space.energies)


def total_momentum(space: FockSpace, axis: int) -> Operator:
    """Diagonal total-momentum component (physical units)."""
    if axis not in (1, 2, 3):
        raise BoxQFTError("axis must be 1, 2 or 3")
    grid = space.channels[0][1]
    if axis in grid.axes:
        L = grid.lengths[grid.axes.index(axis)]
    else:
        L = 1.0
    vals = space.lattice_momentum[:, axis - 1] * (2 * math.pi / L)
    return Operator.from_diagonal(vals)


def thermal_state(space: FockSpace, beta: float) -> DensityOperator:
    """Gibbs state exp(-beta*H0)/Z on the truncated space.

    beta = math.inf returns the vacuum projector.  Truncation error of
    thermal observables is bounded by exp(-beta*E*n_max) per mode.
    """
    if not (beta > 0):
        raise BoxQFTError("beta must be positive")
    if math.isinf(beta):
        w = np.zeros(space.dim)
        w[int(np.argmin(space.energies))] = 1.0
        return DensityOperator(diagonal=w)
    w = np.exp(-beta * (space.energies - space.energies.min()))
    return DensityOperator(diagonal=w / w.sum())


def expectation(state, operator) -> complex:
    """<psi|O|psi> or Tr(rho O), for an Operator, any matrix type with a
    shape (scipy's included) or a dense array-like."""
    if not hasattr(operator, "shape"):
        operator = np.asarray(operator)
    dim = operator.shape[0]
    if isinstance(state, StateVector):
        if len(state.amplitudes) != dim:
            raise DimensionMismatch("state/operator dimensions differ")
        return complex(np.vdot(state.amplitudes, operator @ state.amplitudes))
    if isinstance(state, DensityOperator):
        if state.dim != dim:
            raise DimensionMismatch("state/operator dimensions differ")
        if state.diagonal is not None:
            diag = operator.diagonal()
            return complex(np.sum(state.diagonal * diag))
        return complex(np.trace(operator @ state.matrix))
    raise DimensionMismatch(f"unsupported state type {type(state)!r}")


# ---------------------------------------------------------------------------
# counter-propagating superpositions


class SagnacSpecies(Enum):
    # the density each state is read out with, and its quoted signal values,
    # are in measurement.sagnac_readout
    DIRAC_A = "dirac_a"     # (|L,+k3> + |R,-k3>)/sqrt(2)
    DIRAC_B = "dirac_b"     # (|L,+k3> - |L,-k3>)/sqrt(2)
    SCALAR = "scalar"       # (|+k3> + |-k3>)/sqrt(2)
    PHOTON_V = "photon_v"   # (|V,+k3> + |V,-k3>)/sqrt(2)


@dataclass(frozen=True)
class SagnacConfig:
    """Counter-propagating single-particle superposition at +-k3.

    phase is the relative phase between the two arms; the interferometer is
    assumed ideal, so any physical phase shift must be supplied here rather
    than being auto-compensated.
    """
    species: SagnacSpecies
    mass: float
    k3: float
    phase: float = 0.0
    v_c: float = 1.0

    @property
    def energy(self) -> float:
        return math.sqrt(self.mass ** 2 + self.v_c ** 2 * self.k3 ** 2)

    @property
    def group_velocity(self) -> float:
        return self.v_c ** 2 * abs(self.k3) / self.energy

    @property
    def momentum_transfer(self) -> FourVector:
        """The space-like readout momentum p = (0,0,0,2*k3)."""
        return FourVector(0.0, 0.0, 0.0, 2 * self.k3)


_SAGNAC_ARMS = {
    SagnacSpecies.DIRAC_A: (("L", +1), ("R", -1), +1.0),
    SagnacSpecies.DIRAC_B: (("L", +1), ("L", -1), -1.0),
    SagnacSpecies.SCALAR: (("phi", +1), ("phi", -1), +1.0),
    SagnacSpecies.PHOTON_V: (("V", +1), ("V", -1), +1.0),
}


def sagnac_state(space: FockSpace, config: SagnacConfig) -> StateVector:
    """Normalized superposition of the two counter-propagating arms; a config
    whose energy is not the grid's (mass or v_c mismatch) raises."""
    (ch1, s1), (ch2, s2), rel_sign = _SAGNAC_ARMS[config.species]
    g = space.grid(ch1)
    n = g.mode_for_wavenumber(config.k3)
    grid_energy = g.energy(n)
    if abs(config.energy - grid_energy) > 1e-12 * grid_energy:
        raise BoxQFTError(f"config energy {config.energy!r} is not the grid "
                          f"energy {grid_energy!r} of mode {n}: mass or v_c mismatch")
    n1 = tuple(s1 * v for v in n)
    n2 = tuple(s2 * v for v in n)
    for ch, nn in ((ch1, n1), (ch2, n2)):
        if (ch, nn) not in space.mode_index:
            raise UnknownMode(f"mode {nn} missing on channel {ch!r}")
    amp = np.zeros(space.dim, dtype=complex)
    occ = np.zeros(len(space.modes), dtype=np.int8)
    occ[space.mode_index[(ch1, n1)]] = 1
    amp[space.state_index(occ)] += 1.0
    occ[:] = 0
    occ[space.mode_index[(ch2, n2)]] = 1
    amp[space.state_index(occ)] += rel_sign * np.exp(1j * config.phase)
    amp /= np.linalg.norm(amp)
    return StateVector(amp)
