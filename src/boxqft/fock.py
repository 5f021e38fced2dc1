"""Discretized momentum grids, truncated Fock spaces and mode operators.

Momenta live on the reciprocal lattice k_a = 2*pi*n_a/L_a of a periodic box.
Occupation-number bases are enumerated deterministically (modes sorted by
(channel, n1, n2, n3), occupations lexicographic) so that operator matrix
elements, Jordan-Wigner signs and oracle computations all agree on one
ordering.

A basis state is stored as its occupied-mode list (FockSpace.occupied) and
indexed by its exact rank, a sum of one table entry per unit of occupation
(_rank_terms): no dense basis is kept and no search finds a state.  The
first ladder use builds every slot's map from the ranks into the space's
LadderTable, and the cached ladder Operators are views of it.

Grids, states and basis arrays are immutable after construction; the
LadderTable is built lazily and cached on the space.  Expectation values are
pure functions and safe to evaluate in parallel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class LadderTable:
    """Every ladder map of a FockSpace as one set of read-only arrays.

    Slots number the ladder operators: with M modes, slot j creates mode j,
    slot M+j annihilates it, and slot -1 is the identity.  Slot s sends basis
    state src[k] to amp[k] times basis state tgt[k], for k in
    start[s+1]:start[s+2], and every other state to zero.  Each basis state
    has at most one image, and a slot's sources and targets both ascend, so
    the keys (slot+1)*dim + src ascend over the whole table.  An
    annihilator's amplitudes are real (sqrt(n) for a boson, the
    Jordan-Wigner sign for a fermion) and its creator's are their
    conjugates, with imaginary parts -0.0."""
    src: np.ndarray
    tgt: np.ndarray
    amp: np.ndarray
    src_key: np.ndarray
    start: np.ndarray


def lookup(keys: np.ndarray, want) -> Tuple[np.ndarray, np.ndarray]:
    """(pos, found): where each wanted key sorts into keys, and if it is there."""
    pos = np.searchsorted(keys, want)
    return pos, keys[np.minimum(pos, len(keys) - 1)] == want


class FockSpace:
    """Truncated occupation-number space over labelled mode grids.

    Basis enumeration: global mode order is (channel order as given, then
    mode tuples lexicographically); basis states are all occupation tuples
    with per-mode caps (1 for fermions) and total cap, listed in
    lexicographic order of the occupation tuple.  `occupied`, (dim,
    n_max_total), holds each state's occupied modes, ascending, one entry
    per unit of occupation, padded with M; descending lexicographic order of
    these lists is the basis order.
    """

    def __init__(self, channels: Sequence[Tuple[str, ModeGrid]],
                 n_max_per_mode: int = 4, n_max_total: int = 4,
                 dim_limit: int = DIM_LIMIT_DEFAULT):
        if n_max_per_mode < 1 or n_max_total < 1:
            raise BoxQFTError("occupation caps must be >= 1")
        self.channels: Tuple[Tuple[str, ModeGrid], ...] = tuple(channels)
        if not self.channels:
            raise BoxQFTError("a Fock space needs at least one channel")
        if len({lbl for lbl, _ in self.channels}) != len(self.channels):
            raise BoxQFTError("channel labels must be unique")
        if len({(g.axes, g.lengths) for _, g in self.channels}) > 1:
            raise BoxQFTError("all channels must share one box: the same "
                              "axes and lengths")
        self.n_max_per_mode = int(n_max_per_mode)
        self.n_max_total = int(n_max_total)
        self._grid: Dict[str, ModeGrid] = dict(self.channels)
        self.volume = self.channels[0][1].volume

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

        self._rank_terms, self.dim = _rank_terms(caps, self.n_max_total, dim_limit)
        self.occupied = _enumerate_lists(caps, self._rank_terms, self.dim)

        # (n_modes, 4) on-shell four-momenta (E, k1, k2, k3)
        self.mode_momenta = np.array(
            [self._grid[m.channel].momentum(m.n).as_array() for m in self.modes]
        ).reshape(-1, 4)
        self.mode_energies = self.mode_momenta[:, 0].copy()
        energy = np.append(self.mode_energies, 0.0)     # the padding adds 0.0
        self.energies = energy[self.occupied[:, 0]]
        for p in range(1, self.n_max_total):
            self.energies += energy[self.occupied[:, p]]

        self.mode_lattice = np.array(
            [self._grid[m.channel].lattice3(m.n) for m in self.modes],
            dtype=np.int64).reshape(-1, 3)

        self._op_cache: Dict[Tuple[str, Tuple[int, ...], str], Operator] = {}
        self._ladder_table: Optional[LadderTable] = None
        # (beta, state) of the last thermal_state call
        self._thermal: Optional[Tuple[float, "DensityOperator"]] = None

    # -- bookkeeping -------------------------------------------------------

    def grid(self, channel: str) -> ModeGrid:
        try:
            return self._grid[channel]
        except KeyError:
            raise UnknownMode(f"unknown channel {channel!r}")

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
        """Position of an occupation row in the basis: the rank of its
        occupied-mode list.  Occupations are whole numbers within the caps."""
        occ = np.asarray(occ)
        if occ.shape == self.caps.shape and occ.dtype.kind in "iuf" \
                and np.all((occ >= 0) & (occ <= self.caps)
                           & (occ == np.round(occ))) \
                and occ.sum() <= self.n_max_total:
            units = np.repeat(np.arange(len(occ)), occ.astype(np.int64))
            return int(self._rank_terms[units, np.arange(len(units))].sum())
        raise UnknownMode("occupation configuration outside the basis")

    # -- operators ----------------------------------------------------------

    def annihilation(self, channel: str, n: Tuple[int, ...]) -> Operator:
        return self._operator(channel, tuple(n), "a")

    def creation(self, channel: str, n: Tuple[int, ...]) -> Operator:
        return self._operator(channel, tuple(n), "c")

    def ladder_table(self) -> LadderTable:
        """The space's LadderTable, built whole on first use."""
        if self._ladder_table is None:
            self._ladder_table = _build_ladder_table(
                self.occupied, self._rank_terms, self.fermionic)
        return self._ladder_table

    def _operator(self, channel, n, kind) -> Operator:
        """A mode's creator and annihilator, cached together as Operators
        over their slots' slices of the LadderTable (views, not copies): a
        slot's targets and sources both ascend, so each is canonical."""
        key = (channel, n, kind)
        if key in self._op_cache:
            return self._op_cache[key]
        if (channel, n) not in self.mode_index:
            raise UnknownMode(f"mode {n} not on channel {channel!r}")
        j = self.mode_index[(channel, n)]
        table = self.ladder_table()
        for k, slot in (("c", j), ("a", len(self.modes) + j)):
            part = slice(table.start[slot + 1], table.start[slot + 2])
            self._op_cache[(channel, n, k)] = Operator(
                table.tgt[part], table.src[part], table.amp[part], self.dim)
        return self._op_cache[key]


def _rank_terms(caps: np.ndarray, total_cap: int,
                dim_limit: int) -> Tuple[np.ndarray, int]:
    """(R, dim): the rank terms of the basis, and its dimension.

    C[j][t], the number of occupation tuples over modes j..M-1 with total at
    most t, is counted from the last mode backwards in Python ints, so no
    count overflows before the limit check.  The index of a basis row in
    lexicographic order is sum_p R[L_p, p] over the positions p of its
    occupied-mode list L, with R[l, p] = C[l+1][T-p] (T the total cap) and
    R[M, p] = 0 for the padding: the rows that share L's first p units, hold
    no further unit of l and at most T-p units of later modes precede the
    row, and each row that precedes it is counted so once.
    """
    if min(int(max(caps, default=0)), total_cap) > 127:
        raise BoxQFTError("occupations above 127 exceed the int8 occupation "
                          "range; lower the per-mode or total cap")
    count = [1] * (total_cap + 1)                  # C[M]: only the empty tuple
    counts = [count]
    for cap in caps[::-1]:
        # C[j][t] = sum of C[j+1][t-v] for v = 0..cap, as a running window
        cap, prev, window, count = int(cap), count, 0, []
        for t in range(total_cap + 1):
            window += prev[t] - (prev[t - cap - 1] if t > cap else 0)
            count.append(window)
        counts.append(count)
    dim = count[total_cap]
    if dim > dim_limit:
        smaller = ", ".join(f"{t}: {count[t]}" for t in range(1, total_cap))
        raise DimensionOverflow(
            f"Fock dimension {dim} exceeds limit {dim_limit} for {len(caps)} "
            f"modes with per-mode cap {int(max(caps, default=0))} and total cap "
            f"{total_cap}; smaller total caps give dimensions {{{smaller}}}; "
            f"shrink the grid or the caps")
    terms = np.zeros((len(caps) + 1, total_cap), dtype=np.int64)
    # counts[M-1-l] is C[l+1]; its entries at T..1 are positions 0..T-1
    terms[:-1] = np.array(counts[-2::-1], dtype=np.int64).reshape(
        len(caps), total_cap + 1)[:, total_cap:0:-1]
    return terms, dim


def _enumerate_lists(caps: np.ndarray, terms: np.ndarray, dim: int) -> np.ndarray:
    """Every basis state's occupied-mode list, placed at its rank.

    The lists grow by one unit per level from the vacuum's empty list: a
    list whose last mode l holds n units gains one more unit of l if n is
    below its cap, or one unit of any later mode.  A unit of mode m at
    position k adds terms[m, k] to the rank.
    """
    M, total_cap = len(caps), terms.shape[1]
    out = np.full((dim, total_cap), M, dtype=np.int64)
    capped = np.append(caps, 0)                 # capped[-1]: no last mode yet
    rank, last, run = np.zeros(1, np.int64), np.full(1, -1), np.zeros(1, np.int64)
    for k in range(total_cap):
        first = last + 1 - (run < capped[last])
        n = M - first
        parent = np.repeat(np.arange(len(rank)), n)
        mode = np.arange(len(parent)) - np.repeat(np.cumsum(n) - n - first, n)
        child = rank[parent] + terms[mode, k]
        out[child, :k] = out[rank[parent], :k]
        out[child, k] = mode
        rank, run = child, np.where(mode == last[parent], run[parent] + 1, 1)
        last = mode
    return out


def _build_ladder_table(occupied: np.ndarray, terms: np.ndarray,
                        fermionic: np.ndarray) -> LadderTable:
    """Every slot's map at once, from the ranks alone.

    The annihilator of mode j acts on each (row, distinct mode j) pair: it
    drops the row's last unit of j, at position q, so the target's rank is
    the row's own, less the dropped unit's term and with the later units'
    terms shifted one position left.  The pairs come in row order; a stable
    radix sort by mode lays them out slot by slot, each slot ascending in
    source.  A creator's map is its annihilator's with source and target
    exchanged.  The sorted pairs are written straight into the table's
    arrays, so the build's temporaries stay a few arrays of one entry per
    pair, and the table's arrays share one allocation.
    """
    dim, total_cap = occupied.shape
    M = len(terms) - 1
    # shift[r, q]: the target's rank less the row's, for a drop at q
    shift = np.empty((dim, total_cap), dtype=np.int64)
    acc = np.zeros(dim, dtype=np.int64)
    for q in range(total_cap - 1, -1, -1):
        acc -= terms[occupied[:, q], q]
        shift[:, q] = acc
        if q:
            acc += terms[occupied[:, q], q - 1]
    # the last unit of each run of one mode, row-major: row * total_cap + q
    last = np.empty((dim, total_cap), dtype=bool)
    np.not_equal(occupied[:, :-1], occupied[:, 1:], out=last[:, :-1])
    np.not_equal(occupied[:, -1], M, out=last[:, -1])
    at = np.flatnonzero(last)
    row, q = np.divmod(at, total_cap)
    mode = occupied.ravel()[at]
    tgt = shift.ravel()[at]
    tgt += row
    # a boson's units: q + 1 on its row's first pair, else q less the last q
    units = q + 1
    same = row[1:] == row[:-1]
    units[1:][same] = q[1:][same] - q[:-1][same]
    amp = np.sqrt(units)
    if fermionic.any():
        ferm = np.append(fermionic, False)
        # fermions at positions up to q; a fermion's own run is one unit
        upto = np.cumsum(ferm[occupied], axis=1, dtype=np.int8).ravel()[at]
        on = ferm[mode]
        amp[on] = 1.0 - 2.0 * ((upto[on] - 1) % 2)

    order = np.argsort(mode.astype(np.int16) if M < 2 ** 15 else mode,
                       kind="stable")
    P = len(order)
    counts = np.bincount(mode, minlength=M)
    sizes = np.concatenate(([dim], counts, counts))
    start = np.concatenate(([0], np.cumsum(sizes)))
    n = dim + 2 * P
    ident, create, destroy = slice(0, dim), slice(dim, dim + P), slice(dim + P, n)
    # the table is built, used and freed whole, so one block holds its arrays
    block = np.empty(5 * n, dtype=np.int64)
    src, dst, key = block[:n], block[n:2 * n], block[2 * n:3 * n]
    value = block[3 * n:].view(complex)
    src[ident] = dst[ident] = np.arange(dim)
    np.take(tgt, order, out=src[create])
    np.take(row, order, out=dst[create])
    src[destroy], dst[destroy] = dst[create], src[create]
    value.real[ident], value.imag[ident] = 1.0, 0.0
    value.real[create], value.imag[create] = amp[order], -0.0
    value.real[destroy], value.imag[destroy] = value.real[create], 0.0
    key[:] = np.repeat(np.arange(2 * M + 1, dtype=np.int64) * dim, sizes)
    key += src
    arrays = (src, dst, value, key, start)
    for a in arrays:
        a.flags.writeable = False
    return LadderTable(*arrays)


def build_fock_space(channels, n_max_per_mode: int = 4, n_max_total: int = 4,
                     dim_limit: int = DIM_LIMIT_DEFAULT) -> FockSpace:
    return FockSpace(channels, n_max_per_mode, n_max_total, dim_limit)


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           np.asarray(self.amplitudes, dtype=complex))


@dataclass(frozen=True)
class DensityOperator:
    """Unit-trace state diagonal in the basis: its weights over the basis
    states.  Thermal states are the only density operators built."""
    diagonal: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.diagonal)


def basis_state(space: FockSpace, occupation: Dict[Tuple[str, Tuple[int, ...]], int]) -> StateVector:
    """The basis state with the given occupation, {(channel, mode): count},
    of the modes on the space; every other mode is empty."""
    occ = [0] * len(space.modes)
    for (ch, n), v in occupation.items():
        key = (ch, tuple(n))
        if key not in space.mode_index:
            raise UnknownMode(f"mode {key[1]} not on channel {ch!r}")
        occ[space.mode_index[key]] = v
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.state_index(occ)] = 1.0
    return StateVector(amp)


def vacuum_state(space: FockSpace) -> StateVector:
    return basis_state(space, {})


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
    lattice = np.append(space.mode_lattice[:, axis - 1], 0)    # 0 for padding
    vals = lattice[space.occupied].sum(axis=1) * (2 * math.pi / L)
    return Operator.from_diagonal(vals)


def thermal_state(space: FockSpace, beta: float) -> DensityOperator:
    """Gibbs state exp(-beta*H0)/Z on the truncated space.

    beta = math.inf returns the vacuum projector.  Truncation error of
    thermal observables is bounded by exp(-beta*E*n_max) per mode.

    The space keeps the state of the last beta asked for, so samples at one
    beta share one Boltzmann vector: a repeated call returns the same
    object, whose weights are read-only.
    """
    if not (beta > 0):
        raise BoxQFTError("beta must be positive")
    if space._thermal is not None and space._thermal[0] == beta:
        return space._thermal[1]
    if math.isinf(beta):
        w = np.zeros(space.dim)
        w[int(np.argmin(space.energies))] = 1.0
    else:
        w = np.exp(-beta * (space.energies - space.energies.min()))
        w = w / w.sum()
    w.flags.writeable = False
    state = DensityOperator(diagonal=w)
    space._thermal = (beta, state)
    return state


def expectation(state, operator) -> complex:
    """<psi|O|psi>, or Tr(rho O) = sum_i w_i O_ii for a diagonal rho, for an
    Operator, any matrix type with a shape (scipy's included) or a dense
    array-like."""
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
        diag = operator.diagonal()
        return complex(np.sum(state.diagonal * diag))
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

    @property
    def energy(self) -> float:
        """The arms' energy at v_c = 1."""
        return math.sqrt(self.mass ** 2 + self.k3 ** 2)

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
    amp = basis_state(space, {(ch1, n1): 1}).amplitudes + rel_sign * \
        np.exp(1j * config.phase) * basis_state(space, {(ch2, n2): 1}).amplitudes
    amp /= np.linalg.norm(amp)
    return StateVector(amp)
