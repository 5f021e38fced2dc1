"""Field operators as mode expansions and composite quadratic observables.

Mode expansions used by the builders (box volume V, on-shell k0 = E(k)):

    scalar   phi(x)  = sum_k (2 E V)^(-1/2) (a_k e^{-ik.x} + a+_k e^{ik.x})
    Dirac    psi(x)  = sum_{k,X=L,R} V^(-1/2) (a^X_k u^X_k e^{-ik.x}
                                               + b+^X_k v^X_k e^{ik.x})
    photon   A(x)    = sum_{k,lam} (2 E V)^(-1/2) (e^lam_k a^lam_k e^{-ik.x}
                                                   + conj(e^lam_k) a+^lam_k e^{ik.x})

Ladder operators are indexed by slot, numbered as in fock.LadderTable: with
M modes, slot j creates mode j, slot M+j annihilates it, and slot -1 is the
identity.  Every composition reads the space's one LadderTable, which holds
all slots once it is built.  Slot s carries the four-momentum transfer
Q[s] = +(E_j, k_j) for the creator of mode j and -(E_j, k_j) for its
annihilator (lattice transfer +-mode_lattice[j]).  A linear field component at x = 0 is a coefficient
vector over the 2M slots, and derivatives act analytically as
multiplication by i*Q[:, mu].  A bilinear is the slot matrix
W = sum w outer(l1, l2); normal ordering moves it into the upper triangle in
one step, and the subtracted vacuum constant is recorded, not kept, which
makes all vacuum expectations vanish identically.

Densities store one (left, right, coeff) record per operator product
(left = -1 for a single operator); a term's transfer Q[left] + Q[right] is
computed when needed, so spatial/temporal window integrals reduce to closed
forms evaluated on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BoxQFTError, UnknownMode, ZeroMomentum
from .fock import FockSpace, ModeGrid, Species, lookup
from .operator import Operator, _cmul
from .spacetime import METRIC, FourVector

# ---------------------------------------------------------------------------
# gamma algebra (Weyl representation)

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_zero2 = np.zeros((2, 2), dtype=complex)

GAMMA = (
    np.block([[_zero2, PAULI[0]], [PAULI[0], _zero2]]),
    np.block([[_zero2, PAULI[1]], [-PAULI[1], _zero2]]),
    np.block([[_zero2, PAULI[2]], [-PAULI[2], _zero2]]),
    np.block([[_zero2, PAULI[3]], [-PAULI[3], _zero2]]),
)


def current_matrices() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 4x4 spinor matrices of the current components j^mu.

    These explicit matrices are the ground-truth definition; gamma0*gamma^mu
    is checked against them in the tests rather than used directly.
    """
    j0 = np.eye(4, dtype=complex)
    j1 = np.array([[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                  dtype=complex)
    j2 = np.array([[0, 1j, 0, 0], [-1j, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]],
                  dtype=complex)
    j3 = np.array([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
                  dtype=complex)
    return j0, j1, j2, j3


# ---------------------------------------------------------------------------
# spinors


@dataclass(frozen=True)
class Spinor:
    components: np.ndarray
    handedness: str
    k3: float
    mass: float


def spinor_u(k3: float, handedness: str, m: float) -> Spinor:
    """Positive-energy helicity spinor for momentum (0,0,k3), k3 != 0.

    u^L = (2E)^(-1/2) (sqrt(E-k3) th(-k3), sqrt(E+k3) th(k3),
                       sqrt(E+k3) th(-k3), sqrt(E-k3) th(k3))
    u^R swaps the step functions.  At k3 = 0 the two helicities interchange,
    so the zero mode is excluded.
    """
    if k3 == 0:
        raise ZeroMomentum("helicity spinors are ambiguous at k3=0")
    if handedness not in ("L", "R"):
        raise BoxQFTError("handedness must be 'L' or 'R'")
    E = math.hypot(m, k3)
    tp = 1.0 if k3 > 0 else 0.0
    tm = 1.0 - tp
    sm = math.sqrt(max(E - k3, 0.0))
    sps = math.sqrt(max(E + k3, 0.0))
    if handedness == "L":
        comp = np.array([sm * tm, sps * tp, sps * tm, sm * tp], dtype=complex)
    else:
        comp = np.array([sm * tp, sps * tm, sps * tp, sm * tm], dtype=complex)
    return Spinor(comp / math.sqrt(2 * E), handedness, k3, m)


def spinor_v(k3: float, handedness: str, m: float) -> Spinor:
    """Antiparticle spinor by charge conjugation, v = i*gamma2*conj(u).

    The source material never writes v explicitly; this standard construction
    is validated through the equal-time anticommutator test.
    """
    u = spinor_u(k3, handedness, m)
    comp = 1j * GAMMA[2] @ np.conj(u.components)
    return Spinor(comp, handedness, k3, m)


# ---------------------------------------------------------------------------
# photon polarization


@dataclass(frozen=True)
class EMFieldConfig:
    """Radiation-gauge polarization basis for single-axis (axis 3) grids.

    V is linear polarization along axis 1, H along axis 2.  With
    parity_flip=True the V vector flips sign for k3 < 0 (the standard linear
    polarization convention under k -> -k); the flip only re-phases the
    modes but fixes the sign of counter-propagating interference terms.
    """
    parity_flip: bool = True

    def polarization(self, label: str, n3: int) -> np.ndarray:
        if label == "V":
            sign = -1.0 if (self.parity_flip and n3 < 0) else 1.0
            return np.array([sign, 0.0, 0.0], dtype=complex)
        if label == "H":
            return np.array([0.0, 1.0, 0.0], dtype=complex)
        raise UnknownMode(f"unknown polarization channel {label!r}")


# ---------------------------------------------------------------------------
# slots and quadratic observables

TERM_DTYPE = np.dtype([("left", np.int64), ("right", np.int64), ("coeff", complex)])

# eps_ijk over the spatial indices 0..2
_LEVI_CIVITA = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}


def _slot_transfers(space: FockSpace) -> Tuple[np.ndarray, np.ndarray]:
    """Four-momentum (2M+1, 4) and lattice (2M+1, 3) transfer of every slot;
    the last row, slot -1's, is zero."""
    P, lat = space.mode_momenta, space.mode_lattice
    return (np.concatenate([P, -P, np.zeros((1, 4))]),
            np.concatenate([lat, -lat, np.zeros((1, 3), dtype=np.int64)]))


def _term_slots(space: FockSpace,
                terms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The terms' left and right slots.  Raises unless every slot lies in
    [-1, 2M): slot -1 is the last row of _slot_transfers' arrays, so a slot
    outside would read another slot's row or none."""
    left, right = terms["left"], terms["right"]
    M2 = 2 * len(space.modes)
    slots = np.concatenate([left, right])
    bad = slots[(slots < -1) | (slots >= M2)]
    if len(bad):
        raise BoxQFTError(f"term slots must lie in [-1, {M2}), not {bad[0]}")
    return left, right


def _terms(left, right, coeff) -> np.ndarray:
    out = np.empty(len(coeff), dtype=TERM_DTYPE)
    out["left"], out["right"], out["coeff"] = left, right, coeff
    return out


def _compose(space: FockSpace, terms: np.ndarray):
    """Each term's ladder product op(left) op(right) as triplets; op(-1) = 1.

    Returns (term, src, tgt, amp): term t sends basis state src to amp times
    basis state tgt, amp = _cmul(amp_first, amp_second).  Each factor is a
    partial index map in the space's LadderTable, so a term is one too: each
    triplet of the right factor (its slot's slice of the table) is passed on
    by looking its target up among the left factor's sources, by binary
    search over the table's keys.  A slot outside [-1, 2M) raises.
    """
    left, right = _term_slots(space, terms)
    if len(terms) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, np.zeros(0, dtype=complex)
    dim = space.dim
    table = space.ladder_table()
    # each factor's slot + 1: its triplets' keys are (slot + 1) * dim + source
    left, right = left + 1, right + 1
    start = table.start[right]
    n = table.start[right + 1] - start
    term = np.repeat(np.arange(len(terms)), n)
    first = np.arange(n.sum()) + np.repeat(start - (np.cumsum(n) - n), n)
    second, ok = lookup(table.src_key, left[term] * dim + table.tgt[first])
    term, first, second = term[ok], first[ok], second[ok]
    return (term, table.src[first], table.tgt[second],
            _cmul(table.amp[first], table.amp[second]))


def _assemble(space: FockSpace, terms: np.ndarray, coeffs) -> Operator:
    """sum_t coeffs[t] * op(left_t) op(right_t) as one Operator: values are
    coeff * (amp * amp) by operator._cmul, canonicalized in one pass in term
    order (Operator.from_triplets)."""
    term, src, tgt, amp = _compose(space, terms)
    # _cmul commutes bit for bit, so the factors' order needs no swap
    vals = _cmul(np.asarray(coeffs, dtype=complex)[term], amp)
    return Operator.from_triplets(tgt, src, vals, space.dim)


def _check_normal_ordered(space: FockSpace, terms: np.ndarray) -> None:
    """Raise unless the terms are unique and normal-ordered: -1 <= left <=
    right < 2M and 0 <= right.  Then each term but a number term c_j a_j
    changes the state by its own signature, so it alone fills its entries."""
    left, right = terms["left"], terms["right"]
    M2 = 2 * len(space.modes)
    key = (left + 1) * M2 + right
    # the density builders list terms by ascending key, which makes them unique
    # without a sort
    if not np.all((-1 <= left) & (left <= right) & (0 <= right) & (right < M2)) \
            or not (np.all(key[1:] > key[:-1])
                    or len(np.unique(key)) == len(terms)):
        raise BoxQFTError("line spectra and vacuum records need unique, "
                          "normal-ordered terms")


def _vacuum_records(space: FockSpace, terms: np.ndarray,
                    creators: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vacuum's column (creators) or row of the terms' matrix from the
    terms alone: (lo, hi, value) per state e_lo + e_hi (hi = M for one
    particle), in basis order, descending (lo, hi).  Unique normal-ordered
    terms each reach their own state, and a value is _assemble's bit for bit:
    coeff * (amp * amp) by _cmul, the amplitudes FockSpace._operator's
    (sqrt(2) for a doubly occupied boson, -1 for a fermionic annihilator
    pair), + 0.0, with zeros and states over the caps dropped.
    """
    _check_normal_ordered(space, terms)
    M = len(space.modes)
    left, right = terms["left"], terms["right"]
    shift = 0 if creators else M
    keep = (right < M) if creators else (right >= M) & ((left < 0) | (left >= M))
    single, coeff = left[keep] < 0, terms["coeff"][keep]
    lo = np.where(single, right[keep], left[keep]) - shift
    hi = np.where(single, M + shift, right[keep]) - shift
    # amp * amp, exact and real: conjugating a creator's amplitude flips only
    # the sign of a zero imaginary part, which no value keeps after + 0.0
    fermi = np.append(space.fermionic, False)
    amps = np.select([lo == hi, (not creators) & fermi[lo] & fermi[hi]],
                     [math.sqrt(2.0), -1.0], 1.0)
    value = _cmul(coeff, amps) + 0.0
    fits = single | (space.n_max_total >= 2) & ((lo < hi) | (space.caps[lo] >= 2))
    order = np.lexsort((-hi, -lo))
    order = order[(fits & (value != 0))[order]]
    return lo[order], hi[order], value[order]


class QuadraticObservable:
    """A field bilinear as TERM_DTYPE records (see the module docstring).
    The builders below return densities S(x), evaluated with .at(x); a
    window (boxqft.measurement) weights the terms into the windowed
    observable.  .matrix() realizes the terms as they stand, once."""

    def __init__(self, space: FockSpace, label: str, terms,
                 vacuum_subtraction: complex = 0.0):
        self.space = space
        self.label = label
        self.terms = np.asarray(terms, dtype=TERM_DTYPE)
        self.vacuum_subtraction = vacuum_subtraction
        self._matrix: Optional[Operator] = None
        # the thermal moments' diagonals for n = 1, 2, ... (boxqft.measurement)
        self._moment_diagonals: List[np.ndarray] = []
        # block terms, line spectra and vacuum records of the Lehmann sum
        # for the last lattice pair {lat, -lat} asked about (boxqft.spectral)
        self._momentum_memo = None

    def matrix(self) -> Operator:
        if self._matrix is None:
            self._matrix = _assemble(self.space, self.terms, self.terms["coeff"])
        return self._matrix

    def hermiticity_defect(self) -> float:
        return self.matrix().hermiticity_defect()

    def lattice_hits(self, targets) -> List[np.ndarray]:
        """For each lattice vector in targets, the mask of the terms whose
        lattice transfer equals it."""
        _, lat = _slot_transfers(self.space)
        left, right = _term_slots(self.space, self.terms)
        # each slot's lattice vector as one integer, its components balanced
        # digits in a base that holds any sum of two: a term's code is then
        # the sum of its slots' codes, and equal codes mean equal vectors
        reach = 2 * int(np.abs(lat).max())
        base = 2 * reach + 1
        code = (lat[:, 0] * base + lat[:, 1]) * base + lat[:, 2]
        total = code[left] + code[right]
        return [total == (t[0] * base + t[1]) * base + t[2]
                if max(abs(v) for v in t) <= reach
                else np.zeros(len(total), dtype=bool) for t in targets]

    def transfers(self, keep: Optional[np.ndarray] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Four-momentum (n, 4) and lattice (n, 3) transfer of every term, or
        of the terms at the indices keep."""
        Q, lat = _slot_transfers(self.space)
        left, right = _term_slots(self.space, self.terms if keep is None
                                  else self.terms[keep])
        return Q[left] + Q[right], lat[left] + lat[right]

    def at(self, x: FourVector) -> Operator:
        """Realize the density operator at the spacetime point x."""
        xt = x.as_array()
        q, _ = self.transfers()
        phase = np.exp(1j * (q[:, 0] * xt[0] - q[:, 1] * xt[1]
                             - q[:, 2] * xt[2] - q[:, 3] * xt[3]))
        return _assemble(self.space, self.terms, _cmul(self.terms["coeff"], phase))

    def weighted(self, label: str, factor,
                 keep: Optional[np.ndarray] = None) -> QuadraticObservable:
        """The bilinear with coefficients coeff * factor per term, or per term
        at the indices keep with the others dropped; terms whose product is
        exactly zero are dropped."""
        coeff = self.terms["coeff"] if keep is None else self.terms["coeff"][keep]
        coeff = _cmul(coeff, np.asarray(factor, dtype=complex))
        nonzero = coeff != 0
        terms = self.terms[nonzero if keep is None else keep[nonzero]]
        terms["coeff"] = coeff[nonzero]
        return QuadraticObservable(self.space, label, terms,
                                   vacuum_subtraction=self.vacuum_subtraction)


def _linear(space: FockSpace, label: str, ell: np.ndarray) -> QuadraticObservable:
    """Density of a linear field component, one term per nonzero slot."""
    right = np.flatnonzero(ell)
    return QuadraticObservable(space, label, _terms(-1, right, ell[right]))


def _quadratic(space: FockSpace, label: str, W: np.ndarray) -> QuadraticObservable:
    """Normal-ordered density of sum_{s,t} W[s,t] op(s) op(t).

    Creator slots come first, so reordering each product as creators left,
    annihilators right, slots ascending moves every entry into the upper
    triangle: two fermionic slots anticommute (and a fermionic square
    vanishes).  Each [a_j, c_j] contraction leaves a constant; their sum, the
    trace of the a-c block, is the subtracted vacuum constant.  The trace is
    summed exactly (math.fsum) so the constant is correctly rounded: a
    near-massless zero mode makes one entry far larger than the rest.
    The sign matrix is applied only when a slot is fermionic; on the
    symmetrized W of a bosonic density, multiplying by 1.0 changes no bit
    of a kept term.
    """
    M = len(space.modes)
    fermi = np.tile(space.fermionic, 2)
    upper = ~np.tri(2 * M, dtype=bool)
    N = np.where(upper, W.T, 0)
    if fermi.any():
        N *= np.where(np.logical_and.outer(fermi, fermi), -1.0, 1.0)
    np.add(N, W, out=N, where=upper)
    N[np.diag_indices_from(N)] = np.where(fermi, 0.0, np.diagonal(W))
    left, right = np.nonzero(N)
    contractions = np.diagonal(W[M:, :M])
    vacuum = complex(math.fsum(contractions.real), math.fsum(contractions.imag))
    return QuadraticObservable(space, label, _terms(left, right, N[left, right]),
                               vacuum_subtraction=vacuum)


def _symmetrized(space: FockSpace, label: str, W: np.ndarray) -> QuadraticObservable:
    """Both operator orders averaged, which keeps a bosonic composite
    Hermitian; the commutator constants land in the vacuum subtraction."""
    W = W + W.T
    W *= 0.5
    return _quadratic(space, label, W)


# ---------------------------------------------------------------------------
# scalar field


def _scalar_slots(space: FockSpace, channel: str) -> np.ndarray:
    """phi(0) over the slots: (2 E V)^(-1/2) on each creator and annihilator
    of the channel."""
    space.grid(channel)                     # raises UnknownMode
    M = len(space.modes)
    idx = np.array([i for i, m in enumerate(space.modes) if m.channel == channel],
                   dtype=np.int64)
    out = np.zeros(2 * M, dtype=complex)
    out[idx] = out[M + idx] = 1.0 / np.sqrt(2 * space.mode_energies[idx]
                                            * space.volume)
    return out


def scalar_density(space: FockSpace, channel: str = "phi") -> QuadraticObservable:
    """The field phi itself as a (linear) observable density."""
    return _linear(space, "phi", _scalar_slots(space, channel))


def scalar_momentum_density(space: FockSpace, channel: str = "phi") -> QuadraticObservable:
    """Conjugate momentum pi = d_t phi."""
    Q, _ = _slot_transfers(space)
    return _linear(space, "pi", _scalar_slots(space, channel) * 1j * Q[:-1, 0])


def scalar_bilinear_density(space: FockSpace, channel: str = "phi") -> QuadraticObservable:
    """Normal-ordered :phi^2:(x)."""
    ell = _scalar_slots(space, channel)
    return _symmetrized(space, "phi2", np.multiply.outer(ell, ell))


def stress_tensor_scalar(space: FockSpace, mu: int, nu: int,
                         channel: str = "phi") -> QuadraticObservable:
    """T^{mu nu} = d^mu phi d^nu phi - g^{mu nu}(d phi . d phi - m^2 phi^2)/2.

    Derivatives act analytically: a slot with transfer q picks up i*q^mu.
    """
    if mu not in range(4) or nu not in range(4):
        raise BoxQFTError("tensor indices must be 0..3")
    ell = _scalar_slots(space, channel)
    m = space.grid(channel).mass
    Q = _slot_transfers(space)[0][:-1]
    # (i q1^mu)(i q2^nu) symmetrized in (mu,nu), minus the trace part, built
    # in place in three (2M)^2 buffers: -(q1^mu q2^nu + q1^nu q2^mu) / 2 and
    # dd = -(q1^0 q2^0 - q1^1 q2^1 - q1^2 q2^2 - q1^3 q2^3)
    vertex, dd, tmp = (np.empty((len(Q), len(Q))) for _ in range(3))
    np.multiply.outer(Q[:, mu], Q[:, nu], out=vertex)
    vertex += np.multiply.outer(Q[:, nu], Q[:, mu], out=tmp)
    np.negative(vertex, out=vertex)
    vertex /= 2.0
    np.multiply.outer(Q[:, 0], Q[:, 0], out=dd)
    for a in (1, 2, 3):
        dd -= np.multiply.outer(Q[:, a], Q[:, a], out=tmp)
    np.negative(dd, out=dd)
    dd -= m * m
    dd *= METRIC[mu, nu]
    dd /= 2.0
    vertex -= dd
    W = np.multiply.outer(ell, ell)
    W *= vertex
    return _symmetrized(space, f"T{mu}{nu}", W)


# ---------------------------------------------------------------------------
# Dirac field

_DIRAC_PARTICLE = ("L", "R")
_DIRAC_ANTI = {"L": "Lbar", "R": "Rbar"}

DIRAC_CHANNELS = ("L", "R", "Lbar", "Rbar")


def dirac_space_channels(grid: ModeGrid):
    """Standard channel layout for one Dirac species: L, R + antiparticles."""
    if grid.species is not Species.FERMION:
        raise BoxQFTError("Dirac grids must be fermionic")
    if grid.axes != (3,):
        raise BoxQFTError("Dirac fields are implemented for single-axis grids "
                          "(momentum along axis 3)")
    if grid.mass > 0 and grid.v_c != 1.0:
        raise BoxQFTError("massive Dirac spinors require v_c = 1")
    return tuple((ch, grid) for ch in DIRAC_CHANNELS)


def _dirac_slots(space: FockSpace) -> np.ndarray:
    """psi_alpha(0) over the slots, a (4, 2M) array:
    psi = V^(-1/2) sum (u a^X + v b+^X)."""
    grid = space.grid("L")
    M = len(space.modes)
    root_v = math.sqrt(grid.volume)
    psi = np.zeros((4, 2 * M), dtype=complex)
    for n in grid.modes:
        k3 = grid.wavevector(n)[2]
        for X in _DIRAC_PARTICLE:
            psi[:, M + space.mode_index[(X, n)]] = \
                spinor_u(k3, X, grid.mass).components / root_v
            psi[:, space.mode_index[(_DIRAC_ANTI[X], n)]] = \
                spinor_v(k3, X, grid.mass).components / root_v
    return psi


def dirac_field(space: FockSpace, x: FourVector) -> List[Operator]:
    """The four spinor components of psi(x) as Fock operators."""
    psi = _dirac_slots(space)
    return [_linear(space, f"psi{alpha}", psi[alpha]).at(x) for alpha in range(4)]


def dirac_current_density(space: FockSpace, mu: int) -> QuadraticObservable:
    """Normal-ordered current component :j^mu: = :psi+ J^mu psi:.

    Uses the explicit spinor-matrix form of the current (J^0 = Id,
    J^3 = diag(-1,1,1,-1), ...).
    """
    if mu not in range(4):
        raise BoxQFTError("current index must be 0..3")
    J = current_matrices()[mu]
    psi = _dirac_slots(space)
    M = len(space.modes)
    dag = np.roll(psi, M, axis=1).conj()      # creators <-> annihilators
    W = np.zeros((2 * M, 2 * M), dtype=complex)
    # elementwise products summed from the last (a, b) down; a BLAS product
    # would round differently and leave residues where the sum cancels
    for a, b in reversed(list(zip(*np.nonzero(J)))):
        W += np.multiply.outer(dag[a] * J[a, b], psi[b])
    return _quadratic(space, f"j{mu}", W)


# ---------------------------------------------------------------------------
# electromagnetic field

PHOTON_CHANNELS = ("V", "H")


def photon_space_channels(grid: ModeGrid):
    if grid.species is not Species.BOSON or grid.mass != 0.0:
        raise BoxQFTError("photon grids must be massless bosonic")
    if grid.axes != (3,):
        raise BoxQFTError("photon fields are implemented for single-axis grids")
    return tuple((ch, grid) for ch in PHOTON_CHANNELS)


def _em_vector_slots(space: FockSpace, config: EMFieldConfig) -> np.ndarray:
    """The three components of A(0), radiation gauge (A^0=0), as a (3, 2M)
    array over the slots."""
    M = len(space.modes)
    A = np.zeros((3, 2 * M), dtype=complex)
    for lam in PHOTON_CHANNELS:
        grid = space.grid(lam)
        for n in grid.modes:
            e = config.polarization(lam, n[0])
            amp = 1.0 / math.sqrt(2 * grid.energy(n) * grid.volume)
            j = space.mode_index[(lam, n)]
            A[:, M + j], A[:, j] = amp * e, amp * np.conj(e)
    return A


def stress_tensor_em(space: FockSpace, mu: int, nu: int,
                     config: Optional[EMFieldConfig] = None) -> QuadraticObservable:
    """EM stress tensor from the covariant definition, expressed in E and B:

        T^{00} = (|E|^2+|B|^2)/2
        T^{0i} = (E x B)^i
        T^{ij} = delta_ij (|E|^2+|B|^2)/2 - E^i E^j - B^i B^j

    The T^{ij} sign follows from g^{mu nu} F^2/4 - F^{mu a} g_ab F^{nu b}
    (traceless, and zero transverse pressure for a plane wave).
    """
    Q, _ = _slot_transfers(space)
    A = _em_vector_slots(space, config or EMFieldConfig())
    # E = -d_t A and B = curl A, derivatives as i q^mu on each slot
    E = -1j * Q[:-1, 0] * A
    B = np.zeros_like(A)
    for (i, j, k), s in _LEVI_CIVITA.items():
        # (curl A)^i = eps_ijk d_j A^k, with d_j -> -i q^j (spatial, upper index)
        B[i] += s * (-1j) * Q[:-1, j + 1] * A[k]

    if mu == 0 and nu == 0:
        pairs = [(0.5, F[i], F[i]) for F in (E, B) for i in range(3)]
    elif mu == 0 or nu == 0:
        i = (mu + nu) - 1  # the spatial index
        pairs = [(s, E[j], B[k]) for (ii, j, k), s in _LEVI_CIVITA.items()
                 if ii == i]
    else:
        i, j = mu - 1, nu - 1
        pairs = [(-1.0, E[i], E[j]), (-1.0, B[i], B[j])]
        if i == j:
            pairs += [(0.5, F[k], F[k]) for F in (E, B) for k in range(3)]
    W = sum(np.multiply.outer(w * l1, l2) for w, l1, l2 in pairs)
    return _symmetrized(space, f"T{mu}{nu}_em", W)


def em_field_strength_density(space: FockSpace, mu: int, nu: int,
                              config: Optional[EMFieldConfig] = None,
                              ) -> QuadraticObservable:
    """F^{mu nu} = d^mu A^nu - d^nu A^mu as a linear observable density."""
    Q, _ = _slot_transfers(space)
    A = _em_vector_slots(space, config or EMFieldConfig())

    def dA(m, n_):
        # d^m A^n with A^0 = 0;  d^m -> i q^m (upper index)
        return 1j * Q[:-1, m] * A[n_ - 1] if n_ else np.zeros(A.shape[1], complex)

    return _linear(space, f"F{mu}{nu}", dA(mu, nu) - dA(nu, mu))
