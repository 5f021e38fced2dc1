"""Field operators as mode expansions and composite quadratic observables.

Mode expansions used by the builders (box volume V, on-shell k0 = E(k)):

    scalar   phi(x)  = sum_k (2 E V)^(-1/2) (a_k e^{-ik.x} + a+_k e^{ik.x})
    Dirac    psi(x)  = sum_{k,X=L,R} V^(-1/2) (a^X_k u^X_k e^{-ik.x}
                                               + b+^X_k v^X_k e^{ik.x})
    photon   A(x)    = sum_{k,lam} (2 E V)^(-1/2) (e^lam_k a^lam_k e^{-ik.x}
                                                   + conj(e^lam_k) a+^lam_k e^{ik.x})

Each elementary piece carries a four-momentum transfer q (+k for creation,
-k for annihilation) so that derivatives act analytically as multiplication
by i*q^mu and spatial/temporal window integrals reduce to closed forms per
mode pair.  Composite observables are normal-ordered (the subtracted
vacuum constant is recorded, not kept), which makes all vacuum expectations
vanish identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import BoxQFTError, UnknownMode, ZeroMomentum
from .fock import FockSpace, ModeGrid, Species
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


@dataclass(frozen=True)
class GammaMatrices:
    gamma: Tuple[np.ndarray, ...] = GAMMA
    pauli: Tuple[np.ndarray, ...] = PAULI

    def anticommutator_defect(self) -> float:
        """max |{g^mu, g^nu} - 2 g^{mu nu}| over all index pairs."""
        worst = 0.0
        for mu in range(4):
            for nu in range(4):
                acomm = self.gamma[mu] @ self.gamma[nu] + self.gamma[nu] @ self.gamma[mu]
                worst = max(worst, float(np.max(np.abs(
                    acomm - 2 * METRIC[mu, nu] * np.eye(4)))))
        return worst


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

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


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
# quadratic observables


@dataclass(frozen=True)
class OpFactor:
    kind: str                    # "c" create / "a" annihilate
    channel: str
    mode: Tuple[int, ...]


@dataclass(frozen=True)
class QuadTerm:
    ops: Tuple[OpFactor, ...]
    coeff: complex
    transfer: Tuple[float, float, float, float]      # e^{i transfer . x}
    lattice: Tuple[int, int, int]                    # spatial transfer, lattice units

    def transfer_vector(self) -> FourVector:
        return FourVector(*self.transfer)


def _assemble(space: FockSpace, terms: Sequence[QuadTerm], coeffs) -> sp.csr_matrix:
    """sum_t coeffs[t] * (product of t.ops) as one CSR matrix.

    A ladder operator maps each basis state to at most one basis state
    (FockSpace.ladder_map), so a product of factors is a partial index map:
    starting from the rightmost factor's (source, target, amp) triplets, each
    factor to the left is applied by looking the current targets up among its
    sources.  All terms' (row, col, value) triplets go into a single COO
    assembly; duplicates are summed and exact zeros dropped.
    """
    dim = space.dim
    coeffs = np.asarray(coeffs, dtype=complex)
    slots: Dict[OpFactor, int] = {}
    factors = [[slots.setdefault(op, len(slots)) for op in t.ops] for t in terms]
    maps = [space.ladder_map(op.channel, op.mode, op.kind) for op in slots]
    count = np.array([len(m[0]) for m in maps], dtype=np.int64)
    start = np.cumsum(count) - count
    src = np.concatenate([m[0] for m in maps] + [np.zeros(0, np.int64)])
    tgt = np.concatenate([m[1] for m in maps] + [np.zeros(0, np.int64)])
    amp = np.concatenate([m[2] for m in maps] + [np.zeros(0, complex)])
    # (slot, source) keys, ascending: slots are concatenated in order and each
    # map is sorted by source
    key = np.repeat(np.arange(len(maps), dtype=np.int64) * dim, count) + src

    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [amp[:0]]
    for length in sorted({len(f) for f in factors}):
        sel = [i for i, f in enumerate(factors) if len(f) == length]
        c = coeffs[sel]
        if length == 0:
            rows.append(np.tile(np.arange(dim), len(sel)))
            cols.append(rows[-1])
            vals.append(np.repeat(c, dim))
            continue
        fac = np.array([factors[i] for i in sel], dtype=np.int64)
        # every triplet of each term's rightmost factor
        n = count[fac[:, -1]]
        term = np.repeat(np.arange(len(sel)), n)
        pos = np.arange(n.sum()) + np.repeat(start[fac[:, -1]] - (np.cumsum(n) - n), n)
        col, row, val = src[pos], tgt[pos], amp[pos]
        for f in range(length - 2, -1, -1):
            want = fac[term, f] * dim + row
            hit = np.minimum(np.searchsorted(key, want), len(key) - 1)
            ok = key[hit] == want
            term, col, hit = term[ok], col[ok], hit[ok]
            row, val = tgt[hit], val[ok] * amp[hit]
        rows.append(row)
        cols.append(col)
        vals.append(c[term] * val)
    out = sp.csr_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(dim, dim), dtype=complex)
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


class QuadraticObservable:
    """Windowed field bilinear: numeric coefficients over mode-operator pairs.

    Realized lazily as one sparse matrix, assembled in a single pass from the
    ladder operators' index maps (all sign conventions ride on the operator
    algebra).
    """

    def __init__(self, space: FockSpace, label: str, terms: Sequence[QuadTerm],
                 vacuum_subtraction: float = 0.0, window: Optional[dict] = None):
        self.space = space
        self.label = label
        self.terms = tuple(terms)
        self.vacuum_subtraction = vacuum_subtraction
        self.window = dict(window or {})
        self._matrix: Optional[sp.csr_matrix] = None

    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            self._matrix = _assemble(self.space, self.terms,
                                     [t.coeff for t in self.terms])
        return self._matrix

    def hermiticity_defect(self) -> float:
        m = self.matrix()
        d = m - m.conjugate().transpose()
        return float(np.max(np.abs(d.data))) if d.nnz else 0.0

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        return self.matrix() @ amplitudes


class QuadraticDensity:
    """Spacetime density S(x): terms carry e^{i q.x} phases.

    Evaluate at a point with .at(x) or integrate against measurement windows
    (module boxqft.measurement).  Densities are normal-ordered; the dropped
    vacuum constant is kept in .vacuum_subtraction for bookkeeping.
    """

    def __init__(self, space: FockSpace, label: str, terms: Sequence[QuadTerm],
                 vacuum_subtraction: float = 0.0):
        self.space = space
        self.label = label
        self.terms = tuple(terms)
        self.vacuum_subtraction = vacuum_subtraction

    def at(self, x: FourVector) -> sp.csr_matrix:
        """Realize the density operator at the spacetime point x."""
        xt = x.as_array()
        q = np.array([t.transfer for t in self.terms], dtype=float).reshape(-1, 4)
        phase = np.exp(1j * (q[:, 0] * xt[0] - q[:, 1] * xt[1]
                             - q[:, 2] * xt[2] - q[:, 3] * xt[3]))
        coeffs = np.array([t.coeff for t in self.terms], dtype=complex)
        return _assemble(self.space, self.terms, coeffs * phase)

    def map_terms(self, label: str, fn) -> "QuadraticObservable":
        """New observable with coefficients coeff -> fn(term) * coeff."""
        out = []
        for t in self.terms:
            w = fn(t)
            if w != 0.0:
                out.append(QuadTerm(t.ops, t.coeff * w, t.transfer, t.lattice))
        return QuadraticObservable(self.space, label, _merge(out),
                                   vacuum_subtraction=self.vacuum_subtraction)


# -- term algebra -----------------------------------------------------------


def _merge(terms: Sequence[QuadTerm]) -> List[QuadTerm]:
    acc: Dict[Tuple, QuadTerm] = {}
    for t in terms:
        key = t.ops
        if key in acc:
            old = acc[key]
            acc[key] = QuadTerm(old.ops, old.coeff + t.coeff, old.transfer, old.lattice)
        else:
            acc[key] = t
    return [t for t in acc.values() if t.coeff != 0]


def _normal_order(space: FockSpace, terms: Sequence[QuadTerm]):
    """Creators left, annihilators right, sorted within kind.

    Returns (terms, dropped_constant): [a_i, c_j] contractions produce the
    vacuum constant that normal ordering subtracts.
    """
    const = 0.0
    done: List[QuadTerm] = []
    work = list(terms)
    while work:
        t = work.pop()
        ops = t.ops
        if len(ops) <= 1:
            done.append(t)
            continue
        o1, o2 = ops
        fermi = space.is_fermionic(o1.channel) and space.is_fermionic(o2.channel)
        i1 = space.mode_index[(o1.channel, o1.mode)]
        i2 = space.mode_index[(o2.channel, o2.mode)]
        if o1.kind == "a" and o2.kind == "c":
            # a c = (+-) c a + delta
            if i1 == i2:
                const += t.coeff
            sign = -1.0 if fermi else 1.0
            work.append(QuadTerm((o2, o1), sign * t.coeff, t.transfer, t.lattice))
            continue
        if o1.kind == o2.kind and i1 > i2:
            if fermi and i1 == i2:
                continue  # fermionic square vanishes
            sign = -1.0 if fermi else 1.0
            work.append(QuadTerm((o2, o1), sign * t.coeff, t.transfer, t.lattice))
            continue
        if o1.kind == o2.kind and fermi and i1 == i2:
            continue
        done.append(t)
    return _merge(done), const


@dataclass(frozen=True)
class _Piece:
    """One term of a linear field component: coeff * op * e^{i q.x}."""
    op: OpFactor
    coeff: complex
    q: np.ndarray            # four-momentum transfer
    lattice: Tuple[int, int, int]


def _mode_pieces(space: FockSpace, channel: str, amp_a, amp_c) -> List[_Piece]:
    grid = space.grid(channel)
    out = []
    for n in grid.modes:
        k = grid.momentum(n).as_array()
        lat = grid.lattice3(n)
        ca, cc = amp_a(grid, n), amp_c(grid, n)
        if ca != 0:
            out.append(_Piece(OpFactor("a", channel, n), ca, -k,
                              tuple(-v for v in lat)))
        if cc != 0:
            out.append(_Piece(OpFactor("c", channel, n), cc, +k, lat))
    return out


def _bilinear(space, label, pieces1, pieces2, vertex):
    """Normal-ordered sum over piece pairs of vertex(q1,q2) * op1 op2.

    Both operator orders are averaged (bosonic factors only), which keeps
    composite observables Hermitian; the commutator constants land in the
    normal-ordering subtraction.
    """
    raw: List[QuadTerm] = []
    for p1 in pieces1:
        for p2 in pieces2:
            v = vertex(p1.q, p2.q)
            if v == 0:
                continue
            c = p1.coeff * p2.coeff * v
            q = tuple(p1.q + p2.q)
            lat = tuple(a + b for a, b in zip(p1.lattice, p2.lattice))
            raw.append(QuadTerm((p1.op, p2.op), 0.5 * c, q, lat))
            raw.append(QuadTerm((p2.op, p1.op), 0.5 * c, q, lat))
    terms, const = _normal_order(space, raw)
    return QuadraticDensity(space, label, terms, vacuum_subtraction=const)


# ---------------------------------------------------------------------------
# scalar field


def _scalar_amp(grid: ModeGrid, n) -> float:
    return 1.0 / math.sqrt(2 * grid.energy(n) * grid.volume)


def scalar_pieces(space: FockSpace, channel: str = "phi") -> List[_Piece]:
    return _mode_pieces(space, channel,
                        lambda g, n: _scalar_amp(g, n),
                        lambda g, n: _scalar_amp(g, n))


def scalar_field(space: FockSpace, x: FourVector, channel: str = "phi") -> sp.csr_matrix:
    """phi(x) as a Fock operator."""
    return scalar_density(space, channel).at(x)


def scalar_density(space: FockSpace, channel: str = "phi") -> QuadraticDensity:
    """The field phi itself as a (linear) observable density."""
    terms = [QuadTerm((p.op,), p.coeff, tuple(p.q), p.lattice)
             for p in scalar_pieces(space, channel)]
    return QuadraticDensity(space, "phi", terms)


def scalar_momentum_density(space: FockSpace, channel: str = "phi") -> QuadraticDensity:
    """Conjugate momentum pi = d_t phi."""
    terms = [QuadTerm((p.op,), p.coeff * 1j * p.q[0], tuple(p.q), p.lattice)
             for p in scalar_pieces(space, channel)]
    return QuadraticDensity(space, "pi", terms)


def scalar_momentum(space: FockSpace, x: FourVector, channel: str = "phi") -> sp.csr_matrix:
    return scalar_momentum_density(space, channel).at(x)


def scalar_bilinear_density(space: FockSpace, channel: str = "phi") -> QuadraticDensity:
    """Normal-ordered :phi^2:(x)."""
    p = scalar_pieces(space, channel)
    return _bilinear(space, "phi2", p, p, lambda q1, q2: 1.0)


def stress_tensor_scalar(space: FockSpace, mu: int, nu: int,
                         channel: str = "phi") -> QuadraticDensity:
    """T^{mu nu} = d^mu phi d^nu phi - g^{mu nu}(d phi . d phi - m^2 phi^2)/2.

    Derivatives act analytically: a piece with transfer q picks up i*q^mu.
    """
    if mu not in range(4) or nu not in range(4):
        raise BoxQFTError("tensor indices must be 0..3")
    p = scalar_pieces(space, channel)
    m = space.grid(channel).mass
    g = METRIC

    def vertex(q1, q2):
        # (i q1^mu)(i q2^nu) symmetrized in (mu,nu), minus the trace part
        dmu_dnu = -(q1[mu] * q2[nu] + q1[nu] * q2[mu]) / 2.0
        dd = -(q1[0] * q2[0] - q1[1] * q2[1] - q1[2] * q2[2] - q1[3] * q2[3])
        return dmu_dnu - g[mu, nu] * (dd - m * m) / 2.0

    return _bilinear(space, f"T{mu}{nu}", p, p, vertex)


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


def _dirac_component_pieces(space: FockSpace, alpha: int, dagger: bool) -> List[_Piece]:
    """Pieces of psi_alpha(x) (or its conjugate)."""
    grid = space.grid("L")
    V = grid.volume
    out: List[_Piece] = []
    for n in grid.modes:
        k3 = grid.wavevector(n)[2]
        k = grid.momentum(n).as_array()
        lat = grid.lattice3(n)
        for X in _DIRAC_PARTICLE:
            u = spinor_u(k3, X, grid.mass).components[alpha]
            v = spinor_v(k3, X, grid.mass).components[alpha]
            if not dagger:
                if u != 0:
                    out.append(_Piece(OpFactor("a", X, n), u / math.sqrt(V),
                                      -k, tuple(-w for w in lat)))
                if v != 0:
                    out.append(_Piece(OpFactor("c", _DIRAC_ANTI[X], n),
                                      v / math.sqrt(V), +k, lat))
            else:
                if u != 0:
                    out.append(_Piece(OpFactor("c", X, n), np.conj(u) / math.sqrt(V),
                                      +k, lat))
                if v != 0:
                    out.append(_Piece(OpFactor("a", _DIRAC_ANTI[X], n),
                                      np.conj(v) / math.sqrt(V),
                                      -k, tuple(-w for w in lat)))
    return out


def dirac_field(space: FockSpace, x: FourVector) -> List[sp.csr_matrix]:
    """The four spinor components of psi(x) as Fock operators."""
    ops = []
    for alpha in range(4):
        pieces = _dirac_component_pieces(space, alpha, dagger=False)
        terms = [QuadTerm((p.op,), p.coeff, tuple(p.q), p.lattice) for p in pieces]
        ops.append(QuadraticDensity(space, f"psi{alpha}", terms).at(x))
    return ops


def dirac_current_density(space: FockSpace, mu: int) -> QuadraticDensity:
    """Normal-ordered current component :j^mu: = :psi+ J^mu psi:.

    Uses the explicit spinor-matrix form of the current (J^0 = Id,
    J^3 = diag(-1,1,1,-1), ...).
    """
    if mu not in range(4):
        raise BoxQFTError("current index must be 0..3")
    J = current_matrices()[mu]
    raw: List[QuadTerm] = []
    dag = [_dirac_component_pieces(space, a, dagger=True) for a in range(4)]
    und = [_dirac_component_pieces(space, b, dagger=False) for b in range(4)]
    for a in range(4):
        for b in range(4):
            if J[a, b] == 0:
                continue
            for p1 in dag[a]:
                for p2 in und[b]:
                    c = p1.coeff * J[a, b] * p2.coeff
                    raw.append(QuadTerm(
                        (p1.op, p2.op), c, tuple(p1.q + p2.q),
                        tuple(x + y for x, y in zip(p1.lattice, p2.lattice))))
    terms, const = _normal_order(space, raw)
    return QuadraticDensity(space, f"j{mu}", terms, vacuum_subtraction=const)


# ---------------------------------------------------------------------------
# electromagnetic field

PHOTON_CHANNELS = ("V", "H")


def photon_space_channels(grid: ModeGrid):
    if grid.species is not Species.BOSON or grid.mass != 0.0:
        raise BoxQFTError("photon grids must be massless bosonic")
    if grid.axes != (3,):
        raise BoxQFTError("photon fields are implemented for single-axis grids")
    return tuple((ch, grid) for ch in PHOTON_CHANNELS)


def _em_vector_pieces(space: FockSpace, config: EMFieldConfig):
    """Pieces of the three components of A(x), radiation gauge (A^0=0)."""
    comp_pieces = [[] for _ in range(3)]
    for lam in PHOTON_CHANNELS:
        grid = space.grid(lam)
        f0 = grid.volume
        for n in grid.modes:
            e = config.polarization(lam, n[0])
            k = grid.momentum(n).as_array()
            lat = grid.lattice3(n)
            amp = 1.0 / math.sqrt(2 * grid.energy(n) * f0)
            for i in range(3):
                if e[i] != 0:
                    comp_pieces[i].append(_Piece(OpFactor("a", lam, n),
                                                 amp * e[i], -k,
                                                 tuple(-w for w in lat)))
                if np.conj(e[i]) != 0:
                    comp_pieces[i].append(_Piece(OpFactor("c", lam, n),
                                                 amp * np.conj(e[i]), +k, lat))
    return comp_pieces


def _em_EB_pieces(space: FockSpace, config: EMFieldConfig):
    """E = -d_t A and B = curl A, derivatives as i q^mu on each piece."""
    A = _em_vector_pieces(space, config)
    E = [[_Piece(p.op, -1j * p.q[0] * p.coeff, p.q, p.lattice) for p in A[i]]
         for i in range(3)]
    B = [[], [], []]
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    for (i, j, k), s in eps.items():
        # (curl A)^i = eps_ijk d_j A^k, with d_j -> -i q^j (spatial, upper index)
        for p in A[k]:
            B[i].append(_Piece(p.op, s * (-1j) * p.q[j + 1] * p.coeff, p.q, p.lattice))
    return E, B


def stress_tensor_em(space: FockSpace, mu: int, nu: int,
                     config: Optional[EMFieldConfig] = None) -> QuadraticDensity:
    """EM stress tensor from the covariant definition, expressed in E and B:

        T^{00} = (|E|^2+|B|^2)/2
        T^{0i} = (E x B)^i
        T^{ij} = delta_ij (|E|^2+|B|^2)/2 - E^i E^j - B^i B^j

    The T^{ij} sign follows from g^{mu nu} F^2/4 - F^{mu a} g_ab F^{nu b}
    (traceless, and zero transverse pressure for a plane wave).
    """
    config = config or EMFieldConfig()
    E, B = _em_EB_pieces(space, config)
    unit = lambda q1, q2: 1.0

    def combine(pairs):
        raw = []
        for w, p1s, p2s in pairs:
            for p1 in p1s:
                for p2 in p2s:
                    c = w * p1.coeff * p2.coeff
                    q = tuple(p1.q + p2.q)
                    lat = tuple(a + b for a, b in zip(p1.lattice, p2.lattice))
                    # symmetrized operator order keeps the observable Hermitian
                    raw.append(QuadTerm((p1.op, p2.op), 0.5 * c, q, lat))
                    raw.append(QuadTerm((p2.op, p1.op), 0.5 * c, q, lat))
        terms, const = _normal_order(space, raw)
        return QuadraticDensity(space, f"T{mu}{nu}_em", terms,
                                vacuum_subtraction=const)

    if mu == 0 and nu == 0:
        pairs = [(0.5, E[i], E[i]) for i in range(3)]
        pairs += [(0.5, B[i], B[i]) for i in range(3)]
        return combine(pairs)
    if mu == 0 or nu == 0:
        i = (mu + nu) - 1  # the spatial index
        eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
               (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
        pairs = [(s, E[j], B[k]) for (ii, j, k), s in eps.items() if ii == i]
        return combine(pairs)
    i, j = mu - 1, nu - 1
    pairs = [(-1.0, E[i], E[j]), (-1.0, B[i], B[j])]
    if i == j:
        pairs += [(0.5, E[k], E[k]) for k in range(3)]
        pairs += [(0.5, B[k], B[k]) for k in range(3)]
    return combine(pairs)


def em_field_strength_density(space: FockSpace, mu: int, nu: int,
                              config: Optional[EMFieldConfig] = None) -> QuadraticDensity:
    """F^{mu nu} = d^mu A^nu - d^nu A^mu as a linear observable density."""
    config = config or EMFieldConfig()
    A = _em_vector_pieces(space, config)

    def dA(m, n_):
        # d^m A^n with A^0 = 0;  d^m -> i q^m (upper index)
        if n_ == 0:
            return []
        return [_Piece(p.op, 1j * p.q[m] * p.coeff, p.q, p.lattice)
                for p in A[n_ - 1]]

    pieces = dA(mu, nu) + [_Piece(p.op, -p.coeff, p.q, p.lattice)
                           for p in dA(nu, mu)]
    terms = [QuadTerm((p.op,), p.coeff, tuple(p.q), p.lattice) for p in pieces]
    return QuadraticDensity(space, f"F{mu}{nu}", _merge(terms))
