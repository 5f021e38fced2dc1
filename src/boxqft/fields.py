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
annihilator (lattice transfer +-mode_lattice[j]).  A linear field
component at x = 0 is a coefficient vector over the 2M slots, and
derivatives act analytically as multiplication by i*Q[:, mu].  A bilinear
is the slot matrix W = sum w outer(l1, l2), which each builder writes once,
as an elementwise function entry(s, t) = W[s, t] of slot-index arrays.
Normal ordering moves it into the upper triangle, N[s, t] = W[s, t] +- W[t, s]
for s < t, and the subtracted vacuum constant, the trace of W's a-c block
(M entries), is recorded, not kept, which makes all vacuum expectations
vanish identically.

Densities are one (left, right, coeff) record per operator product
(left = -1 for a single operator); a term's transfer Q[left] + Q[right] is
computed when needed, so spatial/temporal window integrals reduce to closed
forms evaluated on arrays.  A builder's density forms its full records, all
nonzero entries of N on the broadcast index grid, the first time they are
read.  A window or a Lehmann sample needs only the terms at a lattice
target (0, or +-lat(p)), and each slot s has at most one partner t per
channel and kind with lat[s] + lat[t] = target; so
QuadraticObservable.select evaluates N on those O(M) slot pairs alone.
Both paths perform the same float operations on each entry, so the
selected terms are the full records' terms at the target, bit for bit.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .errors import BoxQFTError, DimensionMismatch, ZeroMomentum
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


def spinor_u(k3: float, handedness: str, m: float) -> np.ndarray:
    """Positive-energy helicity spinor for momentum (0,0,k3), k3 != 0, as a
    (4,) complex array.

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
    return comp / math.sqrt(2 * E)


def spinor_v(k3: float, handedness: str, m: float) -> np.ndarray:
    """Antiparticle spinor by charge conjugation, v = i*gamma2*conj(u), as a
    (4,) complex array.

    The source material never writes v explicitly; this standard construction
    is validated through the equal-time anticommutator test.
    """
    return 1j * GAMMA[2] @ np.conj(spinor_u(k3, handedness, m))


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


def _slot_codes(space: FockSpace) -> dict:
    """What a selection reads of the space at any target, kept on the space
    (FockSpace._lattice_pairs; _lattice_pairs adds the slot pairs of the
    last lattice pair): every slot's lattice transfer as one integer, code
    (2M+1 codes, slot -1's last), the slots of each code, and which slots
    are fermionic.  The components are balanced digits in a base that holds
    any sum of two, so a term's code is the sum of its slots' codes, and
    equal codes mean equal vectors.  Row 1 + c - low of slots lists the
    slots with code c, ascending, padded with -1; its first and last rows
    are all -1, for codes out of range."""
    memo = space._lattice_pairs
    if memo is None:
        lat = space.mode_lattice
        reach = 2 * int(np.abs(lat).max(initial=0))
        base = 2 * reach + 1
        code = (lat[:, 0] * base + lat[:, 1]) * base + lat[:, 2]
        code = np.concatenate([code, -code, [0]])
        rank = np.argsort(code[:-1], kind="stable")
        low = int(code.min())
        row = code[rank] - low + 1
        # each slot's place among the slots of its code
        place = np.arange(len(rank)) - np.searchsorted(row, row)
        slots = np.full((int(row.max(initial=0)) + 2,
                         int(place.max(initial=0)) + 1), -1)
        slots[row, place] = rank
        memo = space._lattice_pairs = {
            "reach": reach, "base": base, "code": code, "low": low,
            "slots": slots, "fermi": np.tile(space.fermionic, 2), "pair": None}
    return memo


def _target_codes(codes: dict, targets) -> list:
    """Each lattice target's code, None for one that no two slots reach."""
    reach, base = codes["reach"], codes["base"]
    return [(t[0] * base + t[1]) * base + t[2]
            if max(abs(v) for v in t) <= reach else None for t in targets]


def _partners(codes: dict, targets: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slot pairs s <= t whose codes sum to one of the target codes, as
    (s, t, i) with i the index of that target, ascending in (s, t).  Within
    one channel and kind the modes' lattice vectors differ, so each slot has
    at most one partner per target, channel and kind: O(M) pairs."""
    code = codes["code"][:-1]
    # the rows of the codes each slot needs, per target; a code out of
    # range reads a row of -1, which no slot s >= 0 passes
    partner = codes["slots"].take((targets - codes["low"] + 1)[:, None] - code,
                                  axis=0, mode="clip")
    i, s, k = np.nonzero(partner >= np.arange(len(code))[:, None])
    t = partner[i, s, k]
    if len(targets) > 1:
        key = np.argsort(s * len(code) + t)
        s, t, i = s[key], t[key], i[key]
    return s, t, i


def _lattice_pairs(space: FockSpace, pair: set) -> dict:
    """The slot pairs s <= t at the targets of a lattice pair {lat, -lat}
    (_partners), as term records with the coefficient to fill in, and what
    normal ordering reads of them: both orders of the slots for one entry()
    call, the fermionic sign, and the diagonal pairs.  The space keeps
    those of its last pair, which every density on it asked at the same p
    shares."""
    memo = _slot_codes(space)
    if memo["pair"] != pair:
        order = sorted(pair)
        want = _target_codes(memo, order)
        reached = [k for k, c in enumerate(want) if c is not None]
        s, t, i = _partners(memo, np.array([want[k] for k in reached],
                                           dtype=np.int64))
        fermi = memo["fermi"]
        diagonal = np.flatnonzero(s == t)
        memo.update(
            pair=pair, targets=[order[k] for k in reached], target=i,
            records=_terms(s, t, np.zeros(len(s))),
            orders=(np.concatenate([s, t]), np.concatenate([t, s])),
            sign=np.where(fermi[s] & fermi[t], -1.0, 1.0) if fermi.any() else None,
            diagonal=diagonal, fermionic=fermi[s[diagonal]])
    return memo


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
    search over the table's keys.
    """
    left, right = terms["left"], terms["right"]
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


def _check_space(space: FockSpace, *densities: "QuadraticObservable") -> None:
    """Raise unless every density is on space itself: terms number the slots
    of their own space, so read on another they name other modes, or none."""
    if any(d.space is not space for d in densities):
        raise DimensionMismatch("the densities must be on the space passed in")


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


class _SlotMatrix:
    """A builder's slot matrix W, given elementwise, and its normal-ordered
    form N (see _quadratic).

    entry(s, t) is W[s, t] over broadcastable arrays of slot indices of the
    same number of dimensions, with the same float operations in the same
    order at any shape.  records() evaluates it on the full index grid and
    normal-orders W as a matrix; at_pairs() evaluates N at given slot pairs
    alone.  Both give N's entries bit for bit: the grid's W.T is W at the
    swapped pairs, and every step is elementwise.  symmetrize averages both
    operator orders, (W + W.T) * 0.5, first.
    """

    def __init__(self, space: FockSpace, entry, symmetrize: bool):
        self.entry = entry
        self.symmetrize = symmetrize
        self.fermi = np.tile(space.fermionic, 2)

    def vacuum(self) -> complex:
        """The trace of W's a-c block, sum_j W[M + j, j], summed exactly
        (math.fsum) so that the constant is correctly rounded: a
        near-massless zero mode makes one entry far larger than the rest."""
        M = len(self.fermi) // 2
        creators, annihilators = np.arange(M), M + np.arange(M)
        contractions = self.entry(annihilators, creators)
        if self.symmetrize:
            contractions = contractions + self.entry(creators, annihilators)
            contractions *= 0.5
        return complex(math.fsum(contractions.real),
                       math.fsum(contractions.imag))

    def records(self) -> np.ndarray:
        """Every nonzero entry of N as terms, row-major."""
        slots = np.arange(len(self.fermi))
        W = self.entry(slots[:, None], slots[None, :])
        if self.symmetrize:
            W = W + W.T
            W *= 0.5
        fermi = self.fermi
        upper = ~np.tri(len(fermi), dtype=bool)
        N = np.where(upper, W.T, 0)
        if fermi.any():
            N *= np.where(np.logical_and.outer(fermi, fermi), -1.0, 1.0)
        np.add(N, W, out=N, where=upper)
        N[np.diag_indices_from(N)] = np.where(fermi, 0.0, np.diagonal(W))
        left, right = np.nonzero(N)
        return _terms(left, right, N[left, right])

    def at_pairs(self, pairs: dict) -> np.ndarray:
        """N at the slot pairs of _lattice_pairs: records()' operations on
        those entries alone, from one call of entry on both orders of the
        slots (a symmetrized W is the same at both, as addition commutes
        bit for bit)."""
        both = self.entry(*pairs["orders"])
        st, ts = both[:len(pairs["target"])], both[len(pairs["target"]):]
        if self.symmetrize:
            st = st + ts
            st *= 0.5
            ts = st
        N = ts.copy() if pairs["sign"] is None else ts * pairs["sign"]
        N += st
        diagonal = pairs["diagonal"]
        if len(diagonal):
            N[diagonal] = np.where(pairs["fermionic"], 0.0, st[diagonal])
        return N


class QuadraticObservable:
    """A field bilinear as TERM_DTYPE records (see the module docstring).
    The builders below return densities S(x), evaluated with .at(x); a
    window (boxqft.measurement) weights the terms at its lattice targets
    (.select) into the windowed observable.  .matrix() realizes the terms as
    they stand, once.

    terms is the records, or a builder's _SlotMatrix: its records are built
    the first time .terms is read, and .select evaluates the slot matrix at
    the targets' partner pairs alone.  Every slot of given records must lie
    in [-1, 2M), checked here once for all later uses: slot -1 is the last
    row of _slot_transfers' arrays, so a slot outside would read another
    slot's row or none."""

    def __init__(self, space: FockSpace, label: str, terms,
                 vacuum_subtraction: complex = 0.0):
        self.space = space
        self.label = label
        self.vacuum_subtraction = vacuum_subtraction
        self._slot_matrix: Optional[_SlotMatrix] = None
        self._terms: Optional[np.ndarray] = None
        if isinstance(terms, _SlotMatrix):
            self._slot_matrix = terms
        else:
            self._terms = np.asarray(terms, dtype=TERM_DTYPE)
            M2 = 2 * len(space.modes)
            slots = np.concatenate([self._terms["left"], self._terms["right"]])
            bad = slots[(slots < -1) | (slots >= M2)]
            if len(bad):
                raise BoxQFTError(f"term slots must lie in [-1, {M2}), "
                                  f"not {bad[0]}")
        self._matrix: Optional[Operator] = None
        # the terms at the last lattice pair {lat, -lat} selected:
        # (pair, its targets in order, terms, each term's target index)
        self._selection = None
        # the thermal moments' diagonals for n = 1, 2, ... (boxqft.measurement)
        self._moment_diagonals: List[np.ndarray] = []
        # block terms, line spectra and vacuum records of the Lehmann sum
        # for the last lattice pair {lat, -lat} asked about (boxqft.spectral)
        self._momentum_memo = None

    @property
    def terms(self) -> np.ndarray:
        if self._terms is None:
            self._terms = self._slot_matrix.records()
        return self._terms

    def matrix(self) -> Operator:
        if self._matrix is None:
            self._matrix = _assemble(self.space, self.terms, self.terms["coeff"])
        return self._matrix

    def hermiticity_defect(self) -> float:
        return self.matrix().hermiticity_defect()

    def select(self, targets) -> Tuple[np.ndarray, List[np.ndarray]]:
        """The terms whose lattice transfer is one of the targets, in term
        order, and for each target the mask of those at it.

        The selection is made for the targets and their negatives, the
        lattice pair {lat, -lat} of a cosine window or a Lehmann memo, and
        kept for the last pair asked about: the window and the beta = inf
        sample at one p share it.  A builder's density evaluates its slot
        matrix at the pairs' partner slots alone (_partners); given records
        are selected from.  The returned terms are read-only."""
        targets = [tuple(map(int, t)) for t in targets]
        pair = set(targets).union((-a, -b, -c) for a, b, c in targets)
        if self._selection is None or self._selection[0] != pair:
            if self._slot_matrix is not None:
                pairs = _lattice_pairs(self.space, pair)
                N = self._slot_matrix.at_pairs(pairs)
                on = np.flatnonzero(N)
                terms = pairs["records"].take(on)
                terms["coeff"] = N.take(on)
                order, at = pairs["targets"], pairs["target"].take(on)
            else:
                order = sorted(pair)
                codes = _slot_codes(self.space)
                want = _target_codes(codes, order)
                code = codes["code"]
                total = code[self._terms["left"]] + code[self._terms["right"]]
                at = np.full(len(total), -1)
                for k, c in enumerate(want):
                    if c is not None:
                        at[total == c] = k
                on = at >= 0
                terms, at = self._terms[on], at[on]
            terms.flags.writeable = False
            self._selection = (pair, order, terms, at)
        _, order, terms, at = self._selection
        return terms, [at == order.index(t) if t in order
                       else np.zeros(len(terms), dtype=bool) for t in targets]

    def transfers(self) -> Tuple[np.ndarray, np.ndarray]:
        """Four-momentum (n, 4) and lattice (n, 3) transfer of every term."""
        Q, lat = _slot_transfers(self.space)
        terms = self.terms
        return Q[terms["left"]] + Q[terms["right"]], \
            lat[terms["left"]] + lat[terms["right"]]

    def at(self, x: FourVector) -> Operator:
        """Realize the density operator at the spacetime point x."""
        xt = x.as_array()
        q, _ = self.transfers()
        phase = np.exp(1j * (q[:, 0] * xt[0] - q[:, 1] * xt[1]
                             - q[:, 2] * xt[2] - q[:, 3] * xt[3]))
        return _assemble(self.space, self.terms, _cmul(self.terms["coeff"], phase))


def _weighted(terms: np.ndarray, factor,
              hits=()) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The terms with coefficients coeff * factor (by _cmul), per term or
    one factor for all, and the masks in hits over the terms that remain:
    terms whose product is exactly zero are dropped."""
    coeff = _cmul(terms["coeff"], np.asarray(factor, dtype=complex))
    nonzero = coeff != 0
    out = terms[nonzero]
    out["coeff"] = coeff[nonzero]
    return out, [on[nonzero] for on in hits]


def _linear(space: FockSpace, label: str, ell: np.ndarray) -> QuadraticObservable:
    """Density of a linear field component, one term per nonzero slot."""
    right = np.flatnonzero(ell)
    return QuadraticObservable(space, label, _terms(-1, right, ell[right]))


def _quadratic(space: FockSpace, label: str, entry) -> QuadraticObservable:
    """Normal-ordered density of sum_{s,t} W[s,t] op(s) op(t), with W[s, t]
    given elementwise as entry(s, t) over arrays of slot indices.

    Creator slots come first, so reordering each product as creators left,
    annihilators right, slots ascending moves every entry into the upper
    triangle: N[s, t] = W[s, t] + W[t, s] for s < t, except that two
    fermionic slots anticommute (W[t, s] is negated), and N[s, s] = W[s, s]
    (0 for a fermionic square).  Each [a_j, c_j] contraction leaves a
    constant; their sum, the trace of the a-c block, is the subtracted
    vacuum constant, computed here from the M entries alone.  N itself is
    formed when the density's terms are read or selected (_SlotMatrix).
    The sign is applied only when a slot is fermionic; on the symmetrized W
    of a bosonic density, multiplying by 1.0 changes no bit of a kept term.
    """
    N = _SlotMatrix(space, entry, False)
    return QuadraticObservable(space, label, N, vacuum_subtraction=N.vacuum())


def _symmetrized(space: FockSpace, label: str, entry) -> QuadraticObservable:
    """Both operator orders averaged, (W + W.T) * 0.5, which keeps a bosonic
    composite Hermitian; the commutator constants land in the vacuum
    subtraction."""
    N = _SlotMatrix(space, entry, True)
    return QuadraticObservable(space, label, N, vacuum_subtraction=N.vacuum())


def _outer_sum(factors):
    """entry(s, t) = sum_k l_k[s] * r_k[t] for factors [(l_k, r_k)], summed
    from zero in their order; s and t have the same number of dimensions.
    The products are formed at once, one row per factor."""
    left = np.array([l for l, _ in factors])
    right = np.array([r for _, r in factors])

    def entry(s, t):
        products = left.take(s, axis=1) * right.take(t, axis=1)
        W = products[0] + 0.0             # 0 + p_1: a zero's sign as in a sum
        for product in products[1:]:
            W += product
        return W
    return entry


# ---------------------------------------------------------------------------
# scalar field


def _scalar_slots(space: FockSpace) -> np.ndarray:
    """phi(0) over the slots: (2 E V)^(-1/2) on each creator and annihilator
    of the channel "phi"."""
    space.grid("phi")                       # raises UnknownMode
    M = len(space.modes)
    idx = np.array([i for i, m in enumerate(space.modes) if m.channel == "phi"],
                   dtype=np.int64)
    out = np.zeros(2 * M, dtype=complex)
    out[idx] = out[M + idx] = 1.0 / np.sqrt(2 * space.mode_energies[idx]
                                            * space.volume)
    return out


def scalar_density(space: FockSpace) -> QuadraticObservable:
    """The field phi itself as a (linear) observable density."""
    return _linear(space, "phi", _scalar_slots(space))


def scalar_momentum_density(space: FockSpace) -> QuadraticObservable:
    """Conjugate momentum pi = d_t phi."""
    Q, _ = _slot_transfers(space)
    return _linear(space, "pi", _scalar_slots(space) * 1j * Q[:-1, 0])


def scalar_bilinear_density(space: FockSpace) -> QuadraticObservable:
    """Normal-ordered :phi^2:(x)."""
    ell = _scalar_slots(space)
    return _symmetrized(space, "phi2", lambda s, t: ell[s] * ell[t])


def stress_tensor_scalar(space: FockSpace, mu: int, nu: int) -> QuadraticObservable:
    """T^{mu nu} = d^mu phi d^nu phi - g^{mu nu}(d phi . d phi - m^2 phi^2)/2.

    Derivatives act analytically: a slot with transfer q picks up i*q^mu.
    """
    if mu not in range(4) or nu not in range(4):
        raise BoxQFTError("tensor indices must be 0..3")
    ell = _scalar_slots(space)
    m = space.grid("phi").mass
    Q = _slot_transfers(space)[0][:-1]

    def entry(s, t):
        # (i q1^mu)(i q2^nu) symmetrized in (mu,nu), minus the trace part, built
        # in place in three buffers: -(q1^mu q2^nu + q1^nu q2^mu) / 2 and
        # dd = -(q1^0 q2^0 - q1^1 q2^1 - q1^2 q2^2 - q1^3 q2^3)
        shape = np.broadcast_shapes(np.shape(s), np.shape(t))
        vertex, dd, tmp = (np.empty(shape) for _ in range(3))
        np.multiply(Q[s, mu], Q[t, nu], out=vertex)
        vertex += np.multiply(Q[s, nu], Q[t, mu], out=tmp)
        np.negative(vertex, out=vertex)
        vertex /= 2.0
        np.multiply(Q[s, 0], Q[t, 0], out=dd)
        for a in (1, 2, 3):
            dd -= np.multiply(Q[s, a], Q[t, a], out=tmp)
        np.negative(dd, out=dd)
        dd -= m * m
        dd *= METRIC[mu, nu]
        dd /= 2.0
        vertex -= dd
        W = ell[s] * ell[t]
        W *= vertex
        return W

    return _symmetrized(space, f"T{mu}{nu}", entry)


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
                spinor_u(k3, X, grid.mass) / root_v
            psi[:, space.mode_index[(_DIRAC_ANTI[X], n)]] = \
                spinor_v(k3, X, grid.mass) / root_v
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
    # elementwise products summed from the last (a, b) down; a BLAS product
    # would round differently and leave residues where the sum cancels
    return _quadratic(space, f"j{mu}", _outer_sum(
        [(dag[a] * J[a, b], psi[b]) for a, b in reversed(list(zip(*np.nonzero(J))))]))


# ---------------------------------------------------------------------------
# electromagnetic field

PHOTON_CHANNELS = ("V", "H")


def photon_space_channels(grid: ModeGrid):
    if grid.species is not Species.BOSON or grid.mass != 0.0:
        raise BoxQFTError("photon grids must be massless bosonic")
    if grid.axes != (3,):
        raise BoxQFTError("photon fields are implemented for single-axis grids")
    return tuple((ch, grid) for ch in PHOTON_CHANNELS)


def _em_vector_slots(space: FockSpace) -> np.ndarray:
    """The three components of A(0), radiation gauge (A^0=0), as a (3, 2M)
    array over the slots.

    V is linear polarization along axis 1, H along axis 2.  The V vector
    flips sign for k3 < 0 (the standard linear polarization convention
    under k -> -k); the flip only re-phases the modes but fixes the sign of
    counter-propagating interference terms."""
    M = len(space.modes)
    A = np.zeros((3, 2 * M), dtype=complex)
    for lam in PHOTON_CHANNELS:
        grid = space.grid(lam)
        for n in grid.modes:
            e = np.array([-1.0 if n[0] < 0 else 1.0, 0.0, 0.0] if lam == "V"
                         else [0.0, 1.0, 0.0], dtype=complex)
            amp = 1.0 / math.sqrt(2 * grid.energy(n) * grid.volume)
            j = space.mode_index[(lam, n)]
            A[:, M + j], A[:, j] = amp * e, amp * np.conj(e)
    return A


def stress_tensor_em(space: FockSpace, mu: int, nu: int) -> QuadraticObservable:
    """EM stress tensor from the covariant definition, expressed in E and B:

        T^{00} = (|E|^2+|B|^2)/2
        T^{0i} = (E x B)^i
        T^{ij} = delta_ij (|E|^2+|B|^2)/2 - E^i E^j - B^i B^j

    The T^{ij} sign follows from g^{mu nu} F^2/4 - F^{mu a} g_ab F^{nu b}
    (traceless, and zero transverse pressure for a plane wave).
    """
    Q, _ = _slot_transfers(space)
    A = _em_vector_slots(space)
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
    return _symmetrized(space, f"T{mu}{nu}_em",
                        _outer_sum([(w * l1, l2) for w, l1, l2 in pairs]))


def em_field_strength_density(space: FockSpace, mu: int,
                              nu: int) -> QuadraticObservable:
    """F^{mu nu} = d^mu A^nu - d^nu A^mu as a linear observable density."""
    Q, _ = _slot_transfers(space)
    A = _em_vector_slots(space)

    def dA(m, n_):
        # d^m A^n with A^0 = 0;  d^m -> i q^m (upper index)
        return 1j * Q[:-1, m] * A[n_ - 1] if n_ else np.zeros(A.shape[1], complex)

    return _linear(space, f"F{mu}{nu}", dA(mu, nu) - dA(nu, mu))
