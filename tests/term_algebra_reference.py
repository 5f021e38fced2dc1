"""Reference term algebra: per-term operator products, merged and normal
ordered one term at a time.

This is the symbolic construction the slot-array builders of boxqft.fields
replaced, kept here as an equivalence oracle.  Each builder returns
(terms, vacuum_constant) with terms a list of QuadTerm; a term's operators
are OpFactor(kind, channel, mode) with kind "c" (create) or "a" (annihilate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from boxqft.fields import PHOTON_CHANNELS, current_matrices, spinor_u, spinor_v
from boxqft.spacetime import METRIC

_DIRAC_ANTI = {"L": "Lbar", "R": "Rbar"}
_EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}


@dataclass(frozen=True)
class OpFactor:
    kind: str
    channel: str
    mode: Tuple[int, ...]


@dataclass(frozen=True)
class QuadTerm:
    ops: Tuple[OpFactor, ...]
    coeff: complex
    transfer: Tuple[float, float, float, float]
    lattice: Tuple[int, int, int]


@dataclass(frozen=True)
class Piece:
    op: OpFactor
    coeff: complex
    q: np.ndarray
    lattice: Tuple[int, int, int]


def merge(terms):
    acc: Dict[Tuple, QuadTerm] = {}
    for t in terms:
        if t.ops in acc:
            old = acc[t.ops]
            acc[t.ops] = QuadTerm(old.ops, old.coeff + t.coeff, old.transfer,
                                  old.lattice)
        else:
            acc[t.ops] = t
    return [t for t in acc.values() if t.coeff != 0]


def normal_order(space, terms):
    """Normal-ordered terms and the vacuum constant, the exact (math.fsum)
    sum of the contractions."""
    contractions = []
    done: List[QuadTerm] = []
    work = list(terms)
    while work:
        t = work.pop()
        if len(t.ops) <= 1:
            done.append(t)
            continue
        o1, o2 = t.ops
        i1 = space.mode_index[(o1.channel, o1.mode)]
        i2 = space.mode_index[(o2.channel, o2.mode)]
        fermi = space.fermionic[i1] and space.fermionic[i2]
        sign = -1.0 if fermi else 1.0
        if o1.kind == "a" and o2.kind == "c":
            if i1 == i2:
                contractions.append(complex(t.coeff))
            work.append(QuadTerm((o2, o1), sign * t.coeff, t.transfer, t.lattice))
            continue
        if o1.kind == o2.kind and i1 > i2:
            work.append(QuadTerm((o2, o1), sign * t.coeff, t.transfer, t.lattice))
            continue
        if o1.kind == o2.kind and fermi and i1 == i2:
            continue
        done.append(t)
    const = complex(math.fsum(c.real for c in contractions),
                    math.fsum(c.imag for c in contractions))
    return merge(done), const


def _pair_terms(p1, p2, c):
    q = tuple(p1.q + p2.q)
    lat = tuple(a + b for a, b in zip(p1.lattice, p2.lattice))
    return [QuadTerm((p1.op, p2.op), 0.5 * c, q, lat),
            QuadTerm((p2.op, p1.op), 0.5 * c, q, lat)]


def symmetrized(space, pairs):
    """Normal-ordered sum over (weight, pieces1, pieces2), both operator
    orders averaged."""
    raw = []
    for w, p1s, p2s in pairs:
        for p1 in p1s:
            for p2 in p2s:
                raw += _pair_terms(p1, p2, w * p1.coeff * p2.coeff)
    return normal_order(space, raw)


def linear(pieces):
    return merge([QuadTerm((p.op,), p.coeff, tuple(p.q), p.lattice)
                  for p in pieces]), 0.0


def _negated(lat):
    return tuple(-v for v in lat)


# -- scalar -----------------------------------------------------------------


def scalar_pieces(space, channel="phi"):
    grid = space.grid(channel)
    out = []
    for n in grid.modes:
        k = grid.momentum(n).as_array()
        lat = grid.lattice3(n)
        amp = 1.0 / math.sqrt(2 * grid.energy(n) * grid.volume)
        out.append(Piece(OpFactor("a", channel, n), amp, -k, _negated(lat)))
        out.append(Piece(OpFactor("c", channel, n), amp, +k, lat))
    return out


def scalar_density(space):
    return linear(scalar_pieces(space))


def scalar_momentum_density(space):
    return linear([Piece(p.op, p.coeff * 1j * p.q[0], p.q, p.lattice)
                   for p in scalar_pieces(space)])


def scalar_bilinear_density(space):
    p = scalar_pieces(space)
    return symmetrized(space, [(1.0, p, p)])


def stress_tensor_scalar(space, mu, nu):
    p = scalar_pieces(space)
    m = space.grid("phi").mass
    raw = []
    for p1 in p:
        for p2 in p:
            q1, q2 = p1.q, p2.q
            dmu_dnu = -(q1[mu] * q2[nu] + q1[nu] * q2[mu]) / 2.0
            dd = -(q1[0] * q2[0] - q1[1] * q2[1] - q1[2] * q2[2] - q1[3] * q2[3])
            v = dmu_dnu - METRIC[mu, nu] * (dd - m * m) / 2.0
            if v != 0:
                raw += _pair_terms(p1, p2, p1.coeff * p2.coeff * v)
    return normal_order(space, raw)


# -- Dirac ------------------------------------------------------------------


def dirac_pieces(space, alpha, dagger):
    grid = space.grid("L")
    V = grid.volume
    out = []
    for n in grid.modes:
        k3 = grid.wavevector(n)[2]
        k = grid.momentum(n).as_array()
        lat = grid.lattice3(n)
        for X in ("L", "R"):
            u = spinor_u(k3, X, grid.mass)[alpha]
            v = spinor_v(k3, X, grid.mass)[alpha]
            if not dagger:
                if u != 0:
                    out.append(Piece(OpFactor("a", X, n), u / math.sqrt(V),
                                     -k, _negated(lat)))
                if v != 0:
                    out.append(Piece(OpFactor("c", _DIRAC_ANTI[X], n),
                                     v / math.sqrt(V), +k, lat))
            else:
                if u != 0:
                    out.append(Piece(OpFactor("c", X, n),
                                     np.conj(u) / math.sqrt(V), +k, lat))
                if v != 0:
                    out.append(Piece(OpFactor("a", _DIRAC_ANTI[X], n),
                                     np.conj(v) / math.sqrt(V), -k,
                                     _negated(lat)))
    return out


def dirac_current_density(space, mu):
    J = current_matrices()[mu]
    dag = [dirac_pieces(space, a, True) for a in range(4)]
    und = [dirac_pieces(space, b, False) for b in range(4)]
    raw = []
    for a in range(4):
        for b in range(4):
            if J[a, b] == 0:
                continue
            for p1 in dag[a]:
                for p2 in und[b]:
                    raw.append(QuadTerm(
                        (p1.op, p2.op), p1.coeff * J[a, b] * p2.coeff,
                        tuple(p1.q + p2.q),
                        tuple(x + y for x, y in zip(p1.lattice, p2.lattice))))
    return normal_order(space, raw)


# -- electromagnetic ----------------------------------------------------------


def _polarization(lam, n3):
    """V along axis 1, flipped for k3 < 0; H along axis 2."""
    if lam == "V":
        return np.array([-1.0 if n3 < 0 else 1.0, 0.0, 0.0], dtype=complex)
    return np.array([0.0, 1.0, 0.0], dtype=complex)


def em_vector_pieces(space):
    comp = [[] for _ in range(3)]
    for lam in PHOTON_CHANNELS:
        grid = space.grid(lam)
        for n in grid.modes:
            e = _polarization(lam, n[0])
            k = grid.momentum(n).as_array()
            lat = grid.lattice3(n)
            amp = 1.0 / math.sqrt(2 * grid.energy(n) * grid.volume)
            for i in range(3):
                if e[i] != 0:
                    comp[i].append(Piece(OpFactor("a", lam, n), amp * e[i], -k,
                                         _negated(lat)))
                if np.conj(e[i]) != 0:
                    comp[i].append(Piece(OpFactor("c", lam, n),
                                         amp * np.conj(e[i]), +k, lat))
    return comp


def em_EB_pieces(space):
    A = em_vector_pieces(space)
    E = [[Piece(p.op, -1j * p.q[0] * p.coeff, p.q, p.lattice) for p in A[i]]
         for i in range(3)]
    B = [[], [], []]
    for (i, j, k), s in _EPS.items():
        for p in A[k]:
            B[i].append(Piece(p.op, s * (-1j) * p.q[j + 1] * p.coeff, p.q,
                              p.lattice))
    return E, B


def stress_tensor_em(space, mu, nu):
    E, B = em_EB_pieces(space)
    if mu == 0 and nu == 0:
        pairs = [(0.5, E[i], E[i]) for i in range(3)]
        pairs += [(0.5, B[i], B[i]) for i in range(3)]
    elif mu == 0 or nu == 0:
        i = (mu + nu) - 1
        pairs = [(s, E[j], B[k]) for (ii, j, k), s in _EPS.items() if ii == i]
    else:
        i, j = mu - 1, nu - 1
        pairs = [(-1.0, E[i], E[j]), (-1.0, B[i], B[j])]
        if i == j:
            pairs += [(0.5, E[k], E[k]) for k in range(3)]
            pairs += [(0.5, B[k], B[k]) for k in range(3)]
    return symmetrized(space, pairs)


def em_field_strength_density(space, mu, nu):
    A = em_vector_pieces(space)

    def dA(m, n_):
        if n_ == 0:
            return []
        return [Piece(p.op, 1j * p.q[m] * p.coeff, p.q, p.lattice)
                for p in A[n_ - 1]]

    return linear(dA(mu, nu) + [Piece(p.op, -p.coeff, p.q, p.lattice)
                                for p in dA(nu, mu)])


# -- windows and realization ---------------------------------------------------


def _spatial_factor(space, lattice, target):
    """The box: a Kronecker filter on the lattice transfer."""
    return space.volume if lattice == target else 0.0


def _time_transform(w, omega):
    if w.envelope == "rect":
        return w.tau * np.sinc(omega * w.tau / (2 * math.pi))
    sigma_t = w.tau / 2
    return math.sqrt(2 * math.pi) * sigma_t * math.exp(-0.5 * (sigma_t * omega) ** 2)


def _mapped(terms, fn):
    out = []
    for t in terms:
        f = fn(t)
        if f != 0.0:
            out.append(QuadTerm(t.ops, t.coeff * f, t.transfer, t.lattice))
    return merge(out)


def windowed(space, terms, w):
    """Terms of the box-and-duration integral of the density."""
    def factor(t):
        q = np.asarray(t.transfer)
        sx = _spatial_factor(space, t.lattice, (0, 0, 0))
        return 0.0 if sx == 0.0 else sx * _time_transform(w, q[0])
    return _mapped(terms, factor)


def spacelike_windowed(space, terms, p, w):
    """Terms of the integral of cos(x.p) times the density."""
    lat_p = space.lattice_of(p)
    neg = tuple(-v for v in lat_p)

    def factor(t):
        q = np.asarray(t.transfer)
        out = 0.0 + 0.0j
        sx = _spatial_factor(space, t.lattice, neg)
        if sx != 0.0:
            out += 0.5 * sx * _time_transform(w, q[0] + p.t)
        sx = _spatial_factor(space, t.lattice, lat_p)
        if sx != 0.0:
            out += 0.5 * sx * _time_transform(w, q[0] - p.t)
        return out
    return _mapped(terms, factor)


def apply(space, terms, x, vec):
    """sum_t coeff_t e^{i q_t.x} (product of t's ladder matrices) @ vec, one
    term at a time."""
    acc = np.zeros(space.dim, dtype=complex)
    xt = x.as_array()
    for t in terms:
        q = np.asarray(t.transfer)
        out = vec
        for op in reversed(t.ops):
            m = (space.creation(op.channel, op.mode) if op.kind == "c"
                 else space.annihilation(op.channel, op.mode))
            out = m @ out
        acc += t.coeff * np.exp(1j * (q[0] * xt[0] - q[1] * xt[1]
                                      - q[2] * xt[2] - q[3] * xt[3])) * out
    return acc
