"""Contour-ordered free propagators, the Wick contraction engine, its
exact-diagonalization oracle, Keldysh momentum-space propagators and the
closed-form prefactors of the three-point stress-field correlation.

Thermal two-point building blocks (t later than t' on the contour):

    <A(t) A+(t')>  =  e^{i(t'-t)E} / (1 - e^{-beta E})      bosons
    <A+(t) A(t')>  =  e^{i(t-t')E} / (e^{beta E} - 1)
    <psi(t) psi+(t')> =  e^{i(t'-t)E} / (1 + e^{-beta E})   fermions
    <psi+(t) psi(t')> = -e^{i(t-t')E} / (e^{beta E} + 1)

Same-kind pairs vanish identically.  n-point functions are sums over perfect
matchings of these pair values, fermionic matchings weighted by the permutation
sign.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import BoxQFTError, MomentumMismatch, UnknownMode
from .fock import FockSpace, Species, lookup, thermal_state
from .spacetime import METRIC, CTPTime, FourVector, ctp_time, minkowski_dot


@dataclass(frozen=True)
class Insertion:
    """One ladder-operator insertion on the contour."""
    kind: str                  # "a" annihilate / "c" create
    species: Species
    mode: Tuple[str, Tuple[int, ...]]     # (channel, mode indices)
    energy: float
    time: CTPTime

    def __post_init__(self):
        if self.kind not in ("a", "c"):
            raise BoxQFTError(f"ladder kind must be 'a' (annihilate) or 'c' "
                              f"(create), not {self.kind!r}")


def insertion(space: FockSpace, channel: str, n, kind: str, time: CTPTime) -> Insertion:
    n = tuple(n)
    grid = space.grid(channel)
    if (channel, n) not in space.mode_index:
        raise UnknownMode(f"mode {n} not on channel {channel!r}")
    return Insertion(kind=kind, species=grid.species, mode=(channel, n),
                     energy=grid.energy(n), time=time)


@dataclass(frozen=True)
class CTPPropagator:
    """Thermal pair contraction factors for one mode energy.

    The four displayed off-diagonal factors (first operator later on the
    contour): 1/(1-e^{-beta E}) and 1/(e^{beta E}-1) for bosons,
    1/(1+e^{-beta E}) and -1/(e^{beta E}+1) for fermions; the fermionic
    minus sign is the contour-reordering sign of the canonical (psi, psi+)
    pair.  With zeta = +1 for bosons and -1 for fermions they are
    1/(1 - zeta e^{-beta E}) and zeta/(e^{beta E} - zeta), which give 1 and
    +-0.0 at beta = inf.
    """
    species: Species
    energy: float
    beta: float

    @property
    def zeta(self) -> float:
        return 1.0 if self.species is Species.BOSON else -1.0

    def annihilator_later_factor(self) -> float:
        return 1.0 / (1.0 - self.zeta * math.exp(-self.beta * self.energy))

    def creator_later_factor(self) -> float:
        return self.zeta / (math.exp(self.beta * self.energy) - self.zeta)


def free_propagator(species: Species, energy: float, t: CTPTime, tp: CTPTime,
                    beta: float, kinds: Tuple[str, str] = ("a", "c")) -> complex:
    """Contour-ordered pair <T op(t) op'(tp)> for a single mode.

    kinds gives the operator kinds of (t, tp) in written order.  The value
    is e^{i(t_dag - t_other) E} times the thermal factor selected by which
    operator is later on the contour; a written order (create, annihilate)
    flips the overall sign for fermions (antisymmetry of the contraction).
    Written-order ties on s treat the first operator as later.
    """
    k1, k2 = kinds
    if k1 == k2:
        return 0.0
    prop = CTPPropagator(species, energy, beta)
    if k1 == "c":
        t_dag, t_oth = t, tp
        dag_later = t.s >= tp.s
        written_sign = -1.0 if species is Species.FERMION else 1.0
    else:
        t_dag, t_oth = tp, t
        dag_later = tp.s > t.s
        written_sign = 1.0
    phase = cmath.exp(1j * (t_dag.t - t_oth.t) * energy)
    factor = prop.creator_later_factor() if dag_later \
        else prop.annihilator_later_factor()
    return written_sign * phase * factor


def _pair_value(a: Insertion, b: Insertion, beta: float) -> complex:
    """<T a b> for two insertions in list order (a first)."""
    if a.species is not b.species or a.mode != b.mode:
        return 0.0
    return free_propagator(a.species, a.energy, a.time, b.time, beta,
                           kinds=(a.kind, b.kind))


# ---------------------------------------------------------------------------
# perfect matchings


def perfect_matchings(n: int):
    """All pairings of range(2n), iteratively (no recursion depth limits)."""
    if n == 0:
        yield []
        return
    stack = [([], list(range(2 * n)))]
    while stack:
        pairing, left = stack.pop()
        if not left:
            yield pairing
            continue
        first = left[0]
        for i in range(1, len(left)):
            rest = left[1:i] + left[i + 1:]
            stack.append((pairing + [(first, left[i])], rest))


def _inversion_sign(seq: Sequence[int]) -> float:
    """(-1) to the number of inversions of seq: the parity of the
    permutation that sorts it."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1.0 if inv % 2 else 1.0


def _matching_sign(matching: Sequence[Tuple[int, int]],
                   fermionic: Sequence[bool]) -> float:
    """Sign of the permutation of fermionic insertions induced by a matching."""
    order = []
    for i, j in sorted(matching):
        order.extend((i, j))
    return _inversion_sign([p for p in order if fermionic[p]])


def wick_npoint(insertions: Sequence[Insertion], beta: float) -> complex:
    """Contour-ordered n-point function as a sum over perfect matchings.

    Odd insertion counts vanish.  Pair values are memoized; the cost is
    (2n-1)!! matching terms, fine for n <= 5 pairs.
    """
    m = len(insertions)
    if m % 2 == 1:
        return 0.0
    n = m // 2
    fermionic = [ins.species is Species.FERMION for ins in insertions]
    cache: Dict[Tuple[int, int], complex] = {}

    def pair(i: int, j: int) -> complex:
        key = (i, j)
        if key not in cache:
            cache[key] = _pair_value(insertions[i], insertions[j], beta)
        return cache[key]

    total = 0.0 + 0.0j
    for matching in perfect_matchings(n):
        prod = 1.0 + 0.0j
        for i, j in matching:
            prod *= pair(i, j)
            if prod == 0.0:
                break
        if prod == 0.0:
            continue
        total += _matching_sign(matching, fermionic) * prod
    return complex(total)


# ---------------------------------------------------------------------------
# exact-diagonalization oracle


def exact_contour_correlator(space: FockSpace, insertions: Sequence[Insertion],
                             beta: float) -> complex:
    """Tr[rho T(prod insertions)] by direct operator algebra.

    Contour ordering places larger s leftmost (ties keep written order);
    the fermionic reordering sign is the parity of the applied permutation
    restricted to fermionic insertions.  Every basis state is carried
    through the ladder maps, rightmost operator first, by one lookup in the
    space's LadderTable per insertion.  H0 is diagonal, so a step from
    source to target multiplies by the (real) ladder amplitude and adds
    i(E_target - E_source)t to the exponent of one phase, even at complex
    times; no complex product is formed, so the result rounds alike on any
    CPU.  The rows that return to their start make up the diagonal that the
    thermal weights sum.
    """
    order = sorted(range(len(insertions)),
                   key=lambda i: (-insertions[i].time.s, i))
    sign = _inversion_sign([i for i in order
                            if insertions[i].species is Species.FERMION])

    energies, dim, M = space.energies, space.dim, len(space.modes)
    try:
        slots = [space.mode_index[ins.mode] + (M if ins.kind == "a" else 0)
                 for ins in insertions]
    except KeyError as exc:
        raise UnknownMode(f"mode {exc.args[0]} is not on the space") from None
    table = space.ladder_table()
    start = state = np.arange(dim)
    amp = np.ones(dim)                   # ladder amplitudes are real
    arg = np.zeros(dim, dtype=complex)   # i sum (E_target - E_source) t
    for idx in reversed(order):
        pos, hit = lookup(table.src_key, (slots[idx] + 1) * dim + state)
        pos, start, state, arg = pos[hit], start[hit], state[hit], arg[hit]
        amp = amp[hit] * table.amp[pos].real
        arg += (energies[table.tgt[pos]] - energies[state]) \
            * (1j * insertions[idx].time.t)
        state = table.tgt[pos]
    back = state == start
    weights = thermal_state(space, beta).diagonal[start[back]]
    return sign * complex(np.sum(weights * amp[back] * np.exp(arg[back])))


# ---------------------------------------------------------------------------
# ordering schemes


class OrderingScheme(Enum):
    CONTOUR_ORDERED = "contour"       # first-listed operator latest
    KELDYSH_SYMMETRIC = "keldysh_c"   # each operator averaged over +- branches
    FULLY_SYMMETRIZED = "symmetric"   # average over all orderings


def ordering_average(op_specs: Sequence[Tuple[str, str, Tuple[int, ...], float]],
                     scheme: OrderingScheme, beta: float, space: FockSpace,
                     engine=wick_npoint) -> complex:
    """Evaluate <...> for operators at real times under an ordering scheme.

    op_specs rows: (kind, channel, mode, real_time).  The scheme fixes how
    the operators are distributed over contour branches; `engine` may be the
    Wick engine or the exact oracle (same call signature).
    """
    n = len(op_specs)
    if scheme is OrderingScheme.CONTOUR_ORDERED:
        # written order is contour order: first operator latest
        return engine(_ordered_insertions(space, op_specs), beta)
    if scheme is OrderingScheme.KELDYSH_SYMMETRIC:
        total = 0.0 + 0.0j
        for branches in itertools.product((0, 1), repeat=n):
            ins = [insertion(space, ch, mode, kind, ctp_time(b, t))
                   for (kind, ch, mode, t), b in zip(op_specs, branches)]
            total += engine(ins, beta)
        return total / 2 ** n
    if scheme is OrderingScheme.FULLY_SYMMETRIZED:
        total = 0.0 + 0.0j
        for perm in itertools.permutations(range(n)):
            reordered = [op_specs[i] for i in perm]
            total += engine(_ordered_insertions(space, reordered), beta)
        return total / math.factorial(n)
    raise BoxQFTError(f"scheme {scheme} not supported here")


def _ordered_insertions(space, op_specs):
    """Insertions at their real times on a generalized contour whose branch
    structure forces the written order (first = latest on the contour)."""
    n = len(op_specs)
    return [insertion(space, ch, mode, kind,
                      CTPTime(t=complex(t), s=float(n - pos)))
            for pos, (kind, ch, mode, t) in enumerate(op_specs)]


# ---------------------------------------------------------------------------
# Keldysh momentum-space propagators (zero temperature, continuum notation)


@dataclass(frozen=True)
class KeldyshPropagator:
    """Structured descriptor of a zero-temperature scalar contour propagator.

    shell_constant multiplies delta(p.p - m^2) (with forward_cone adding a
    theta(p0) restriction); rational indicates the i/(p.p - m^2) part with
    the p0 -> p0 - i*eps prescription.  The weights are continuum ones,
    (2 pi)^4 delta(p + q); in box normalization the continuum deltas become
    V*delta_Kronecker/(2 pi)^D weights.
    """
    mass: float
    shell_constant: float
    forward_cone: bool
    rational: bool

    def rational_value(self, p: FourVector, eps: float = 0.0) -> complex:
        if not self.rational:
            return 0.0
        s = minkowski_dot(p, p)
        if eps == 0.0:
            return 1j / (s - self.mass ** 2)
        # p0 -> p0 - i eps
        p0 = p.t - 1j * eps
        s_eps = p0 * p0 - float(p.spatial @ p.spatial)
        return 1j / (s_eps - self.mass ** 2)

    def on_shell_weight(self, p: FourVector) -> float:
        """Support indicator of the delta part at the given momentum, on
        shell within |p.p - m^2| <= 1e-9."""
        if self.shell_constant == 0.0:
            return 0.0
        if abs(minkowski_dot(p, p) - self.mass ** 2) > 1e-9:
            return 0.0
        if self.forward_cone and p.t <= 0:
            return 0.0
        return self.shell_constant


def keldysh_scalar_propagators(component: str, m: float) -> KeldyshPropagator:
    """Zero-temperature scalar propagators by Keldysh component.

    '+-' : (2 pi)^5 delta(q.q - m^2) theta(q0) on-shell weight
    'cc' : 16 pi^5 delta(q.q - m^2), both cones
    'cq' : (2 pi)^4 * i/(q+.q+ - m^2), q0+ = q0 - i eps
    'qq' : 0 identically
    """
    if component == "+-":
        return KeldyshPropagator(m, (2 * math.pi) ** 5, True, False)
    if component == "cc":
        return KeldyshPropagator(m, 16 * math.pi ** 5, False, False)
    if component == "cq":
        return KeldyshPropagator(m, 0.0, False, True)
    if component == "qq":
        return KeldyshPropagator(m, 0.0, False, False)
    raise BoxQFTError("component must be one of '+-', 'cc', 'cq', 'qq'")


# ---------------------------------------------------------------------------
# three-point <T^{mu nu}(k) phi(-p) phi(-q)>


def _three_point_numerator(p: FourVector, q: FourVector, mu: int, nu: int,
                           m: float) -> complex:
    pa, qa = p.as_array(), q.as_array()
    sym = 0.5 * (pa[mu] * qa[nu] + pa[nu] * qa[mu])
    return sym - METRIC[mu, nu] * (minkowski_dot(p, q) + m * m) / 2.0


def three_point_combination(k: FourVector, p: FourVector, q: FourVector,
                            weights: Sequence[Tuple[float, Tuple[int, int]]],
                            m: float) -> complex:
    """The prefactor sum_w w (p^mu q^nu (symmetrized) - g^{mu nu}
    (p.q + m^2)/2) of a weighted component combination of the tree-level
    correlation, up to the overall contour constant (which the source
    normalization leaves unfixed).  Weights ((1, (mu, nu)),) give one
    component; ((2,(0,0)),(1,(1,1)),(1,(2,2))) the noiseless combination
    2*T00 + T11 + T22.  The same prefactor multiplies the on-shell
    middle-branch term of the three-branch ordering, nonzero at
    E = sqrt(m^2 + |k|^2/4) kinematics.  Requires p + q = k."""
    num = sum(w * _three_point_numerator(p, q, mu, nu, m)
              for w, (mu, nu) in weights)
    mismatch = (p + q - k).norm_sq_euclidean()
    if mismatch > 1e-12:
        raise MomentumMismatch(f"p + q != k (Euclidean residue {mismatch})")
    return complex(num)
