"""The slot-array builders of boxqft.fields against the per-term reference
algebra (term_algebra_reference), on random small grids.

Scalar and Dirac densities must give the same terms with coefficients within
1e-12 of the largest.  The EM stress tensor is compared over the union of
terms: the reference keeps roundoff residues where E and B contributions
cancel, which the array form cancels exactly, so a term only the reference
has must lie below 1e-15 of the largest.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import term_algebra_reference as ref
from boxqft import fields
from boxqft.fields import dirac_space_channels, photon_space_channels
from boxqft.fock import ModeGrid, Species, build_fock_space
from boxqft.measurement import (MeasurementWindow,
                                spacelike_windowed_observable,
                                windowed_observable)
from boxqft.spacetime import METRIC, FourVector

COEFF_TOL = 1e-12
RESIDUE_TOL = 1e-15
CONST_TOL = 1e-13

SCALAR_BUILDERS = [
    ("phi", fields.scalar_density, ref.scalar_density),
    ("pi", fields.scalar_momentum_density, ref.scalar_momentum_density),
    ("phi2", fields.scalar_bilinear_density, ref.scalar_bilinear_density),
    *[(f"T{mu}{nu}", lambda s, mu=mu, nu=nu: fields.stress_tensor_scalar(s, mu, nu),
       lambda s, mu=mu, nu=nu: ref.stress_tensor_scalar(s, mu, nu))
      for mu in range(4) for nu in range(4)],
]
DIRAC_BUILDERS = [
    (f"j{mu}", lambda s, mu=mu: fields.dirac_current_density(s, mu),
     lambda s, mu=mu: ref.dirac_current_density(s, mu)) for mu in range(4)]
EM_BUILDERS = [
    *[(f"Tem{mu}{nu}", lambda s, mu=mu, nu=nu: fields.stress_tensor_em(s, mu, nu),
       lambda s, mu=mu, nu=nu: ref.stress_tensor_em(s, mu, nu))
      for mu in range(4) for nu in range(4)],
    *[(f"F{mu}{nu}",
       lambda s, mu=mu, nu=nu: fields.em_field_strength_density(s, mu, nu),
       lambda s, mu=mu, nu=nu: ref.em_field_strength_density(s, mu, nu))
      for mu in range(4) for nu in range(4)],
]


def _slot(space, op):
    j = space.mode_index[(op.channel, op.mode)]
    return j if op.kind == "c" else len(space.modes) + j


def _reference_terms(space, terms):
    """{(left, right): (coeff, transfer, lattice)} with left = -1 for a
    single operator."""
    out = {}
    for t in terms:
        slots = [_slot(space, op) for op in t.ops]
        key = (-1, slots[0]) if len(slots) == 1 else tuple(slots)
        out[key] = (complex(t.coeff), t.transfer, t.lattice)
    return out


def _new_terms(density_or_obs):
    return {(int(l), int(r)): complex(c) for l, r, c in density_or_obs.terms}


def _assert_terms_equivalent(space, ref_terms, new, same_support, scale=0.0):
    """Coefficients within COEFF_TOL of the largest over the union of terms
    (or of ``scale``, if larger); with same_support, also the same set of
    terms."""
    rd = _reference_terms(space, ref_terms)
    nd = _new_terms(new)
    if same_support:
        assert set(nd) == set(rd)
    scale = max([abs(v[0]) for v in rd.values()] + [abs(v) for v in nd.values()]
                + [scale])
    for key in set(rd) | set(nd):
        old = rd[key][0] if key in rd else 0.0
        assert abs(old - nd.get(key, 0.0)) <= COEFF_TOL * scale
    return rd, scale


def _assert_density_equivalent(space, built, reference, same_support, x, p, w):
    ref_terms, ref_const = reference(space)
    new = built(space)
    rd, scale = _assert_terms_equivalent(space, ref_terms, new, same_support)
    for key in set(rd) - set(_new_terms(new)):
        assert abs(rd[key][0]) < RESIDUE_TOL * scale
    assert abs(ref_const - new.vacuum_subtraction) <= CONST_TOL
    # transfers are the sums of the slots' transfers, exactly
    q, lat = new.transfers()
    for key, qt, lt in zip(new.terms[["left", "right"]].tolist(), q, lat):
        if key in rd:
            assert tuple(qt) == rd[key][1] and tuple(lt) == rd[key][2]
    # the density at x, applied to a fixed vector, and both windows
    vec = np.random.default_rng(0).normal(size=space.dim) + 0j
    expect = ref.apply(space, ref_terms, x, vec)
    got = new.at(x) @ vec
    assert np.max(np.abs(got - expect)) <= COEFF_TOL * max(np.max(np.abs(expect)),
                                                           scale)
    # a window multiplies each coefficient by at most the box volume times
    # T(0); where it keeps only residues, compare against that bound
    w_scale = scale * space.volume * w.time_transform(0.0)
    _assert_terms_equivalent(space, ref.windowed(space, ref_terms, w),
                             windowed_observable(new, w), same_support, w_scale)
    _assert_terms_equivalent(space, ref.spacelike_windowed(space, ref_terms, p, w),
                             spacelike_windowed_observable(new, p, w),
                             same_support, w_scale)


def _grid(axes, n_mode, species, mass, L):
    return ModeGrid(axes=axes, lengths=(L,) * len(axes),
                    ranges=((-n_mode, n_mode),) * len(axes), species=species,
                    mass=mass)


def _window(tau, gauss):
    return MeasurementWindow(tau=tau, envelope="gauss" if gauss else "rect")


def _spacelike_p(space, lattice, ratio):
    """A space-like p on the box lattice: p0 = ratio * |p| with ratio < 1."""
    grid = space.channels[0][1]
    ps = np.zeros(3)
    for a, L in zip(grid.axes, grid.lengths):
        ps[a - 1] = 2 * math.pi * lattice[a - 1] / L
    return FourVector(ratio * float(np.linalg.norm(ps)), *ps)


_POINT = dict(t=st.floats(-3.0, 3.0), z=st.floats(-7.0, 7.0),
              tau=st.floats(0.5, 8.0), gauss=st.booleans(),
              ratio=st.floats(0.0, 0.95))


@settings(max_examples=40, deadline=None)
@given(axes=st.sampled_from([(3,), (1, 3), (1, 2, 3)]), n_mode=st.integers(1, 2),
       mass=st.floats(0.0, 2.0), L=st.floats(2.0, 8.0),
       caps=st.sampled_from([(1, 1), (1, 2), (2, 2)]),
       which=st.integers(0, len(SCALAR_BUILDERS) - 1),
       lattice=st.tuples(*[st.integers(-2, 2).filter(bool)] * 3), **_POINT)
# near-massless phi2: the zero mode's 1/(2 E V) = 4096 dominates the constant,
# so any summation order other than an exact one is an ulp (9e-13) off
@example(axes=(3,), n_mode=1, mass=6.103515625e-05, L=2.0, caps=(1, 1), which=2,
         lattice=(1, 1, 1), t=0.0, z=0.0, tau=1.0, gauss=False, ratio=0.0)
def test_scalar_builders_match_reference(axes, n_mode, mass, L, caps, which,
                                         lattice, t, z, tau, gauss, ratio):
    if len(axes) == 3:
        n_mode = 1                  # keep the 3D basis small
    grid = _grid(axes, n_mode, Species.BOSON, mass, L)
    space = build_fock_space([("phi", grid)], *caps)
    _, built, reference = SCALAR_BUILDERS[which]
    lattice = tuple(v if a in axes else 0 for a, v in zip((1, 2, 3), lattice))
    _assert_density_equivalent(space, built, reference, True,
                               FourVector(t, 0.3 * z, -0.2 * z, z),
                               _spacelike_p(space, lattice, ratio),
                               _window(tau, gauss))


@settings(max_examples=25, deadline=None)
@given(n_mode=st.integers(1, 3), mass=st.sampled_from([0.0, 0.37, 1.0, 1.7]),
       L=st.floats(2.0, 8.0), cap=st.integers(1, 2), mu=st.integers(0, 3),
       p3=st.sampled_from([-2, -1, 1, 2]), **_POINT)
def test_dirac_current_matches_reference(n_mode, mass, L, cap, mu, p3, t, z,
                                         tau, gauss, ratio):
    grid = _grid((3,), n_mode, Species.FERMION, mass, L)
    space = build_fock_space(dirac_space_channels(grid), 1, cap)
    _, built, reference = DIRAC_BUILDERS[mu]
    _assert_density_equivalent(space, built, reference, True,
                               FourVector(t, 0.0, 0.0, z),
                               _spacelike_p(space, (0, 0, p3), ratio),
                               _window(tau, gauss))


@settings(max_examples=40, deadline=None)
@given(n_mode=st.integers(1, 2), L=st.floats(2.0, 8.0), cap=st.integers(1, 2),
       which=st.integers(0, len(EM_BUILDERS) - 1),
       p3=st.sampled_from([-2, -1, 1, 2]), **_POINT)
def test_em_builders_match_reference(n_mode, L, cap, which, p3, t, z, tau,
                                     gauss, ratio):
    grid = _grid((3,), n_mode, Species.BOSON, 0.0, L)
    space = build_fock_space(photon_space_channels(grid), cap, cap)
    _, built, reference = EM_BUILDERS[which]
    _assert_density_equivalent(space, built, reference, False,
                               FourVector(t, 0.0, 0.0, z),
                               _spacelike_p(space, (0, 0, p3), ratio),
                               _window(tau, gauss))


def test_em_stress_residues_cancel_exactly():
    # T00 on the two-mode photon grid: the reference stores 24 roundoff
    # residues, the array form none
    grid = _grid((3,), 2, Species.BOSON, 0.0, 2 * math.pi)
    space = build_fock_space(photon_space_channels(grid), 2, 2)
    ref_terms, _ = ref.stress_tensor_em(space, 0, 0)
    assert len(ref_terms) == 64
    assert len(fields.stress_tensor_em(space, 0, 0).terms) == 40


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_boson=st.integers(1, 2),
       n_fermion=st.integers(1, 2), zeros=st.floats(0.0, 0.8))
def test_normal_ordering_matches_reference(seed, n_boson, n_fermion, zeros):
    # a random slot matrix over bosonic and fermionic modes, normal-ordered
    # in one array step and one term at a time
    L = 2 * math.pi
    space = build_fock_space(
        [("phi", _grid((3,), n_boson, Species.BOSON, 1.0, L)),
         ("psi", _grid((3,), n_fermion, Species.FERMION, 1.0, L))], 1, 1)
    M = len(space.modes)
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(2 * M, 2 * M)) + 1j * rng.normal(size=(2 * M, 2 * M))
    W[rng.random(W.shape) < zeros] = 0.0

    def op(slot):
        mode = space.modes[slot % M]
        return ref.OpFactor("c" if slot < M else "a", mode.channel, mode.n)

    raw = [ref.QuadTerm((op(s), op(t)), W[s, t], (0.0,) * 4, (0, 0, 0))
           for s, t in zip(*np.nonzero(W))]
    ref_terms, ref_const = ref.normal_order(space, raw)
    new = fields._quadratic(space, "W", W)
    _assert_terms_equivalent(space, ref_terms, new, True)
    assert abs(ref_const - new.vacuum_subtraction) <= CONST_TOL


def _dense_quadratic(space, W):
    """The normal-ordering step with its full (2M)^2 temporaries: both
    triangles copied, every entry of the transpose multiplied by its sign."""
    M = len(space.modes)
    fermi = np.tile(space.fermionic, 2)
    sign = np.where(np.logical_and.outer(fermi, fermi), -1.0, 1.0)
    N = np.triu(W, 1) + sign * np.triu(W.T, 1)
    N[np.diag_indices_from(N)] = np.where(fermi, 0.0, np.diagonal(W))
    left, right = np.nonzero(N)
    contractions = np.diagonal(W[M:, :M])
    vacuum = complex(math.fsum(contractions.real), math.fsum(contractions.imag))
    return fields._terms(left, right, N[left, right]), vacuum


def _dense_stress_tensor_scalar(space, mu, nu):
    """T^{mu nu} of the scalar field as one broadcast expression per factor,
    symmetrized out of place."""
    ell = fields._scalar_slots(space)
    m = space.grid("phi").mass
    Q, _ = fields._slot_transfers(space)
    q1, q2 = Q[:-1, None, :], Q[None, :-1, :]
    dmu_dnu = -(q1[..., mu] * q2[..., nu] + q1[..., nu] * q2[..., mu]) / 2.0
    dd = -(q1[..., 0] * q2[..., 0] - q1[..., 1] * q2[..., 1]
           - q1[..., 2] * q2[..., 2] - q1[..., 3] * q2[..., 3])
    vertex = dmu_dnu - METRIC[mu, nu] * (dd - m * m) / 2.0
    W = np.multiply.outer(ell, ell) * vertex
    return _dense_quadratic(space, 0.5 * (W + W.T))


def test_in_place_builders_keep_every_bit():
    # the builders form their slot matrices in place and skip the sign
    # matrix on bosonic spaces; every term, the signs of zero imaginary parts
    # included, and the vacuum constant stay those of the out-of-place forms
    L = 2 * math.pi
    for space in (
            build_fock_space([("phi", _grid((1, 2, 3), 1, Species.BOSON, 0.0, L))],
                             1, 1),
            build_fock_space([("phi", _grid((3,), 3, Species.BOSON, 0.8, L)),
                              ("psi", _grid((3,), 2, Species.FERMION, 1.0, L))],
                             1, 1)):
        for mu in range(4):
            for nu in range(4):
                got = fields.stress_tensor_scalar(space, mu, nu)
                terms, vacuum = _dense_stress_tensor_scalar(space, mu, nu)
                assert got.terms.tobytes() == terms.tobytes()
                assert repr(got.vacuum_subtraction) == repr(vacuum)
    # random slot matrices whose parts include zeros of both signs: through
    # _symmetrized on a bosonic space (no sign matrix), and straight into
    # _quadratic on a space with fermions (the sign matrix applied)
    rng = np.random.default_rng(5)
    boson = build_fock_space(
        photon_space_channels(_grid((3,), 2, Species.BOSON, 0.0, L)), 1, 1)
    mixed = build_fock_space([("phi", _grid((3,), 2, Species.BOSON, 1.0, L)),
                              ("psi", _grid((3,), 2, Species.FERMION, 1.0, L))],
                             1, 1)
    for space, symmetrize in ((boson, True), (mixed, False)):
        n = 2 * len(space.modes)
        parts = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=(2, n, n))
        W = np.empty((n, n), dtype=complex)
        W.real, W.imag = parts                # zeros keep their signs
        if symmetrize:
            got = fields._symmetrized(space, "W", W)
            terms, vacuum = _dense_quadratic(space, 0.5 * (W + W.T))
        else:
            got = fields._quadratic(space, "W", W)
            terms, vacuum = _dense_quadratic(space, W)
        assert len(terms) > 0
        assert got.terms.tobytes() == terms.tobytes()
        assert repr(got.vacuum_subtraction) == repr(vacuum)
