import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOX, csr, dirac_space, photon_space, scalar_space

from boxqft import fields, fock
from boxqft.errors import BoxQFTError, ZeroMomentum
from boxqft.fields import (GAMMA, PAULI, QuadraticObservable,
                           current_matrices, dirac_current_density,
                           dirac_field, dirac_space_channels, em_field_strength_density,
                           scalar_bilinear_density, scalar_density,
                           scalar_momentum_density, spinor_u, spinor_v,
                           stress_tensor_em, stress_tensor_scalar)
from boxqft.fock import (ModeGrid, Species, basis_state, build_fock_space,
                         expectation, vacuum_state)
from boxqft.measurement import (MeasurementWindow,
                                spacelike_windowed_observable,
                                windowed_observable)
from boxqft.operator import _cmul
from boxqft.spacetime import METRIC, FourVector


def test_clifford_algebra_exact():
    # max |{g^mu, g^nu} - 2 g^{mu nu}| over all index pairs
    worst = max(float(np.max(np.abs(GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
                                    - 2 * METRIC[mu, nu] * np.eye(4))))
                for mu in range(4) for nu in range(4))
    assert worst == 0.0


def test_pauli_identities():
    for k in (1, 2, 3):
        assert np.allclose(PAULI[k] @ PAULI[k], np.eye(2))


def test_current_matrices_displayed_forms():
    j0, j1, j2, j3 = current_matrices()
    assert np.array_equal(j0, np.eye(4))
    assert np.array_equal(j3, np.diag([-1, 1, 1, -1]).astype(complex))
    for mu, j in enumerate((j0, j1, j2, j3)):
        assert np.max(np.abs(j - j.conj().T)) == 0.0
        # gamma0 gamma^mu reproduces the displayed matrices
        assert np.max(np.abs(GAMMA[0] @ GAMMA[mu] - j)) == 0.0


def test_spinor_massless_limits():
    uL = spinor_u(1.0, "L", 0.0)
    assert np.allclose(uL, [0, 1, 0, 0])
    uR = spinor_u(1.0, "R", 0.0)
    assert np.allclose(uR, [0, 0, 1, 0])
    uLm = spinor_u(-1.0, "L", 0.0)
    assert np.allclose(uLm, [1, 0, 0, 0])


def test_spinor_normalization_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.uniform(0, 3)
        k3 = rng.uniform(0.05, 3) * (1 if rng.random() < 0.5 else -1)
        for hand in ("L", "R"):
            u = spinor_u(k3, hand, m)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-14
            v = spinor_v(k3, hand, m)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-14


def test_spinor_massless_convergence_rate():
    k3 = 1.0
    for m in (1e-3, 1e-4):
        u = spinor_u(k3, "L", m)
        err = np.max(np.abs(u - np.array([0, 1, 0, 0])))
        assert err < m / abs(k3)


def test_spinor_small_momentum_massive():
    m, k3 = 1.0, 1e-8
    E = math.hypot(m, k3)
    u = spinor_u(k3, "L", m)
    expect = np.array([0, math.sqrt(E + k3), 0, math.sqrt(E - k3)]) / math.sqrt(2 * E)
    assert np.allclose(u, expect)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-14


def test_spinor_zero_momentum_rejected():
    with pytest.raises(ZeroMomentum):
        spinor_u(0.0, "L", 1.0)
    with pytest.raises(BoxQFTError):
        spinor_u(1.0, "X", 1.0)


def test_dirac_field_single_mode_contraction():
    # <0|psi(x)|L,k3> = u^L e^{-ik.x}/sqrt(V), by the explicit expansion
    m = 1.0
    space = dirac_space(n_mode=1, mass=m)
    grid = space.grid("L")
    k3 = grid.wavevector((1,))[2]
    E = grid.energy((1,))
    x = FourVector(0.7, 0.0, 0.0, 1.9)
    psis = dirac_field(space, x)
    state = basis_state(space, {("L", (1,)): 1})
    vac = vacuum_state(space).amplitudes
    phase = np.exp(-1j * (E * x.t - k3 * x.z))
    u = spinor_u(k3, "L", m)
    for alpha in range(4):
        amp = np.vdot(vac, psis[alpha] @ state.amplitudes)
        expect = u[alpha] * phase / math.sqrt(grid.volume)
        assert abs(amp - expect) < 1e-13
        assert abs(np.vdot(vac, psis[alpha] @ vac)) == 0.0


def test_dirac_equal_time_anticommutator():
    # {psi_a(t,x), psi+_b(t,y)} = delta_ab (1/V) sum_k e^{ik(x-y)} on the
    # symmetric two-mode grid (completeness needs -k alongside +k); the
    # total cap must not bind, or the top occupation sector is truncated
    m = 1.3
    space = dirac_space(n_mode=1, mass=m, caps=(1, 8))
    grid = space.grid("L")
    V = grid.volume
    x = FourVector(0.0, 0.0, 0.0, 0.4)
    y = FourVector(0.0, 0.0, 0.0, 1.1)
    psi_x = [csr(op) for op in dirac_field(space, x)]
    psi_y = [csr(op) for op in dirac_field(space, y)]
    box_delta = sum(np.exp(1j * grid.wavevector(n)[2] * (x.z - y.z))
                    for n in grid.modes) / V
    for a in range(4):
        for b in range(4):
            dag = psi_y[b].conjugate().transpose()
            anti = (psi_x[a] @ dag + dag @ psi_x[a]).toarray()
            target = box_delta if a == b else 0.0
            assert np.max(np.abs(anti - target * np.eye(space.dim))) < 1e-12


def test_scalar_two_point_single_mode():
    space = scalar_space(n_mode=1, mass=1.0, caps=(2, 2))
    grid = space.grid("phi")
    # single mode contribution checked against the closed form e^{-ik(x-y)}/2EV
    x = FourVector(0.3, 0, 0, 0.9)
    y = FourVector(-0.2, 0, 0, 2.0)
    vac = vacuum_state(space).amplitudes
    phi = scalar_density(space)
    val = np.vdot(vac, phi.at(x) @ (phi.at(y) @ vac))
    expect = 0.0
    for n in grid.modes:
        k = grid.momentum(n)
        phase = np.exp(-1j * (k.t * (x.t - y.t) - k.z * (x.z - y.z)))
        expect += phase / (2 * grid.energy(n) * grid.volume)
    assert abs(val - expect) < 1e-13
    assert abs(np.vdot(vac, phi.at(x) @ vac)) == 0.0


def test_scalar_canonical_commutator():
    space = scalar_space(n_mode=2, mass=1.0, caps=(3, 3))
    grid = space.grid("phi")
    V = grid.volume
    x = FourVector(0.0, 0, 0, 0.5)
    y = FourVector(0.0, 0, 0, 1.7)
    phi = csr(scalar_density(space).at(x))
    pi = csr(scalar_momentum_density(space).at(y))
    comm = (phi @ pi - pi @ phi).toarray()
    box_delta = sum(np.exp(1j * grid.wavevector(n)[2] * (x.z - y.z))
                    for n in grid.modes) / V
    # truncation violates the commutator only through the cap boundary; the
    # vacuum-sector element carries the exact box delta
    vac = vacuum_state(space).amplitudes
    val = np.vdot(vac, comm @ vac)
    assert abs(val - 1j * box_delta) < 1e-12


def test_stress_scalar_normal_ordering_and_energy():
    from boxqft.fock import ModeGrid, Species, build_fock_space
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((1, 1),),
                    species=Species.BOSON, mass=1.0)
    space = build_fock_space([("phi", grid)], 2, 2)
    t00 = stress_tensor_scalar(space, 0, 0)
    E = grid.energy((1,))
    V = grid.volume
    # subtracted zero-point constant is E/2V per mode; vacuum average is 0
    assert abs(t00.vacuum_subtraction - E / (2 * V)) < 1e-13
    x = FourVector(0.2, 0, 0, 1.0)
    vac = vacuum_state(space)
    assert abs(expectation(vac, t00.at(x))) < 1e-12
    one = basis_state(space, {("phi", (1,)): 1})
    assert abs(expectation(one, t00.at(x)) * V - E) < 1e-12


def test_stress_scalar_symmetric():
    space = scalar_space(n_mode=1, mass=0.8, caps=(2, 2))
    x = FourVector(0.1, 0, 0, 0.3)
    for mu in range(4):
        for nu in range(mu, 4):
            a = csr(stress_tensor_scalar(space, mu, nu).at(x))
            b = csr(stress_tensor_scalar(space, nu, mu).at(x))
            d = (a - b)
            assert d.nnz == 0 or np.max(np.abs(d.data)) < 1e-14


def test_em_stress_traceless_operator_identity():
    space = photon_space(n_mode=1)
    x = FourVector(0.4, 0, 0, 0.7)
    trace = None
    for mu in range(4):
        term = METRIC[mu, mu] * csr(stress_tensor_em(space, mu, mu).at(x))
        trace = term if trace is None else trace + term
    assert np.max(np.abs(trace.toarray())) < 1e-13


def test_em_poynting_structure():
    # T^{0i} built as (E x B)^i: on a single-axis grid only the axis-3
    # component can interfere coherently; check Hermiticity and vacuum zero
    space = photon_space(n_mode=1)
    x = FourVector(0.0, 0, 0, 0.2)
    vac = vacuum_state(space)
    for i in (1, 2, 3):
        t0i = stress_tensor_em(space, 0, i)
        mat = csr(t0i.at(x))
        assert np.max(np.abs((mat - mat.conjugate().transpose()).toarray())) < 1e-13
        assert abs(expectation(vac, mat)) < 1e-13


def test_em_polarization_transversality():
    # A(0)'s annihilator column of each mode is its polarization times
    # (2 E V)^(-1/2): unit, transverse to k, and V flips sign for k3 < 0
    space = photon_space(n_mode=2)
    M = len(space.modes)
    A = fields._em_vector_slots(space)
    for (lam, n), j in space.mode_index.items():
        grid = space.grid(lam)
        e = A[:, M + j] * math.sqrt(2 * grid.energy(n) * grid.volume)
        assert abs(np.linalg.norm(e) - 1.0) < 1e-14
        assert abs(e @ grid.wavevector(n)) == 0.0
        want = [0, 1, 0] if lam == "H" else [-1 if n[0] < 0 else 1, 0, 0]
        assert np.allclose(e, want)


def test_normal_ordered_vacuum_expectations_vanish():
    dspace = dirac_space(n_mode=1, mass=1.0)
    x = FourVector(0.3, 0, 0, 0.8)
    vac_d = vacuum_state(dspace)
    for mu in range(4):
        j = dirac_current_density(dspace, mu)
        assert abs(expectation(vac_d, j.at(x))) < 1e-12
    sspace = scalar_space(n_mode=1, mass=1.0)
    vac_s = vacuum_state(sspace)
    for mu in range(4):
        t = stress_tensor_scalar(sspace, 0, mu)
        assert abs(expectation(vac_s, t.at(x))) < 1e-12


def test_observable_hermiticity():
    dspace = dirac_space(n_mode=2, mass=1.0)
    x = FourVector(0.0, 0, 0, 0.0)
    for mu in range(4):
        mat = csr(dirac_current_density(dspace, mu).at(x))
        assert np.max(np.abs((mat - mat.conjugate().transpose()).toarray())) < 1e-12
    sspace = scalar_space(n_mode=2, mass=0.5)
    mat = csr(scalar_bilinear_density(sspace).at(x))
    assert np.max(np.abs((mat - mat.conjugate().transpose()).toarray())) < 1e-12


def test_field_strength_antisymmetry():
    space = photon_space(n_mode=1)
    x = FourVector(0.1, 0, 0, 0.6)
    f12 = csr(em_field_strength_density(space, 1, 2).at(x))
    f21 = csr(em_field_strength_density(space, 2, 1).at(x))
    assert np.max(np.abs((f12 + f21).toarray())) < 1e-14


# -- one COO assembly against the per-term ladder-product loop ---------------


def _ladder(space, slot):
    """Ladder matrix of a slot: creator of mode slot for slot < M, else the
    annihilator of mode slot - M."""
    mode = space.modes[slot % len(space.modes)]
    if slot < len(space.modes):
        return csr(space.creation(mode.channel, mode.n))
    return csr(space.annihilation(mode.channel, mode.n))


def _product_loop(space, terms, coeffs):
    """Reference: sum of coeff * op(left) op(right), one sparse add per term
    (the realization the single assembly replaced); left = -1 is no factor."""
    acc = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for (left, right), c in zip(terms[["left", "right"]].tolist(), coeffs):
        prod = _ladder(space, right)
        if left >= 0:
            prod = _ladder(space, left) @ prod
        acc = acc + c * prod
    return acc.tocsr()


def _transfer(space, slot):
    """Four-momentum transfer of one slot, from the mode grid; 0 for -1."""
    if slot < 0:
        return np.zeros(4)
    mode = space.modes[slot % len(space.modes)]
    k = space.grid(mode.channel).momentum(mode.n).as_array()
    return k if slot < len(space.modes) else -k


def _at_oracle(density, x):
    xt = x.as_array()
    coeffs = []
    for left, right, c in density.terms.tolist():
        q = _transfer(density.space, left) + _transfer(density.space, right)
        coeffs.append(c * np.exp(1j * (q[0] * xt[0] - q[1] * xt[1]
                                       - q[2] * xt[2] - q[3] * xt[3])))
    return _product_loop(density.space, density.terms, coeffs)


def _assert_same_operator(new, ref):
    """Identical sparsity pattern, values within 1e-12 of the largest entry."""
    new, ref = csr(new), ref.tocsr()
    new.sort_indices()
    ref.sort_indices()
    assert np.array_equal(new.indptr, ref.indptr)
    assert np.array_equal(new.indices, ref.indices)
    if ref.nnz:
        scale = np.max(np.abs(ref.data))
        assert np.max(np.abs(new.data - ref.data)) <= 1e-12 * scale


def _check_density(density, x, p):
    """.at(x), plain-windowed and cosine-windowed matrices vs the oracle."""
    _assert_same_operator(density.at(x), _at_oracle(density, x))
    for w in (MeasurementWindow(tau=1.7), MeasurementWindow(tau=BOX)):
        for obs in (windowed_observable(density, w),
                    spacelike_windowed_observable(density, p, w)):
            ref = _product_loop(obs.space, obs.terms, obs.terms["coeff"])
            _assert_same_operator(obs.matrix(), ref)


_X = FourVector(0.37, 0.0, 0.0, 1.21)
_P = FourVector(0.4, 0.0, 0.0, 2.0)


@pytest.mark.parametrize("builder", [
    scalar_density, scalar_momentum_density, scalar_bilinear_density,
    *[lambda s, mu=mu, nu=nu: stress_tensor_scalar(s, mu, nu)
      for mu in range(4) for nu in range(mu, 4)],
])
def test_assembly_matches_product_loop_scalar(builder):
    space = scalar_space(n_mode=2, mass=0.6, caps=(2, 3))
    _check_density(builder(space), _X, _P)


@pytest.mark.parametrize("mu", range(4))
def test_assembly_matches_product_loop_dirac(mu):
    space = dirac_space(n_mode=2, mass=1.0, caps=(1, 2))
    _check_density(dirac_current_density(space, mu), _X, _P)


@pytest.mark.parametrize("mu,nu", [(0, 0), (0, 3), (1, 1), (1, 2), (3, 3)])
def test_assembly_matches_product_loop_em(mu, nu):
    space = photon_space(n_mode=1)
    _check_density(stress_tensor_em(space, mu, nu), _X, _P)
    _check_density(em_field_strength_density(space, mu, nu), _X, _P)


def test_assembly_identity_and_mixed_lengths():
    # one-factor (identity on the left), two-factor and (a, a) terms in one
    # observable, given as (left, right, coeff) slot records
    space = scalar_space(n_mode=1, mass=1.0, caps=(3, 3))
    M = len(space.modes)
    a = M + space.mode_index[("phi", (1,))]          # annihilate +1
    b = space.mode_index[("phi", (-1,))]             # create -1
    terms = [(-1, a, 0.3), (b, a, -1.1j), (a, a, 0.2), (b, b, 0.4 + 0.5j)]
    obs = QuadraticObservable(space, "mixed", terms)
    ref = _product_loop(space, obs.terms, obs.terms["coeff"])
    _assert_same_operator(obs.matrix(), ref)
    only_linear = QuadraticObservable(space, "a", terms[:1]).matrix()
    _assert_same_operator(only_linear, 0.3 * _ladder(space, a))
    assert QuadraticObservable(space, "empty", []).matrix().nnz == 0


def test_slots_out_of_range_are_refused():
    # the ladder table read slot 2M as a_0 and every negative slot as the
    # identity: the first two terms realized the matrix of a_0.  The last two
    # lie past the (2M+1)-row transfer arrays, which numpy's IndexError
    # reported.  The constructor, where hand-built terms enter, refuses all
    # four, so no later path sees them
    space = scalar_space(n_mode=1, mass=0.0, caps=(2, 2))
    M = len(space.modes)
    assert M == 2
    for terms in ([(-1, 2 * M, 1.0)], [(-2, M, 1.0)],
                  [(-1, 2 * M + 1, 1.0)], [(-(2 * M + 2), 0, 1.0)]):
        with pytest.raises(BoxQFTError, match="slots"):
            QuadraticObservable(space, "hand-built", terms)
    # the edges of [-1, 2M) are accepted
    QuadraticObservable(space, "hand-built", [(-1, 2 * M - 1, 1.0)])


def test_assembly_drops_exact_zeros():
    # a term and its negative cancel: no stored zeros, as with sparse '+'
    space = scalar_space(n_mode=1, mass=1.0, caps=(2, 2))
    a = len(space.modes) + space.mode_index[("phi", (1,))]
    obs = QuadraticObservable(space, "cancel", [(-1, a, 0.5), (-1, a, -0.5)])
    assert obs.matrix().nnz == 0
    pair = QuadraticObservable(space, "cancel", [(a, a, 0.5), (a, a, -0.5)])
    assert pair.matrix().nnz == 0


@settings(max_examples=30, deadline=None)
@given(n_mode=st.integers(1, 2), mass=st.floats(0.0, 2.0),
       caps=st.sampled_from([(1, 2), (2, 2), (2, 3)]),
       kind=st.sampled_from(["phi2", "T00", "T03", "T11", "j0", "j1", "j3"]),
       t=st.floats(-3.0, 3.0), z=st.floats(-7.0, 7.0),
       p0=st.floats(0.0, 0.95), p3=st.sampled_from([-2, -1, 1, 2]))
def test_assembly_matches_product_loop_random(n_mode, mass, caps, kind, t, z,
                                              p0, p3):
    if kind.startswith("j"):
        grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-n_mode, n_mode),),
                        species=Species.FERMION, mass=mass)
        space = build_fock_space(dirac_space_channels(grid), 1, caps[1])
        density = dirac_current_density(space, int(kind[1]))
    else:
        space = scalar_space(n_mode=n_mode, mass=mass, caps=caps)
        density = (scalar_bilinear_density(space) if kind == "phi2" else
                   stress_tensor_scalar(space, int(kind[1]), int(kind[2])))
    _check_density(density, FourVector(t, 0.0, 0.0, z),
                   FourVector(p0 * abs(p3), 0.0, 0.0, float(p3)))


def test_complex_coefficients_are_multiplied_with_cmul():
    # numpy's complex product may fuse into FMAs and differ from _cmul in the
    # last bit; .at and _weighted must give the same bits on every CPU
    space = scalar_space(n_mode=2, mass=0.5, caps=(2, 2))
    rng = np.random.default_rng(7)
    n, M = 16, len(space.modes)
    coeff = rng.normal(size=n) + 1j * rng.normal(size=n)
    X = QuadraticObservable(space, "random", fields._terms(
        rng.integers(-1, 2 * M, n), rng.integers(0, 2 * M, n), coeff))
    x = FourVector(0.3, 0.0, 0.0, 1.9)
    q, _ = X.transfers()
    xt = x.as_array()
    phase = np.exp(1j * (q[:, 0] * xt[0] - q[:, 1] * xt[1]
                         - q[:, 2] * xt[2] - q[:, 3] * xt[3]))
    got = X.at(x)
    want = fields._assemble(space, X.terms, _cmul(X.terms["coeff"], phase))
    for a, b in zip((got.row, got.col, got.value), (want.row, want.col, want.value)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    factor = rng.normal(size=n) + 1j * rng.normal(size=n)
    weighted = fields._weighted(X.terms, factor)[0]["coeff"]
    assert weighted.tobytes() == _cmul(coeff, factor).tobytes()


def test_selection_compares_whole_vectors():
    # select reads a term's lattice transfer as one integer code; a target
    # beyond every term's reach must not alias a real transfer (on the 1D
    # grid below, (0, 1, -3) has the code of (0, 0, 2)); a builder's density
    # and one of the same records given by hand select the same terms
    grid3 = ModeGrid(axes=(1, 2, 3), lengths=(BOX,) * 3, ranges=((-1, 1),) * 3,
                     species=Species.BOSON)
    space3 = build_fock_space([("phi", grid3)], 1, 1)
    space1 = scalar_space(n_mode=1, mass=0.5, caps=(2, 2))
    targets = [(0, 0, 0), (0, 0, 2), (0, 0, -2), (0, 1, -3), (0, -1, 3),
               (0, 0, 7), (1, 0, 0), (1, -1, 0), (-2, 2, 0), (0, 5, 0)]
    found = 0
    for density in (stress_tensor_scalar(space1, 0, 0),
                    stress_tensor_scalar(space3, 0, 3)):
        _, lat = density.transfers()
        given = QuadraticObservable(density.space, "given", density.terms)
        for t in targets:
            want = density.terms[np.all(lat == t, axis=1)]
            found += len(want)
            for d in (density, given):
                terms, (hit,) = d.select([t])
                assert terms[hit].tobytes() == want.tobytes()
    assert found > 0


def _selection_cases():
    """(space, [(name, density builder)], a readout lattice vector) on four
    spaces: 3D scalar, 1D massive boson + fermion, Dirac and photon.  The
    mixed space also normal-orders a random slot matrix with fermionic
    entries of both signs of zero."""
    grid3 = ModeGrid(axes=(1, 2, 3), lengths=(BOX,) * 3, ranges=((-1, 1),) * 3,
                     species=Species.BOSON, mass=0.3)
    scalar3 = build_fock_space([("phi", grid3)], 1, 1)
    mixed = build_fock_space(
        [("phi", ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-2, 2),),
                          species=Species.BOSON, mass=0.8)),
         ("psi", ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-2, 2),),
                          species=Species.FERMION, mass=1.0))], 1, 1)
    rng = np.random.default_rng(11)
    n = 2 * len(mixed.modes)
    W = np.empty((n, n), dtype=complex)
    W.real, W.imag = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=(2, n, n))
    scalar = [("phi2", scalar_bilinear_density)] + [
        (f"T{mu}{nu}", lambda s, mu=mu, nu=nu: stress_tensor_scalar(s, mu, nu))
        for mu in range(4) for nu in range(4)]
    return [
        (scalar3, scalar, (1, -1, 0)),
        (mixed, scalar + [
            ("W", lambda s: fields._quadratic(s, "W", lambda a, b: W[a, b])),
            ("W sym", lambda s: fields._symmetrized(s, "W", lambda a, b: W[a, b]))],
         (0, 0, 2)),
        (dirac_space(3, 1.0, caps=(1, 2)),
         [(f"j{mu}", lambda s, mu=mu: dirac_current_density(s, mu))
          for mu in range(4)], (0, 0, 1)),
        (photon_space(2, caps=(1, 2)),
         [(f"T{mu}{nu}", lambda s, mu=mu, nu=nu: stress_tensor_em(s, mu, nu))
          for mu in range(4) for nu in range(4)], (0, 0, 3)),
    ]


def test_selected_terms_are_the_full_arrays_kept_terms():
    # a builder's density evaluates its slot matrix at the partner pairs of
    # the targets alone; the terms are the full array's at each target, in
    # its order, bit for bit (signs of zero included), at 0, +-lat(p) and a
    # target out of reach
    for space, builders, lat_p in _selection_cases():
        neg = tuple(-v for v in lat_p)
        for name, build in builders:
            density = build(space)
            selections = [density.select([(0, 0, 0)]),
                          density.select([neg, lat_p]),
                          density.select([lat_p]),
                          density.select([(0, 0, 99)])]
            full = density.terms
            _, lat = density.transfers()
            for targets, (terms, hits) in zip(
                    [[(0, 0, 0)], [neg, lat_p], [lat_p], [(0, 0, 99)]],
                    selections):
                at = [np.all(lat == t, axis=1) for t in targets]
                assert terms.tobytes() == full[np.logical_or.reduce(
                    at + [np.all(lat == tuple(-v for v in t), axis=1)
                          for t in targets])].tobytes(), name
                for hit, want in zip(hits, at):
                    assert terms[hit].tobytes() == full[want].tobytes(), name
            # a component that vanishes on a 1D grid has no terms at all
            assert (len(selections[1][0]) > 0 or len(full) == 0) \
                and len(selections[3][0]) == 0


def test_ladder_table_is_built_once_per_space(monkeypatch):
    # the first composition builds every slot's map at once; later matrices,
    # a linear density's identity slot and the cached ladder Operators all
    # read that one table, and the Operators are views of its arrays
    builds = []
    build = fock._build_ladder_table
    monkeypatch.setattr(fock, "_build_ladder_table", lambda *args: (
        builds.append(1) or build(*args)))
    space = scalar_space(n_mode=2, mass=0.5, caps=(2, 2))
    M = len(space.modes)
    QuadraticObservable(space, "a", [(0, M, 1.0)]).matrix()
    table = space.ladder_table()
    assert builds == [1] and np.all(np.diff(table.src_key) > 0)
    held = np.unique(table.src_key // space.dim) - 1
    assert held.tolist() == list(range(-1, 2 * M))
    X = scalar_bilinear_density(space)          # every ladder slot
    X.matrix()
    QuadraticObservable(space, "again", X.terms).matrix()
    scalar_density(space).matrix()
    assert builds == [1] and space.ladder_table() is table
    assert space._op_cache == {}         # compositions realize no Operator
    for mode in space.modes:
        for op in (space.annihilation(mode.channel, mode.n),
                   space.creation(mode.channel, mode.n)):
            for mine, its in ((op.row, table.tgt), (op.col, table.src),
                              (op.value, table.amp)):
                assert np.shares_memory(mine, its)
    assert builds == [1] and len(space._op_cache) == 2 * M

    # a fresh space builds its own table, once
    other = scalar_space(n_mode=2, mass=0.5, caps=(2, 2))
    other.annihilation("phi", (1,))
    other.creation("phi", (2,))
    assert builds == [1, 1] and other.ladder_table() is not table
