import json
import math

import numpy as np
import pytest

from conftest import (BOX, csr, dirac_space, photon_space, scalar_grid,
                      scalar_space)

from boxqft.errors import (BoxQFTError, DimensionMismatch, DimensionOverflow,
                           UnknownMode)
from boxqft.fock import (DensityOperator, FockSpace, ModeGrid, SagnacConfig,
                         SagnacSpecies, Species, basis_state,
                         build_fock_space, expectation, free_hamiltonian,
                         mode_operator, sagnac_state, thermal_state,
                         total_momentum, vacuum_state)


def one_mode_space(n_max=4, mass=1.0, box=BOX):
    grid = ModeGrid(axes=(3,), lengths=(box,), ranges=((1, 1),),
                    species=Species.BOSON, mass=mass)
    return build_fock_space([("phi", grid)], n_max, n_max)


def test_dimensions():
    assert one_mode_space(n_max=4).dim == 5
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((1, 2),),
                    species=Species.FERMION, mass=0.0)
    assert build_fock_space([("psi", grid)], 1, 2).dim == 4


def test_two_boson_modes_enumeration():
    # caps (2, 2) on two modes: {00, 01, 02, 10, 11, 20} in lexicographic order
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((1, 2),),
                    species=Species.BOSON, mass=1.0)
    space = build_fock_space([("phi", grid)], 2, 2)
    assert space.dim == 6
    occs = [tuple(row) for row in space.occupations]
    assert occs == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_zero_mode_exclusion():
    massless = scalar_grid(n_mode=1, mass=0.0)
    assert (0,) not in massless.modes and len(massless.modes) == 2
    massive = scalar_grid(n_mode=1, mass=1.0)
    assert (0,) in massive.modes
    fermi = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-1, 1),),
                     species=Species.FERMION, mass=1.0)
    assert (0,) not in fermi.modes


def test_zero_mode_excluded_when_mass_squared_underflows():
    # mass**2 == 0 gives the zero mode zero energy, as for a massless grid
    tiny = scalar_grid(n_mode=1, mass=1e-178)
    assert (0,) not in tiny.modes and len(tiny.modes) == 2
    small = scalar_grid(n_mode=1, mass=1e-150)
    assert (0,) in small.modes and small.energy((0,)) > 0.0



def _product_basis(caps, total_cap):
    """Reference basis: itertools.product is lexicographic."""
    import itertools
    return [occ for occ in itertools.product(*(range(int(c) + 1) for c in caps))
            if sum(occ) <= total_cap]


@pytest.mark.parametrize("cell", ["scalar1d", "dirac", "scalar3d"])
def test_basis_order_matches_product_oracle(cell):
    if cell == "scalar1d":
        space = scalar_space(n_mode=2, mass=1.0, caps=(3, 4))
    elif cell == "dirac":
        space = dirac_space(n_mode=1, caps=(1, 3))
    else:
        grid = ModeGrid(axes=(1, 2, 3), lengths=(BOX,) * 3,
                        ranges=((0, 1),) * 3, species=Species.BOSON, mass=1.0)
        space = build_fock_space([("phi", grid)], 2, 3)
    expect = _product_basis(space.caps, space.n_max_total)
    assert [tuple(row) for row in space.occupations] == expect
    assert space.occupations.dtype == np.int8


def test_enumeration_leaves_recursion_limit_alone(monkeypatch):
    # deeper than the default recursion limit, and no process-wide change
    import sys

    def refuse(limit):
        raise AssertionError("sys.setrecursionlimit called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-600, 600),),
                    species=Species.BOSON, mass=0.0)
    space = build_fock_space([("phi", grid)], 1, 1)
    assert len(space.modes) == 1200 and space.dim == 1201
    assert space.occupations[1:].sum() == 1200
    assert np.array_equal(space.occupations[1:], np.fliplr(np.eye(1200)))


def test_ladder_map_matches_matrix():
    space = dirac_space(n_mode=1, caps=(1, 3))
    for mode in space.modes:
        for kind in ("a", "c"):
            src, tgt, amp = space.ladder_map(mode.channel, mode.n, kind)
            mat = (space.annihilation if kind == "a" else space.creation)(
                mode.channel, mode.n)
            assert np.all(np.diff(src) > 0)
            rebuilt = np.zeros((space.dim, space.dim), dtype=complex)
            rebuilt[tgt, src] = amp
            assert np.array_equal(rebuilt, csr(mat).toarray())


def test_state_index_rejects_rows_outside_the_basis(monkeypatch):
    space = scalar_space(n_mode=1, mass=1.0, caps=(3, 4))      # 3 modes
    widths = []
    searchsorted = np.searchsorted

    def spy(keys, needles, *args, **kwargs):
        widths.append(needles.dtype.itemsize)
        return searchsorted(keys, needles, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    outside = [[0, 0], [0, 0, 0, 0],           # wrong length
               [2, 3, 0],                       # above the total cap
               [4, 0, 0],                       # above the per-mode cap
               [0, -1, 1],                      # negative entry
               np.array([256, 0, 0])]           # 0 after an int8 cast
    for row in outside:
        with pytest.raises(UnknownMode):
            space.state_index(row)
    assert widths == [3]          # only the full-width row above the total cap
    assert space.state_index([2, 0, 2]) == space.state_index(
        np.array([2, 0, 2], dtype=np.int8))


def test_occupations_beyond_int8_are_rejected():
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((1, 1),),
                    species=Species.BOSON, mass=1.0)
    for caps in ((128, 128), (200, 200)):
        with pytest.raises(BoxQFTError, match="int8"):
            build_fock_space([("phi", grid)], *caps)
    # fermionic occupations stay at 1 whatever the per-mode cap
    assert (dirac_space(n_mode=1, caps=(200, 2)).dim
            == dirac_space(n_mode=1, caps=(1, 2)).dim)
    # the top state's key is byte 0x7f, the last before the sign bit
    space = build_fock_space([("phi", grid)], 127, 127)
    assert space.dim == 128
    assert [space.state_index([v]) for v in range(128)] == list(range(128))
    a = csr(space.annihilation("phi", (1,)))
    c = csr(space.creation("phi", (1,)))
    comm = (a @ c - c @ a)
    expected = np.eye(space.dim)
    expected[127, 127] = -127.0
    assert np.max(np.abs(comm.toarray() - expected)) < 1e-12


def test_space_without_modes_has_one_state():
    # a massless grid holding only k=0 has no modes: each key is zero bytes
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((0, 0),),
                    species=Species.BOSON, mass=0.0)
    space = build_fock_space([("phi", grid)], 2, 2)
    assert space.modes == () and space.dim == 1
    assert space.state_index([]) == 0
    assert np.array_equal(vacuum_state(space).amplitudes, [1.0])


def test_dispersion_and_fermi_velocity():
    g = scalar_grid(n_mode=2, mass=0.7, v_c=0.01)
    k = 2 * math.pi * 2 / BOX
    assert abs(g.energy((2,)) - math.sqrt(0.7 ** 2 + (0.01 * k) ** 2)) < 1e-14
    p = g.momentum((2,))
    assert p.z == k and p.x == p.y == 0.0


def test_dimension_overflow():
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-8, 8),),
                    species=Species.BOSON, mass=1.0)
    with pytest.raises(DimensionOverflow):
        build_fock_space([("phi", grid)], 4, 8, dim_limit=1000)


def test_dimension_overflow_message_names_modes_caps_and_smaller_dims():
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-8, 8),),
                    species=Species.BOSON, mass=1.0)
    with pytest.raises(DimensionOverflow) as err:
        build_fock_space([("phi", grid)], 4, 5, dim_limit=1000)
    msg = str(err.value)
    smaller = {t: build_fock_space([("phi", grid)], 4, t).dim for t in range(1, 5)}
    assert smaller[1] == 18 and smaller[2] == 171
    assert "17 modes" in msg and "per-mode cap 4" in msg and "total cap 5" in msg
    assert "limit 1000" in msg
    assert ("smaller total caps give dimensions {"
            + ", ".join(f"{t}: {d}" for t, d in smaller.items()) + "}") in msg


def test_mode_operator_matrix_elements():
    space = one_mode_space()
    a_dag = space.creation("phi", (1,))
    vac = vacuum_state(space).amplitudes
    one = a_dag @ vac
    assert abs(np.vdot(basis_state(space, {("phi", (1,)): 1}).amplitudes, one) - 1) < 1e-14
    two = a_dag @ one
    amp = np.vdot(basis_state(space, {("phi", (1,)): 2}).amplitudes, two)
    assert abs(amp - math.sqrt(2)) < 1e-14
    with pytest.raises(UnknownMode):
        space.creation("phi", (5,))
    op = mode_operator(space, "phi", (1,), "a")
    assert op.kind == "a" and op.channel == "phi"
    with pytest.raises(BoxQFTError):
        mode_operator(space, "phi", (1,), "x")


def test_fermionic_antisymmetry():
    space = dirac_space(n_mode=1, mass=1.0, caps=(1, 2))
    c1 = space.creation("L", (1,))
    c2 = space.creation("L", (-1,))
    vac = vacuum_state(space).amplitudes
    v12 = c1 @ (c2 @ vac)
    v21 = c2 @ (c1 @ vac)
    assert np.max(np.abs(v12 + v21)) < 1e-14
    assert np.linalg.norm(v12) == pytest.approx(1.0)


def test_bosonic_commutator_below_cap():
    space = one_mode_space(n_max=4)
    a = csr(space.annihilation("phi", (1,)))
    comm = (a @ a.conjugate().transpose() - a.conjugate().transpose() @ a).toarray()
    # identity except the single diagonal element at the cap state
    expected = np.eye(space.dim, dtype=complex)
    top = space.state_index(np.array([4], dtype=np.int8))
    expected[top, top] = -4.0
    assert np.max(np.abs(comm - expected)) < 1e-14


def test_fermionic_algebra_exact():
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((1, 3),),
                    species=Species.FERMION, mass=0.0)
    space = build_fock_space([("psi", grid)], 1, 3)
    modes = list(grid.modes)
    eye = np.eye(space.dim)
    for i, m in enumerate(modes):
        for n in modes[i:]:
            am = csr(space.annihilation("psi", m))
            an = csr(space.annihilation("psi", n))
            anti = (am @ an.conjugate().transpose()
                    + an.conjugate().transpose() @ am).toarray()
            target = eye if m == n else 0 * eye
            assert np.max(np.abs(anti - target)) < 1e-14
            anti2 = (am @ an + an @ am).toarray()
            assert np.max(np.abs(anti2)) < 1e-14


def test_free_hamiltonian_eigenvalues():
    space = one_mode_space(mass=0.6)
    H = free_hamiltonian(space)
    E = space.grid("phi").energy((1,))
    vac = vacuum_state(space)
    assert abs(expectation(vac, H)) < 1e-14
    one = basis_state(space, {("phi", (1,)): 1})
    assert abs(expectation(one, H) - E) < 1e-13
    two = basis_state(space, {("phi", (1,)): 2})
    assert abs(expectation(two, H) - 2 * E) < 1e-13
    assert abs(E - math.sqrt(0.6 ** 2 + 1.0)) < 1e-14


def test_hamiltonian_commutes_with_momentum():
    space = scalar_space(n_mode=2, mass=1.0)
    H = csr(free_hamiltonian(space))
    P = csr(total_momentum(space, 3))
    comm = H @ P - P @ H
    assert comm.nnz == 0 or np.max(np.abs(comm.data)) == 0.0


def test_thermal_state_limits():
    space = one_mode_space(n_max=12, mass=1.0, box=2 * math.pi)
    rho_inf = thermal_state(space, math.inf)
    assert rho_inf.diagonal[0] == 1.0 and rho_inf.diagonal.sum() == 1.0
    E = space.grid("phi").energy((1,))
    beta = 3.0 / E  # beta*E = 3
    rho = thermal_state(space, beta)
    rho.validate()
    n_op = space.creation("phi", (1,)) @ space.annihilation("phi", (1,))
    occ = expectation(rho, n_op).real
    exact = 1.0 / (math.exp(beta * E) - 1.0)
    assert abs(occ - exact) <= math.exp(-beta * E * 12)


def test_thermal_fermion_occupancy_exact():
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((1, 1),),
                    species=Species.FERMION, mass=0.5)
    space = build_fock_space([("psi", grid)], 1, 1)
    E = grid.energy((1,))
    for beta in (0.5, 2.0):
        rho = thermal_state(space, beta)
        n_op = space.creation("psi", (1,)) @ space.annihilation("psi", (1,))
        occ = expectation(rho, n_op).real
        assert abs(occ - 1.0 / (math.exp(beta * E) + 1.0)) < 1e-14


def test_expectation_values_and_commutator():
    space = one_mode_space(n_max=6)
    a = csr(space.annihilation("phi", (1,)))
    n_op = a.conjugate().transpose() @ a
    assert abs(expectation(vacuum_state(space), n_op)) < 1e-14
    one = basis_state(space, {("phi", (1,)): 1})
    assert abs(expectation(one, n_op) - 1.0) < 1e-14
    beta = 2.0
    rho = thermal_state(space, beta)
    aad = a @ a.conjugate().transpose()
    ada = a.conjugate().transpose() @ a
    # commutator expectation is 1 up to the cap-boundary weight
    E = space.grid("phi").energy((1,))
    val = (expectation(rho, aad) - expectation(rho, ada)).real
    assert abs(val - 1.0) < 10 * math.exp(-beta * E * 6)


def test_expectation_accepts_every_operator_form():
    # an Operator, a scipy matrix, an ndarray and nested lists give one value
    space = one_mode_space(n_max=3)
    H = free_hamiltonian(space)
    dense = csr(H).toarray()
    forms = (H, csr(H), dense, dense.tolist())
    one = basis_state(space, {("phi", (1,)): 1})
    rho = thermal_state(space, 1.5)
    full = DensityOperator(matrix=np.diag(rho.diagonal.astype(complex)))
    for state in (one, rho, full):
        vals = [expectation(state, op) for op in forms]
        assert all(abs(v - vals[0]) <= 1e-15 * abs(vals[0]) for v in vals)


def test_expectation_dimension_mismatch():
    s1 = one_mode_space(n_max=2)
    s2 = one_mode_space(n_max=4)
    with pytest.raises(DimensionMismatch):
        expectation(vacuum_state(s1), free_hamiltonian(s2))


def test_density_operator_validation():
    with pytest.raises(BoxQFTError):
        DensityOperator()
    bad = DensityOperator(matrix=np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(BoxQFTError):
        bad.validate()
    good = DensityOperator(matrix=np.diag([0.5, 0.5]).astype(complex))
    good.validate()


def test_sagnac_states():
    k3 = 1.0
    space = dirac_space(n_mode=2, mass=1.0)
    st = sagnac_state(space, SagnacConfig(SagnacSpecies.DIRAC_A, 1.0, k3))
    st.validate()
    up = basis_state(space, {("L", (1,)): 1}).amplitudes
    dn = basis_state(space, {("R", (-1,)): 1}).amplitudes
    assert abs(np.vdot(up, st.amplitudes) - 1 / math.sqrt(2)) < 1e-14
    assert abs(np.vdot(dn, st.amplitudes) - 1 / math.sqrt(2)) < 1e-14

    stb = sagnac_state(space, SagnacConfig(SagnacSpecies.DIRAC_B, 1.0, k3))
    upl = basis_state(space, {("L", (1,)): 1}).amplitudes
    dnl = basis_state(space, {("L", (-1,)): 1}).amplitudes
    assert abs(np.vdot(upl, stb.amplitudes) - 1 / math.sqrt(2)) < 1e-14
    assert abs(np.vdot(dnl, stb.amplitudes) + 1 / math.sqrt(2)) < 1e-14

    sspace = scalar_space(n_mode=1, mass=1.0)
    sts = sagnac_state(sspace, SagnacConfig(SagnacSpecies.SCALAR, 1.0, k3))
    plus = basis_state(sspace, {("phi", (1,)): 1}).amplitudes
    minus = basis_state(sspace, {("phi", (-1,)): 1}).amplitudes
    assert abs(np.vdot(plus, sts.amplitudes) - 1 / math.sqrt(2)) < 1e-14
    assert abs(np.vdot(minus, sts.amplitudes) - 1 / math.sqrt(2)) < 1e-14

    pspace = photon_space(n_mode=1)
    stp = sagnac_state(pspace, SagnacConfig(SagnacSpecies.PHOTON_V, 0.0, k3))
    stp.validate()

    with pytest.raises(UnknownMode):
        sagnac_state(space, SagnacConfig(SagnacSpecies.DIRAC_A, 1.0, 7.0))


def test_sagnac_state_rejects_a_config_energy_off_the_grid():
    # the state is built from mode indices alone, so a mass or v_c that is
    # not the space's would give a valid state with the wrong quoted values
    k3 = 1.0
    space = dirac_space(n_mode=2, mass=1.0)
    sagnac_state(space, SagnacConfig(SagnacSpecies.DIRAC_A, 1.0, k3))
    for cfg in (SagnacConfig(SagnacSpecies.DIRAC_A, 2.0, k3),
                SagnacConfig(SagnacSpecies.DIRAC_B, 1.0, k3, v_c=0.5),
                SagnacConfig(SagnacSpecies.DIRAC_A, 1.0 + 1e-9, k3)):
        with pytest.raises(BoxQFTError, match="mass or v_c"):
            sagnac_state(space, cfg)
    with pytest.raises(BoxQFTError, match="mass or v_c"):
        sagnac_state(photon_space(n_mode=1),
                     SagnacConfig(SagnacSpecies.PHOTON_V, 0.3, k3))


def test_sagnac_config_derived():
    cfg = SagnacConfig(SagnacSpecies.SCALAR, 1.0, 1.0)
    assert abs(cfg.energy - math.sqrt(2)) < 1e-14
    assert abs(cfg.group_velocity - 1.0 / math.sqrt(2)) < 1e-14
    assert cfg.group_velocity <= 1.0
    assert cfg.momentum_transfer.z == 2.0
    photon = SagnacConfig(SagnacSpecies.PHOTON_V, 0.0, 2.0)
    assert photon.energy == 2.0


def test_fock_space_json_roundtrip():
    space = dirac_space(n_mode=2, mass=1.2)
    doc = space.to_json()
    clone = FockSpace.from_json(doc)
    assert clone.dim == space.dim
    assert [m for m in clone.modes] == [m for m in space.modes]
    assert json.loads(doc)["schema"] == "boxqft/fockspace-v1"


def test_channels_must_share_one_box():
    # volume, total_momentum and lattice lookups read one grid for all
    # channels, so channels on different boxes or axes are rejected
    g = scalar_grid(n_mode=1, box=BOX)
    with pytest.raises(BoxQFTError):
        build_fock_space([("a", g), ("b", scalar_grid(n_mode=1, box=2 * BOX))], 1, 2)
    other_axis = ModeGrid(axes=(1,), lengths=(BOX,), ranges=((-1, 1),),
                          species=Species.BOSON)
    with pytest.raises(BoxQFTError):
        build_fock_space([("a", g), ("b", other_axis)], 1, 2)
    # differing ranges, species and masses on one box stay allowed
    fermi = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-2, 2),),
                     species=Species.FERMION, mass=1.0)
    space = build_fock_space([("a", g), ("b", fermi)], 1, 2)
    assert space.volume == BOX
