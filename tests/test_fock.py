import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BOX, csr, dirac_space, occupations, photon_space,
                      scalar_grid, scalar_space)

from boxqft.errors import (BoxQFTError, DimensionMismatch, DimensionOverflow,
                           OffLatticeMomentum, UnknownMode)
from boxqft.fock import (DIM_LIMIT_DEFAULT, ModeGrid, SagnacConfig,
                         SagnacSpecies, Species, basis_state,
                         build_fock_space, expectation, free_hamiltonian,
                         sagnac_state, thermal_state, total_momentum,
                         vacuum_state)


def one_mode_space(n_max=4, mass=1.0, box=BOX):
    grid = ModeGrid(axes=(3,), lengths=(box,), ranges=((1, 1),),
                    species=Species.BOSON, mass=mass)
    return build_fock_space([("phi", grid)], n_max, n_max)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mode_grids_refuse_parameters_that_are_not_finite(bad):
    # a nan mass or length passed the old sign checks: Lehmann samples then
    # read G = 0 with no pair while vacuum_variance read nan
    def grid(**kw):
        args = dict(axes=(3,), lengths=(BOX,), ranges=((-1, 1),),
                    species=Species.BOSON, mass=0.5)
        args.update(kw)
        return ModeGrid(**args)

    grid()
    for kw in ({"lengths": (bad,)}, {"mass": bad}, {"v_c": bad}):
        with pytest.raises(BoxQFTError, match="finite"):
            grid(**kw)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lattice_of_refuses_momenta_that_are_not_finite(bad):
    # FourVector refuses them first; lattice_of reads only p.spatial, and a
    # non-finite component raised a bare ValueError or OverflowError there
    space = scalar_space(n_mode=2, mass=0.5, caps=(1, 1))
    for axis in range(3):
        spatial = np.zeros(3)
        spatial[axis] = bad
        with pytest.raises(OffLatticeMomentum, match="finite"):
            space.lattice_of(SimpleNamespace(spatial=spatial))


def test_sagnac_config_refuses_a_negative_mass():
    for mass in (-1.0, -1e-300, math.nan):
        with pytest.raises(BoxQFTError, match="mass"):
            SagnacConfig(SagnacSpecies.SCALAR, mass, 1.0)
    assert SagnacConfig(SagnacSpecies.PHOTON_V, 0.0, 1.0).energy == 1.0


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
    occs = [tuple(row) for row in occupations(space)]
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
    assert [tuple(row) for row in occupations(space)] == expect


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
    occ = occupations(space)
    assert occ[1:].sum() == 1200
    assert np.array_equal(occ[1:], np.fliplr(np.eye(1200)))


def test_wall_space_just_under_the_dimension_limit():
    # 600 massless modes with caps (2, 2): the largest 1D cell below the
    # default limit, enumerated and indexed by rank alone
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-300, 300),),
                    species=Species.BOSON, mass=0.0)
    space = build_fock_space([("phi", grid)], 2, 2)
    M = len(space.modes)
    assert M == 600 and space.dim == 180_901 < DIM_LIMIT_DEFAULT
    assert space.occupied.shape == (space.dim, 2)
    assert np.all(space.occupied[0] == M)
    assert space.state_index(np.zeros(M, dtype=np.int8)) == 0
    rows = np.random.default_rng(5).choice(space.dim, 400, replace=False)
    for i in rows.tolist() + [1, M, M + 1, space.dim - 1]:
        occ = np.bincount(space.occupied[i], minlength=M + 1)[:M]
        assert space.state_index(occ) == i
    # the last row holds two units of the first mode
    assert space.occupied[-1].tolist() == [0, 0]
    # an annihilator at the wall lowers each sampled source by one unit
    j = 123
    a = space.annihilation(space.modes[j].channel, space.modes[j].n)
    for k in np.random.default_rng(6).choice(len(a.col), 200, replace=False):
        src = np.bincount(space.occupied[a.col[k]], minlength=M + 1)[:M]
        src[j] -= 1
        assert space.state_index(src) == a.row[k]
        assert a.value[k] == math.sqrt(src[j] + 1)


def test_ladder_map_matches_matrix():
    # each slot of the LadderTable is its Operator's (col, row, value)
    space = dirac_space(n_mode=1, caps=(1, 3))
    table, M = space.ladder_table(), len(space.modes)
    for j, mode in enumerate(space.modes):
        for kind, slot in (("c", j), ("a", M + j)):
            part = slice(table.start[slot + 1], table.start[slot + 2])
            src, tgt, amp = table.src[part], table.tgt[part], table.amp[part]
            mat = (space.annihilation if kind == "a" else space.creation)(
                mode.channel, mode.n)
            assert np.all(np.diff(src) > 0)
            for x, y in ((src, mat.col), (tgt, mat.row), (amp, mat.value)):
                assert x.tobytes() == y.tobytes()
            rebuilt = np.zeros((space.dim, space.dim), dtype=complex)
            rebuilt[tgt, src] = amp
            assert np.array_equal(rebuilt, csr(mat).toarray())


@settings(max_examples=40, deadline=None)
@given(axes=st.sampled_from([(3,), (1, 3)]),
       ranges=st.sampled_from([(-1, 1), (0, 2), (-3, 1)]),
       kinds=st.lists(st.sampled_from([Species.BOSON, Species.FERMION]),
                      min_size=1, max_size=3),
       mass=st.sampled_from([0.0, 0.5]),
       caps=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_ladder_maps_ascend_in_source_and_target(axes, ranges, kinds, mass,
                                                  caps):
    # a LadderTable's keys ascend only if every map ascends strictly in
    # source: fields._assemble and the contour oracle find a state among them
    # by binary search.  A map that ascends in target too is a canonical
    # Operator as a slice of the table.  The oracle also scales by the real
    # part of an amplitude, so amplitudes must be real.
    channels = [(f"c{i}", ModeGrid(axes=axes, lengths=(BOX,) * len(axes),
                                   ranges=(ranges,) * len(axes), species=kind,
                                   mass=mass))
                for i, kind in enumerate(kinds)]
    space = build_fock_space(channels, *caps)
    for mode in space.modes:
        for kind in ("a", "c"):
            op = (space.annihilation if kind == "a" else space.creation)(
                mode.channel, mode.n)
            src, tgt, amp = op.col, op.row, op.value
            assert len(src) > 0 and not np.any(amp.imag)
            assert np.all(np.diff(src) > 0) and np.all(np.diff(tgt) > 0)
    assert np.all(np.diff(space.ladder_table().src_key) > 0)


def test_state_index_rejects_rows_outside_the_basis():
    space = scalar_space(n_mode=1, mass=1.0, caps=(3, 4))      # 3 modes
    outside = [[0, 0], [0, 0, 0, 0],           # wrong length
               [2, 3, 0],                       # above the total cap
               [4, 0, 0],                       # above the per-mode cap
               [0, -1, 1],                      # negative entry
               np.array([256, 0, 0])]           # 0 after an int8 cast
    for row in outside:
        with pytest.raises(UnknownMode):
            space.state_index(row)
    assert space.state_index([2, 0, 2]) == space.state_index(
        np.array([2, 0, 2], dtype=np.int8))


def test_basis_state_refuses_unknown_modes_and_fractional_occupations():
    # an unknown mode raised a bare KeyError, and a fractional occupation
    # was cast to 0: the vacuum
    space = scalar_space(n_mode=1, mass=1.0, caps=(3, 4))      # 3 modes
    for occupation in ({("phi", (5,)): 1}, {("chi", (1,)): 1},
                       {("phi", (1,)): 0.5}):
        with pytest.raises(UnknownMode):
            basis_state(space, occupation)
    with pytest.raises(UnknownMode):
        space.state_index([0.5, 0, 0])
    # a whole number held as a float names its row
    assert space.state_index([2.0, 0.0, 1.0]) == space.state_index([2, 0, 1])
    assert np.array_equal(basis_state(space, {("phi", (1,)): 2.0}).amplitudes,
                          basis_state(space, {("phi", (1,)): 2}).amplitudes)


def test_one_boson_mode_holds_occupations_beyond_int8():
    # occupations are counted in int64 ranks and lists: 130 units of one mode
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((1, 1),),
                    species=Species.BOSON, mass=1.0)
    space = build_fock_space([("phi", grid)], 130, 130)
    assert space.dim == 131
    assert [space.state_index([v]) for v in range(131)] == list(range(131))
    a = space.annihilation("phi", (1,))
    c = space.creation("phi", (1,))
    n = np.arange(1, 131)
    # a|n> = sqrt(n)|n-1>, c|n-1> = sqrt(n)|n>, nothing above the cap
    assert a.row.tolist() == (n - 1).tolist() and a.col.tolist() == n.tolist()
    assert c.row.tolist() == n.tolist() and c.col.tolist() == (n - 1).tolist()
    for op in (a, c):
        assert op.value.real.tobytes() == np.sqrt(n.astype(float)).tobytes()
        assert not op.value.imag.any()
    comm = csr(a) @ csr(c) - csr(c) @ csr(a)
    expected = np.eye(space.dim)
    expected[130, 130] = -130.0
    assert np.max(np.abs(comm.toarray() - expected)) < 1e-12
    # fermionic occupations stay at 1 whatever the per-mode cap
    assert (dirac_space(n_mode=1, caps=(200, 2)).dim
            == dirac_space(n_mode=1, caps=(1, 2)).dim)


def test_space_without_modes_has_one_state():
    # a massless grid holding only k=0 has no modes: the vacuum's list is
    # all padding, and its rank is the empty sum
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
    assert abs(rho.diagonal.sum() - 1.0) <= 1e-12
    assert rho.diagonal.min() >= 0.0
    n_op = space.creation("phi", (1,)) @ space.annihilation("phi", (1,))
    occ = expectation(rho, n_op).real
    exact = 1.0 / (math.exp(beta * E) - 1.0)
    assert abs(occ - exact) <= math.exp(-beta * E * 12)


def test_thermal_state_is_kept_for_the_last_beta():
    space = one_mode_space(n_max=6)
    for beta in (1.5, math.inf):
        rho = thermal_state(space, beta)
        assert thermal_state(space, beta) is rho
        # shared by every caller at this beta
        with pytest.raises(ValueError):
            rho.diagonal[0] = 0.5
    # a beta asked for again after another is computed afresh, to the bit
    again = thermal_state(space, 1.5)
    assert again is not rho and thermal_state(space, 1.5) is again
    w = np.exp(-1.5 * (space.energies - space.energies.min()))
    assert again.diagonal.tobytes() == (w / w.sum()).tobytes()


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
    for state in (one, rho):
        vals = [expectation(state, op) for op in forms]
        assert all(abs(v - vals[0]) <= 1e-15 * abs(vals[0]) for v in vals)


def test_expectation_dimension_mismatch():
    s1 = one_mode_space(n_max=2)
    s2 = one_mode_space(n_max=4)
    with pytest.raises(DimensionMismatch):
        expectation(vacuum_state(s1), free_hamiltonian(s2))


def test_sagnac_states():
    k3 = 1.0
    space = dirac_space(n_mode=2, mass=1.0)
    st = sagnac_state(space, SagnacConfig(SagnacSpecies.DIRAC_A, 1.0, k3))
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) <= 1e-12
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
    assert abs(np.linalg.norm(stp.amplitudes) - 1.0) <= 1e-12

    with pytest.raises(UnknownMode):
        sagnac_state(space, SagnacConfig(SagnacSpecies.DIRAC_A, 1.0, 7.0))


def test_sagnac_state_rejects_a_config_energy_off_the_grid():
    # the state is built from mode indices alone, so a mass or v_c that is
    # not the space's would give a valid state with the wrong quoted values
    k3 = 1.0
    space = dirac_space(n_mode=2, mass=1.0)
    sagnac_state(space, SagnacConfig(SagnacSpecies.DIRAC_A, 1.0, k3))
    for cfg in (SagnacConfig(SagnacSpecies.DIRAC_A, 2.0, k3),
                SagnacConfig(SagnacSpecies.DIRAC_A, 1.0 + 1e-9, k3)):
        with pytest.raises(BoxQFTError, match="mass or v_c"):
            sagnac_state(space, cfg)
    # the config's arms move at v_c = 1; a slower grid is refused
    slow = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-2, 2),),
                    species=Species.BOSON, mass=1.0, v_c=0.5)
    with pytest.raises(BoxQFTError, match="mass or v_c"):
        sagnac_state(build_fock_space([("phi", slow)], 2, 2),
                     SagnacConfig(SagnacSpecies.SCALAR, 1.0, k3))
    with pytest.raises(BoxQFTError, match="mass or v_c"):
        sagnac_state(photon_space(n_mode=1),
                     SagnacConfig(SagnacSpecies.PHOTON_V, 0.3, k3))


def test_sagnac_config_derived():
    cfg = SagnacConfig(SagnacSpecies.SCALAR, 1.0, 1.0)
    assert abs(cfg.energy - math.sqrt(2)) < 1e-14
    assert cfg.momentum_transfer.z == 2.0
    photon = SagnacConfig(SagnacSpecies.PHOTON_V, 0.0, 2.0)
    assert photon.energy == 2.0


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
    # with no channel there is no box at all
    with pytest.raises(BoxQFTError, match="at least one channel"):
        build_fock_space([], 1, 2)
    # differing ranges, species and masses on one box stay allowed
    fermi = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-2, 2),),
                     species=Species.FERMION, mass=1.0)
    space = build_fock_space([("a", g), ("b", fermi)], 1, 2)
    assert space.volume == BOX
