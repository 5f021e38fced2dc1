import cmath
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import correlator_reference
from boxqft import cli
from boxqft.correlators import (CTPPropagator, OrderingScheme,
                                exact_contour_correlator, free_propagator,
                                insertion, keldysh_scalar_propagators,
                                ordering_average, perfect_matchings,
                                three_point_combination, wick_npoint)
from boxqft.errors import BoxQFTError, MomentumMismatch, UnknownMode
from boxqft.fock import ModeGrid, Species, build_fock_space
from boxqft.spacetime import FourVector, ctp_time, minkowski_dot


def small_space(species, n_max=8, n_modes=1, box=math.pi / 2):
    grid = ModeGrid(axes=(3,), lengths=(box,), ranges=((1, n_modes),),
                    species=species, mass=0.0)
    cap = 1 if species is Species.FERMION else n_max
    return build_fock_space([("f", grid)], cap, cap * n_modes)


def test_free_propagator_zero_temperature_limits():
    space = small_space(Species.BOSON)
    E = space.grid("f").energy((1,))
    t_late = ctp_time(1, 0.2)     # backward branch: later on the contour
    t_early = ctp_time(0, 0.9)
    val = free_propagator(Species.BOSON, E, t_late, t_early, math.inf, ("a", "c"))
    assert abs(val - cmath.exp(1j * (0.9 - 0.2) * E)) < 1e-14
    val = free_propagator(Species.BOSON, E, t_late, t_early, math.inf, ("c", "a"))
    assert val == 0.0


def test_same_kind_pairs_vanish():
    E = 2.0
    for kinds in (("a", "a"), ("c", "c")):
        for sp in (Species.BOSON, Species.FERMION):
            assert free_propagator(sp, E, ctp_time(0, 0.1), ctp_time(1, 0.5),
                                   1.0, kinds) == 0.0


def test_thermal_factors_displayed():
    E, beta = 1.3, 0.7
    b = CTPPropagator(Species.BOSON, E, beta)
    assert abs(b.annihilator_later_factor() - 1 / (1 - math.exp(-beta * E))) < 1e-14
    assert abs(b.creator_later_factor() - 1 / (math.exp(beta * E) - 1)) < 1e-14
    f = CTPPropagator(Species.FERMION, E, beta)
    assert abs(f.annihilator_later_factor() - 1 / (1 + math.exp(-beta * E))) < 1e-14
    assert abs(f.creator_later_factor() + 1 / (math.exp(beta * E) + 1)) < 1e-14


@settings(max_examples=200, deadline=None)
@given(E=st.floats(0.05, 20.0),
       beta=st.one_of(st.just(math.inf), st.floats(0.1, 30.0)))
def test_thermal_factors_equal_the_closed_forms(E, beta):
    # the four displayed forms, bit for bit (repr tells -0.0 from 0.0)
    b = CTPPropagator(Species.BOSON, E, beta)
    assert repr(b.annihilator_later_factor()) == \
        repr(1.0 / (1.0 - math.exp(-beta * E)))
    assert repr(b.creator_later_factor()) == repr(1.0 / (math.exp(beta * E) - 1.0))
    f = CTPPropagator(Species.FERMION, E, beta)
    assert repr(f.annihilator_later_factor()) == \
        repr(1.0 / (1.0 + math.exp(-beta * E)))
    assert repr(f.creator_later_factor()) == \
        repr(-1.0 / (math.exp(beta * E) + 1.0))


@pytest.mark.parametrize("species", [Species.BOSON, Species.FERMION])
@pytest.mark.parametrize("beta", [1.0, 2.0, math.inf])
def test_two_point_matches_exact_trace(species, beta):
    space = small_space(species)
    for b1, t1 in ((0, 0.0), (1, 0.3)):
        for b2, t2 in ((0, 0.45), (1, 0.8)):
            for kinds in (("a", "c"), ("c", "a")):
                ins = [insertion(space, "f", (1,), kinds[0], ctp_time(b1, t1)),
                       insertion(space, "f", (1,), kinds[1], ctp_time(b2, t2))]
                engine = wick_npoint(ins, beta)
                oracle = exact_contour_correlator(space, ins, beta)
                assert abs(engine - oracle) < 1e-10


def test_equal_time_opposite_branches_example():
    space = small_space(Species.BOSON)
    ins = [insertion(space, "f", (1,), "a", ctp_time(0, 0.6)),
           insertion(space, "f", (1,), "c", ctp_time(1, 0.6))]
    assert abs(wick_npoint(ins, 2.0)
               - exact_contour_correlator(space, ins, 2.0)) < 1e-12


def test_wick_odd_vanishes():
    space = small_space(Species.BOSON)
    ins = [insertion(space, "f", (1,), "a", ctp_time(0, 0.1))]
    assert wick_npoint(ins, 1.0) == 0.0
    ins3 = ins + [insertion(space, "f", (1,), "c", ctp_time(0, 0.2)),
                  insertion(space, "f", (1,), "a", ctp_time(1, 0.3))]
    assert wick_npoint(ins3, 1.0) == 0.0


def test_insertion_rejects_unknown_kind():
    # any kind but "a"/"c" used to act as an annihilator in both the Wick
    # engine and the oracle
    space = small_space(Species.BOSON)
    with pytest.raises(BoxQFTError):
        insertion(space, "f", (1,), "x", ctp_time(0, 0.1))


def test_insertion_rejects_a_mode_off_the_space():
    # the Wick engine would return a value for a mode off the grid, which
    # the oracle cannot evaluate
    grid = ModeGrid(axes=(3,), lengths=(2 * math.pi,), ranges=((-1, 1),),
                    species=Species.BOSON, mass=1.0)
    space = build_fock_space([("phi", grid)], 2, 2)
    for n in ((5,), (1, 0)):
        with pytest.raises(UnknownMode):
            insertion(space, "phi", n, "a", ctp_time(0, 0.1))


def test_a_hand_built_insertion_rejects_an_unknown_kind():
    # the oracle read kind "x" as a creator and the Wick engine as an
    # annihilator, so the two disagreed
    space = small_space(Species.BOSON)
    good = insertion(space, "f", (1,), "a", ctp_time(0, 0.1))
    with pytest.raises(BoxQFTError):
        dataclasses.replace(good, kind="x")


def test_oracle_rejects_a_hand_built_insertion_off_the_space():
    # the oracle's mode lookup raised KeyError
    space = small_space(Species.BOSON)
    ins = [insertion(space, "f", (1,), "a", ctp_time(0, 0.1)),
           insertion(space, "f", (1,), "c", ctp_time(1, 0.2))]
    off = [dataclasses.replace(i, mode=("f", (5,))) for i in ins]
    with pytest.raises(UnknownMode):
        exact_contour_correlator(space, off, 1.0)


def test_perfect_matchings_count():
    assert len(list(perfect_matchings(2))) == 3
    assert len(list(perfect_matchings(3))) == 15
    assert len(list(perfect_matchings(0))) == 1


def test_wick_four_point_bosonic_vs_exact():
    space = small_space(Species.BOSON, n_max=6)
    ins = [insertion(space, "f", (1,), "a", ctp_time(0, 0.0)),
           insertion(space, "f", (1,), "c", ctp_time(0, 0.4)),
           insertion(space, "f", (1,), "a", ctp_time(1, 0.7)),
           insertion(space, "f", (1,), "c", ctp_time(1, 0.1))]
    for beta in (1.0, 2.0, math.inf):
        engine = wick_npoint(ins, beta)
        oracle = exact_contour_correlator(space, ins, beta)
        assert abs(engine - oracle) < 1e-10


def test_wick_fermionic_swap_antisymmetry():
    # annihilators on the backward branch (contour-later) keep both pair
    # contractions O(1)
    space = small_space(Species.FERMION, n_modes=2)
    ins = [insertion(space, "f", (1,), "a", ctp_time(1, 0.3)),
           insertion(space, "f", (1,), "c", ctp_time(0, 0.4)),
           insertion(space, "f", (2,), "a", ctp_time(1, 0.7)),
           insertion(space, "f", (2,), "c", ctp_time(0, 0.1))]
    base = wick_npoint(ins, 1.5)
    swapped = [ins[0], ins[2], ins[1], ins[3]]
    assert abs(wick_npoint(swapped, 1.5) + base) < 1e-13
    assert abs(base) > 0.5


def test_ordering_keldysh_equals_symmetrized_two_point():
    space = small_space(Species.BOSON)
    specs = [("a", "f", (1,), 0.3), ("c", "f", (1,), 0.9)]
    for beta in (1.0, math.inf):
        for engine in (wick_npoint,
                       lambda i, b: exact_contour_correlator(space, i, b)):
            vc = ordering_average(specs, OrderingScheme.KELDYSH_SYMMETRIC,
                                  beta, space, engine)
            vs = ordering_average(specs, OrderingScheme.FULLY_SYMMETRIZED,
                                  beta, space, engine)
            assert abs(vc - vs) < 1e-14


def test_ordering_one_point_scheme_independent():
    space = small_space(Species.BOSON)
    specs = [("a", "f", (1,), 0.5)]
    vals = [ordering_average(specs, s, 1.0, space)
            for s in (OrderingScheme.CONTOUR_ORDERED,
                      OrderingScheme.KELDYSH_SYMMETRIC,
                      OrderingScheme.FULLY_SYMMETRIZED)]
    assert all(abs(v - vals[0]) < 1e-14 for v in vals)


def test_contour_ordered_written_order():
    # <a(t1) a+(t2)> contour-ordered leaves the written order: equals the
    # plain Wightman trace
    space = small_space(Species.BOSON)
    specs = [("a", "f", (1,), 0.2), ("c", "f", (1,), 0.7)]
    beta = 2.0
    val = ordering_average(specs, OrderingScheme.CONTOUR_ORDERED, beta, space)
    E = space.grid("f").energy((1,))
    nbar = 1 / (math.exp(beta * E) - 1)
    expect = cmath.exp(1j * (0.7 - 0.2) * E) * (1 + nbar)
    assert abs(val - expect) < 1e-12


def test_keldysh_scalar_propagator_descriptors():
    m = 1.0
    cq = keldysh_scalar_propagators("cq", m)
    p = FourVector(0.4, 0, 0, 1.1)  # off shell
    val = cq.rational_value(p)
    s = minkowski_dot(p, p)
    assert abs(val - 1j / (s - m * m)) < 1e-14
    # epsilon-independence off shell: halving epsilon converges
    v1 = cq.rational_value(p, eps=1e-6)
    v2 = cq.rational_value(p, eps=5e-7)
    assert abs(v1 - v2) < 1e-6 and abs(v2 - val) < 1e-6

    qq = keldysh_scalar_propagators("qq", m)
    assert qq.rational_value(p) == 0.0 and qq.shell_constant == 0.0

    pm = keldysh_scalar_propagators("+-", m)
    E = math.sqrt(m * m + 1.0)
    on_fwd = FourVector(E, 0, 0, 1.0)
    on_bwd = FourVector(-E, 0, 0, 1.0)
    assert pm.on_shell_weight(on_fwd) == (2 * math.pi) ** 5
    assert pm.on_shell_weight(on_bwd) == 0.0
    assert pm.on_shell_weight(p) == 0.0

    cc = keldysh_scalar_propagators("cc", m)
    assert cc.on_shell_weight(on_fwd) == cc.on_shell_weight(on_bwd) \
        == 16 * math.pi ** 5
    with pytest.raises(BoxQFTError):
        keldysh_scalar_propagators("bad", m)


def test_three_point_displayed_values():
    w, m = 2.0, 1.0
    k = FourVector(0, 0, 0, w)
    p = FourVector(0, 0, 0, w / 2)
    q = FourVector(0, 0, 0, w / 2)
    res = three_point_combination(k, p, q, ((1.0, (3, 3)),), m)
    assert abs(res - (w ** 2 / 8 + m ** 2 / 2)) < 1e-14
    assert abs(res - 1.0) < 1e-14

    v = 1.0
    pv = FourVector(v, 0, 0, w / 2)
    qv = FourVector(-v, 0, 0, w / 2)
    weights = ((2.0, (0, 0)), (1.0, (1, 1)), (1.0, (2, 2)))
    res = three_point_combination(k, pv, qv, weights, m)
    assert abs(res - (-2 * v ** 2)) < 1e-14
    # nonzero at space-like k for the noiseless combination
    assert abs(res) > 1.0

    E = math.sqrt(m * m + w * w / 4)
    pE = FourVector(E, 0, 0, w / 2)
    qE = FourVector(-E, 0, 0, w / 2)
    # the same prefactor multiplies the on-shell middle-branch term of the
    # three-branch ordering
    res = three_point_combination(k, pE, qE, weights, m)
    assert abs(res - (-2 * E * E)) < 1e-14


def test_three_point_momentum_mismatch():
    k = FourVector(0, 0, 0, 2.0)
    p = FourVector(0, 0, 0, 1.0)
    q = FourVector(0, 0, 0, 0.7)
    with pytest.raises(MomentumMismatch):
        three_point_combination(k, p, q, ((1.0, (3, 3)),), 1.0)


def test_dirac_antipropagators_vanish():
    # <psi psi> and <psi+ psi+> are zero for all arguments
    space = small_space(Species.FERMION)
    for kinds in (("a", "a"), ("c", "c")):
        ins = [insertion(space, "f", (1,), kinds[0], ctp_time(0, 0.1)),
               insertion(space, "f", (1,), kinds[1], ctp_time(1, 0.9))]
        assert wick_npoint(ins, 1.0) == 0.0
        assert abs(exact_contour_correlator(space, ins, 1.0)) < 1e-14


# ---------------------------------------------------------------------------
# the index-map oracle against the sparse-matrix reference


def assert_matches_reference(space, ins, beta):
    ref = correlator_reference.exact_contour_correlator(space, ins, beta)
    val = exact_contour_correlator(space, ins, beta)
    assert abs(val - ref) <= 1e-14 * max(1.0, abs(ref))


@pytest.fixture(scope="module")
def wick_spaces():
    """The two spaces of `boxqft wick-check` at the default config."""
    cfg = cli.DEFAULT_CONFIG["wick"]
    grids = [ModeGrid(axes=(3,), lengths=(cfg["box"],), ranges=((1, 3),),
                      species=species, mass=0.0)
             for species in (Species.BOSON, Species.FERMION)]
    return {"boson": (build_fock_space([("phi", grids[0])],
                                       cfg["n_max_per_mode"], 24), "phi"),
            "fermion": (build_fock_space([("psi", grids[1])], 1, 3), "psi")}


@pytest.mark.parametrize("label", ["boson", "fermion"])
@pytest.mark.parametrize("beta", cli.DEFAULT_CONFIG["wick"]["betas"])
def test_oracle_matches_sparse_reference_on_wick_catalog(wick_spaces, label,
                                                         beta):
    space, channel = wick_spaces[label]
    modes = list(space.grid(channel).modes)
    cases = cli._wick_catalog(channel, modes)
    assert len(cases) == 23
    for case in cases:
        ins = [insertion(space, ch, n, kind, t) for ch, n, kind, t in case]
        assert_matches_reference(space, ins, beta)


def _property_spaces():
    box = 2 * math.pi

    def grid(species, modes):
        return ModeGrid(axes=(3,), lengths=(box,), ranges=(modes,),
                        species=species, mass=0.5)

    boson = build_fock_space([("b", grid(Species.BOSON, (-1, 1)))], 3, 4)
    fermion = build_fock_space([("f", grid(Species.FERMION, (-2, 2)))], 1, 4)
    # the bosonic modes precede the fermionic ones in the basis order, so
    # the Jordan-Wigner string must skip them
    mixed = build_fock_space([("b", grid(Species.BOSON, (0, 1))),
                              ("f", grid(Species.FERMION, (-1, 2)))], 2, 4)
    return {"boson": boson, "fermion": fermion, "mixed": mixed}


PROPERTY_SPACES = _property_spaces()


@st.composite
def contour_insertions(draw, space):
    """2-6 insertions: creator/annihilator pairs on random modes (so even
    lists can have nonzero traces), truncated and shuffled, at random
    branches and times with a small imaginary part."""
    modes = [(m.channel, m.n) for m in space.modes]
    count = draw(st.integers(2, 6))
    ops = []
    for _ in range((count + 1) // 2):
        ch, n = draw(st.sampled_from(modes))
        ops += [(ch, n, "a"), (ch, n, "c")]
    ops = draw(st.permutations(ops[:count]))
    out = []
    for ch, n, kind in ops:
        t = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-0.1, 0.1)))
        out.append(insertion(space, ch, n, kind,
                             ctp_time(draw(st.integers(0, 1)), t)))
    return out


@pytest.mark.parametrize("label", sorted(PROPERTY_SPACES))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), beta=st.one_of(st.just(math.inf), st.floats(0.3, 3.0)))
def test_oracle_matches_sparse_reference_on_random_insertions(label, data,
                                                              beta):
    space = PROPERTY_SPACES[label]
    ins = data.draw(contour_insertions(space))
    assert_matches_reference(space, ins, beta)
