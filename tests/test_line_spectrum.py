"""Line spectra and the one-pair memo behind the Lehmann sum.

The memoized path must give bit-identical samples to the reference that
rebuilds both momentum blocks and their product on every call
(tests/lehmann_reference.py), build its lines from the block terms with no
matrix realized, keep at most one {lat, -lat} pair per density without a
reference cycle or a block matrix, build one line spectrum per pair, and
expose detailed balance line by line.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOX, dirac_space, photon_space, scalar_space
from lehmann_reference import lehmann_reference, momentum_block

from boxqft import fields, spectral
from boxqft.errors import BoxQFTError
from boxqft.fields import (QuadraticObservable, dirac_current_density,
                           em_field_strength_density, scalar_bilinear_density)
from boxqft.fock import (FockSpace, ModeGrid, Species, build_fock_space,
                         thermal_state)
from boxqft.measurement import (MeasurementWindow, operator_vacuum_variance,
                                spacelike_windowed_observable, vacuum_variance,
                                windowed_observable)
from boxqft.operator import Operator
from boxqft.spacetime import FourVector
from boxqft.spectral import (default_delta_omega, fdt_ratio,
                             lehmann_spectral_density, line_spectrum)

U = 2 * math.pi / BOX


def assert_matches_reference(space, X, Y, p, beta, delta_omega=None):
    s = lehmann_spectral_density(space, X, Y, p, beta, delta_omega)
    G, dom, count, _ = lehmann_reference(space, X, Y, p, beta, delta_omega)
    # repr is exact for floats and tells 0.0 from -0.0 and 0.0 from 0j
    assert type(s.G) is type(G) and repr(s.G) == repr(G)
    assert repr(s.dominant_weight) == repr(dom)
    assert s.term_count == count
    return s


def _scalar_case():
    space = scalar_space(n_mode=2, mass=0.5, caps=(2, 3))
    phi2 = scalar_bilinear_density(space)
    return space, [phi2, scalar_bilinear_density(space)]


def _dirac_case():
    space = dirac_space(n_mode=2, mass=1.0, caps=(1, 3))
    return space, [dirac_current_density(space, mu) for mu in (0, 3)]


def _photon_case():
    space = photon_space(n_mode=2, caps=(2, 2))
    return space, [em_field_strength_density(space, 0, 1),
                   em_field_strength_density(space, 1, 3)]


CASES = {"scalar_phi2": _scalar_case, "dirac_j": _dirac_case,
         "photon_F": _photon_case}


def _line_momenta(space, X, lat):
    """p0 on a few of X's own transition lines at lattice momentum lat,
    plus one p0 between lines."""
    de = np.unique(line_spectrum(space, X, X, lat).de)
    return [0.37] + [float(w) for w in de[::max(1, len(de) // 4)]]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("beta", [math.inf, 0.8])
def test_auto_and_cross_spectra_match_reference(case, beta):
    space, (X, Y) = CASES[case]()
    for p3 in (1, 0, -2):
        lat = (0, 0, p3)
        for p0 in _line_momenta(space, X, lat):
            p = FourVector(p0, 0.0, 0.0, p3 * U)
            for A, B in ((X, X), (X, Y), (Y, X), (Y, Y)):
                assert_matches_reference(space, A, B, p, beta)
                assert_matches_reference(space, A, B, -1.0 * p, beta)


@pytest.mark.parametrize("case", sorted(CASES))
def test_explicit_bin_width_matches_reference(case):
    space, (X, Y) = CASES[case]()
    dw = default_delta_omega(space)
    for p0 in _line_momenta(space, X, (0, 0, 1)):
        p = FourVector(p0, 0.0, 0.0, U)
        for width in (dw / 2, 3 * dw, 0.0):
            assert_matches_reference(space, X, X, p, 1.3, width)
            assert_matches_reference(space, X, Y, p, 1.3, width)


def test_a_bin_width_that_selects_nothing_is_rejected():
    # a negative or nan width would find no line and read as the structural
    # zero "no contributing eigenstate pair"
    space = scalar_space(n_mode=2, mass=0.5, caps=(2, 2))
    X = scalar_bilinear_density(space)
    p0 = _line_momenta(space, X, (0, 0, 1))[1]
    p = FourVector(p0, 0.0, 0.0, U)
    assert lehmann_spectral_density(space, X, X, p, 1.0).term_count == 1
    for width in (-1.0, math.nan, -math.inf, True, "0.1"):
        with pytest.raises(BoxQFTError, match="delta_omega"):
            lehmann_spectral_density(space, X, X, p, 1.0, width)
    # a zero-width bin, of any real type, holds the line at p0 exactly
    assert lehmann_spectral_density(space, X, X, p, 1.0,
                                    np.float64(0.0)).term_count == 1


def test_alternating_lattice_pairs_refill_the_slot():
    space = dirac_space(n_mode=2, mass=1.0, caps=(1, 3))
    # line positions from a separate density, so that only the calls below
    # touch the slots of j0 and j3
    probe = dirac_current_density(space, 0)
    momenta = {p3: _line_momenta(space, probe, (0, 0, p3)) for p3 in (1, 2, 3)}
    j0 = dirac_current_density(space, 0)
    j3 = dirac_current_density(space, 3)
    nonzero = 0
    for _ in range(2):
        for p3 in (1, 3, -2, -1, 2, 3):
            for p0 in momenta[abs(p3)]:
                p = FourVector(p0, 0.0, 0.0, p3 * U)
                s = assert_matches_reference(space, j0, j0, p, 0.9)
                nonzero += s.term_count > 0
                assert_matches_reference(space, j3, j0, p, 0.9)
                assert j0._momentum_memo["terms"].keys() == {(0, 0, p3),
                                                             (0, 0, -p3)}
    assert nonzero > 0


def _random_space(species, n_mode, mass, caps):
    def grid(kind, m):
        return ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-n_mode, n_mode),),
                        species=kind, mass=m)

    if species == "dirac":
        space = build_fock_space(
            fields.dirac_space_channels(grid(Species.FERMION, mass)), *caps)
        return space, [dirac_current_density(space, mu) for mu in (0, 1, 3)]
    if species == "photon":
        space = build_fock_space(
            fields.photon_space_channels(grid(Species.BOSON, 0.0)), *caps)
        return space, [em_field_strength_density(space, 0, 1),
                       em_field_strength_density(space, 2, 3)]
    space = build_fock_space([("phi", grid(Species.BOSON, mass))], *caps)
    return space, [scalar_bilinear_density(space),
                   fields.stress_tensor_scalar(space, 0, 3)]


@settings(max_examples=40, deadline=None)
@given(species=st.sampled_from(["scalar", "dirac", "photon"]),
       n_mode=st.integers(1, 2), mass=st.sampled_from([0.0, 0.4, 1.0]),
       caps=st.sampled_from([(1, 2), (2, 2), (1, 3), (2, 3)]),
       calls=st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 30),
                                st.floats(-4.0, 4.0),
                                st.sampled_from([math.inf, 0.3, 1.0, 2.5]),
                                st.integers(0, 2), st.integers(0, 2)),
                      min_size=1, max_size=6))
def test_memoized_path_matches_reference_random(species, n_mode, mass, caps,
                                               calls):
    space, densities = _random_space(species, n_mode, mass, caps)
    for p3, line, offset, beta, i, j in calls:
        X = densities[i % len(densities)]
        Y = densities[j % len(densities)]
        lat = (0, 0, p3)
        de = np.unique(line_spectrum(space, X, Y, lat).de)
        # on a transition line when there is one, else anywhere
        p0 = float(de[line % len(de)]) if len(de) and line < 20 else offset
        assert_matches_reference(space, X, Y, FourVector(p0, 0.0, 0.0, p3 * U),
                                 beta)


def _has_number_terms(X):
    left, right = X.terms["left"], X.terms["right"]
    return np.any((left >= 0) & (left + len(X.space.modes) == right))


@settings(max_examples=30, deadline=None)
@given(species=st.sampled_from(["scalar", "dirac", "photon"]),
       n_mode=st.integers(1, 2), mass=st.sampled_from([0.0, 0.4, 1.0]),
       caps=st.sampled_from([(1, 2), (2, 2), (1, 3), (2, 3)]),
       swap=st.booleans())
def test_cross_lines_at_zero_lattice_momentum_are_the_block_product(
        species, n_mode, mass, caps, swap):
    # at lat = 0 every number term c_j a_j lands on the diagonal, and X's
    # differ from Y's: the join sums each block's diagonal on its own
    space, _ = _random_space(species, n_mode, mass, caps)
    if species == "dirac":
        X, Y = (dirac_current_density(space, mu) for mu in (0, 3))
    elif species == "photon":
        X, Y = (fields.stress_tensor_em(space, 0, nu) for nu in (0, 3))
    else:
        X = scalar_bilinear_density(space)
        Y = fields.stress_tensor_scalar(space, 0, 0)
    if swap:
        X, Y = Y, X
    assert _has_number_terms(X) and _has_number_terms(Y)
    for A, B in ((X, Y), (X, X), (Y, Y)):
        assert_lines_are_product(line_spectrum(space, A, B, (0, 0, 0)),
                                 product_lines(space, A, B, (0, 0, 0)))


# ---------------------------------------------------------------------------
# beta = inf: the vacuum's row and column, from the terms alone


def _ground_lines(space, X, Y, lat):
    """p0 of the lines in the ground state's row of X(-lat)∘Y(lat)ᵀ, from
    blocks built afresh, so that X's and Y's memos stay untouched."""
    g = int(np.argmin(space.energies))
    A = momentum_block(space, X, tuple(-v for v in lat)).tocsr()
    B = momentum_block(space, Y, lat).tocsc()
    m = np.intersect1d(A[g].indices, B[:, g].indices)
    return np.unique(space.energies[m] - space.energies[g])


@settings(max_examples=40, deadline=None)
@given(species=st.sampled_from(["scalar", "dirac", "photon"]),
       n_mode=st.integers(1, 2), mass=st.sampled_from([0.0, 0.4, 1.0]),
       caps=st.sampled_from([(1, 2), (2, 2), (1, 3), (2, 3)]),
       calls=st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 30),
                                st.floats(-4.0, 4.0), st.integers(0, 2),
                                st.integers(0, 2)),
                      min_size=1, max_size=6))
def test_zero_temperature_samples_match_reference_random(species, n_mode, mass,
                                                        caps, calls):
    # fresh densities: the first call on each builds its ground records
    space, densities = _random_space(species, n_mode, mass, caps)
    for p3, line, offset, i, j in calls:
        X = densities[i % len(densities)]
        Y = densities[j % len(densities)]
        de = _ground_lines(space, X, Y, (0, 0, p3))
        # on a line of the ground row when there is one, else anywhere
        p0 = float(de[line % len(de)]) if len(de) and line < 20 else offset
        s = assert_matches_reference(space, X, Y,
                                     FourVector(p0, 0.0, 0.0, p3 * U), math.inf)
        assert type(s.G) is complex


def count_assembles(monkeypatch):
    """Count the calls of fields._assemble, each of which realizes a matrix."""
    blocks = []
    assemble = fields._assemble
    monkeypatch.setattr(fields, "_assemble",
                        lambda *args: blocks.append(1) or assemble(*args))
    return blocks


def count_line_builds(monkeypatch):
    """Count the line spectra built from block terms."""
    builds = []
    build = spectral._line_spectrum
    monkeypatch.setattr(spectral, "_line_spectrum",
                        lambda *args: builds.append(1) or build(*args))
    return builds


def test_zero_temperature_sample_builds_no_block(monkeypatch):
    # beta = inf samples and vacuum variances read the terms alone: they
    # realize neither a block nor a ladder operator
    space = dirac_space(n_mode=2, mass=1.0, caps=(1, 3))
    j0 = dirac_current_density(space, 0)
    j3 = dirac_current_density(space, 3)
    blocks = count_assembles(monkeypatch)
    tables, records = [], []
    ladder_table, vacuum_records = FockSpace.ladder_table, spectral._vacuum_records
    monkeypatch.setattr(FockSpace, "ladder_table", lambda self: (
        tables.append(1) or ladder_table(self)))
    monkeypatch.setattr(spectral, "_vacuum_records", lambda *args: (
        records.append(1) or vacuum_records(*args)))
    p = FourVector(2.0, 0.0, 0.0, U)
    for q in (p, -1.0 * p):
        lehmann_spectral_density(space, j0, j0, q, math.inf)
    # row at -lat and column at +lat, for both signs of lat
    assert len(records) == 4
    for q in (p, -1.0 * p):
        lehmann_spectral_density(space, j0, j0, q, math.inf)
        lehmann_spectral_density(space, j3, j0, q, math.inf)
    # j3's two rows are new; j0's records are memoized
    assert len(records) == 6
    window = MeasurementWindow(tau=BOX)
    q = FourVector(0.5, 0.0, 0.0, 2 * U)
    for S in (j0, spacelike_windowed_observable(j3, q, window),
              windowed_observable(j0, window)):
        vacuum_variance(space, S)
    assert blocks == [] and tables == []


def test_a_sample_is_complex_where_no_line_exists():
    # no term of phi2 on n_mode=1 transfers lattice momentum 5, and at
    # beta = inf no ground line sits at p = (0.37, 0, 0, 0) for j0, although
    # the full product has lines there
    space = scalar_space(n_mode=1, mass=0.5, caps=(2, 2))
    phi2 = scalar_bilinear_density(space)
    dspace = dirac_space(n_mode=2, mass=1.0, caps=(1, 3))
    j0 = dirac_current_density(dspace, 0)
    assert len(line_spectrum(dspace, j0, j0, (0, 0, 0)).value) > 0
    for sp_, X, p in ((space, phi2, FourVector(1.0, 0.0, 0.0, 5 * U)),
                      (dspace, j0, FourVector(0.37, 0.0, 0.0, 0.0))):
        for beta in (math.inf, 0.8):
            s = assert_matches_reference(sp_, X, X, p, beta)
            assert type(s.G) is complex and s.G == 0 and s.term_count == 0


def _basis_index(space, lo, hi):
    """Basis index of each state e_lo + e_hi (hi = M for one particle)."""
    M = len(space.modes)
    occ = np.zeros((len(lo), M + 1), dtype=np.int8)
    np.add.at(occ, (np.arange(len(lo)), lo), 1)
    np.add.at(occ, (np.arange(len(lo)), hi), 1)
    return [space.state_index(row[:M]) for row in occ]


@settings(max_examples=40, deadline=None)
@given(species=st.sampled_from(["scalar", "dirac", "photon"]),
       n_mode=st.integers(1, 2), mass=st.sampled_from([0.0, 0.4, 1.0]),
       caps=st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]),
       i=st.integers(0, 2), p3=st.sampled_from([-3, -2, -1, 1, 2, 3]),
       frac=st.floats(0.0, 0.9), tau=st.floats(0.5, 20.0),
       envelope=st.sampled_from(["rect", "gauss"]))
def test_vacuum_records_are_the_matrix_vacuum_row_and_column(
        species, n_mode, mass, caps, i, p3, frac, tau, envelope):
    space, densities = _random_space(species, n_mode, mass, caps)
    X = densities[i % len(densities)]
    full = X.matrix()
    vac = space.state_index(np.zeros(len(space.modes), dtype=np.int8))
    for creators, at, to in ((True, full.col, full.row),
                             (False, full.row, full.col)):
        lo, hi, value = fields._vacuum_records(space, X.terms, creators)
        sel = at == vac
        assert _basis_index(space, lo, hi) == to[sel].tolist()
        # repr tells -0.0 from 0.0
        assert repr(value.tolist()) == repr(full.value[sel].tolist())

    # the vacuum variance from the records against the Fock-matrix path
    window = MeasurementWindow(tau=tau, envelope=envelope)
    p = FourVector(frac * abs(p3) * U, 0.0, 0.0, p3 * U)
    for S in (spacelike_windowed_observable(X, p, window),
              windowed_observable(X, window)):
        assert repr(vacuum_variance(space, S)) == \
            repr(operator_vacuum_variance(space, S.matrix()))


def test_vacuum_records_refuse_terms_out_of_normal_order():
    # a_0 c_0 and the constant 1 have a vacuum mean; a repeated term would
    # reach one state twice
    space = scalar_space(n_mode=1, mass=0.5, caps=(2, 2))
    M = len(space.modes)
    for terms in ([(M, 0, 1.0)], [(-1, -1, 1.0)], [(0, 1, 1.0), (0, 1, 2.0)],
                  [(M + 1, M, 1.0)]):
        X = QuadraticObservable(space, "hand-built", terms)
        with pytest.raises(BoxQFTError, match="normal-ordered"):
            vacuum_variance(space, X)
        # at the lattice momentum the first term transfers, at zero and at
        # finite temperature
        p3 = X.transfers()[1][0, 2]
        for beta in (math.inf, 0.8):
            with pytest.raises(BoxQFTError, match="normal-ordered"):
                lehmann_spectral_density(space, X, X,
                                         FourVector(1.0, 0, 0, p3 * U), beta)


# ---------------------------------------------------------------------------
# detailed balance line by line


def _transposed_entries(L, transpose):
    r, c = (L.col, L.row) if transpose else (L.row, L.col)
    order = np.lexsort((c, r))
    return r[order], c[order], L.de[order], L.value[order]


def product_lines(space, X, Y, lat):
    """(row, col, de, value) of X(-lat)∘Y(lat)ᵀ in row-major order, from the
    reference's scipy blocks and their product A.multiply(B.T)."""
    A = momentum_block(space, X, tuple(-v for v in lat))
    B = momentum_block(space, Y, lat)
    prod = A.multiply(B.T).tocoo()
    order = np.lexsort((prod.col, prod.row))
    row, col = prod.row[order].astype(np.int32), prod.col[order].astype(np.int32)
    return row, col, space.energies[col] - space.energies[row], prod.data[order]


def assert_lines_are_product(lines, want):
    for name, w in zip(("row", "col", "de", "value"), want):
        got = getattr(lines, name)
        assert got.dtype == w.dtype and got.tobytes() == w.tobytes()


def assert_minus_side_is_the_transpose(space, X, lat):
    """The auto spectrum at -lat holds the same bits as the one at +lat
    transposed into row-major order, which a finite-beta sample at -lat
    reads from the memo in place of the join, and as the product
    X(lat)∘X(-lat)ᵀ of the blocks."""
    neg = tuple(-v for v in lat)
    plus, minus = line_spectrum(space, X, X, lat), line_spectrum(space, X, X, neg)
    order = np.argsort(plus.col.astype(np.int64) * space.dim + plus.row)
    row, col = plus.col[order], plus.row[order]
    assert_lines_are_product(minus, (row, col, space.energies[col] -
                                     space.energies[row], plus.value[order]))
    assert_lines_are_product(minus, product_lines(space, X, X, neg))


def test_detailed_balance_holds_on_every_line():
    space = dirac_space(n_mode=4, mass=1.0, caps=(1, 3))
    j0 = dirac_current_density(space, 0)
    beta, lat, neg = 0.7, (0, 0, 1), (0, 0, -1)
    Lp = line_spectrum(space, j0, j0, lat)
    Lm = line_spectrum(space, j0, j0, neg)
    assert_minus_side_is_the_transpose(space, j0, lat)

    # L(-p) is L(p) transposed, entry for entry: same pairs and values, and
    # the opposite energy difference
    rp, cp, dep, vp = _transposed_entries(Lp, transpose=False)
    rm, cm, dem, vm = _transposed_entries(Lm, transpose=True)
    assert len(rp) > 0
    assert np.array_equal(rp, rm) and np.array_equal(cp, cm)
    assert np.array_equal(vp, vm) and np.array_equal(dep, -dem)

    # w_m L(-p)[m,n] = e^{-beta w} w_n L(p)[n,m] at each line's own w
    w = thermal_state(space, beta).diagonal
    lhs = w[cp] * vm
    rhs = np.exp(-beta * dep) * w[rp] * vp
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(rhs))

    dw = default_delta_omega(space)
    # distinct lines; degenerate transitions differ by rounding only
    lines = np.unique(np.round(dep, 9))

    def binned_defect(p0):
        lhs, rhs, sample = fdt_ratio(space, j0, FourVector(p0, 0, 0, U), beta)
        return abs(lhs - rhs) / abs(sample.G)

    def line_near(target):
        # p0 exactly at a transition energy, since e^{-beta p0} enters the
        # binned check
        w0 = float(dep[np.argmin(np.abs(dep - target))])
        assert abs(w0 - target) < 1e-4
        return w0, int(np.sum(np.abs(lines - w0) <= dw / 2))

    # an isolated line passes the binned check at its pinned tolerance
    for target in (0.8219, -0.8219):
        w0, in_bin = line_near(target)
        assert in_bin == 1 and binned_defect(w0) <= 1e-10
    # where two lines share a bin, only the per-line check above can hold
    for target in (-0.9608, -0.9262):
        w0, in_bin = line_near(target)
        assert in_bin == 2 and binned_defect(w0) > 1e-3


@settings(max_examples=30, deadline=None)
@given(species=st.sampled_from(["scalar", "dirac", "photon"]),
       n_mode=st.integers(1, 2), mass=st.sampled_from([0.0, 0.4, 1.0]),
       caps=st.sampled_from([(1, 2), (2, 2), (1, 3), (2, 3)]),
       p3=st.integers(1, 3), beta=st.floats(0.2, 3.0), i=st.integers(0, 2))
def test_detailed_balance_on_isolated_lines_random(species, n_mode, mass, caps,
                                                   p3, beta, i):
    space, densities = _random_space(species, n_mode, mass, caps)
    X = densities[i % len(densities)]
    Lp = line_spectrum(space, X, X, (0, 0, p3))
    Lm = line_spectrum(space, X, X, (0, 0, -p3))
    assert_minus_side_is_the_transpose(space, X, (0, 0, p3))
    rp, cp, dep, vp = _transposed_entries(Lp, transpose=False)
    rm, cm, dem, vm = _transposed_entries(Lm, transpose=True)
    assert np.array_equal(rp, rm) and np.array_equal(cp, cm)
    assert np.array_equal(vp, vm) and np.array_equal(dep, -dem)
    w = thermal_state(space, beta).diagonal
    rhs = np.exp(-beta * dep) * w[rp] * vp
    assert np.all(np.abs(w[cp] * vm - rhs) <= 1e-12 * np.abs(rhs))

    # the binned sample on a line with no other line of this p3 within a bin
    # holds detailed balance to the pinned tolerance, relative to the size
    # of the line's terms (a line's values may cancel)
    dw = default_delta_omega(space)
    lines = np.unique(np.round(dep, 9))
    for w0 in lines[np.sum(np.abs(lines[:, None] - lines) <= dw / 2, axis=1) == 1]:
        p0 = float(dep[np.argmin(np.abs(dep - w0))])
        lhs, rhs, sample = fdt_ratio(space, X, FourVector(p0, 0, 0, p3 * U), beta)
        on = np.abs(p0 - Lp.de) <= dw / 2
        scale = np.sum(np.abs(w[Lp.row[on]] * Lp.value[on])) / space.volume
        assert sample.term_count == np.count_nonzero(on) > 0
        assert abs(lhs - rhs) <= 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(species=st.sampled_from(["scalar", "dirac", "photon"]),
       n_mode=st.integers(1, 2), mass=st.sampled_from([0.0, 0.4, 1.0]),
       caps=st.sampled_from([(1, 2), (2, 2), (1, 3), (2, 3)]),
       p3=st.integers(0, 3), minus_first=st.booleans(), i=st.integers(0, 2),
       beta=st.sampled_from([0.3, 1.0, 2.5]))
def test_either_side_of_a_lattice_pair_matches_reference_random(
        species, n_mode, mass, caps, p3, minus_first, i, beta):
    # the memo keeps the auto spectrum of the side of {lat, -lat} asked for
    # first; samples at the other side read it transposed, in place
    space, densities = _random_space(species, n_mode, mass, caps)
    X = densities[i % len(densities)]
    first, second = (0, 0, p3), (0, 0, -p3)
    if minus_first:
        first, second = second, first
    # p0 on lines of both sides, from blocks built afresh
    de = np.unique(product_lines(space, X, X, first)[2])
    p0s = [0.37] + [float(w) for w in de[::max(1, len(de) // 3)]]
    p0s += [-w for w in p0s[1:]]
    # a wide bin sums many lines, so their order shows in the bits
    wide = 16 * default_delta_omega(space)
    for lat in (first, second):
        for p0 in p0s:
            p = FourVector(p0, 0.0, 0.0, lat[2] * U)
            assert_matches_reference(space, X, X, p, beta)
            assert_matches_reference(space, X, X, p, beta, wide)
    assert set(X._momentum_memo["lines"]) == {first}


def test_zero_lattice_auto_spectrum_sums_one_diagonal(monkeypatch):
    # at lat = 0 both blocks of an auto spectrum are X(0): its number terms'
    # diagonal is composed once and squared
    composed = []
    compose = spectral._compose
    monkeypatch.setattr(spectral, "_compose", lambda *args: (
        composed.append(1) or compose(*args)))
    for species in ("scalar", "dirac", "photon"):
        space, _ = _random_space(species, 2, 1.0 if species == "dirac" else 0.4,
                                 (1, 3) if species == "dirac" else (2, 3))
        X = {"scalar": scalar_bilinear_density,
             "dirac": lambda s: dirac_current_density(s, 0),
             "photon": lambda s: fields.stress_tensor_em(s, 0, 0)}[species](space)
        assert _has_number_terms(X)
        del composed[:]
        lines = line_spectrum(space, X, X, (0, 0, 0))
        # X's partnered terms, then the number terms' diagonal
        assert len(composed) == 2
        assert_lines_are_product(lines, product_lines(space, X, X, (0, 0, 0)))


def test_fdt_ratio_evaluates_one_boltzmann_vector(monkeypatch):
    # G(p) and G(-p) share the space's thermal state at beta
    space = dirac_space(n_mode=2, mass=1.0, caps=(1, 3))
    j0 = dirac_current_density(space, 0)
    exps = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x, *args, **kw: (
        exps.append(np.shape(x)) or exp(x, *args, **kw)))
    fdt_ratio(space, j0, FourVector(2.0, 0.0, 0.0, U), 0.7)
    assert exps.count((space.dim,)) == 1


# ---------------------------------------------------------------------------
# the memo is one lattice pair, bounded, free of reference cycles and of
# block matrices


def test_memo_keeps_one_lattice_pair():
    space = scalar_space(n_mode=3, mass=0.5, caps=(2, 2))
    X = scalar_bilinear_density(space)
    for p3 in (1, 2, 3, 4, 5):
        lehmann_spectral_density(space, X, X, FourVector(1.0, 0, 0, p3 * U), 1.0)
        memo = X._momentum_memo
        assert memo["terms"].keys() == {(0, 0, p3), (0, 0, -p3)}
        assert set(memo["lines"]) == {(0, 0, p3)} and memo["vacuum"] == {}


def _held(obj):
    """obj and all it holds through containers and attributes, short of a
    FockSpace (whose ladder cache holds operators of its own)."""
    if isinstance(obj, dict):
        inner = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        inner = list(obj)
    else:
        inner = [getattr(obj, s) for s in getattr(type(obj), "__slots__", ())
                 if hasattr(obj, s)] + list(getattr(obj, "__dict__", {}).values())
    return [obj] + [h for o in inner if not isinstance(o, FockSpace)
                    for h in _held(o)]


def test_memo_holds_no_block_after_a_sample():
    space = scalar_space(n_mode=2, mass=0.5, caps=(2, 2))
    X = scalar_bilinear_density(space)
    lehmann_spectral_density(space, X, X, FourVector(1.0, 0, 0, U), 1.0)
    held = _held({k: v for k, v in vars(X).items() if k != "space"})
    assert any(isinstance(h, spectral.LineSpectrum) for h in held)
    assert not any(isinstance(h, (Operator, QuadraticObservable)) for h in held)


def test_a_lattice_pair_costs_one_product(monkeypatch):
    space = scalar_space(n_mode=2, mass=0.5, caps=(2, 2))
    builds = count_line_builds(monkeypatch)
    assembled = count_assembles(monkeypatch)
    # fdt_ratio samples +p and -p; lat = 0 is its own pair
    for p3 in (1, -2, 0):
        X = scalar_bilinear_density(space)
        p = FourVector(1.0, 0, 0, p3 * U)
        del builds[:]
        fdt_ratio(space, X, p, 0.5)
        assert len(builds) == 1
        fdt_ratio(space, X, p, 2.0)
        assert len(builds) == 1
    assert assembled == []


def test_density_is_freed_without_the_cyclic_collector():
    space = scalar_space(n_mode=2, mass=0.5, caps=(2, 2))
    X = scalar_bilinear_density(space)
    Y = scalar_bilinear_density(space)
    p = FourVector(1.0, 0, 0, U)
    fdt_ratio(space, X, p, 1.0)
    lehmann_spectral_density(space, X, Y, p, 1.0)
    refs = [weakref.ref(X), weakref.ref(Y)]
    gc.disable()
    try:
        del X, Y
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_second_beta_realizes_no_block(monkeypatch):
    space = scalar_space(n_mode=2, mass=0.5, caps=(2, 2))
    X = scalar_bilinear_density(space)
    builds = count_line_builds(monkeypatch)
    assembled = count_assembles(monkeypatch)
    p = FourVector(1.0, 0, 0, U)
    fdt_ratio(space, X, p, 0.5)
    assert len(builds) == 1              # X(-lat)∘X(lat)ᵀ, then transposed
    fdt_ratio(space, X, p, 2.0)
    lehmann_spectral_density(space, X, X, p, math.inf)
    assert len(builds) == 1 and assembled == []
