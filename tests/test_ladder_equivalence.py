"""Ladder operators against the per-state reference loop.

``reference_ladder`` is the construction `FockSpace` used before the basis
was indexed by binary search: a dict from each basis row's bytes to its
index, one Python iteration per source state, the Jordan-Wigner sign taken
over the whole basis, and the creation matrix as the conjugate transpose of
the annihilation matrix.  Every map and matrix must agree with it exactly,
down to the bits of the amplitudes.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOX, csr, dirac_space, photon_space, scalar_space

from boxqft.errors import DimensionOverflow
from boxqft.fock import FockSpace, ModeGrid, Species, build_fock_space


def reference_ladder(space, channel, n):
    """(maps, matrices) of mode (channel, n), each a dict over kind a/c."""
    occ = space.occupations
    index = {row.tobytes(): i for i, row in enumerate(occ)}
    j = space.mode_index[(channel, n)]
    fermion = space.fermionic[j]
    if fermion:
        mask = space.fermionic.copy()
        mask[j:] = False
        jw = 1.0 - 2.0 * (occ[:, mask].sum(axis=1) % 2)
    rows, cols, vals = [], [], []
    for i in np.nonzero(occ[:, j] > 0)[0]:
        target = occ[i].copy()
        target[j] -= 1
        rows.append(index[target.tobytes()])
        cols.append(i)
        vals.append(jw[i] if fermion else math.sqrt(occ[i, j]))
    src = np.array(cols, dtype=np.int64)
    tgt = np.array(rows, dtype=np.int64)
    amp = np.array(vals, dtype=complex)
    a = sp.csr_matrix((amp, (tgt, src)), shape=(space.dim, space.dim),
                      dtype=complex)
    order = np.argsort(tgt)
    maps = {"a": (src, tgt, amp),
            "c": (tgt[order], src[order], amp[order].conj())}
    return maps, {"a": a, "c": a.conjugate().transpose().tocsr()}


def _same_bits(x, y):
    return (x.dtype == y.dtype and x.shape == y.shape
            and x.tobytes() == y.tobytes())


def assert_ladders_match_reference(space):
    for mode in space.modes:
        maps, mats = reference_ladder(space, mode.channel, mode.n)
        for kind in ("a", "c"):
            got = space.ladder_map(mode.channel, mode.n, kind)
            for x, y in zip(got, maps[kind]):
                assert np.array_equal(x, y) and _same_bits(x, y), (mode, kind)
            mat = csr((space.annihilation if kind == "a" else space.creation)(
                mode.channel, mode.n))
            ref = mats[kind]
            assert mat.format == "csr" and mat.shape == ref.shape
            for attr in ("indptr", "indices", "data"):
                assert _same_bits(getattr(mat, attr), getattr(ref, attr)), (
                    mode, kind, attr)
            assert (mat != ref).nnz == 0
    for i, row in enumerate(space.occupations):
        assert space.state_index(row) == i


def _mixed_space():
    # a bosonic channel before the fermionic one: the Jordan-Wigner string
    # of psi must not count phi's occupations, which reach 2
    phi = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-1, 1),),
                   species=Species.BOSON, mass=1.0)
    psi = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-2, 2),),
                   species=Species.FERMION, mass=0.5)
    return build_fock_space([("phi", phi), ("psi", psi)], 2, 3)


CELLS = {
    "scalar1d": lambda: scalar_space(n_mode=2, mass=1.0, caps=(3, 4)),
    "dirac": lambda: dirac_space(n_mode=2, caps=(1, 3)),
    "scalar3d": lambda: build_fock_space(
        [("phi", ModeGrid(axes=(1, 2, 3), lengths=(BOX,) * 3,
                          ranges=((-1, 1),) * 3, species=Species.BOSON,
                          mass=1.0))], 2, 3),
    "photon": lambda: photon_space(n_mode=2),
    "mixed": _mixed_space,
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_ladders_match_reference_loop(cell):
    assert_ladders_match_reference(CELLS[cell]())


def test_mixed_space_sign_skips_bosonic_columns():
    space = _mixed_space()
    j = space.mode_index[("psi", (-2,))]
    src, tgt, amp = space.ladder_map("psi", (-2,), "a")
    # sources with an odd number of fermions before j and any phi occupation
    before = space.occupations[src][:, :j]
    odd = before[:, space.fermionic[:j]].sum(axis=1) % 2 == 1
    assert np.array_equal(amp.real, np.where(odd, -1.0, 1.0))
    assert np.any(before[:, ~space.fermionic[:j]].sum(axis=1) % 2 == 1)


_SPECIES = st.sampled_from([Species.BOSON, Species.FERMION])


@settings(max_examples=60, deadline=None)
@given(axes=st.sampled_from([(3,), (1, 3)]),
       spans=st.lists(st.tuples(_SPECIES, st.integers(-1, 0), st.integers(0, 1),
                                st.sampled_from([0.0, 0.6])),
                      min_size=1, max_size=3),
       n_max_per_mode=st.integers(1, 3), n_max_total=st.integers(1, 4))
def test_ladders_match_reference_random(axes, spans, n_max_per_mode,
                                        n_max_total):
    channels = [
        (f"ch{c}", ModeGrid(axes=axes, lengths=(BOX,) * len(axes),
                            ranges=((lo, hi),) * len(axes), species=species,
                            mass=mass))
        for c, (species, lo, hi, mass) in enumerate(spans)]
    try:
        space = FockSpace(channels, n_max_per_mode, n_max_total, dim_limit=3000)
    except DimensionOverflow:
        return
    assert_ladders_match_reference(space)
