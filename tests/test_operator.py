"""boxqft.operator.Operator against scipy.sparse as the oracle.

Every method must give scipy's sparsity pattern, in canonical form (sorted
row-major, no duplicates, no stored zeros).  Values are bit-identical where
no sum is formed (ladders, diagonal, adjoint, A∘Bᵀ) and within 1e-15 of the
summed magnitudes where duplicates or a row's products are summed
(from_triplets, as in _assemble, and @).  Integer-valued inputs make every
sum exact in any order, so their exact cancellations must drop the same
entries scipy drops.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csr, dirac_space, photon_space, scalar_space

from boxqft.fock import free_hamiltonian, total_momentum
from boxqft.operator import Operator, _cmul

ROOT = Path(__file__).resolve().parent.parent
REL = 1e-15


def _values(rng, n, integer):
    if integer:
        return rng.integers(-2, 3, size=n) + 1j * rng.integers(-2, 3, size=n)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _triplets(rng, dim, integer):
    """Random triplets: each (row, col) stored 1..4 times, in shuffled order,
    with some stored zeros."""
    n_keys = int(rng.integers(0, dim * dim + 1))
    keys = rng.choice(dim * dim, size=n_keys, replace=False)
    keys = np.repeat(keys, rng.integers(1, 5, size=n_keys))
    rng.shuffle(keys)
    value = _values(rng, len(keys), integer)
    value[rng.random(len(keys)) < 0.1] = 0
    return keys // dim, keys % dim, value


def _canonical(m):
    """A scipy matrix as canonical row-major COO triplets."""
    m = sp.csr_matrix(m, dtype=complex)
    m.sum_duplicates()
    m.eliminate_zeros()
    m = m.tocoo()
    return m.row, m.col, m.data


def assert_canonical(op):
    assert op.row.dtype == op.col.dtype == np.int64 and op.value.dtype == complex
    key = op.row * op.dim + op.col
    assert np.all(np.diff(key) > 0) and np.all(op.value != 0)
    assert op.nnz == len(op.row) == len(op.col) == len(op.value)
    assert op.shape == (op.dim, op.dim)


def assert_matches(op, ref, bound=None):
    """Same pattern as the scipy result ref; values equal, or within REL of
    bound (the summed magnitudes, a scipy matrix of ref's shape)."""
    assert_canonical(op)
    row, col, value = _canonical(ref)
    assert np.array_equal(op.row, row) and np.array_equal(op.col, col)
    if bound is None:
        assert np.array_equal(op.value, value)
    else:
        tol = REL * np.asarray(sp.csr_matrix(bound)[row, col]).ravel()
        assert np.all(np.abs(op.value - value) <= tol)


def _random_operator(rng, dim, integer):
    return Operator.from_triplets(*_triplets(rng, dim, integer), dim)


_SEEDS = dict(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 12),
              integer=st.booleans())


@settings(max_examples=60, deadline=None)
@given(**_SEEDS)
def test_from_triplets_matches_scipy_assembly(seed, dim, integer):
    rng = np.random.default_rng(seed)
    row, col, value = _triplets(rng, dim, integer)
    op = Operator.from_triplets(row, col, value, dim)
    ref = sp.coo_matrix((value, (row, col)), shape=(dim, dim))
    bound = sp.coo_matrix((np.abs(value), (row, col)), shape=(dim, dim))
    assert_matches(op, ref, None if integer else bound)


@settings(max_examples=60, deadline=None)
@given(**_SEEDS)
def test_unsummed_methods_are_bit_identical(seed, dim, integer):
    rng = np.random.default_rng(seed)
    A = _random_operator(rng, dim, integer)
    B = _random_operator(rng, dim, integer)
    a, b = csr(A), csr(B)
    assert A.diagonal().tobytes() == a.diagonal().tobytes()
    assert_matches(A.adjoint(), a.conjugate().transpose())
    assert A.adjoint().value.tobytes() == a.conjugate().transpose().tocsr().data.tobytes()
    # A∘Bᵀ in scipy's COO order, as the line spectra read it; B = A^+ has
    # the mirror of A's pattern
    for B_, b_ in ((B, b), (A.adjoint(), a.conjugate().transpose())):
        prod = a.multiply(b_.transpose()).tocoo()
        got = A.hadamard_transpose(B_)
        assert_canonical(got)
        assert np.array_equal(got.row, prod.row) and np.array_equal(got.col, prod.col)
        assert got.value.tobytes() == prod.data.tobytes()
    for M in (A, A + A.adjoint()):
        m = csr(M)
        d = (m - m.conjugate().transpose()).tocsr()
        d.eliminate_zeros()
        assert M.hermiticity_defect() == (np.max(np.abs(d.data)) if d.nnz else 0.0)
    assert_matches(2.5 * A, 2.5 * a)
    assert_matches(A * 0.0, 0.0 * a)
    d = _values(rng, dim, integer)
    d[rng.random(dim) < 0.3] = 0
    assert_matches(Operator.from_diagonal(d), sp.diags(d))


@settings(max_examples=60, deadline=None)
@given(**_SEEDS)
def test_summing_methods_match_scipy(seed, dim, integer):
    rng = np.random.default_rng(seed)
    A = _random_operator(rng, dim, integer)
    B = _random_operator(rng, dim, integer)
    a, b = csr(A), csr(B)
    abs_a, abs_b = abs(a), abs(b)

    def bound(m):
        return None if integer else m

    assert_matches(A @ B, a @ b, bound(abs_a @ abs_b))
    assert_matches(A + B, a + b, bound(abs_a + abs_b))
    v = _values(rng, dim, integer)
    got, ref = A @ v, a @ v
    assert got.shape == ref.shape and got.dtype == complex
    if integer:
        assert np.array_equal(got, ref)
    else:
        assert np.all(np.abs(got - ref) <= REL * (abs_a @ np.abs(v)))


def test_ladders_are_canonical_and_adjoint_to_each_other():
    for space in (scalar_space(n_mode=2, mass=0.5, caps=(3, 3)),
                  dirac_space(n_mode=1, caps=(1, 3)), photon_space(n_mode=1)):
        for mode in space.modes:
            a = space.annihilation(mode.channel, mode.n)
            c = space.creation(mode.channel, mode.n)
            assert_canonical(a)
            assert_canonical(c)
            assert_matches(c, csr(a).conjugate().transpose())
            assert_matches(a.adjoint(), csr(c))
            assert a.adjoint().value.tobytes() == c.value.tobytes()
            # an operator's arrays are views of the space's ladder table
            table = space.ladder_table()
            for op in (a, c):
                assert np.shares_memory(op.col, table.src)
                assert np.shares_memory(op.row, table.tgt)
                assert np.shares_memory(op.value, table.amp)


def test_diagonal_operators_match_scipy_diags():
    space = scalar_space(n_mode=2, mass=0.0, caps=(2, 2))
    H = free_hamiltonian(space)
    assert_matches(H, sp.diags(space.energies.astype(complex)))
    assert H.nnz == space.dim - 1            # the vacuum energy 0 is not stored
    P = total_momentum(space, 3)
    assert_matches(P, sp.diags(P.diagonal()))


def test_an_entry_does_not_depend_on_duplicates_elsewhere():
    # every entry is summed from zero, so a -0.0 part reads 0.0 whether or
    # not another entry has a duplicate; a row or column canonicalized on
    # its own then equals that of the whole matrix bit for bit
    alone = Operator.from_triplets([0, 1], [0, 1], [complex(2.0, -0.0), 1], 2)
    duped = Operator.from_triplets([0, 1, 1], [0, 1, 1],
                                   [complex(2.0, -0.0), 1, 1], 2)
    assert repr(complex(alone.value[0])) == repr(complex(duped.value[0])) \
        == "(2+0j)"


def test_empty_operator():
    op = Operator.from_triplets([], [], [], 4)
    assert_canonical(op)
    assert op.nnz == 0 and not csr(op).toarray().any()
    assert np.array_equal(op @ np.ones(4), np.zeros(4))
    assert (op @ op).nnz == op.hadamard_transpose(op).nnz == op.adjoint().nnz == 0


def _entries(op):
    return {(int(i), int(j)): complex(v)
            for i, j, v in zip(op.row, op.col, op.value)}


def _defect_oracle(op):
    """max |A - A^+| over the union of both patterns, from a dict of
    entries: the dense oracle without a dense matrix, so it also serves
    dimensions beyond 65,536."""
    a = _entries(op)
    keys = set(a) | {(j, i) for i, j in a}
    return max((abs(a.get((i, j), 0) - a.get((j, i), 0).conjugate())
                for i, j in keys), default=0.0)


def _search_mirrors(A, B):
    """A∘Bᵀ by binary search of A's keys among B's transposed keys, with no
    shortcut: the reference for both of Operator._mirrors' paths."""
    bt = B.col * A.dim + B.row
    order = np.argsort(bt)
    bt = bt[order]
    key = A.row * A.dim + A.col
    at = np.minimum(np.searchsorted(bt, key), max(len(bt) - 1, 0))
    on = bt[at] == key if len(bt) else np.zeros(len(key), dtype=bool)
    value = _cmul(A.value[on], B.value[order[at[on]]])
    keep = value != 0
    return A.row[on][keep], A.col[on][keep], value[keep]


_KERNEL_CASES = {
    # (0, 1) has no mirror: the defect is its own size, sqrt(5)
    "absent mirror": (Operator.from_triplets([0, 1, 2], [1, 1, 0],
                                             [2 + 1j, 3, 0.5j], 3), 5 ** 0.5),
    # A[1, 0] = A[0, 1] instead of its conjugate: |(1+1j) - (1-1j)| = 2
    "wrong phase": (Operator.from_triplets([0, 1, 2], [1, 0, 2],
                                           [1 + 1j, 1 + 1j, 4.0], 3), 2.0),
    "hermitian": (Operator.from_triplets([0, 1, 2, 2, 0], [1, 0, 2, 0, 2],
                                         [1 + 1j, 1 - 1j, 4.0, 1e-3, 1e-3],
                                         3), 0.0),
    "empty": (Operator.from_triplets([], [], [], 5), 0.0),
    # columns at and above 2**16 take the wide-key path; a 16-bit column
    # would wrap them onto 0 and 1
    "wide": (Operator.from_triplets(
        [0, 65536, 70000, 1, 69999, 65536],
        [65536, 0, 69999, 65537, 70000, 65536],
        [2 - 1j, 2 + 1j, 3j, 1.5, -3j, 7.0], 70001), 1.5),
    "edge of 16 bits": (Operator.from_triplets(
        [65535, 0, 3, 65535], [0, 65535, 65535, 65535],
        [1j, -1j, 2.0, 1.0], 65536), 2.0),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_hermiticity_and_adjoint_against_an_entry_oracle(case):
    op, defect = _KERNEL_CASES[case]
    assert op.hermiticity_defect() == _defect_oracle(op) == defect
    adj = op.adjoint()
    assert_canonical(adj)
    assert _entries(adj) == {(j, i): v.conjugate()
                             for (i, j), v in _entries(op).items()}
    assert adj.adjoint().value.tobytes() == op.value.tobytes()


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_hadamard_transpose_matches_the_search_reference(case):
    op, _ = _KERNEL_CASES[case]
    rng = np.random.default_rng(sorted(_KERNEL_CASES).index(case))
    # a differently structured operand: half of op's transposed pattern,
    # other entries and random values
    keep = rng.random(op.nnz) < 0.5
    other = Operator.from_triplets(
        np.concatenate([op.col[keep], rng.integers(0, op.dim, 4)]),
        np.concatenate([op.row[keep], rng.integers(0, op.dim, 4)]),
        rng.normal(size=keep.sum() + 4) + 1j * rng.normal(size=keep.sum() + 4),
        op.dim)
    for B in (other, op, op.adjoint()):
        got = op.hadamard_transpose(B)
        assert_canonical(got)
        row, col, value = _search_mirrors(op, B)
        assert np.array_equal(got.row, row) and np.array_equal(got.col, col)
        assert got.value.tobytes() == value.tobytes()


def test_a_symmetric_pattern_is_mirrored_without_a_search(monkeypatch):
    # every Hermitian operator reads its mirrors off its column order
    space = scalar_space(n_mode=2, mass=0.5, caps=(2, 2))
    H = free_hamiltonian(space)
    a = space.annihilation("phi", (1,))
    A = a + a.adjoint()
    expected = [_defect_oracle(op) for op in (H, A)]
    monkeypatch.setattr(np, "searchsorted", None)
    assert [H.hermiticity_defect(), A.hermiticity_defect()] == expected
    assert A.hadamard_transpose(A).nnz == A.nnz


def test_import_loads_no_scipy():
    # scipy.sparse alone costs about 0.2 s of start-up, and the package
    # needs no scipy at run time
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    code = ("import sys, boxqft, boxqft.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
