"""Square Fock-space operators as canonical index triplets.

An Operator stores the nonzero entries of a dim x dim complex matrix as three
arrays (row, col, value) in canonical form: sorted row-major, no duplicate
(row, col) pair and no stored exact zero.  Ladder operators are partial index
maps that are canonical as built, so they are wrapped without a copy; every
other operator is canonicalized once from raw triplets.

Every sum is formed in a fixed order, term by term from zero: duplicates in
their input order, and a row's products in column order.  Complex products
are rounded after each real operation; numpy's own complex product may fuse
them into FMAs on some CPUs.  So results repeat bit for bit across machines,
and A∘Bᵀ, matvec and A @ B agree bit for bit with scipy's sparse kernels,
which form them the same way.
"""

from __future__ import annotations

import numpy as np


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise complex product, rounded after every real operation (in
    place where possible: fresh temporaries of this size are slow)."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    re, im = out.real, out.imag
    np.multiply(a.real, b.real, out=re)
    re -= a.imag * b.imag
    np.multiply(a.real, b.imag, out=im)
    im += a.imag * b.real
    return out


def _group_sums(group: np.ndarray, value: np.ndarray, n: int) -> np.ndarray:
    """Sum of value[k] per group[k] in 0..n-1, each in input order."""
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(group, value.real, n)
    out.imag = np.bincount(group, value.imag, n)
    return out


class Operator:
    """A dim x dim complex matrix held as canonical (row, col, value) arrays.

    The constructor trusts its arrays to be canonical and keeps them without
    a copy; build anything else with from_triplets or from_diagonal.

    The adjoint and the mirror entries that A∘Bᵀ and the Hermiticity defect
    need come from B's column-major order: a stable radix sort of its 16-bit
    columns up to dim 65,536, a sort of its transposed keys above.  When B's
    transposed keys in that order are A's own keys, as for every Hermitian
    operator against itself, that order is the mirror map; otherwise A's
    keys are looked up in them by binary search.
    """
    __slots__ = ("row", "col", "value", "dim")

    def __init__(self, row: np.ndarray, col: np.ndarray, value: np.ndarray,
                 dim: int):
        self.row, self.col, self.value, self.dim = row, col, value, int(dim)

    @classmethod
    def from_triplets(cls, row, col, value, dim: int) -> "Operator":
        """Sum of value[k] at (row[k], col[k]): a stable sort on the
        row-major key, every entry summed from zero in input order (so an
        entry does not depend on whether others have duplicates), exact
        zeros dropped.  Assembled triplets come in long ascending runs, which
        a stable sort merges in close to linear time."""
        key = np.asarray(row, dtype=np.int64) * dim + np.asarray(col, dtype=np.int64)
        order = np.argsort(key, kind="stable")
        key, value = key[order], np.asarray(value, dtype=complex)[order]
        first = np.empty(len(key), dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        if first.all():
            value += 0.0                # -0.0 parts become 0.0, as in a sum
        else:
            key = key[first]
            value = _group_sums(np.cumsum(first) - 1, value, len(key))
        keep = value != 0
        if not keep.all():
            key, value = key[keep], value[keep]
        return cls(*np.divmod(key, dim), value, dim)

    @classmethod
    def from_diagonal(cls, values) -> "Operator":
        """The diagonal matrix of values, exact zeros dropped."""
        values = np.asarray(values, dtype=complex)
        i = np.flatnonzero(values)
        return cls(i, i, values[i], len(values))

    @property
    def nnz(self) -> int:
        return len(self.value)

    @property
    def shape(self):
        return (self.dim, self.dim)

    def diagonal(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        on = self.row == self.col
        out[self.row[on]] = self.value[on]
        return out

    def _column_order(self) -> np.ndarray:
        """The entries in column-major order.  Canonical entries ascend in
        row within each column, so a stable sort on the column alone gives
        it: a radix sort of 16-bit columns up to dim 65,536, a sort on the
        unique transposed keys above."""
        if self.dim <= 1 << 16:
            return np.argsort(self.col.astype(np.uint16), kind="stable")
        return np.argsort(self.col * self.dim + self.row)

    def adjoint(self) -> "Operator":
        order = self._column_order()
        return Operator(self.col[order], self.row[order],
                        self.value[order].conj(), self.dim)

    def _mirrors(self, other: "Operator"):
        """(on, at): entry k of self, at (i, j), meets other's entry at[k]
        at (j, i) where on[k] holds; on is slice(None) when that holds for
        every k.  other's column-major order lists its entries by transposed
        key: when those keys are self's own, as for every Hermitian operator
        against itself, that order is the map, else each key is looked up in
        them by binary search."""
        order = other._column_order()
        bt_row, bt_col = other.col[order], other.row[order]
        if np.array_equal(bt_row, self.row) and np.array_equal(bt_col, self.col):
            return slice(None), order
        bt = bt_row * self.dim + bt_col             # other's keys, transposed
        key = self.row * self.dim + self.col
        at = np.searchsorted(bt, key)
        # a sentinel that matches no key keeps every search result an index
        bt, order = np.append(bt, -1), np.append(order, 0)
        return bt[at] == key, order[at]

    def hadamard_transpose(self, other: "Operator") -> "Operator":
        """A∘Bᵀ for A = self, B = other: the entries A[i, j] * B[j, i], in
        A's order."""
        on, at = self._mirrors(other)
        value = _cmul(self.value[on], other.value[at[on]])
        keep = value != 0
        return Operator(self.row[on][keep], self.col[on][keep], value[keep],
                        self.dim)

    def hermiticity_defect(self) -> float:
        """max |A - A^+| over all entries.  An entry of A^+ with no entry of
        A at its place mirrors an entry of A with none of A^+ at its place,
        of the same size, so A's entries cover them all."""
        on, at = self._mirrors(self)
        d = self.value.copy()
        d[on] -= self.value[at[on]].conj()
        return float(np.max(np.abs(d))) if self.nnz else 0.0

    def __matmul__(self, other):
        """A B for an Operator B, or the matvec A v for a 1-D array v."""
        if isinstance(other, Operator):
            return self._product(other)
        other = np.asarray(other)
        return _group_sums(self.row, _cmul(self.value, other[self.col]),
                           self.dim)

    def _product(self, other: "Operator") -> "Operator":
        """A B: each entry A[i, k] meets every entry B[k, j] of row k."""
        start = np.searchsorted(other.row, np.arange(self.dim + 1))
        count = (start[1:] - start[:-1])[self.col]
        left = np.repeat(np.arange(self.nnz), count)
        right = np.arange(count.sum()) + np.repeat(
            start[self.col] - (np.cumsum(count) - count), count)
        return Operator.from_triplets(self.row[left], other.col[right],
                                      _cmul(self.value[left], other.value[right]),
                                      self.dim)

    def __add__(self, other: "Operator") -> "Operator":
        return Operator.from_triplets(
            np.concatenate([self.row, other.row]),
            np.concatenate([self.col, other.col]),
            np.concatenate([self.value, other.value]), self.dim)

    def __mul__(self, scalar) -> "Operator":
        value = self.value * scalar
        keep = value != 0
        return Operator(self.row[keep], self.col[keep], value[keep], self.dim)

    __rmul__ = __mul__
