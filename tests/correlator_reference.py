"""Reference contour correlator that multiplies per-mode sparse matrices.

This is the evaluation boxqft.correlators.exact_contour_correlator used
before it composed ladder index maps: every insertion is realized as a CSR
ladder matrix between two diagonal phase matrices, and the trace is taken of
the sparse product.  tests/test_correlators.py requires the index-map path
to agree with it to 1e-14 relative.
"""

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from conftest import csr

from boxqft.correlators import Insertion
from boxqft.fock import FockSpace, Species, thermal_state


def exact_contour_correlator(space: FockSpace, insertions: Sequence[Insertion],
                             beta: float) -> complex:
    """Tr[rho T(prod insertions)] by direct operator algebra.

    Contour ordering places larger s leftmost (ties keep written order);
    the fermionic reordering sign is the parity of the applied permutation
    restricted to fermionic insertions.  H0 is diagonal, so Heisenberg
    evolution is a diagonal phase even at complex times.
    """
    order = sorted(range(len(insertions)),
                   key=lambda i: (-insertions[i].time.s, i))
    fermions = [i for i in range(len(insertions))
                if insertions[i].species is Species.FERMION]
    seq = [i for i in order if i in set(fermions)]
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    sign = -1.0 if inv % 2 else 1.0

    energies = space.energies
    mat = sp.identity(space.dim, dtype=complex, format="csr")
    for idx in order:
        ins = insertions[idx]
        ch, n = ins.mode
        op = csr(space.annihilation(ch, n) if ins.kind == "a" else space.creation(ch, n))
        t = ins.time.t
        # e^{iHt} op e^{-iHt}
        left = np.exp(1j * energies * t)
        right = np.exp(-1j * energies * t)
        evolved = sp.diags(left) @ op @ sp.diags(right)
        mat = mat @ evolved
    rho = thermal_state(space, beta)
    val = complex(np.sum(rho.diagonal * mat.diagonal()))
    return sign * val
