"""Reference Lehmann sum that rebuilds both momentum blocks and their
elementwise product on every call.

This is the evaluation boxqft.spectral used before line spectra were kept on
the densities; tests/test_line_spectrum.py requires the memoized path to
return bit-identical samples.
"""

import math
from typing import Optional, Tuple

import numpy as np

from conftest import csr

from boxqft.fields import QuadraticObservable, _weighted
from boxqft.fock import FockSpace
from boxqft.spacetime import FourVector
from boxqft.spectral import default_delta_omega


def momentum_block(space: FockSpace, density: QuadraticObservable,
                   lattice_target: Tuple[int, int, int]):
    """Fock operator of int_V e^{-ip.x} X(0,x) dx, built afresh."""
    _, lat = density.transfers()
    hit = np.all(lat == lattice_target, axis=1)
    terms, _ = _weighted(density.terms, np.where(hit, space.volume, 0.0))
    return csr(QuadraticObservable(space, f"{density.label}(p)", terms).matrix())


def lehmann_reference(space: FockSpace, X: QuadraticObservable,
                      Y: QuadraticObservable, p: FourVector, beta: float,
                      delta_omega: Optional[float] = None):
    """(G, dominant_weight, term_count, delta_omega) of the eigenstate sum."""
    if delta_omega is None:
        delta_omega = default_delta_omega(space)
    lat = space.lattice_of(p)
    A = momentum_block(space, X, tuple(-v for v in lat))
    B = momentum_block(space, Y, lat)

    if math.isinf(beta):
        weights = np.zeros(space.dim)
        weights[int(np.argmin(space.energies))] = 1.0
    else:
        w = np.exp(-beta * (space.energies - space.energies.min()))
        weights = w / w.sum()

    prod = A.multiply(B.transpose())        # entries A[n,m] * B[m,n]
    prod = prod.tocoo()
    de = space.energies[prod.col] - space.energies[prod.row]
    mask = np.abs(p.t - de) <= delta_omega / 2.0
    mask &= weights[prod.row] > 0.0
    vals = prod.data[mask] * weights[prod.row[mask]]
    G = complex(vals.sum()) / space.volume
    dom = float(weights[prod.row[mask]].max()) if mask.any() else 0.0
    return G, dom, int(mask.sum()), delta_omega
