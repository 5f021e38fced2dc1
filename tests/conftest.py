import math

import numpy as np
import scipy.sparse as sp

from boxqft.fields import dirac_space_channels, photon_space_channels
from boxqft.fock import ModeGrid, SagnacSpecies, Species, build_fock_space

BOX = 2 * math.pi


def scalar_grid(n_mode=2, mass=0.0, box=BOX, v_c=1.0):
    return ModeGrid(axes=(3,), lengths=(box,), ranges=((-n_mode, n_mode),),
                    species=Species.BOSON, mass=mass, v_c=v_c)


def scalar_space(n_mode=2, mass=0.0, box=BOX, caps=(2, 2)):
    return build_fock_space([("phi", scalar_grid(n_mode, mass, box))],
                            caps[0], caps[1])


def dirac_space(n_mode=2, mass=1.0, box=BOX, caps=(1, 2)):
    grid = ModeGrid(axes=(3,), lengths=(box,), ranges=((-n_mode, n_mode),),
                    species=Species.FERMION, mass=mass)
    return build_fock_space(dirac_space_channels(grid), caps[0], caps[1])


def photon_space(n_mode=2, box=BOX, caps=(2, 2)):
    grid = ModeGrid(axes=(3,), lengths=(box,), ranges=((-n_mode, n_mode),),
                    species=Species.BOSON, mass=0.0)
    return build_fock_space(photon_space_channels(grid), caps[0], caps[1])


def sagnac_space(cfg):
    """Fock space for a counter-propagating configuration, on the n_mode=2
    grids and caps of the sagnac command."""
    if cfg.species is SagnacSpecies.SCALAR:
        return scalar_space(2, cfg.mass, caps=(2, 2))
    if cfg.species is SagnacSpecies.PHOTON_V:
        return photon_space(2, caps=(2, 2))
    return dirac_space(2, cfg.mass, caps=(1, 2))


def csr(op):
    """An Operator as a scipy CSR matrix, for tests that do matrix algebra
    on it: scipy is the oracle."""
    return sp.csr_matrix((op.value, (op.row, op.col)), shape=op.shape)


def occupations(space):
    """The basis as dense (dim, M) occupation rows, expanded from the
    space's occupied-mode lists (the padding M lands in a dropped column)."""
    M = len(space.modes)
    occ = np.zeros((space.dim, M + 1), dtype=np.int64)
    np.add.at(occ, (np.arange(space.dim)[:, None], space.occupied), 1)
    return occ[:, :M]
