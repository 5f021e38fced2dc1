"""Cross-module identities tying field assembly to the Hamiltonian and the
experiment driver outputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOX, csr, dirac_space, photon_space, scalar_space
from lehmann_reference import momentum_block

from boxqft.fields import (dirac_current_density, stress_tensor_em,
                           stress_tensor_scalar)
from boxqft.fock import (ModeGrid, SagnacConfig, SagnacSpecies, Species,
                         build_fock_space, free_hamiltonian,
                         sagnac_state)
from boxqft.measurement import (MeasurementWindow, commensurate_tau, moments,
                                spacelike_windowed_observable,
                                vacuum_variance)
from boxqft.spacetime import FourVector


def test_scalar_energy_density_integrates_to_hamiltonian():
    # int_V :T00:(0,x) dx = H0 as an exact operator identity: the
    # pair-creation parts cancel mode by mode at zero total momentum
    space = scalar_space(n_mode=2, mass=0.7, caps=(2, 2))
    t00 = stress_tensor_scalar(space, 0, 0)
    mat = momentum_block(space, t00, (0, 0, 0))
    H = csr(free_hamiltonian(space))
    assert np.max(np.abs((mat - H).toarray())) < 1e-12


@settings(max_examples=30, deadline=None)
@given(n_mode=st.integers(1, 3), mass=st.floats(0.0, 2.0),
       caps=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]))
def test_scalar_energy_density_integrates_to_hamiltonian_random_grids(
        n_mode, mass, caps):
    space = scalar_space(n_mode=n_mode, mass=mass, caps=caps)
    mat = momentum_block(space, stress_tensor_scalar(space, 0, 0), (0, 0, 0))
    assert np.max(np.abs((mat - csr(free_hamiltonian(space))).toarray())) <= 1e-12


def test_em_energy_density_integrates_to_hamiltonian():
    space = photon_space(n_mode=2)
    t00 = stress_tensor_em(space, 0, 0)
    mat = momentum_block(space, t00, (0, 0, 0))
    H = csr(free_hamiltonian(space))
    assert np.max(np.abs((mat - H).toarray())) < 1e-12


def test_dirac_charge_integrates_to_number_operator():
    # int_V :j0: dx = particle number minus antiparticle number
    space = dirac_space(n_mode=1, mass=1.0, caps=(1, 4))
    j0 = dirac_current_density(space, 0)
    mat = momentum_block(space, j0, (0, 0, 0))
    charge = None
    for ch, sign in (("L", 1), ("R", 1), ("Lbar", -1), ("Rbar", -1)):
        for n in space.grid(ch).modes:
            term = sign * csr(space.creation(ch, n)) @ csr(space.annihilation(ch, n))
            charge = term if charge is None else charge + term
    assert np.max(np.abs((mat - charge).toarray())) < 1e-12


def _dirac_charge(space):
    """N - Nbar: particle number minus antiparticle number."""
    charge = None
    for ch, sign in (("L", 1), ("R", 1), ("Lbar", -1), ("Rbar", -1)):
        for n in space.grid(ch).modes:
            term = sign * csr(space.creation(ch, n)) @ csr(space.annihilation(ch, n))
            charge = term if charge is None else charge + term
    return charge


@settings(max_examples=30, deadline=None)
@given(n_mode=st.integers(1, 2), mass=st.floats(0.0, 2.0),
       total_cap=st.integers(1, 3))
def test_dirac_charge_integrates_to_number_operator_random_grids(
        n_mode, mass, total_cap):
    space = dirac_space(n_mode=n_mode, mass=mass, caps=(1, total_cap))
    mat = momentum_block(space, dirac_current_density(space, 0), (0, 0, 0))
    assert np.max(np.abs((mat - _dirac_charge(space)).toarray())) <= 1e-12


def test_fermi_velocity_parameterization_noiseless():
    # with propagation speed v_c < 1 the noiseless condition lives on the
    # effective cone |p0| < v_c |p|; commensurate tau scales with 1/v_c
    v_c = 0.5
    grid = ModeGrid(axes=(3,), lengths=(BOX,), ranges=((-4, 4),),
                    species=Species.BOSON, mass=0.0, v_c=v_c)
    space = build_fock_space([("phi", grid)], 2, 2)
    t00 = stress_tensor_scalar(space, 0, 0)
    tau = BOX / v_c
    w = MeasurementWindow(tau=tau)
    u = 2 * math.pi / BOX
    p = FourVector(1 * u * v_c, 0, 0, 3 * u)   # inside the effective cone
    obs = spacelike_windowed_observable(t00, p, w)
    assert vacuum_variance(space, obs) < 1e-12


def test_sagnac_phase_parameter():
    # a pi phase offset between the arms flips the eigenstate branch and the
    # sign of the signal (the phase must be supplied, not auto-compensated)
    m, k3 = 1.0, 1.0
    space = dirac_space(n_mode=2, mass=m)
    cfg = SagnacConfig(SagnacSpecies.DIRAC_A, m, k3, phase=math.pi)
    tau = commensurate_tau(cfg.energy, 2)
    obs = spacelike_windowed_observable(dirac_current_density(space, 0),
                                        cfg.momentum_transfer,
                                        MeasurementWindow(tau=tau))
    res = moments(sagnac_state(space, cfg), obs, n_max=2)
    assert abs(res.mean + tau * m / (2 * cfg.energy)) < 1e-12
    assert res.eigenstate_defect < 1e-12


def test_dirac_current_component_table(tmp_path):
    # psi_a couples only to j0 and psi_b only to j1; the driver records all
    # four components for both states
    from boxqft.cli import cmd_sagnac, merge_config
    cfg = merge_config(None)
    cmd_sagnac(cfg, tmp_path)
    lines = (tmp_path / "dirac_current_components.csv").read_text().splitlines()
    rows = {}
    for line in lines[1:]:
        state, comp, val = line.split(",")
        rows[(state, comp)] = float(val)
    u = 2 * math.pi / BOX
    E = math.hypot(1.0, u)
    tau = commensurate_tau(E, cfg["sagnac"]["n_periods"])
    assert abs(rows[("dirac_a", "j0")] - tau * 1.0 / (2 * E)) < 1e-10
    assert abs(rows[("dirac_b", "j1")] - tau * u / (2 * E)) < 1e-10
    for comp in ("j1", "j2", "j3"):
        assert abs(rows[("dirac_a", comp)]) < 1e-12
    for comp in ("j0", "j2", "j3"):
        assert abs(rows[("dirac_b", comp)]) < 1e-12


def test_sagnac_command_builds_one_space_per_family_and_mass(tmp_path,
                                                            monkeypatch):
    # Dirac m=1 (both regression states, the extra pair (1, 1) and the
    # component table), scalar m=1, photon, Dirac m=2 and Dirac m=0.5
    from boxqft.cli import cmd_sagnac, merge_config
    from boxqft.fock import FockSpace
    built = []
    init = FockSpace.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(FockSpace, "__init__", counting_init)
    assert cmd_sagnac(merge_config(None), tmp_path).passed
    assert len(built) == 5
    assert (tmp_path / "dirac_current_components.csv").exists()
