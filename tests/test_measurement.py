import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (BOX, csr, dirac_space, photon_space, sagnac_space,
                      scalar_space)

from boxqft.errors import BoxQFTError, DimensionOverflow, OffLatticeMomentum
from boxqft.fields import (QuadraticObservable, dirac_current_density,
                           em_field_strength_density, scalar_bilinear_density,
                           scalar_density, stress_tensor_em,
                           stress_tensor_scalar)
from boxqft.fock import (ModeGrid, SagnacConfig, SagnacSpecies, Species,
                         basis_state, build_fock_space, expectation,
                         sagnac_state, thermal_state, vacuum_state)
from boxqft.measurement import (HomodyneConfig, MeasurementWindow,
                                commensurate_tau, homodyne_difference,
                                localization_effect, moments,
                                operator_vacuum_variance, photon_signal,
                                sagnac_regression, spacelike_windowed_observable,
                                vacuum_variance, windowed_observable)
from boxqft.operator import Operator
from boxqft.spacetime import FourVector
from boxqft.spectral import lehmann_spectral_density


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
def test_window_refuses_a_duration_that_is_not_finite_and_positive(tau):
    # tau = 0 kept no terms and read as the noiseless structural zero;
    # nan and inf gave nan
    for envelope in ("rect", "gauss"):
        with pytest.raises(BoxQFTError, match="tau"):
            MeasurementWindow(tau=tau, envelope=envelope)


def test_window_transform_against_quadrature():
    w = MeasurementWindow(tau=3.7)
    for omega in (0.0, 0.9, 2.3):
        re, _ = quad(lambda t: math.cos(omega * t), -w.tau / 2, w.tau / 2)
        assert abs(w.time_transform(omega) - re) < 1e-12
    g = MeasurementWindow(tau=2.6, envelope="gauss")       # sigma_t = 1.3
    for omega in (0.0, 1.1):
        re, _ = quad(lambda t: math.cos(omega * t) * math.exp(-t * t / (2 * 1.69)),
                     -40, 40)
        assert abs(g.time_transform(omega) - re) < 1e-10
    with pytest.raises(BoxQFTError):
        MeasurementWindow(tau=1.0, envelope="boxcar")


def test_plain_window_diagonal_and_sinc_factors():
    # diagonal (zero transfer) pairs carry V*tau; pairs with time transfer
    # dw carry tau*sinc(dw*tau/2), checked against numeric integration
    space = scalar_space(n_mode=1, mass=1.0, caps=(2, 2))
    grid = space.grid("phi")
    V, tau = grid.volume, 2.17
    w = MeasurementWindow(tau=tau)
    obs = windowed_observable(scalar_bilinear_density(space), w)
    E = grid.energy((1,))
    # diagonal a+a pair: coefficient 2/(2EV) from :phi^2:, times V*tau
    one = basis_state(space, {("phi", (1,)): 1})
    val = expectation(one, obs.matrix()).real
    # <1| :phi^2(x): |1> = 2/(2EV) uniform; windowed integral = that * V tau
    assert abs(val - tau / E) < 1e-12
    # pair creation (+1,-1): transfer dw = 2E; sinc factor via quadrature
    two = basis_state(space, {("phi", (1,)): 1, ("phi", (-1,)): 1})
    amp = np.vdot(two.amplitudes, obs.matrix() @ vacuum_state(space).amplitudes)
    re, _ = quad(lambda t: math.cos(2 * E * t), -tau / 2, tau / 2)
    expect = 2 / (2 * E * V) * V * re  # 2 orderings, amplitudes, box integral
    assert abs(amp - expect) < 1e-12


def test_gaussian_window_factor():
    space = scalar_space(n_mode=1, mass=1.0, caps=(2, 2))
    grid = space.grid("phi")
    E = grid.energy((1,))
    sigma = 0.8
    w = MeasurementWindow(tau=2 * sigma, envelope="gauss")
    obs = windowed_observable(scalar_bilinear_density(space), w)
    two = basis_state(space, {("phi", (1,)): 1, ("phi", (-1,)): 1})
    amp = np.vdot(two.amplitudes, obs.matrix() @ vacuum_state(space).amplitudes)
    expect = 2 / (2 * E) * math.sqrt(2 * math.pi) * sigma \
        * math.exp(-0.5 * sigma ** 2 * (2 * E) ** 2)
    assert abs(amp - expect) < 1e-12


def test_cosine_window_bridges_counterpropagating_pair():
    # int_box cos(2 k3 x3) e^{+-2i k3 x3} dx3 = V/2, times tau on the
    # energy-diagonal pair
    space = scalar_space(n_mode=2, mass=1.0, caps=(2, 2))
    grid = space.grid("phi")
    V = grid.volume
    k3 = grid.wavevector((1,))[2]
    E = grid.energy((1,))
    tau = commensurate_tau(E, 3)
    p = FourVector(0, 0, 0, 2 * k3)
    obs = spacelike_windowed_observable(scalar_bilinear_density(space), p,
                                        MeasurementWindow(tau=tau))
    plus = basis_state(space, {("phi", (1,)): 1})
    minus = basis_state(space, {("phi", (-1,)): 1})
    amp = np.vdot(plus.amplitudes, obs.matrix() @ minus.amplitudes)
    # :phi^2: a+a coefficient 2/(2EV), spatial V/2, time tau
    spatial, _ = quad(lambda x: math.cos(2 * k3 * x) * math.cos(2 * k3 * x),
                      0, grid.lengths[0])
    assert abs(spatial - V / 2) < 1e-10
    assert abs(amp - 2 / (2 * E * V) * (V / 2) * tau) < 1e-12
    assert obs.hermiticity_defect() < 1e-12
    # vacuum expectation vanishes (normal ordering)
    assert abs(expectation(vacuum_state(space), obs.matrix())) < 1e-12


def test_incommensurate_cosine_drops_diagonal():
    # a diagonal pair has zero momentum transfer; a cosine with p != 0 on the
    # lattice never bridges it (Fourier orthogonality on the box)
    space = scalar_space(n_mode=2, mass=1.0, caps=(2, 2))
    grid = space.grid("phi")
    k3 = grid.wavevector((1,))[2]
    p = FourVector(0, 0, 0, 2 * k3)
    obs = spacelike_windowed_observable(scalar_bilinear_density(space), p,
                                        MeasurementWindow(tau=1.0))
    one = basis_state(space, {("phi", (2,)): 1})
    assert abs(expectation(one, obs.matrix())) < 1e-14


def test_nonspacelike_momentum_warns():
    space = scalar_space(n_mode=1, mass=1.0, caps=(2, 2))
    with pytest.warns(UserWarning):
        spacelike_windowed_observable(scalar_bilinear_density(space),
                                      FourVector(5.0, 0, 0, 1.0),
                                      MeasurementWindow(tau=1.0))


def test_off_lattice_readout_momentum_rejected():
    space = scalar_space(n_mode=1, mass=1.0, caps=(2, 2))
    S = scalar_bilinear_density(space)
    for p in (FourVector(0.0, 0, 0, 0.5), FourVector(0.0, 0.3, 0, 1.0)):
        with pytest.raises(OffLatticeMomentum):
            spacelike_windowed_observable(S, p, MeasurementWindow(tau=1.0))


def test_moments_eigenstate_dirac_a():
    m, k3 = 1.0, 1.0
    cfg = SagnacConfig(SagnacSpecies.DIRAC_A, m, k3)
    space = dirac_space(n_mode=2, mass=m)
    tau = commensurate_tau(cfg.energy, 2)
    obs = spacelike_windowed_observable(dirac_current_density(space, 0),
                                        cfg.momentum_transfer,
                                        MeasurementWindow(tau=tau))
    res = moments(sagnac_state(space, cfg), obs, n_max=4)
    expect = tau * m / (2 * cfg.energy)
    assert abs(res.mean - expect) < 1e-12
    assert res.eigenstate_defect < 1e-12
    for n in range(1, 5):
        assert abs(res.values[n - 1] - expect ** n) < 1e-10


def test_moments_dirac_b_signal_scaling():
    # <S_b> = tau*k3/2E for two wavenumbers (the k3 -> 0 limit of the same
    # formula sends the signal to zero)
    m = 1.0
    space = dirac_space(n_mode=2, mass=m)
    for nk in (1, 2):
        u = 2 * math.pi / BOX
        cfg = SagnacConfig(SagnacSpecies.DIRAC_B, m, nk * u)
        tau = commensurate_tau(cfg.energy, 2)
        obs = spacelike_windowed_observable(dirac_current_density(space, 1),
                                            cfg.momentum_transfer,
                                            MeasurementWindow(tau=tau))
        res = moments(sagnac_state(space, cfg), obs, n_max=2)
        assert abs(res.mean - tau * nk * u / (2 * cfg.energy)) < 1e-12


def test_moments_scalar_both_paper_variants():
    m, k3 = 1.0, 1.0
    cfg = SagnacConfig(SagnacSpecies.SCALAR, m, k3)
    space = scalar_space(n_mode=2, mass=m)
    tau = commensurate_tau(cfg.energy, 2)
    obs = spacelike_windowed_observable(stress_tensor_scalar(space, 0, 0),
                                        cfg.momentum_transfer,
                                        MeasurementWindow(tau=tau))
    res = moments(sagnac_state(space, cfg), obs, n_max=4)
    main = tau * m * m / (2 * cfg.energy)
    appendix = tau * m * m / (4 * cfg.energy)
    # the exact Fock computation is the arbiter: it lands on the main-text
    # value, twice the appendix variant
    assert abs(res.mean - main) < 1e-12
    assert abs(res.mean - appendix) > 0.1 * appendix
    assert res.eigenstate_defect < 1e-12


def test_moments_density_operator_state():
    space = scalar_space(n_mode=1, mass=1.0, caps=(2, 2))
    rho = thermal_state(space, 2.0)
    obs = windowed_observable(scalar_bilinear_density(space),
                              MeasurementWindow(tau=1.0))
    res = moments(rho, obs, n_max=2)
    assert abs(res.values[0].imag) < 1e-13
    with pytest.raises(DimensionOverflow):
        moments(rho, obs, n_max=7)


def test_moments_defect_at_zero_mean():
    # the vacuum is not an eigenstate of the plain-windowed phi: <S> = 0 but
    # <S^2> = 2.888, so the defect must not read 0
    # (scaled by max |S_ij|^n, so shrinking S cannot hide it under a tolerance)
    space = scalar_space(n_mode=1, mass=1.0, caps=(2, 2))
    obs = windowed_observable(scalar_density(space), MeasurementWindow(tau=1.0))
    s = np.max(np.abs(obs.matrix().value))
    terms = obs.terms.copy()
    terms["coeff"] *= 1e-6
    tiny = QuadraticObservable(space, obs.label, terms)
    vac = vacuum_state(space)
    for state in (vac, thermal_state(space, math.inf)):
        res = moments(state, obs, n_max=4)
        assert res.mean == 0
        assert abs(res.values[1] - 2.88836579751364) < 1e-12
        assert res.eigenstate_defect == max(abs(v) / s ** n for n, v in
                                            enumerate(res.values[1:], 2))
        assert res.eigenstate_defect > 0.1
        small = moments(state, tiny, n_max=4)
        assert small.mean == 0 and abs(small.values[1]) < 1e-10
        assert small.eigenstate_defect == pytest.approx(res.eigenstate_defect,
                                                        rel=1e-12)
    # an eigenstate of eigenvalue 0 keeps a zero defect: the commensurate
    # T00 window annihilates the vacuum
    E = space.grid("phi").energy((1,))
    t00 = windowed_observable(stress_tensor_scalar(space, 0, 0),
                              MeasurementWindow(tau=commensurate_tau(E)))
    res = moments(vac, t00, n_max=4)
    assert res.mean == 0 and res.eigenstate_defect <= 1e-12



@pytest.mark.parametrize("n_max", [0, -1])
def test_moments_need_at_least_one_power(n_max):
    space = scalar_space(n_mode=1, mass=1.0, caps=(2, 2))
    obs = windowed_observable(scalar_bilinear_density(space),
                              MeasurementWindow(tau=1.0))
    for state in (vacuum_state(space), thermal_state(space, 2.0)):
        with pytest.raises(BoxQFTError, match="n_max"):
            moments(state, obs, n_max=n_max)


@pytest.mark.parametrize("cell", ["scalar", "dirac"])
def test_thermal_moments_match_dense_oracle(cell):
    # the sparse diagonal-state path against Tr(S^n rho) with rho dense
    if cell == "scalar":
        space = scalar_space(n_mode=2, mass=0.7, caps=(3, 3))
        obs = windowed_observable(stress_tensor_scalar(space, 0, 0),
                                  MeasurementWindow(tau=1.3))
    else:
        space = dirac_space(n_mode=2, mass=1.0, caps=(1, 3))
        obs = spacelike_windowed_observable(
            dirac_current_density(space, 3), FourVector(0.4, 0, 0, 2.0),
            MeasurementWindow(tau=BOX))
    rho = thermal_state(space, 0.8)
    S = csr(obs.matrix()).toarray()
    norm = np.linalg.norm(S, 2)
    for n_max in range(1, 7):
        res = moments(rho, obs, n_max=n_max)
        acc = np.diag(rho.diagonal.astype(complex))
        for n in range(1, n_max + 1):
            acc = S @ acc
            ref = np.trace(acc)
            assert abs(res.values[n - 1] - ref) <= 1e-12 * norm ** n


def test_thermal_moments_keep_their_diagonals(monkeypatch):
    # the diagonals of S^a∘(S^b)ᵀ do not depend on beta: a second diagonal
    # state costs weighted sums only, with the values of a fresh observable
    space = dirac_space(n_mode=2, mass=1.0, caps=(1, 3))
    obs = spacelike_windowed_observable(
        dirac_current_density(space, 0), FourVector(0.4, 0, 0, 2.0),
        MeasurementWindow(tau=BOX))
    moments(thermal_state(space, 0.8), obs)
    products = []
    for name in ("__matmul__", "hadamard_transpose"):
        product = getattr(Operator, name)
        monkeypatch.setattr(Operator, name, lambda self, other, name=name,
                            product=product: (products.append(name)
                                              or product(self, other)))
    kept = {n: moments(thermal_state(space, 1.7), obs, n_max=n) for n in (2, 4)}
    assert products == []
    monkeypatch.undo()
    for n, res in kept.items():
        fresh = QuadraticObservable(space, obs.label, obs.terms,
                                    obs.vacuum_subtraction)
        assert repr(moments(thermal_state(space, 1.7), fresh, n_max=n)) == \
            repr(res)


def test_photon_signals():
    k3 = 1.0
    cfg = SagnacConfig(SagnacSpecies.PHOTON_V, 0.0, k3)
    space = photon_space(n_mode=2)
    E = cfg.energy
    tau = commensurate_tau(E, 2)
    w = MeasurementWindow(tau=tau)
    # main-text value E*tau/2 for both quoted combinations
    assert abs(photon_signal(space, cfg, "T11+T00", w) - E * tau / 2) < 1e-10
    assert abs(photon_signal(space, cfg, "(T11-T22)/2", w) - E * tau / 2) < 1e-10
    assert abs(photon_signal(space, cfg, "T00", w)) < 1e-12
    # T11 and -T22 agree with each other (appendix relation), at the
    # main-text magnitude
    t11 = photon_signal(space, cfg, "T11", w)
    t22n = photon_signal(space, cfg, "-T22", w)
    assert abs(t11 - t22n) < 1e-10
    assert abs(t11 - E * tau / 2) < 1e-10
    with pytest.raises(BoxQFTError):
        photon_signal(space, cfg, "T03", w)


def test_polarization_orthogonality():
    # H-channel bilinears have zero expectation on the V-polarized state
    k3 = 1.0
    cfg = SagnacConfig(SagnacSpecies.PHOTON_V, 0.0, k3)
    space = photon_space(n_mode=1)
    state = sagnac_state(space, cfg)
    cross = csr(space.creation("H", (-1,))) @ csr(space.annihilation("H", (1,)))
    assert abs(expectation(state, cross + cross.conjugate().transpose())) < 1e-14


def test_photon_eigenstate_property():
    k3 = 1.0
    cfg = SagnacConfig(SagnacSpecies.PHOTON_V, 0.0, k3)
    space = photon_space(n_mode=2)
    tau = commensurate_tau(cfg.energy, 2)
    obs = spacelike_windowed_observable(stress_tensor_em(space, 1, 1),
                                        cfg.momentum_transfer,
                                        MeasurementWindow(tau=tau))
    res = moments(sagnac_state(space, cfg), obs, n_max=4)
    assert res.eigenstate_defect < 1e-12


def test_vacuum_variance_spacelike_zero():
    space = scalar_space(n_mode=4, mass=0.0, caps=(2, 2))
    t00 = stress_tensor_scalar(space, 0, 0)
    w = MeasurementWindow(tau=BOX)
    for (n0, n3) in ((0, 2), (1, 3), (2, 4)):
        p = FourVector(float(n0), 0, 0, float(n3))
        obs = spacelike_windowed_observable(t00, p, w)
        assert vacuum_variance(space, obs) < 1e-12


def test_operator_vacuum_variance_against_the_definition():
    # normal ordering gives every observable a vacuum mean of 0, so shift a
    # pair-creating one by 3: <0|O^2|0> - <0|O|0>^2 must see the mean
    space = scalar_space(n_mode=2, mass=1.0, caps=(2, 2))
    S = windowed_observable(scalar_bilinear_density(space),
                            MeasurementWindow(tau=1.0)).matrix()
    O = S + Operator.from_diagonal(np.full(space.dim, 3.0))
    vac = vacuum_state(space).amplitudes
    Ov = csr(O) @ vac
    expect = np.vdot(Ov, Ov).real - abs(np.vdot(vac, Ov)) ** 2
    assert expect > 1e-3
    assert abs(operator_vacuum_variance(space, O) - expect) <= 1e-12 * expect


def test_localization_gaussian_vs_erfc_and_monotonicity():
    dens = stress_tensor_scalar(scalar_space(n_mode=2, mass=0.0, caps=(2, 2)), 0, 0)
    pbar = FourVector(0, 0, 0, 2.0)
    sigmas = [0.5, 1.0, 1.5, 2.0]
    rows = localization_effect(pbar, sigmas, dens)
    leakages = [row.leakage for row in rows]
    assert leakages == sorted(leakages, reverse=True)
    for s, row in zip(sigmas, rows):
        assert abs(row.leakage - math.erfc(s * 2.0)) < 1e-12
    # sigma -> infinity: no leakage
    (big,) = localization_effect(pbar, [50.0], dens)
    assert big.leakage < 1e-300 or big.leakage == 0.0


def test_localization_variance_tracks_leakage():
    space = scalar_space(n_mode=4, mass=0.0, caps=(2, 2))
    dens = stress_tensor_scalar(space, 0, 0)
    pbar = FourVector(0, 0, 0, 2.0)
    varis = [r.vacuum_variance
             for r in localization_effect(pbar, [0.8, 1.2, 1.6], dens)]
    assert all(v > 0 for v in varis)
    assert varis[0] > varis[1] > varis[2]


def test_homodyne_difference():
    assert homodyne_difference(0.5, HomodyneConfig(alpha=0.2)) == \
        pytest.approx(0.4, abs=1e-15)
    assert homodyne_difference(0.0, HomodyneConfig(alpha=0.2)) == 0.0
    # phase pi/2 kills the signal; the tuning offset restores it
    quad_cfg = HomodyneConfig(alpha=0.2, phase=math.pi / 2)
    assert abs(homodyne_difference(0.5, quad_cfg)) < 1e-15
    retuned = HomodyneConfig(alpha=0.2, phase=math.pi / 2, tune=-math.pi / 2)
    assert homodyne_difference(0.5, retuned) == pytest.approx(0.4)


def test_homodyne_cubic_agreement_richardson():
    # balanced readout: exact - linearized vanishes identically, so the
    # Richardson-extrapolated alpha^3 coefficient is zero
    sbar = 0.7
    errs = []
    for alpha in (0.08, 0.04, 0.02):
        exact = homodyne_difference(sbar, HomodyneConfig(alpha=alpha))
        errs.append(abs(exact - 4 * alpha * sbar) / alpha ** 3)
    assert max(errs) < 1e-9


def test_regression_table():
    u = 2 * math.pi / BOX
    configs = [SagnacConfig(SagnacSpecies.DIRAC_A, 1.0, u),
               SagnacConfig(SagnacSpecies.SCALAR, 1.0, u)]
    rows = sagnac_regression(sagnac_space, configs,
                             n_periods=2, n_max=3)
    assert len(rows) == 6
    for r in rows:
        if r.config == "dirac_a":
            assert r.matched_variant == "main_text+appendix"
        if r.config == "scalar":
            assert r.matched_variant == "main_text"
        assert r.defect < 1e-10



@settings(max_examples=25, deadline=None)
@given(mass=st.floats(0.1, 2.0), nk=st.sampled_from([-2, -1, 1, 2]),
       n_periods=st.integers(1, 4))
def test_regression_quoted_values_are_the_closed_forms(mass, nk, n_periods):
    # every row's quoted values are the paper's closed forms, bit for bit
    k3 = nk * 2 * math.pi / BOX
    configs = [SagnacConfig(SagnacSpecies.DIRAC_A, mass, k3),
               SagnacConfig(SagnacSpecies.DIRAC_B, mass, k3),
               SagnacConfig(SagnacSpecies.SCALAR, mass, k3),
               SagnacConfig(SagnacSpecies.PHOTON_V, 0.0, k3)]
    rows = sagnac_regression(sagnac_space, configs, n_periods=n_periods,
                             n_max=2)
    assert [(r.config, r.n) for r in rows] == \
        [(c.species.value, n) for c in configs for n in (1, 2)]
    for i, r in enumerate(rows):
        E, m = configs[i // 2].energy, configs[i // 2].mass
        tau = n_periods * 2 * math.pi / E
        main, appendix = {
            "dirac_a": (tau * m / (2 * E), tau * m / (2 * E)),
            "dirac_b": (tau * k3 / (2 * E), tau * k3 / (2 * E)),
            "scalar": (tau * m * m / (2 * E), tau * m * m / (4 * E)),
            "photon_v": (E * tau / 2, tau * E),
        }[r.config]
        assert repr(r.paper_value_main) == repr(main ** r.n)
        assert repr(r.paper_value_appendix) == repr(appendix ** r.n)
        assert r.observable == {"dirac_a": "j0", "dirac_b": "j1",
                                "scalar": "T00", "photon_v": "T11"}[r.config]

_SPACELIKE_CASES = {
    "scalar": (lambda n, m, L, caps: scalar_space(n, m, L, caps),
               {"phi": scalar_density, "phi2": scalar_bilinear_density,
                "T00": lambda s: stress_tensor_scalar(s, 0, 0),
                "T03": lambda s: stress_tensor_scalar(s, 0, 3),
                "T11": lambda s: stress_tensor_scalar(s, 1, 1)}),
    "dirac": (lambda n, m, L, caps: dirac_space(n, m, L, (1, caps[1])),
              {f"j{mu}": (lambda s, mu=mu: dirac_current_density(s, mu))
               for mu in range(4)}),
    "photon": (lambda n, m, L, caps: photon_space(n, L, caps),
               {"T00": lambda s: stress_tensor_em(s, 0, 0),
                "T03": lambda s: stress_tensor_em(s, 0, 3),
                "F01": lambda s: em_field_strength_density(s, 0, 1),
                "F13": lambda s: em_field_strength_density(s, 1, 3)}),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), species=st.sampled_from(sorted(_SPACELIKE_CASES)),
       n_mode=st.integers(1, 2), mass=st.floats(0.0, 2.0),
       box=st.floats(math.pi, 3 * math.pi),
       caps=st.sampled_from([(1, 2), (2, 2), (2, 3)]),
       n_p=st.sampled_from([-2, -1, 1, 2]), f=st.floats(-0.85, 0.85),
       tau=st.floats(0.5, 10.0))
def test_spacelike_windowed_observables_random_grids(data, species, n_mode,
                                                     mass, box, caps, n_p, f,
                                                     tau):
    # at space-like p a windowed observable is Hermitian, and no eigenstate
    # pair reached from the vacuum carries its energy-momentum transfer
    build_space, builders = _SPACELIKE_CASES[species]
    kind = data.draw(st.sampled_from(sorted(builders)), label="kind")
    space = build_space(n_mode, mass, box, caps)
    density = builders[kind](space)
    p3 = n_p * 2 * math.pi / box
    p = FourVector(f * abs(p3), 0.0, 0.0, p3)
    obs = spacelike_windowed_observable(density, p, MeasurementWindow(tau=tau))
    assert obs.hermiticity_defect() <= 1e-12
    assert lehmann_spectral_density(space, density, density, p,
                                    math.inf).term_count == 0


# ---------------------------------------------------------------------------
# the box window selects its lattice targets before any transform


def _reference_windowed(S, w, p=None):
    """Both windows as a transform of every term, the box as a Kronecker
    mask over all of them: the reference the selecting windows must match
    byte for byte."""
    space = S.space
    q, lat = S.transfers()

    def spatial(target):
        return np.where(np.all(lat == target, axis=1), space.volume, 0.0)

    if p is None:
        factor = spatial((0, 0, 0)) * w.time_transform(q[:, 0])
        return S.weighted(f"{S.label}|win", factor)
    lat_p = np.array(space.lattice_of(p))
    factor = 0.5 * spatial(-lat_p) * w.time_transform(q[:, 0] + p.t)
    factor = factor + 0.5 * spatial(lat_p) * w.time_transform(q[:, 0] - p.t)
    return S.weighted(f"{S.label}|cos", factor)


_WINDOW_DENSITIES = {
    "scalar T00": (lambda: scalar_space(2, 0.7, caps=(2, 2)),
                   lambda s: stress_tensor_scalar(s, 0, 0)),
    "scalar T03": (lambda: scalar_space(2, 0.0, caps=(2, 2)),
                   lambda s: stress_tensor_scalar(s, 0, 3)),
    "dirac j0": (lambda: dirac_space(2, 1.0, caps=(1, 2)),
                 lambda s: dirac_current_density(s, 0)),
    "dirac j3": (lambda: dirac_space(2, 1.0, caps=(1, 2)),
                 lambda s: dirac_current_density(s, 3)),
    "photon T00": (lambda: photon_space(2, caps=(1, 2)),
                   lambda s: stress_tensor_em(s, 0, 0)),
    "photon T03": (lambda: photon_space(2, caps=(1, 2)),
                   lambda s: stress_tensor_em(s, 0, 3)),
}

_WINDOWS = {
    "rect": MeasurementWindow(tau=2.3),
    "gauss": MeasurementWindow(tau=2.3, envelope="gauss"),
}

_READOUTS = {
    "lat(p) = +-1": FourVector(0.6, 0.0, 0.0, 1.0),
    "lat(p) = 2": FourVector(1.3, 0.0, 0.0, 2.0),
    # both targets coincide at lattice transfer 0 (p is then time-like)
    "lat(p) = 0": FourVector(0.7, 0.0, 0.0, 0.0),
}


@pytest.mark.filterwarnings("ignore:readout momentum p is not space-like")
@pytest.mark.parametrize("density", sorted(_WINDOW_DENSITIES))
def test_selecting_windows_match_the_transform_of_every_term(density):
    build_space, build = _WINDOW_DENSITIES[density]
    S = build(build_space())
    for w in _WINDOWS.values():
        cases = [(windowed_observable(S, w), _reference_windowed(S, w))]
        cases += [(spacelike_windowed_observable(S, p, w),
                   _reference_windowed(S, w, p)) for p in _READOUTS.values()]
        for got, ref in cases:
            assert got.label == ref.label
            assert len(ref.terms) > 0
            assert got.terms.tobytes() == ref.terms.tobytes()
            assert repr(got.vacuum_subtraction) == repr(ref.vacuum_subtraction)


def test_box_window_transforms_only_the_terms_it_keeps(monkeypatch):
    # the 3D massless cell of the lattice-build benchmark (R = 2, caps
    # (2, 2)): the box keeps about 1% of T00's terms, and neither the
    # window's time transform nor the Lehmann memo's weighting may see more
    grid = ModeGrid(axes=(1, 2, 3), lengths=(BOX,) * 3, ranges=((-2, 2),) * 3,
                    species=Species.BOSON)
    space = build_fock_space([("phi", grid)], 2, 2)
    S = stress_tensor_scalar(space, 0, 0)
    p = FourVector(0.5, 1.0, 0.0, 0.0)
    targets = [space.lattice_of(p), tuple(-v for v in space.lattice_of(p))]
    hits = [int(h.sum()) for h in S.lattice_hits(targets)]
    seen, weighted = [], []
    transform = MeasurementWindow.time_transform
    monkeypatch.setattr(MeasurementWindow, "time_transform",
                        lambda self, omega: seen.append(len(omega))
                        or transform(self, omega))
    obs = spacelike_windowed_observable(S, p, MeasurementWindow(tau=BOX))
    assert 0 < sum(seen) <= len(obs.terms) == sum(hits) < len(S.terms) // 50

    weight = QuadraticObservable.weighted
    monkeypatch.setattr(QuadraticObservable, "weighted",
                        lambda self, label, factor, keep=None: weighted.append(
                            len(self.terms) if keep is None else len(keep))
                        or weight(self, label, factor, keep))
    lehmann_spectral_density(space, S, S, p, math.inf)
    assert sorted(weighted) == sorted(hits)
