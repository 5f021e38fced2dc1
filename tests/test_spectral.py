import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from conftest import scalar_space

from boxqft import spectral
from boxqft.errors import BoxQFTError, DimensionMismatch, OffLatticeMomentum
from boxqft.fields import scalar_bilinear_density, scalar_density
from boxqft.measurement import (MeasurementWindow, operator_vacuum_variance,
                                vacuum_variance, windowed_observable)
from boxqft.spacetime import FourVector, minkowski_dot
from boxqft.spectral import (default_delta_omega, fdt_ratio,
                             lehmann_spectral_density, line_spectrum,
                             massless_current_spectrum, noise_exponent_fit,
                             signal_vs_noise_curve, suppression_slope,
                             windowed_noise)


def test_single_mode_support_structure():
    space = scalar_space(n_mode=1, mass=0.0, caps=(4, 4))
    phi = scalar_density(space)
    E = space.grid("phi").energy((1,))
    # on-shell forward cone: nonzero at beta = inf
    s = lehmann_spectral_density(space, phi, phi, FourVector(E, 0, 0, 1.0),
                                 math.inf)
    assert abs(s.G) > 1e-6 and s.term_count > 0
    assert s.dominant_weight == 1.0
    # space-like: identically zero with zero contributing terms (structural)
    s = lehmann_spectral_density(space, phi, phi, FourVector(0.2, 0, 0, 1.0),
                                 math.inf)
    assert s.G == 0.0 and s.term_count == 0
    # backward cone also vanishes at zero temperature
    s = lehmann_spectral_density(space, phi, phi, FourVector(-E, 0, 0, -1.0),
                                 math.inf)
    assert s.G == 0.0 and s.term_count == 0


def test_reality_relation():
    # X = Y Hermitian: G(p) is real, and the reality relation combined with
    # detailed balance gives G(-p) = e^{-beta p0} G(p).  (The two relations
    # cannot hold separately and nontrivially at finite temperature: together
    # they would force |G(-p)| = |G(p)| against detailed balance.)
    space = scalar_space(n_mode=1, mass=0.0, caps=(4, 4))
    phi2 = scalar_bilinear_density(space)
    for beta in (0.7, 1.7):
        for p in (FourVector(1.0, 0, 0, 2.0), FourVector(2.0, 0, 0, 0.0)):
            gp = lehmann_spectral_density(space, phi2, phi2, p, beta).G
            gm = lehmann_spectral_density(space, phi2, phi2, -1.0 * p, beta).G
            assert abs(gp.imag) < 1e-13 and abs(gm.imag) < 1e-13
            assert abs(gm - math.exp(-beta * p.t) * gp) < 1e-12


def test_fdt_detailed_balance():
    space = scalar_space(n_mode=1, mass=0.0, caps=(4, 4))
    for X in (scalar_density(space), scalar_bilinear_density(space)):
        for beta in (0.5, 1.0, 2.0):
            checked = 0
            for n0 in (-2, -1, 0, 1, 2):
                for n3 in (0, 1, 2):
                    p = FourVector(float(n0), 0, 0, float(n3))
                    lhs, rhs, sample = fdt_ratio(space, X, p, beta)
                    if abs(sample.G) > 1e-13:
                        checked += 1
                        assert abs(lhs - rhs) / abs(sample.G) < 1e-10
            assert checked > 0


def test_fdt_ratio_refuses_a_weight_that_is_not_a_float():
    # e^{-beta p0} overflowed into an OverflowError at beta = 300, and at
    # beta = inf it made the ratio nan, which no check saw
    space = scalar_space(n_mode=1, mass=0.0, caps=(4, 4))
    X = scalar_bilinear_density(space)
    p = FourVector(-3.0, 0, 0, 1.0)
    for beta, match in ((300.0, "overflows"), (math.inf, "finite beta"),
                        (math.nan, "finite beta")):
        with pytest.raises(BoxQFTError, match=match):
            fdt_ratio(space, X, p, beta)
    lhs, rhs, sample = fdt_ratio(space, X, -1.0 * p, 300.0)
    assert rhs == math.exp(-900.0) * sample.G


def test_off_lattice_momentum_rejected():
    space = scalar_space(n_mode=1, mass=0.0)
    phi = scalar_density(space)
    with pytest.raises(OffLatticeMomentum):
        lehmann_spectral_density(space, phi, phi, FourVector(0, 0, 0, 0.5),
                                 1.0)
    with pytest.raises(OffLatticeMomentum):
        lehmann_spectral_density(space, phi, phi, FourVector(0, 0.3, 0, 1.0),
                                 1.0)


def test_bin_halving_stability():
    # isolated lattice lines are stable under bin halving (bin-sum convention)
    space = scalar_space(n_mode=1, mass=0.0, caps=(4, 4))
    phi = scalar_density(space)
    p = FourVector(1.0, 0, 0, 1.0)
    dw = default_delta_omega(space)
    g1 = lehmann_spectral_density(space, phi, phi, p, 1.0, dw).G
    g2 = lehmann_spectral_density(space, phi, phi, p, 1.0, dw / 2).G
    assert abs(g1 - g2) < 1e-14


def test_suppression_slope_bound():
    space = scalar_space(n_mode=4, mass=0.0, caps=(2, 2))
    X = scalar_bilinear_density(space)
    betas = np.linspace(2, 12, 21)
    for (n0, n3) in ((0, 4), (1, 5), (2, 6)):
        p = FourVector(float(n0), 0, 0, float(n3))
        slope, bound, pts = suppression_slope(space, X, p, betas)
        assert len(pts) == 21
        assert abs(slope - bound) / abs(bound) < 0.05
        assert slope <= bound * 0.95


def test_massless_spectrum_supports():
    d1 = massless_current_spectrum(1)
    d2 = massless_current_spectrum(2)
    d3 = massless_current_spectrum(3)
    assert (d1.support, d2.support, d3.support) == \
        ("lightcone_delta", "inverse_sqrt", "step")
    # D=3 time-like: constant support with the transverse tensor prefactor
    p = FourVector(2.0, 0.3, 0.1, 0.5)
    assert d3.support_value(p) == 1.0
    pref = np.array([[d3.tensor_prefactor(p, mu, nu) for nu in range(4)]
                     for mu in range(4)])
    pa = p.as_array()
    from boxqft.spacetime import METRIC
    div = np.array([sum(METRIC[m, m] * pa[m] * pref[m, n] for m in range(4))
                    for n in range(4)])
    assert np.max(np.abs(div)) < 1e-12  # p_mu (p^mu p^nu - g p.p) = 0
    # D=2 integrable divergence toward the cone
    s_small = 1e-8
    p2 = FourVector(math.sqrt(1.0 + s_small), 0, 0, 1.0)
    val = d2.support_value(p2)
    assert abs(val * math.sqrt(minkowski_dot(p2, p2)) - 1.0) < 1e-6


def test_massless_spectrum_vanishes_spacelike():
    rng = np.random.default_rng(42)
    for D in (1, 2, 3):
        desc_c = massless_current_spectrum(D, "current")
        desc_e = massless_current_spectrum(D, "energy")
        for _ in range(10_000):
            x = rng.normal(size=4)
            sp = np.linalg.norm(x[1:]) + 1e-12
            p = FourVector(rng.uniform(-0.999, 0.999) * sp, *x[1:])
            assert desc_c.evaluate(p) == 0.0
            assert desc_e.evaluate(p) == 0.0


def test_windowed_noise_matches_closed_form_d3():
    # Gaussian time envelope: the D=3 current integral has the closed form
    # 2 * meas * V^2 * 2 pi sigma^2 * (4 pi / 5) / sigma^6 up to O((L/tau)^2)
    tau = 50.0
    sigma = tau / 2
    meas = 1 / (2 * math.pi) ** 4
    closed = 2 * meas * 2 * math.pi * sigma ** 2 * (4 * math.pi / 5) / sigma ** 6
    num = windowed_noise("current", 3, 1.0, tau)
    assert abs(num - closed) / closed < 1e-2


def test_windowed_noise_matches_quadrature_oracle_energy_d3():
    tau = 50.0
    sigma = tau / 2
    f = lambda r: r ** 6 * math.sqrt(math.pi) / sigma * erfc(sigma * r)
    radial, _ = quad(f, 0, 30 / sigma)
    closed = (1 / (2 * math.pi) ** 4) * 4 * math.pi * \
        2 * math.pi * sigma ** 2 * radial
    num = windowed_noise("energy", 3, 1.0, tau)
    assert abs(num - closed) / closed < 1e-2


def test_noise_exponents():
    expected = {("current", 1): 0.0, ("current", 2): -2.0, ("current", 3): -4.0,
                ("energy", 1): -2.0, ("energy", 2): -4.0, ("energy", 3): -6.0}
    for (s_type, D), ex in expected.items():
        fit = noise_exponent_fit(s_type, D, 1.0, 10.0, 100.0, 16)
        assert abs(fit.exponent - ex) < 0.1
        assert fit.expected == ex
        assert len(fit.points) == 16


def _reference_windowed_noise(s_type, D, V, tau, n_grid=48):
    """Per-tau quadrature on a fresh p-space meshgrid: the implementation
    windowed_noise replaced, kept as the oracle for the batched u-space one.
    It takes erfc from scipy.special, independently of the math.erfc that
    windowed_noise uses."""
    def box_sq(p, L):
        return (L * np.sinc(p * L / (2 * math.pi))) ** 2

    L = V ** (1.0 / D)
    meas = 1.0 / (2 * math.pi) ** (D + 1)
    if D == 1:
        grid, wts = np.polynomial.legendre.leggauss(max(n_grid * 8, 256))
        K = 40.0 / tau + 16.0 * math.pi / L
        pv = 0.5 * K * (grid + 1.0)
        jw = 0.5 * K * wts
        pref = pv ** 2 if s_type == "current" else pv ** 4
        ft = 2 * math.pi * (tau / 2) ** 2 * np.exp(-(tau / 2 * pv) ** 2)
        return float(2 * meas * np.sum(jw * box_sq(pv, L) * pref / pv * ft))
    sigma = tau / 2.0
    ng, wg = np.polynomial.legendre.leggauss(n_grid)
    K = 12.0 / sigma
    pv = 0.5 * K * (ng + 1.0)
    pw = 0.5 * K * wg
    if D == 2:
        p1, p2, s = np.meshgrid(pv, pv, pv, indexing="ij")
        w1, w2, ws = np.meshgrid(pw, pw, pw, indexing="ij")
        r2 = p1 ** 2 + p2 ** 2
        w0 = np.sqrt(s ** 2 + r2)
        pref = (p1 ** 2 + s ** 2) if s_type == "current" else r2 ** 2
        ft = 2 * math.pi * sigma ** 2 * np.exp(-(sigma * w0) ** 2)
        integ = box_sq(p1, L) * box_sq(p2, L) * pref * ft / w0
        return float(4 * 2 * meas * np.sum(w1 * w2 * ws * integ))
    p1, p2, p3 = np.meshgrid(pv, pv, pv, indexing="ij")
    w1, w2, w3 = np.meshgrid(pw, pw, pw, indexing="ij")
    r = np.sqrt(p1 ** 2 + p2 ** 2 + p3 ** 2)
    fx = box_sq(p1, L) * box_sq(p2, L) * box_sq(p3, L)
    i0 = math.sqrt(math.pi) / sigma * erfc(sigma * r)
    i2 = r * np.exp(-(sigma * r) ** 2) / sigma ** 2 + \
        math.sqrt(math.pi) * erfc(sigma * r) / (2 * sigma ** 3)
    gauss_norm = 2 * math.pi * sigma ** 2
    if s_type == "current":
        tint = gauss_norm * ((p1 ** 2 - r ** 2) * i0 + i2)
    else:
        tint = gauss_norm * r ** 4 * i0
    return float(8 * meas * np.sum(w1 * w2 * w3 * fx * tint))


NOISE_CELLS = [(s_type, D) for s_type in ("current", "energy") for D in (1, 2, 3)]


@pytest.mark.parametrize("n_grid", [16, 48])
@pytest.mark.parametrize("s_type,D", NOISE_CELLS)
def test_windowed_noise_matches_per_tau_reference(s_type, D, n_grid):
    taus = np.geomspace(10, 100, 16)
    got = windowed_noise(s_type, D, 1.0, taus, n_grid)
    ref = np.array([_reference_windowed_noise(s_type, D, 1.0, t, n_grid)
                    for t in taus])
    assert got.shape == (16,)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12


@pytest.mark.parametrize("s_type,D", NOISE_CELLS)
def test_windowed_noise_scalar_and_array_calls_agree(s_type, D):
    taus = np.array([12.0, 37.5, 90.0])
    scalar = windowed_noise(s_type, D, 2.0, 37.5)
    assert type(scalar) is float
    batch = windowed_noise(s_type, D, 2.0, taus)
    singles = [windowed_noise(s_type, D, 2.0, float(t)) for t in taus]
    assert np.max(np.abs(batch - singles) / np.abs(singles)) < 1e-14
    assert batch[1] == pytest.approx(scalar, rel=1e-14)


@pytest.mark.parametrize("s_type,D", NOISE_CELLS)
def test_noise_exponents_converged_in_n_grid(s_type, D):
    # the default n_grid=48 agrees with a finer grid on the fitted exponent
    taus = np.geomspace(10.0, 100.0, 16)
    fine = windowed_noise(s_type, D, 1.0, taus, n_grid=64)
    fine_exp = np.polyfit(np.log(taus), np.log(fine), 1)[0]
    fit = noise_exponent_fit(s_type, D, 1.0, 10.0, 100.0, 16)
    assert abs(fit.exponent - fine_exp) < 1e-6


def _clear_noise_memos():
    spectral._gauss_legendre.cache_clear()
    spectral._noise_cores.cache_clear()


def test_noise_fit_cells_build_each_gauss_legendre_rule_once(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)

    _clear_noise_memos()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    for s_type, D in NOISE_CELLS:
        noise_exponent_fit(s_type, D, 1.0, 10.0, 100.0, 16)
    assert calls == [384, 48]
    # both D >= 2 cores were built once, for both s_types
    assert spectral._noise_cores.cache_info().misses == 2


def test_memoized_noise_tables_are_read_only():
    windowed_noise("current", 3, 1.0, 50.0)
    x, w = spectral._gauss_legendre(48)
    cores = [a for D in (2, 3) for a in spectral._noise_cores(D, 48)]
    for a in (x, w, *cores):
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("s_type,D", NOISE_CELLS)
def test_windowed_noise_repeats_from_its_memos(s_type, D):
    taus = np.geomspace(10, 100, 16)
    _clear_noise_memos()
    first = windowed_noise(s_type, D, 1.0, taus)
    assert repr(windowed_noise(s_type, D, 1.0, taus)) == repr(first)


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("n_grid", [48.0, 0, -3, True, "48", None])
def test_windowed_noise_rejects_a_bad_n_grid_before_building(D, n_grid):
    _clear_noise_memos()
    with pytest.raises(BoxQFTError, match="n_grid"):
        windowed_noise("current", D, 1.0, 50.0, n_grid=n_grid)
    assert spectral._gauss_legendre.cache_info().currsize == 0
    assert spectral._noise_cores.cache_info().currsize == 0


def test_windowed_noise_takes_a_numpy_integer_n_grid():
    assert windowed_noise("energy", 3, 1.0, 50.0, n_grid=np.int64(16)) == \
        windowed_noise("energy", 3, 1.0, 50.0, n_grid=16)


def test_noise_fit_needs_a_decade():
    with pytest.raises(BoxQFTError):
        noise_exponent_fit("current", 1, 1.0, 10.0, 50.0)


# each returned a number (an exponent of -2.0014 for V = -1), nan or a numpy
# or LAPACK error before these inputs were checked
@pytest.mark.parametrize("call,match", [
    (lambda: noise_exponent_fit("current", 1, 1.0, 0.0, 100.0), "tau_min"),
    (lambda: noise_exponent_fit("current", 1, 1.0, -1.0, 100.0), "tau_min"),
    (lambda: noise_exponent_fit("current", 1, 1.0, 10.0, math.inf), "tau_max"),
    (lambda: noise_exponent_fit("current", 2, -1.0, 10.0, 100.0), "V"),
    (lambda: noise_exponent_fit("current", 2, 0.0, 10.0, 100.0), "V"),
    (lambda: noise_exponent_fit("current", 1, 1.0, 10.0, 100.0, 1), "n_points"),
    (lambda: noise_exponent_fit("current", 1, 1.0, 10.0, 100.0, 2.5), "n_points"),
    (lambda: windowed_noise("current", 2, 1.0, -50.0), "tau"),
    (lambda: windowed_noise("current", 1, 1.0, 0.0), "tau"),
    (lambda: windowed_noise("current", 3, 1.0, [50.0, math.nan]), "tau"),
    (lambda: windowed_noise("current", 2, 0.0, 50.0), "V"),
    (lambda: windowed_noise("current", 1, math.inf, 50.0), "V"),
    (lambda: windowed_noise("current", 1, math.nan, 50.0), "V"),
], ids=["fit_tau_min_0", "fit_tau_min_neg", "fit_tau_max_inf", "fit_V_neg",
        "fit_V_0", "fit_n_points_1", "fit_n_points_float", "noise_tau_neg",
        "noise_tau_0", "noise_tau_nan", "noise_V_0", "noise_V_inf",
        "noise_V_nan"])
def test_noise_rejects_nonpositive_or_nonfinite_inputs(call, match):
    with pytest.raises(BoxQFTError, match=match):
        call()


def test_windowed_noise_warnings_and_validation():
    with pytest.warns(UserWarning):
        windowed_noise("current", 1, 1.0, 0.5)
    # one warning per call, however many taus are short
    with pytest.warns(UserWarning) as record:
        windowed_noise("current", 2, 1.0, np.array([0.5, 1.0, 50.0]))
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        windowed_noise("current", 2, 1.0, np.array([3.0, 50.0]))
    with pytest.raises(BoxQFTError):
        windowed_noise("current", 2, 1.0, np.ones((2, 2)) * 50.0)
    with pytest.raises(BoxQFTError):
        massless_current_spectrum(4)
    with pytest.raises(BoxQFTError):
        massless_current_spectrum(2, "charge")


def test_densities_from_another_space_are_refused():
    # a density's terms number the slots of its own space; read on another
    # space they name other modes, and the sum was a silent wrong number
    a = scalar_space(n_mode=2, mass=1.0)
    b = scalar_space(n_mode=3, mass=1.0)
    X, Y = scalar_bilinear_density(a), scalar_bilinear_density(b)
    g = a.grid("phi")
    p = FourVector(g.energy((1,)) + g.energy((2,)), 0, 0, 3.0)  # a pair line
    assert lehmann_spectral_density(a, X, X, p, math.inf).term_count > 0
    for space, x, y in ((b, X, X), (a, X, Y), (a, Y, X), (b, X, Y)):
        for beta in (math.inf, 1.0):
            with pytest.raises(DimensionMismatch):
                lehmann_spectral_density(space, x, y, p, beta)
        with pytest.raises(DimensionMismatch):
            line_spectrum(space, x, y, (0, 0, 3))
    obs = windowed_observable(X, MeasurementWindow(tau=2 * math.pi))
    assert vacuum_variance(a, obs) > 0
    with pytest.raises(DimensionMismatch):
        vacuum_variance(b, obs)
    with pytest.raises(DimensionMismatch):
        operator_vacuum_variance(b, obs.matrix())


def test_signal_vs_noise_curve():
    taus = list(np.geomspace(0.1, 10, 21))
    for D in (1, 2, 3):
        for tau, signal, noise, ratio in signal_vs_noise_curve(D, taus):
            assert abs(signal - tau) < 1e-14
            assert abs(noise - tau ** (1 - D)) < 1e-12
            assert abs(ratio - tau ** D) < 1e-9 * max(1.0, tau ** D)
    noises = [r[2] for r in signal_vs_noise_curve(1, taus)]
    assert max(noises) - min(noises) < 1e-14  # D=1 noise is flat in tau


def test_default_delta_omega_independent_of_channel_order():
    # the bin width is set by the slowest channel, whichever is listed first
    from boxqft.fock import ModeGrid, Species, build_fock_space
    fast = ModeGrid(axes=(3,), lengths=(2 * math.pi,), ranges=((1, 1),),
                    species=Species.BOSON, mass=0.0, v_c=1.0)
    slow = ModeGrid(axes=(3,), lengths=(2 * math.pi,), ranges=((1, 1),),
                    species=Species.BOSON, mass=0.0, v_c=0.01)
    a = build_fock_space([("f", fast), ("s", slow)], 1, 1)
    b = build_fock_space([("s", slow), ("f", fast)], 1, 1)
    assert default_delta_omega(a) == default_delta_omega(b) == 0.01 / 8
