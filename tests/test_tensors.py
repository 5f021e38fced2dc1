
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxqft import cli
from boxqft.errors import (BoxQFTError, DegenerateBasis,
                           RequiresCanonicalFrame)
from boxqft.spacetime import METRIC, FourVector, minkowski_dot
from boxqft.tensors import (EPSILON4, boost_tensor,
                            canonical_boost, decompose_antisymmetric,
                            decompose_symmetric, decompose_vector,
                            noiseless_components, project_noiseless_tensor,
                            project_noiseless_vector,
                            symmetric_model_product_form)

P_CANON = FourVector(0.0, 0.0, 0.0, 1.0)


def vector_model(p, eta, xi):
    pa = p.as_array()
    return eta * np.outer(pa, pa) - xi * METRIC


def antisym_model(p, a, v, f):
    pa = p.as_array()
    g = METRIC.astype(complex)
    vt = np.einsum("ms,nr->mnsr", g, g) - np.einsum("ns,mr->mnsr", g, g)
    ft = (np.einsum("m,s,nr->mnsr", pa, pa, g)
          - np.einsum("m,r,ns->mnsr", pa, pa, g)
          - np.einsum("n,s,mr->mnsr", pa, pa, g)
          + np.einsum("n,r,ms->mnsr", pa, pa, g))
    return a * EPSILON4 + v * vt + f * ft


def test_vector_fit_exact_model():
    G = vector_model(P_CANON, 2.5, 0.0)
    fit = decompose_vector(P_CANON, G)
    assert abs(fit["eta"] - 2.5) < 1e-12
    assert abs(fit["xi"]) < 1e-12


def test_vector_fit_recovers_a_positivity_violating_xi():
    G = vector_model(P_CANON, 0.5, 1.0)
    fit = decompose_vector(P_CANON, G)
    assert abs(fit["xi"] - 1.0) < 1e-10
    # frame check: G00 = -xi < 0 while G11 = +xi > 0 cannot both be variances
    assert G[0, 0].real == -1.0 and G[1, 1].real == 1.0


def test_vector_conservation_identity():
    # transverse data satisfies xi = eta * (p.p); the positivity zero xi = 0
    # then forces eta = 0
    p = P_CANON
    pa = p.as_array()
    s = minkowski_dot(p, p)
    c = 1.7
    G = c * (METRIC - np.outer(pa, pa) / s)
    div = np.array([sum(METRIC[m, m] * pa[m] * G[m, n] for m in range(4))
                    for n in range(4)])
    assert np.max(np.abs(div)) < 1e-14
    fit = decompose_vector(p, G)
    eta, xi = fit["eta"], fit["xi"]
    assert abs(xi - eta * s) < 1e-12


def test_vector_degenerate_cases():
    # light-like p keeps the basis independent: fitted, not rejected
    light = FourVector(1.0, 0, 0, 1.0)
    fit = decompose_vector(light, vector_model(light, 1.0, 0.0))
    assert abs(fit["eta"] - 1.0) < 1e-12
    with pytest.raises(DegenerateBasis):
        decompose_vector(FourVector(), np.zeros((4, 4)))


def test_symmetric_fit_product_form():
    G = symmetric_model_product_form(P_CANON, w=1.0, b=0.3, a=0.2)
    fit = decompose_symmetric(P_CANON, G)
    assert abs(fit["w"] - 1.0) < 1e-10
    assert abs(fit["b_reduced"] - 0.3) < 1e-10
    assert abs(fit["a_reduced"] - 0.2) < 1e-10
    assert abs(fit["v"]) < 1e-10
    assert abs(fit["f"]) < 1e-10


def test_symmetric_fit_recovers_v():
    pa = P_CANON.as_array()
    g = METRIC.astype(complex)
    v_term = np.einsum("ms,nr->mnsr", g, g) + np.einsum("ns,mr->mnsr", g, g)
    G = symmetric_model_product_form(P_CANON, 1.0, 0.0, 0.0) + 0.5 * v_term
    fit = decompose_symmetric(P_CANON, G)
    assert abs(fit["v"] - 0.5) < 1e-10


def test_symmetric_complex_b_at_timelike():
    p = FourVector(2.0, 0.0, 0.0, 1.0)  # time-like
    pa = p.as_array()
    g = METRIC.astype(complex)
    b = 0.2 + 0.4j
    pp = np.einsum("m,n->mn", pa, pa)
    G = (np.einsum("mn,sr->mnsr", g, g)
         - b * np.einsum("mn,sr->mnsr", pp, g)
         - np.conj(b) * np.einsum("mn,sr->mnsr", g, pp))
    fit = decompose_symmetric(p, G)
    assert abs(fit["b"] - b) < 1e-10
    assert abs(fit["w"] - 1.0) < 1e-10
    # at space-like p the same fit constrains b to be real
    ps = P_CANON
    Gs = symmetric_model_product_form(ps, 1.0, 0.25, 0.0)
    fits = decompose_symmetric(ps, Gs)
    assert abs(fits["b"].imag) == 0.0


def test_antisymmetric_fit_recovers_a():
    G = antisym_model(P_CANON, 1.0, 0.0, 0.0)
    fit = decompose_antisymmetric(P_CANON, G)
    assert abs(fit["a"] - 1.0) < 1e-10
    # epsilon antisymmetry: G^{0123} = a = -G^{1023}
    assert abs(G[0, 1, 2, 3] - 1.0) < 1e-14
    assert abs(G[1, 0, 2, 3] + 1.0) < 1e-14


def test_antisymmetric_recovery_all():
    G = antisym_model(P_CANON, 0.3, -0.7, 0.4)
    fit = decompose_antisymmetric(P_CANON, G)
    assert abs(fit["a"] - 0.3) < 1e-10
    assert abs(fit["v"] + 0.7) < 1e-10
    assert abs(fit["f"] - 0.4) < 1e-10


def test_shape_validation():
    with pytest.raises(BoxQFTError):
        decompose_vector(P_CANON, np.zeros((4, 4, 4, 4)))
    for decompose in (decompose_symmetric, decompose_antisymmetric):
        with pytest.raises(BoxQFTError):
            decompose(P_CANON, np.zeros((4, 4)))


def test_project_noiseless_vector_examples():
    q = 1.3
    p = FourVector(0, 0, 0, q)
    A = np.array([0.7, 0.0, 0.0, -1.1], dtype=complex)
    At = project_noiseless_vector(A, p)
    assert abs(At[0] - (-q * q * 0.7)) < 1e-14
    assert abs(At[3]) < 1e-14
    # longitudinal annihilation
    Ap = project_noiseless_vector(p.as_array().astype(complex), p)
    assert np.max(np.abs(Ap)) < 1e-14
    # p.A~ = 0 for 1000 random inputs, relative
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        pr = FourVector(*rng.normal(size=4))
        Ar = rng.normal(size=4) + 1j * rng.normal(size=4)
        Atr = project_noiseless_vector(Ar, pr)
        num = abs(complex(pr.as_array() @ (METRIC @ Atr)))
        den = np.linalg.norm(pr.as_array()) * np.linalg.norm(Atr)
        if den > 0:
            worst = max(worst, num / den)
    assert worst < 1e-12


def test_project_noiseless_tensor_is_traceless_and_transverse():
    p = FourVector(0.2, 0.0, 0.0, 1.4)
    pa = p.as_array()
    # traceless identically, transverse on conserved input
    rng = np.random.default_rng(17)
    B = rng.normal(size=(4, 4))
    B = (B + B.T) / 2
    proj = np.eye(4) - np.outer(pa, METRIC @ pa) / minkowski_dot(p, p)
    Bt = proj @ B @ proj.T
    out = project_noiseless_tensor(Bt, p)
    assert abs(np.einsum("mn,mn->", METRIC, out)) < 1e-12
    assert np.max(np.abs(pa @ METRIC @ out)) < 1e-12
    # trace removal for the g input
    outg = project_noiseless_tensor(METRIC.astype(complex), p)
    assert abs(np.einsum("mn,mn->", METRIC, outg)) < 1e-12


def _project(variant, X, p):
    if variant == "vector":
        return project_noiseless_vector(X, p)
    return project_noiseless_tensor(X, p)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       stack=st.sampled_from([(1,), (7,), (2, 3)]),
       p_stack=st.sampled_from(["four_vector", "full", "broadcast"]),
       variant=st.sampled_from(["vector", "tensor"]))
def test_stacked_projection_matches_single_inputs(seed, stack, p_stack,
                                                  variant):
    rng = np.random.default_rng(seed)
    shape = stack + ((4,) if variant == "vector" else (4, 4))
    X = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if p_stack == "four_vector":
        P = FourVector(*rng.normal(size=4))
    else:
        # "broadcast": one momentum per last stack axis, shared by the others
        P = rng.normal(size=(stack if p_stack == "full" else stack[-1:]) + (4,))
    out = _project(variant, X, P)
    assert out.shape == shape
    for idx in np.ndindex(*stack):
        p = (P if isinstance(P, FourVector) else
             FourVector.from_array(np.broadcast_to(P, stack + (4,))[idx]))
        ref = _project(variant, X[idx], p)
        assert np.max(np.abs(out[idx] - ref)) <= \
            1e-14 * max(1.0, float(np.max(np.abs(ref))))


def test_projectors_reject_wrong_shapes():
    p = FourVector(0.3, 0.0, 0.0, 1.2)
    with pytest.raises(BoxQFTError):
        project_noiseless_vector(np.ones(3), p)
    with pytest.raises(BoxQFTError):
        project_noiseless_vector(np.ones((5, 3)), p)
    with pytest.raises(BoxQFTError):
        project_noiseless_vector(1.0, p)
    with pytest.raises(BoxQFTError):
        project_noiseless_tensor(np.ones((3, 3)), p)
    with pytest.raises(BoxQFTError):
        project_noiseless_tensor(np.ones((5, 4, 3)), p)
    with pytest.raises(BoxQFTError):
        project_noiseless_tensor(np.ones(4), p)


def test_projectors_reject_momentum_stacks_that_do_not_broadcast():
    with pytest.raises(BoxQFTError):
        project_noiseless_vector(np.ones((5, 4)), np.ones((3, 4)))
    with pytest.raises(BoxQFTError):
        project_noiseless_vector(np.ones((5, 4)), np.ones((5, 3)))
    with pytest.raises(BoxQFTError):
        project_noiseless_tensor(np.ones((5, 4, 4)), np.ones((2, 4)))
    with pytest.raises(BoxQFTError):
        project_noiseless_tensor(np.ones((2, 5, 4, 4)), np.ones((2, 1, 3)))
    # stacks that do broadcast are accepted
    assert project_noiseless_vector(np.ones((2, 5, 4)),
                                    np.ones((5, 4))).shape == (2, 5, 4)
    assert project_noiseless_tensor(np.ones((5, 4, 4)),
                                    np.ones((2, 1, 4))).shape == (2, 5, 4, 4)


def _reference_projector_draws(rng, n):
    """The per-input draw loop the synthetic projector check used before its
    draws were stacked: one scalar momentum pair, then A, then B."""
    qs, As, Bs = [], [], []
    for _ in range(n):
        q = FourVector(rng.normal(), 0.0, 0.0, 2.0 + rng.random())
        if abs(q.t) >= abs(q.z):
            q = FourVector(q.t / (2 * abs(q.t / q.z)), 0.0, 0.0, q.z)
        A = rng.normal(size=4) + 1j * rng.normal(size=4)
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        qs.append(q.as_array())
        As.append(A)
        Bs.append(B)
    return np.array(qs), np.array(As), np.array(Bs)


@pytest.mark.parametrize("seed", [1234, 3, 20240613])
def test_stacked_projector_draws_match_the_per_input_loop(seed):
    n = 1000
    got = cli._synthetic_projector_inputs(np.random.default_rng(seed), n)
    ref = _reference_projector_draws(np.random.default_rng(seed), n)
    for g, r in zip(got, ref):
        assert g.shape == r.shape and g.dtype == r.dtype
        assert np.array_equal(g, r)
    # both leave the generator at the same point of its stream
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    cli._synthetic_projector_inputs(a, 7)
    _reference_projector_draws(b, 7)
    assert a.normal() == b.normal()


def _synthetic_checks(seed=5):
    report = cli.RunReport("noiseless")
    cli._tensor_synthetic_checks(report, cli.merge_config(None)["noiseless"],
                                 seed)
    return {c.name: c for c in report.checks}


def test_tensor_transversality_check_catches_a_dropped_trace_term(monkeypatch):
    checks = _synthetic_checks()
    assert checks["projector.tensor.transversality"].passed

    def without_trace_term(B, p):
        # (p.p) B alone: transverse on transverse input, but not traceless
        pa = np.asarray(p)
        s = np.sum(pa * np.diag(METRIC) * pa, axis=-1)[..., None, None]
        return s * np.asarray(B, dtype=complex)

    monkeypatch.setattr(cli, "project_noiseless_tensor", without_trace_term)
    checks = _synthetic_checks()
    assert not checks["projector.tensor.transversality"].passed
    assert checks["projector.tensor.transversality"].computed > 1e-3
    assert checks["projector.vector.transversality"].passed


def test_noiseless_components_lists():
    comps = noiseless_components(FourVector(0, 0, 0, 2.0))
    assert comps.vector_indices == (0, 1, 2)
    combos = comps.tensor_combinations
    assert ((1.0, (1, 2)),) in combos
    assert ((1.0, (1, 1)), (-1.0, (2, 2))) in combos
    assert ((1.0, (0, 0)), (1.0, (1, 1))) in combos
    assert len(combos) == 5
    with pytest.raises(RequiresCanonicalFrame):
        noiseless_components(FourVector(0.5, 0, 0, 2.0))


def test_canonical_boost_and_frame_independence():
    p = FourVector(0.6, 0.0, 0.0, 1.5)  # space-like, axis-3 aligned
    lam, p_can = canonical_boost(p)
    assert abs(p_can.t) < 1e-12
    assert abs(minkowski_dot(p_can, p_can) - minkowski_dot(p, p)) < 1e-12
    # fitting covariant synthetic data directly or in the canonical frame
    # gives the same invariant coefficients
    G = symmetric_model_product_form(p, w=1.2, b=0.1, a=0.05)
    fit_direct = decompose_symmetric(p, G)
    G_can = boost_tensor(G, lam)
    fit_can = decompose_symmetric(p_can, G_can)
    for key in ("w", "b_reduced", "a_reduced", "v", "f"):
        assert abs(fit_direct[key]
                   - fit_can[key]) < 1e-9
    with pytest.raises(RequiresCanonicalFrame):
        canonical_boost(FourVector(2.0, 0, 0, 1.0))
    with pytest.raises(RequiresCanonicalFrame):
        canonical_boost(FourVector(0.1, 0.5, 0, 1.5))


def test_noiseless_combination_covariance():
    # a canonical-frame noiseless combination, pulled back through the boost,
    # annihilates covariant noise data in the original frame
    p = FourVector(0.6, 0.0, 0.0, 1.5)
    lam, p_can = canonical_boost(p)
    G = symmetric_model_product_form(p, w=0.9, b=0.2, a=0.1)
    G_can = boost_tensor(G, lam)
    for combo in noiseless_components(p_can).tensor_combinations:
        val = sum(w1 * w2 * G_can[m1, n1, m2, n2]
                  for (w1, (m1, n1)) in combo for (w2, (m2, n2)) in combo)
        assert abs(val) < 1e-10
