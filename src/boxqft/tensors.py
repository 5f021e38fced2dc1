"""Lorentz-invariant decomposition of sampled vector/tensor correlations,
positivity-forced zeros, and noiseless projectors.

Invariant models fitted by exact-rank linear least squares:

    vector:        G^{mn}   = eta p^m p^n - xi g^{mn}
    symmetric:     G^{mnsr} = a pppp - b ppg - b* gpp + f (pg sym combo)
                              + v (gg sym combo) + w gg
    antisymmetric: G^{mnsr} = a eps^{mnsr} + v (gg antisym) + f (ppg antisym)

In the canonical frame p = (0,0,0,q), positivity of diagonal correlations
forces xi = 0 (vector), v = f = 0 (symmetric) and a = v = f = 0, hence G = 0
(antisymmetric).  b is real for space-like p and may be complex for
time-like p; the fits honor that constraint.  A fit takes the momentum p and
the sampled (4, 4) or (4, 4, 4, 4) values, and returns its coefficients by
name: the caller (boxqft noiseless) compares the forced zeros with 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import (BoxQFTError, DegenerateBasis, RequiresCanonicalFrame)
from .spacetime import (METRIC, FourVector, IntervalClass, boost, boost_matrix,
                        classify_interval)

# rank-4 Levi-Civita symbol from permutation parity, eps^{0123} = +1
EPSILON4 = np.zeros((4, 4, 4, 4))
for _p in itertools.permutations(range(4)):
    _inv = sum(1 for i in range(4) for j in range(i + 1, 4) if _p[i] > _p[j])
    EPSILON4[_p] = -1.0 if _inv % 2 else 1.0


def _lstsq(basis: Sequence[np.ndarray], data: np.ndarray, real_params: bool):
    """Exact-rank least squares; returns the coefficients."""
    cols = [b.reshape(-1) for b in basis]
    A = np.stack(cols, axis=1)
    y = data.reshape(-1)
    if real_params:
        A = np.concatenate([A.real, A.imag], axis=0)
        y = np.concatenate([y.real, y.imag])
    return np.linalg.lstsq(A, y, rcond=None)[0]


def _checked(p: FourVector, values, shape: Tuple[int, ...]) -> np.ndarray:
    """values as a complex array of the given shape; p = 0 is refused."""
    v = np.asarray(values, dtype=complex)
    if v.shape != shape:
        raise BoxQFTError(f"correlation values must have shape {shape}, "
                          f"not {v.shape}")
    if p.norm_sq_euclidean() == 0.0:
        raise DegenerateBasis("p = 0 collapses the tensor basis")
    return v


# ---------------------------------------------------------------------------
# vector


def decompose_vector(p: FourVector, values) -> Dict[str, complex]:
    """Fit the (4, 4) values G^{mn} = eta p^m p^n - xi g^{mn} at momentum p;
    returns {"eta", "xi"}.

    For positivity-consistent space-like vacuum data xi = 0 (in the
    canonical frame G00 = -xi and G11 = +xi must both be >= 0);
    conservation (p.A = 0) additionally forces eta = 0.  p = 0 is refused.
    """
    G = _checked(p, values, (4, 4))
    pa = p.as_array()
    basis = [np.outer(pa, pa).astype(complex), -METRIC.astype(complex)]
    coeffs = _lstsq(basis, G, real_params=False)
    return {"eta": complex(coeffs[0]), "xi": complex(coeffs[1])}


# ---------------------------------------------------------------------------
# symmetric rank 2


def _sym_basis(pa: np.ndarray):
    g = METRIC.astype(complex)
    pp = np.einsum("m,n->mn", pa, pa)
    pppp = np.einsum("mn,sr->mnsr", pp, pp)
    ppg = np.einsum("mn,sr->mnsr", pp, g)
    gpp = np.einsum("mn,sr->mnsr", g, pp)
    f_term = (np.einsum("m,s,nr->mnsr", pa, pa, g)
              + np.einsum("m,r,ns->mnsr", pa, pa, g)
              + np.einsum("n,s,mr->mnsr", pa, pa, g)
              + np.einsum("n,r,ms->mnsr", pa, pa, g))
    v_term = (np.einsum("ms,nr->mnsr", g, g) + np.einsum("ns,mr->mnsr", g, g))
    w_term = np.einsum("mn,sr->mnsr", g, g)
    return pppp, ppg, gpp, f_term, v_term, w_term


def decompose_symmetric(p: FourVector, values) -> Dict[str, complex]:
    """Fit the five-parameter symmetric-tensor model to the (4, 4, 4, 4)
    values at momentum p; returns {"a", "b", "f", "v", "w"}.

    Space-like p constrains b to be real; positivity-consistent data has
    v = f = 0.  When w != 0 the product-form parameters b_reduced = b/w and
    a_reduced = a - b^2/w are returned too.  p = 0 is refused.
    """
    G = _checked(p, values, (4, 4, 4, 4))
    pppp, ppg, gpp, f_term, v_term, w_term = _sym_basis(p.as_array())
    if classify_interval(p) is IntervalClass.SPACELIKE:
        basis = [pppp, -(ppg + gpp), f_term, v_term, w_term]
        coeffs = _lstsq(basis, G, real_params=True)
        names = ["a", "b", "f", "v", "w"]
        cd = {k: complex(v) for k, v in zip(names, coeffs)}
    else:
        basis = [pppp, -(ppg + gpp), -1j * (ppg - gpp), f_term, v_term, w_term]
        coeffs = _lstsq(basis, G, real_params=True)
        cd = {"a": complex(coeffs[0]),
              "b": complex(coeffs[1] + 1j * coeffs[2]),
              "f": complex(coeffs[3]), "v": complex(coeffs[4]),
              "w": complex(coeffs[5])}
    # reduced (product-form) parameters when w != 0: b -> b/w, a -> a - b^2/w
    if abs(cd["w"]) > 1e-14 * max(1.0, float(np.max(np.abs(G)))):
        cd["b_reduced"] = cd["b"] / cd["w"]
        cd["a_reduced"] = cd["a"] - cd["b"] ** 2 / cd["w"]
    return cd


def symmetric_model_product_form(p: FourVector, w: float, b: float, a: float) -> np.ndarray:
    """(g - b pp)(g - b pp) w + pppp a  — convenience for synthetic data."""
    pa = p.as_array()
    g = METRIC.astype(complex)
    core = g - b * np.einsum("m,n->mn", pa, pa)
    return (w * np.einsum("mn,sr->mnsr", core, core)
            + a * np.einsum("m,n,s,r->mnsr", pa, pa, pa, pa))


# ---------------------------------------------------------------------------
# antisymmetric rank 2


def _antisym_basis(pa: np.ndarray):
    g = METRIC.astype(complex)
    v_term = (np.einsum("ms,nr->mnsr", g, g) - np.einsum("ns,mr->mnsr", g, g))
    f_term = (np.einsum("m,s,nr->mnsr", pa, pa, g)
              - np.einsum("m,r,ns->mnsr", pa, pa, g)
              - np.einsum("n,s,mr->mnsr", pa, pa, g)
              + np.einsum("n,r,ms->mnsr", pa, pa, g))
    return EPSILON4.astype(complex), v_term, f_term


def decompose_antisymmetric(p: FourVector, values) -> Dict[str, complex]:
    """Fit a eps + v (gg) + f (ppg) to the (4, 4, 4, 4) values at momentum
    p; returns {"a", "v", "f"}.  Positivity at space-like p forces all three
    to vanish, i.e. the full correlation is zero.  p = 0 is refused."""
    G = _checked(p, values, (4, 4, 4, 4))
    eps, v_term, f_term = _antisym_basis(p.as_array())
    coeffs = _lstsq([eps, v_term, f_term], G, real_params=False)
    return {"a": complex(coeffs[0]), "v": complex(coeffs[1]),
            "f": complex(coeffs[2])}


# ---------------------------------------------------------------------------
# noiseless projectors


_G_DIAG = np.diag(METRIC)


def _momentum_stack(p, stack_shape: Tuple[int, ...]) -> np.ndarray:
    """p as a float (..., 4) array whose stack broadcasts against stack_shape."""
    pa = p.as_array() if isinstance(p, FourVector) else np.asarray(p, dtype=float)
    if pa.shape[-1:] != (4,):
        raise BoxQFTError(f"p must be a FourVector or a (..., 4) array, "
                          f"not shape {pa.shape}")
    try:
        np.broadcast_shapes(pa.shape[:-1], stack_shape)
    except ValueError:
        raise BoxQFTError(f"p stack {pa.shape[:-1]} does not broadcast against "
                          f"the input stack {stack_shape}") from None
    return pa


def project_noiseless_vector(A: np.ndarray, p) -> np.ndarray:
    """A~^m = (p.p) A^m - p^m (p.A); p.A~ = 0 identically.

    A has shape (..., 4), a stack of vectors.  p is a FourVector or a
    (..., 4) array of momenta that broadcasts against the stack; the result
    has the broadcast stack shape, (4,) for one A and one FourVector.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[-1:] != (4,):
        raise BoxQFTError(f"vector must have shape (..., 4), not {A.shape}")
    pa = _momentum_stack(p, A.shape[:-1])
    p_low = pa * _G_DIAG
    s = np.sum(p_low * pa, axis=-1)[..., None]
    p_dot_A = np.sum(p_low * A, axis=-1)[..., None]
    return s * A - pa * p_dot_A


def project_noiseless_tensor(B: np.ndarray, p) -> np.ndarray:
    """Project a conserved symmetric tensor onto the noiseless subspace:

        B~ = (p.p) B - (g(p.p) - pp) trB/3

    is traceless identically and transverse on conserved (transverse) B.

    B has shape (..., 4, 4), a stack of tensors.  p is a FourVector or a
    (..., 4) array of momenta that broadcasts against the stack; the result
    has the broadcast stack shape, (4, 4) for one B and one FourVector.
    """
    B = np.asarray(B, dtype=complex)
    if B.shape[-2:] != (4, 4):
        raise BoxQFTError(f"tensor must have shape (..., 4, 4), not {B.shape}")
    pa = _momentum_stack(p, B.shape[:-2])
    p_low = pa * _G_DIAG
    s = np.sum(p_low * pa, axis=-1)[..., None, None]
    trB = np.einsum("...mm,m->...", B, _G_DIAG)[..., None, None]
    pp = pa[..., :, None] * pa[..., None, :]
    return s * B - (METRIC * s - pp) * trB / 3.0


@dataclass(frozen=True)
class NoiselessComponents:
    vector_indices: Tuple[int, ...]
    tensor_combinations: Tuple[Tuple[Tuple[float, Tuple[int, int]], ...], ...]


def noiseless_components(p: FourVector) -> NoiselessComponents:
    """Noiseless observables in the canonical frame p = (0,0,0,p3).

    Vector: the components A^0, A^1, A^2.  Symmetric tensor: B12, B01, B02,
    B11 - B22 and B00 + B11.
    """
    if abs(p.t) > 1e-12 or abs(p.x) > 1e-12 or abs(p.y) > 1e-12 or p.z == 0.0:
        raise RequiresCanonicalFrame("boost p to the form (0,0,0,q) first")
    combos = (
        ((1.0, (1, 2)),),
        ((1.0, (0, 1)),),
        ((1.0, (0, 2)),),
        ((1.0, (1, 1)), (-1.0, (2, 2))),
        ((1.0, (0, 0)), (1.0, (1, 1))),
    )
    return NoiselessComponents(vector_indices=(0, 1, 2),
                               tensor_combinations=combos)


# ---------------------------------------------------------------------------
# canonical frame helpers


def canonical_boost(p: FourVector) -> Tuple[np.ndarray, FourVector]:
    """Boost matrix along axis 3 sending p = (p0,0,0,p3), space-like, to the
    canonical frame (0,0,0,q)."""
    if abs(p.x) > 1e-12 or abs(p.y) > 1e-12:
        raise RequiresCanonicalFrame(
            "canonical boosts are implemented for p = (p0, 0, 0, p3)")
    if classify_interval(p) is not IntervalClass.SPACELIKE:
        raise RequiresCanonicalFrame("canonical frame exists for space-like p only")
    chi = math.atanh(p.t / p.z)
    return boost_matrix(chi, 3), boost(p, chi, 3)


def boost_tensor(values: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Apply Lambda to every contravariant index."""
    v = np.asarray(values, dtype=complex)
    if v.shape == (4, 4):
        return np.einsum("am,bn,mn->ab", lam, lam, v)
    if v.shape == (4, 4, 4, 4):
        return np.einsum("am,bn,cs,dr,mnsr->abcd", lam, lam, lam, lam, v)
    raise BoxQFTError("unsupported tensor shape")
