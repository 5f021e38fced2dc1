import math

import numpy as np
import pytest

from boxqft.errors import BoxQFTError
from boxqft.spacetime import (FourVector, IntervalClass, boost,
                              boost_matrix, classify_interval, ctp_time,
                              minkowski_dot)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_four_vector_refuses_components_that_are_not_finite(bad):
    # a nan p0 selected no Lehmann line, so the sample read G = 0 with no
    # contributing pair: the paper's structural zero for an input that is
    # not a number
    for i in range(4):
        components = [0.5, 0.0, 0.0, 1.0]
        components[i] = bad
        with pytest.raises(BoxQFTError, match="finite"):
            FourVector(*components)
        with pytest.raises(BoxQFTError, match="finite"):
            FourVector.from_array(components)


def test_minkowski_dot_signature():
    t = FourVector(1, 0, 0, 0)
    assert minkowski_dot(t, t) == 1.0
    q = 1.7
    z = FourVector(0, 0, 0, q)
    assert minkowski_dot(z, z) == -q * q
    m, k = 0.8, 1.3
    p = FourVector(math.hypot(m, k), 0, 0, k)
    assert abs(minkowski_dot(p, p) - m * m) < 1e-14


def test_dot_symmetric_bilinear():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = FourVector(*rng.normal(size=4))
        b = FourVector(*rng.normal(size=4))
        c = FourVector(*rng.normal(size=4))
        assert abs(minkowski_dot(a, b) - minkowski_dot(b, a)) < 1e-14
        lhs = minkowski_dot(a, b + 2.0 * c)
        rhs = minkowski_dot(a, b) + 2.0 * minkowski_dot(a, c)
        assert abs(lhs - rhs) < 1e-12


def test_classification():
    k3 = 0.9
    assert classify_interval(FourVector(0, 0, 0, 2 * k3)) is IntervalClass.SPACELIKE
    assert classify_interval(FourVector(2.0, 0, 0, 2.0)) is IntervalClass.LIGHTLIKE
    assert classify_interval(FourVector(1.5, 0, 0, 0)) is IntervalClass.TIMELIKE
    # p and -p agree
    p = FourVector(0.3, 0.1, -0.2, 1.4)
    assert classify_interval(p) is classify_interval(-p)


def test_classification_band_is_deterministic():
    # |p.p| within EPS_CLS * ||p||^2 is light-like; just outside it is not
    assert classify_interval(FourVector(1.0, 0, 0, 1.0 + 1e-15)) \
        is IntervalClass.LIGHTLIKE
    assert classify_interval(FourVector(1.0, 0, 0, 1.0 + 1e-11)) \
        is IntervalClass.SPACELIKE


def test_boost_identity_and_metric_preservation():
    p = FourVector(1, 0, 0, 0)
    assert boost(p, 0.0, 3) == p
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        p = FourVector(*rng.normal(size=4))
        q = FourVector(*rng.normal(size=4))
        chi = rng.uniform(-2, 2)
        axis = int(rng.integers(1, 4))
        d0 = minkowski_dot(p, q)
        d1 = minkowski_dot(boost(p, chi, axis), boost(q, chi, axis))
        worst = max(worst, abs(d1 - d0) / max(1.0, abs(d0)))
    assert worst < 1e-12


def test_boost_invariant_interval():
    for chi in (-1.5, -0.3, 0.0, 0.7, 2.0):
        b = boost(FourVector(0, 0, 0, 1), chi, 3)
        assert abs(minkowski_dot(b, b) + 1.0) < 1e-12


def test_classification_boost_invariant():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = FourVector(*rng.normal(size=4))
        if classify_interval(p) is IntervalClass.LIGHTLIKE:
            continue
        cls = classify_interval(p)
        chi = rng.uniform(-1.5, 1.5)
        axis = int(rng.integers(1, 4))
        assert classify_interval(boost(p, chi, axis)) is cls


def test_boost_matrix_rejects_bad_axis():
    with pytest.raises(BoxQFTError):
        boost_matrix(0.5, 0)


def test_contour_two_branch():
    # forward-branch point precedes backward-branch point at equal real time
    x = ctp_time(0, 1.3)
    y = ctp_time(1, 1.3)
    assert x < y and not y < x
    # t = 0 sits mid-branch
    assert ctp_time(0, 0.0).s == 0.5 and ctp_time(1, 0.0).s == 1.5
    for branch in (-1, 2):
        with pytest.raises(BoxQFTError):
            ctp_time(branch, 0.0)


def test_contour_s_total_order():
    pts = [ctp_time(b, t) for b in (0, 1) for t in (-2.0, -0.5, 0.0, 0.9, 3.1)]
    svals = [p.s for p in pts]
    assert len(set(svals)) == len(svals)
    # forward branch: s grows with t; backward: s shrinks with t
    assert ctp_time(0, 0.1).s < ctp_time(0, 0.2).s
    assert ctp_time(1, 0.1).s > ctp_time(1, 0.2).s
