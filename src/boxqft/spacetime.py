"""Minkowski geometry and points on the closed-time-path contour.

Conventions: natural units (c = hbar = kB = 1), metric signature (+,-,-,-),
four-vectors stored with all four components even when the spatial dimension
D < 3 (unused entries stay 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BoxQFTError

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

#: relative width of the light-like band of interval classification
EPS_CLS = 1e-12


@dataclass(frozen=True)
class FourVector:
    t: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "FourVector":
        a = np.asarray(a, dtype=float)
        return FourVector(a[0], a[1], a[2], a[3])

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t + other.t, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t - other.t, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "FourVector":
        return FourVector(-self.t, -self.x, -self.y, -self.z)

    def __mul__(self, c: float) -> "FourVector":
        return FourVector(c * self.t, c * self.x, c * self.y, c * self.z)

    __rmul__ = __mul__

    def norm_sq_euclidean(self) -> float:
        return self.t ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2


class IntervalClass(Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"


def minkowski_dot(a: FourVector, b: FourVector) -> float:
    """a.b = a0*b0 - a1*b1 - a2*b2 - a3*b3."""
    return a.t * b.t - a.x * b.x - a.y * b.y - a.z * b.z


def classify_interval(p: FourVector) -> IntervalClass:
    """Classify p.p against a light-like band of relative width EPS_CLS.

    The band makes floating-point classification deterministic: p is
    light-like whenever |p.p| <= EPS_CLS * ||p||^2 (Euclidean norm).
    """
    s = minkowski_dot(p, p)
    band = EPS_CLS * p.norm_sq_euclidean()
    if s > band:
        return IntervalClass.TIMELIKE
    if s < -band:
        return IntervalClass.SPACELIKE
    return IntervalClass.LIGHTLIKE


def boost_matrix(rapidity: float, axis: int) -> np.ndarray:
    """Hyperbolic rotation mixing components 0 and axis (1, 2 or 3)."""
    if axis not in (1, 2, 3):
        raise BoxQFTError(f"boost axis must be 1, 2 or 3, got {axis}")
    c, s = math.cosh(rapidity), math.sinh(rapidity)
    lam = np.eye(4)
    lam[0, 0] = c
    lam[axis, axis] = c
    lam[0, axis] = -s
    lam[axis, 0] = -s
    return lam


def boost(p: FourVector, rapidity: float, axis: int) -> FourVector:
    return FourVector.from_array(boost_matrix(rapidity, axis) @ p.as_array())


# ---------------------------------------------------------------------------
# closed time path


@dataclass(frozen=True)
class CTPTime:
    """A point on the contour: (complex) time and parameter s.

    s increases strictly along the contour, so CTPTime values are totally
    ordered by s.
    """
    t: complex
    s: float

    def __lt__(self, other: "CTPTime") -> bool:
        return self.s < other.s


def ctp_time(branch: int, t: float) -> CTPTime:
    """Place a real time t on branch 0, the forward (+i*eps) branch, or 1,
    the backward (-i*eps) one, of the closed time path.  On the forward
    branch the real time grows with the contour parameter s, on the backward
    branch it shrinks.  The final vertical segment of length beta is left
    out: every free-theory formula used downstream is in closed form in
    beta."""
    if branch not in (0, 1):
        raise BoxQFTError(f"branch must be 0 (forward) or 1 (backward), "
                          f"not {branch!r}")
    direction = 1 if branch == 0 else -1
    # squash direction*t into [0,1) so s = branch + fraction is a global
    # strictly increasing parameter along the whole contour
    frac = (math.atan(direction * float(np.real(t))) + math.pi / 2) / math.pi
    return CTPTime(t=complex(t), s=branch + frac)
