"""The Klein upper half-plane model.

Points are complex numbers with positive imaginary part, the metric is
ds^2 = (R/Im w)^2 |dw|^2, geodesics are vertical half-lines and half-circles
orthogonal to the real axis, and determinant-one matrices act by fractional
linear (Mobius) maps.  A fractional linear change of coordinates identifies
the model with the disk of radius R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

VERTICAL_RTOL = 1e-12  # geodesic classification threshold on |Re w1 - Re w2|


def _coord(w) -> complex:
    return w.w if isinstance(w, HalfPlanePoint) else complex(w)


def as_points(w):
    """w as a complex number, or as a complex array for array or sequence input."""
    if isinstance(w, (np.ndarray, list, tuple)):
        return np.asarray(w, dtype=complex)
    return _coord(w)


def require_upper(w, name: str = "w"):
    """Return w as a complex number, or an array of them, insisting on Im(w) > 0."""
    w = as_points(w)
    if isinstance(w, np.ndarray):
        outside = w[~(w.imag > 0)]
        bad = complex(outside[0]) if outside.size else None
    else:
        bad = None if w.imag > 0 else w
    if bad is not None:
        raise DomainError(f"{name} must lie in the open upper half-plane, got {bad!r}")
    return w


def require_radius(R: float) -> float:
    R = float(R)
    if not (R > 0 and math.isfinite(R)):
        raise DomainError(f"curvature radius must be a positive real, got {R!r}")
    return R


@dataclass(frozen=True)
class HalfPlanePoint:
    """A validated configuration-space point: complex w with Im(w) > 0."""

    w: complex

    def __post_init__(self):
        if not complex(self.w).imag > 0:
            raise DomainError(f"point must satisfy Im(w) > 0, got {self.w!r}")


@dataclass(frozen=True)
class GeodesicArc:
    """A complete geodesic: a vertical line x = x0 or a half-circle.

    Circle centers sit on the real axis, which is exactly orthogonality to
    the boundary y = 0.
    """

    kind: str  # "vertical" | "circle"
    x0: float = 0.0
    center: float = 0.0
    radius: float = 0.0

    def point_defect(self, w) -> float:
        """Distance-like measure of how far w is from lying on the arc."""
        w = _coord(w)
        if self.kind == "vertical":
            return abs(w.real - self.x0)
        return abs(abs(w - self.center) - self.radius)


def conformal_factor(w, R: float) -> float:
    """Conformal factor of the metric at w, the positive real R^2 / Im(w)^2."""
    w = require_upper(w)
    R = require_radius(R)
    return (R / w.imag) ** 2


def hyperbolic_distance(w1, w2, R: float) -> float:
    """Geodesic distance 2R arcsinh(|w1 - w2| / (2 sqrt(Im w1) sqrt(Im w2))).

    This is R arccosh(1 + |w1 - w2|^2 / (2 Im(w1) Im(w2))), accurate to rounding at
    every distance and height.  Symmetric, zero exactly at coincident points,
    and invariant under the Mobius action of determinant-one matrices.
    """
    w1 = require_upper(w1, "w1")
    w2 = require_upper(w2, "w2")
    R = require_radius(R)
    return 2.0 * R * math.asinh(abs(w1 - w2) / (2.0 * math.sqrt(w1.imag) * math.sqrt(w2.imag)))


def geodesic_residual(w, wdot: complex, wddot: complex) -> complex:
    """Defect wddot - 2*wdot^2/(w - conj(w)) of the geodesic equation.

    Vanishes exactly on affinely parametrized geodesics.
    """
    w = require_upper(w)
    return complex(wddot) - 2.0 * complex(wdot) ** 2 / (w - w.conjugate())


def apply_mobius(A, w):
    """Image (a*w + b)/(c*w + d) of w under the fractional linear map of A.

    A is any unimodular element with fields a, b, c, d.  The image stays in
    the upper half-plane and A, -A act identically.  Arrays of points (and
    of entries) broadcast; a scalar point gives a complex number.
    """
    w = require_upper(w)
    den = A.c * w + A.d
    # real entries with ad - bc = 1 cannot annihilate c*w + d for Im(w) > 0
    assert np.all(den != 0)
    return (A.a * w + A.b) / den


def mobius_derivative(A, w):
    """Complex derivative 1/(c*w + d)^2 of the fractional linear map of A."""
    w = require_upper(w)
    den = A.c * w + A.d
    assert np.all(den != 0)
    return 1.0 / (den * den)


def to_disk(w, R: float) -> complex:
    """Isometry onto the disk of radius R: z = (-R*w + i*R^2)/(w + i*R)."""
    w = require_upper(w)
    R = require_radius(R)
    return (-R * w + 1j * R * R) / (w + 1j * R)


def from_disk(z: complex, R: float) -> complex:
    """Inverse of to_disk; defined for |z| < R, lands in the half-plane."""
    z = complex(z)
    R = require_radius(R)
    if not abs(z) < R:
        raise DomainError(f"disk coordinate must satisfy |z| < R, got {z!r}")
    return 1j * R * (R - z) / (R + z)


def geodesic_through(w1, w2) -> GeodesicArc:
    """The unique geodesic through two distinct points.

    Equal real parts (within VERTICAL_RTOL relative) give the vertical line;
    otherwise the half-circle whose real-axis center is equidistant from
    both points.
    """
    w1 = require_upper(w1, "w1")
    w2 = require_upper(w2, "w2")
    scale = max(1.0, abs(w1), abs(w2))
    if w1 == w2:
        raise DomainError("coincident points do not determine a geodesic")
    if abs(w1.real - w2.real) < VERTICAL_RTOL * scale:
        return GeodesicArc("vertical", x0=w1.real)
    c = (abs(w1) ** 2 - abs(w2) ** 2) / (2.0 * (w1.real - w2.real))
    return GeodesicArc("circle", center=c, radius=abs(w1 - c))
