"""Clifford algebras Cl(sigma), unimodular 2x2 matrices and their subgroups.

The three algebras share the basis {1, e0, e1, e0e1} and differ only in the
square of e1 (sigma = -1, 0, +1, selecting elliptic, parabolic or hyperbolic
geometry).  Unimodular matrices carry the Mobius action on the half-plane;
here live their ANK (Iwasawa) factorization, the exponentials of the three
generator lines, the five Killing vector fields they induce, and the
trace/determinant classifier of one-parameter subgroups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import as_points

_DET_TOL = 1e-12

SIGMAS = (-1, 0, 1)


def _check_sigma(sigma: int) -> int:
    if sigma not in SIGMAS:
        raise DomainError(f"sigma must be one of {SIGMAS}, got {sigma!r}")
    return sigma


@dataclass(frozen=True)
class CliffordNumber:
    """Element c1*1 + c_e0*e0 + c_e1*e1 + c_e01*e0e1 of Cl(sigma).

    The product obeys e0^2 = -1, e1^2 = sigma and e0e1 = -e1e0.
    """

    c1: float
    c_e0: float
    c_e1: float
    c_e01: float
    sigma: int

    def __post_init__(self):
        _check_sigma(self.sigma)

    @classmethod
    def basis(cls, sigma: int):
        """The four basis elements (1, e0, e1, e0e1) of Cl(sigma)."""
        return (
            cls(1.0, 0.0, 0.0, 0.0, sigma),
            cls(0.0, 1.0, 0.0, 0.0, sigma),
            cls(0.0, 0.0, 1.0, 0.0, sigma),
            cls(0.0, 0.0, 0.0, 1.0, sigma),
        )

    @classmethod
    def scalar(cls, value: float, sigma: int):
        return cls(float(value), 0.0, 0.0, 0.0, sigma)

    def __add__(self, other: "CliffordNumber") -> "CliffordNumber":
        if self.sigma != other.sigma:
            raise DomainError("cannot add elements of different Cl(sigma)")
        return CliffordNumber(
            self.c1 + other.c1,
            self.c_e0 + other.c_e0,
            self.c_e1 + other.c_e1,
            self.c_e01 + other.c_e01,
            self.sigma,
        )

    def __neg__(self) -> "CliffordNumber":
        return CliffordNumber(-self.c1, -self.c_e0, -self.c_e1, -self.c_e01, self.sigma)

    def __sub__(self, other: "CliffordNumber") -> "CliffordNumber":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CliffordNumber):
            return clifford_mul(self, other)
        return CliffordNumber(
            self.c1 * other, self.c_e0 * other, self.c_e1 * other, self.c_e01 * other, self.sigma
        )

    __rmul__ = __mul__

    def coeffs(self):
        return (self.c1, self.c_e0, self.c_e1, self.c_e01)

    def norm(self) -> float:
        return max(abs(c) for c in self.coeffs())


def clifford_mul(x: CliffordNumber, y: CliffordNumber) -> CliffordNumber:
    """Product in Cl(sigma); bilinear, associative, with e0e1 = -e1e0."""
    if x.sigma != y.sigma:
        raise DomainError("cannot multiply elements of different Cl(sigma)")
    s = float(x.sigma)
    a1, a0, ae, ab = x.coeffs()
    b1, b0, be, bb = y.coeffs()
    return CliffordNumber(
        a1 * b1 - a0 * b0 + s * (ae * be + ab * bb),
        a1 * b0 + a0 * b1 + s * (ab * be - ae * bb),
        a1 * be + ae * b1 - a0 * bb + ab * b0,
        a1 * bb + ab * b1 + a0 * be - ae * b0,
        x.sigma,
    )


@dataclass(frozen=True)
class MobiusElement:
    """Real 2x2 matrix [[a, b], [c, d]] with ad - bc = 1.

    Acts on the half-plane through w -> (aw + b)/(cw + d); the element and
    its negative act identically.  Entries may also be equally shaped
    arrays, one element per index (exp_subgroup over an array of times).
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        squares = (self.a * self.a, self.b * self.b, self.c * self.c, self.d * self.d)
        scale = np.maximum(1.0, np.max(squares, axis=0))
        ok = abs(det - 1.0) <= _DET_TOL * scale
        if not np.all(ok):  # name the first failing determinant of an array element
            raise DomainError(f"matrix must be unimodular, det = {float(np.extract(~ok, det)[0])!r}")

    @classmethod
    def identity(cls) -> "MobiusElement":
        return cls(1.0, 0.0, 0.0, 1.0)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "MobiusElement") -> "MobiusElement":
        return MobiusElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusElement":
        return MobiusElement(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "MobiusElement":
        return MobiusElement(-self.a, -self.b, -self.c, -self.d)

    def clifford_view(self, sigma: int):
        """The 2x2 representation [[a, b*e0], [-c*e0, d]] over Cl(sigma)."""
        one, e0, _, _ = CliffordNumber.basis(sigma)
        return (
            (self.a * one, self.b * e0),
            ((-self.c) * e0, self.d * one),
        )


def random_unimodular(rng, spread: float = 1.0) -> MobiusElement:
    """Draw a determinant-one matrix by sampling ANK factors."""
    alpha = math.exp(spread * rng.standard_normal())
    nu = spread * rng.standard_normal()
    phi = rng.uniform(-math.pi / 2, math.pi / 2)
    return iwasawa_reconstruct(IwasawaFactors(alpha, nu, phi))


# ---------------------------------------------------------------------------
# Iwasawa ANK factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IwasawaFactors:
    """ANK factors of a unimodular matrix.

    ``alpha`` scales the diagonal factor diag(alpha, 1/alpha), ``nu`` is the
    shear of the unipotent factor and ``phi`` the rotation angle, kept in
    (-pi/2, pi/2].  ``sign`` records which representative of {A, -A} the
    factors rebuild: iwasawa_reconstruct(f) == sign * A.
    """

    alpha: float
    nu: float
    phi: float
    sign: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha!r}")
        if not (-math.pi / 2 < self.phi <= math.pi / 2):
            raise DomainError(f"phi must lie in (-pi/2, pi/2], got {self.phi!r}")


def iwasawa_decompose(A: MobiusElement) -> IwasawaFactors:
    """Factor A (up to the projective sign) as diag * shear * rotation.

    alpha = 1/sqrt(c^2 + d^2), nu = ac + bd, phi = -arctan(c/d); the angle is
    extracted with a two-argument arctangent so the d = 0 column falls on the
    phi = pi/2 branch, and the sign needed to fold phi into (-pi/2, pi/2] is
    reported in the ``sign`` field.
    """
    a, b, c, d = A.entries()
    sign = 1.0
    phi = math.atan2(-c, d)
    if not (-math.pi / 2 < phi <= math.pi / 2):
        a, b, c, d = -a, -b, -c, -d
        phi = math.atan2(-c, d)
        sign = -1.0
    alpha = 1.0 / math.hypot(c, d)
    nu = a * c + b * d
    return IwasawaFactors(alpha, nu, phi, sign)


def iwasawa_reconstruct(f: IwasawaFactors) -> MobiusElement:
    """Multiply the ANK factors back into a unimodular matrix."""
    cp, sp = math.cos(f.phi), math.sin(f.phi)
    return MobiusElement(
        f.alpha * (cp - f.nu * sp),
        f.alpha * (sp + f.nu * cp),
        -sp / f.alpha,
        cp / f.alpha,
    )


# ---------------------------------------------------------------------------
# One-parameter subgroups and Killing fields
# ---------------------------------------------------------------------------

NORMAL = "normal"
NILPOTENT = "nilpotent"
ROTATION = "rotation"

_KINDS = (NORMAL, NILPOTENT, ROTATION)


@dataclass(frozen=True)
class KillingField:
    """One of the five subgroup-generated vector fields on the half-plane.

    ``sigma`` selects the rotation flavour (-1 elliptic, 0 parabolic,
    +1 hyperbolic) and is ignored for the normal and nilpotent kinds.
    """

    kind: str
    sigma: int = -1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        _check_sigma(self.sigma)

    def describe(self) -> str:
        if self.kind == ROTATION:
            flavour = {-1: "elliptic", 0: "parabolic", 1: "hyperbolic"}[self.sigma]
            return f"rotation({flavour})"
        return self.kind

    @property
    def isometric(self) -> bool:
        """True when the flow acts on the half-plane by isometries."""
        return self.kind != ROTATION or self.sigma == -1


NORMAL_A = KillingField(NORMAL)
NILPOTENT_N = KillingField(NILPOTENT)
ROTATION_ELLIPTIC = KillingField(ROTATION, -1)
ROTATION_PARABOLIC = KillingField(ROTATION, 0)
ROTATION_HYPERBOLIC = KillingField(ROTATION, 1)


def exp_subgroup(field: KillingField, t) -> MobiusElement:
    """Group element at parameter t of the subgroup generating ``field``.

    normal -> diag(e^{t/2}, e^{-t/2}); nilpotent -> unit upper shear by t;
    rotation -> the rotation block [[cos t, sin t], [-sin t, cos t]].  An
    array of parameters gives one element per entry.  The parabolic and
    hyperbolic rotation flavours are no Mobius subgroup and raise DomainError;
    flows.flow moves points along them.
    """
    if not field.isometric:
        raise DomainError(
            f"{field.describe()} is not generated by a Mobius subgroup; flows.flow moves points along it"
        )
    t = np.asarray(t, dtype=float)[()]
    one, zero = np.ones_like(t)[()], np.zeros_like(t)[()]
    if field.kind == NORMAL:
        return MobiusElement(np.exp(t / 2), zero, zero, np.exp(-t / 2))
    if field.kind == NILPOTENT:
        return MobiusElement(one, t, zero, one)
    return MobiusElement(np.cos(t), np.sin(t), -np.sin(t), np.cos(t))


def killing_velocity(field: KillingField, w: complex) -> complex:
    """Value of the vector field at w.

    normal: w.  nilpotent: 1.  rotation: 1 + w^2 corrected by the flavour
    term -(w - conj(w))^2 / 4 (parabolic) or / 2 (hyperbolic); the elliptic
    flavour needs no correction.  An array of points gives an array.
    """
    w = as_points(w)
    if field.kind == NORMAL:
        return w
    if field.kind == NILPOTENT:
        return np.ones_like(w) if isinstance(w, np.ndarray) else 1.0 + 0.0j
    base = 1.0 + w * w
    if field.sigma == -1:
        return base
    d2 = (w - w.conjugate()) ** 2
    if field.sigma == 0:
        return base - d2 / 4.0
    return base - d2 / 2.0


def killing_wirtinger(field: KillingField, w: complex):
    """Wirtinger derivatives (dK/dw, dK/dwbar) of the field at w.

    An array of points gives arrays where the derivatives vary and
    constants where they do not.
    """
    w = as_points(w)
    if field.kind == NORMAL:
        return 1.0 + 0.0j, 0.0j
    if field.kind == NILPOTENT:
        return 0.0j, 0.0j
    if field.sigma == -1:
        return 2.0 * w, 0.0j
    d = w - w.conjugate()
    if field.sigma == 0:
        return 2.0 * w - d / 2.0, d / 2.0
    return 2.0 * w - d, d


A_CONJUGATE = "A"
N_CONJUGATE = "N"
K_CONJUGATE = "K"


def classify_subgroup(X) -> str:
    """Conjugacy class of the one-parameter subgroup generated by X.

    X must be a nonzero traceless 2x2 real matrix (nested sequence).  The
    class is decided by the determinant: negative -> "A", zero -> "N",
    positive -> "K", with a relative tolerance of 1e-12 * ||X||^2 around
    zero.
    """
    (a, b), (c, d) = [[float(v) for v in row] for row in X]
    norm2 = a * a + b * b + c * c + d * d
    if norm2 == 0.0:
        raise DomainError("cannot classify the zero matrix")
    if abs(a + d) > 1e-9 * math.sqrt(norm2):
        raise DomainError(f"matrix must be traceless, trace = {a + d!r}")
    det = a * d - b * c
    tol = 1e-12 * norm2
    if det < -tol:
        return A_CONJUGATE
    if det > tol:
        return K_CONJUGATE
    return N_CONJUGATE
