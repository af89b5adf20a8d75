"""Toric root computations for the cyclic quotient surfaces.

The surface x^2 + y^2 + z^g carries a torus action whose weight cone is
spanned by (0, 1) and (g, -1) in the character lattice; its coordinate
ring is k[u, v, z] / (u*v - z^g) with u = i*x - y and v = i*x + y. The
homogeneous locally nilpotent derivations correspond to lattice roots
attached to one of the two extremal rays, and this module computes
those root sets in closed form, materializes individual roots, and
turns a root into the matching derivation in both coordinate systems.

Also here: the coarse case of a surface x^a + y^b + z^c by its exponent
pattern, and the two classes of x^2 + y^2 + z^g in closed form, against
which scripts/surface_families.py checks the roots and the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Tuple

from .derivation import Derivation
from .gaussian import I, InputError, InternalError, InvalidArgument, ONE, gq
from .poly import Poly, _joined, _monomial_text, tvar
from .presentation import TrinomialPresentation, _ext_gcd, surface


# x, y, z: the generators T0_1, T1_1, T2_1 of a surface presentation
_XYZ = tuple(Poly.generator(tvar(i, 1)) for i in range(3))


class RootOutOfRange(InputError):
    """Asked to materialize a family member with an index below 1."""


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1]


@dataclass(frozen=True)
class Cone2D:
    """A two-dimensional lattice cone given by primitive ray generators."""

    ray1: Tuple[int, int]
    ray2: Tuple[int, int]

    def __post_init__(self):
        for ray in (self.ray1, self.ray2):
            if len(ray) != 2 or not all(isinstance(c, int) for c in ray):
                raise InvalidArgument(f"ray {ray!r} must be a pair of integers")
            if ray == (0, 0):
                raise InvalidArgument("zero vector cannot generate a ray")
            if gcd(abs(ray[0]), abs(ray[1])) != 1:
                raise InvalidArgument(f"ray generator {ray} is not primitive")
        det = self.ray1[0] * self.ray2[1] - self.ray1[1] * self.ray2[0]
        if det == 0:
            raise InvalidArgument("ray generators are proportional, the cone is not full")

    def ray(self, index: int) -> Tuple[int, int]:
        if index == 1:
            return self.ray1
        if index == 2:
            return self.ray2
        raise ValueError(f"ray index must be 1 or 2, got {index!r}")

    def normal_to(self, index: int) -> Tuple[int, int]:
        """Primitive functional vanishing on the chosen ray, positive on the other."""
        v = self.ray(index)
        other = self.ray(2 if index == 1 else 1)
        n = (-v[1], v[0])
        pairing = _dot(n, other)
        if pairing < 0:
            n = (v[1], -v[0])
        return n


@dataclass(frozen=True)
class RootFamily:
    """All roots attached to one ray: base + p * step for integers p >= 1."""

    cone: Cone2D
    ray_index: int
    base: Tuple[int, int]
    step: Tuple[int, int]
    normal: Tuple[int, int]
    other_normal: Tuple[int, int]

    def root(self, p: int) -> Tuple[int, int]:
        if not isinstance(p, int) or p < 1:
            raise RootOutOfRange(f"family members are indexed by integers p >= 1, got {p!r}")
        return (self.base[0] + p * self.step[0], self.base[1] + p * self.step[1])

    def contains(self, e) -> bool:
        e = tuple(e)
        return (
            _dot(self.normal, e) == -1
            and _dot(self.other_normal, e) >= 0
        )

    def closed_form(self) -> str:
        return f"({_linear(self.step[0], self.base[0])}, {_linear(self.step[1], self.base[1])}) for p >= 1"

    def to_dict(self):
        return {
            "ray": self.ray_index,
            "base": list(self.base),
            "step": list(self.step),
            "closed_form": self.closed_form(),
        }


def _linear(coeff: int, const: int) -> str:
    """Pretty form of coeff*p + const."""
    if coeff == 0:
        return str(const)
    if coeff == 1:
        head = "p"
    elif coeff == -1:
        head = "-p"
    else:
        head = f"{coeff}p"
    if const == 0:
        return head
    return f"{head}{const:+d}"


def demazure_roots(cone: Cone2D, ray_index: int) -> RootFamily:
    """The lattice vectors pairing to -1 with the chosen ray's functional
    and nonnegatively with the other one, as a one-parameter family.

    The family is anchored so that its members are exactly base + p*step
    for p >= 1, with step the chosen ray generator.
    """
    n = cone.normal_to(ray_index)
    n_other = cone.normal_to(2 if ray_index == 1 else 1)
    step = cone.ray(ray_index)
    g, x, y = _ext_gcd(n[0], n[1])
    e0 = (-x * g, -y * g)
    if abs(g) != 1 or _dot(n, e0) != -1:
        raise InternalError(f"normal {n} is not primitive")
    # shift e0 along the ray until the second condition holds;
    # ceil(-offset / slope) is -(offset // slope) for positive slope
    slope = _dot(n_other, step)
    if slope <= 0:
        raise InternalError(f"ray {step} does not point into the other half-plane")
    offset = _dot(n_other, e0)
    t_min = -(offset // slope)
    base = (e0[0] + (t_min - 1) * step[0], e0[1] + (t_min - 1) * step[1])
    fam = RootFamily(
        cone=cone,
        ray_index=ray_index,
        base=base,
        step=step,
        normal=n,
        other_normal=n_other,
    )
    if not fam.contains(fam.root(1)) or fam.contains(base):
        raise InternalError(f"root family anchored at {base} is off by a step")
    return fam


# -- the quotient surface in toric coordinates ------------------------------


def gamma_cone(gamma: int) -> Cone2D:
    """Weight cone of the surface x^2 + y^2 + z^gamma."""
    if not isinstance(gamma, int) or gamma < 1:
        raise ValueError("the exponent must be a positive integer")
    return Cone2D(ray1=(0, 1), ray2=(gamma, -1))


def _uvz_weights(gamma: int):
    return {"u": (gamma, -1), "v": (0, 1), "z": (1, 0)}


def _character_in_uvz(gamma: int, point) -> Tuple[int, int, int]:
    """Exponents (a, b, c) with u^a * v^b * z^c = chi^point."""
    a = max(0, -point[1])
    b = point[1] + a
    c = point[0] - gamma * a
    if b < 0 or c < 0:
        raise ValueError(f"{point} is outside the weight monoid")
    return (a, b, c)


def _format_uvz(coeff: int, exps) -> str:
    """coeff * u^a * v^b * z^c for exps (a, b, c), in the text of poly_format."""
    term = _monomial_text((name, e) for name, e in zip("uvz", exps) if e)
    return _joined([(gq(coeff), term)] if coeff else [])


@dataclass(frozen=True)
class ToricDerivation:
    gamma: int
    ray_index: int
    p: int
    root: Tuple[int, int]
    uv_images: dict
    xyz: Derivation


def toric_derivation(gamma: int, ray_index: int, p: int) -> ToricDerivation:
    """The derivation attached to the p-th root on the chosen ray.

    In toric coordinates it sends chi^m to <n, m> chi^(m + e) where n is
    the ray's functional and e the root. The xyz form rewrites it on the
    presentation x^2 + y^2 + z^gamma through u = i*x - y, v = i*x + y,
    scaled by (-2)^p on ray 1 and 2^p on ray 2 so that the output equals
    the closed-form power family built on the base derivation.
    """
    cone = gamma_cone(gamma)
    fam = demazure_roots(cone, ray_index)
    e = fam.root(p)
    n = fam.normal
    weights = _uvz_weights(gamma)
    uv_images = {}
    uv_data = {}
    for name in ("u", "v", "z"):
        m = weights[name]
        coeff = _dot(n, m)
        if coeff == 0:
            uv_images[name] = "0"
            uv_data[name] = None
            continue
        target = (m[0] + e[0], m[1] + e[1])
        exps = _character_in_uvz(gamma, target)
        uv_images[name] = _format_uvz(coeff, exps)
        uv_data[name] = (coeff, exps)
    P = surface(2, 2, gamma)
    x, y, z = _XYZ
    u_poly = x * I - y
    v_poly = x * I + y
    def realize(data):
        if data is None:
            return Poly.zero()
        coeff, (a, b, c) = data
        return u_poly**a * v_poly**b * z**c * coeff
    du = realize(uv_data["u"])
    dv = realize(uv_data["v"])
    dz = realize(uv_data["z"])
    half = ONE / 2
    dx = (du + dv) * (half * -I)
    dy = (dv - du) * half
    scale = gq(-2) ** p if ray_index == 1 else gq(2) ** p
    images = {
        tvar(0, 1): dx * scale,
        tvar(1, 1): dy * scale,
        tvar(2, 1): dz * scale,
    }
    xyz = Derivation(P, images)
    return ToricDerivation(
        gamma=gamma,
        ray_index=ray_index,
        p=p,
        root=e,
        uv_images=uv_images,
        xyz=xyz,
    )


# -- the surfaces x^a + y^b + z^c -------------------------------------------


def surface_case(alpha: int, beta: int, gamma: int) -> str:
    """Coarse class of x^alpha + y^beta + z^gamma by exponent pattern.

    "A": some exponent is 1 (the surface is a plane);
    "B": exponents 2, 2, g with g > 2 up to order;
    "C": exponents 2, 2, 2;
    "rigid": everything else (no homogeneous locally nilpotent derivations).
    """
    exps = (alpha, beta, gamma)
    if any(e < 1 for e in exps):
        raise ValueError("exponents must be positive")
    if 1 in exps:
        return "A"
    ordered = tuple(sorted(exps))
    if ordered == (2, 2, 2):
        return "C"
    if ordered[:2] == (2, 2):
        return "B"
    return "rigid"


def _surface_delta(P: TrinomialPresentation, dx: Poly, dy: Poly, dz: Poly) -> Derivation:
    return Derivation(P, {tvar(0, 1): dx, tvar(1, 1): dy, tvar(2, 1): dz})


def case_b_pair(gamma: int):
    """The two derivation classes of x^2 + y^2 + z^gamma, gamma > 2.

    delta_0 kills i*x + y, delta_infinity kills i*x - y.
    """
    P = surface(2, 2, gamma)
    x, y, z = _XYZ
    zpow = z ** (gamma - 1)
    delta_0 = _surface_delta(
        P,
        zpow * (I * gamma),
        zpow * gamma,
        (x * I + y) * -2,
    )
    delta_inf = _surface_delta(
        P,
        zpow * (-I * gamma),
        zpow * gamma,
        (x * I - y) * 2,
    )
    return [("delta_0", delta_0), ("delta_infinity", delta_inf)]
