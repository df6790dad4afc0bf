"""Everything specific to the Sklyanin algebras S(a,b,c).

Covers parameter validity, the plane cubic E carrying the geometric data,
the translation automorphism sigma and its order, closed-form constructors
for the known two-dimensional solution families of S(1,1,c) (stable ids
``t1f1..t1f5``, ``t2f1..t2f6`` for the raw non-reducible families and
``t3f1``, ``t3f2``, ``t4f1..t4f4`` for the representative families),
the four central elements, central characters, and the affine 3-fold
cut out by the degree-6 center relation.

Family formulas containing a square root exist in two branches; both
branches satisfy the defining relations and the constructors expose the
choice via ``branch={"principal", "negated"}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freealg import NcPoly
from .matkit import DEFAULT_RTOL
from .reptheory import Presentation, Rep, central_values

__all__ = [
    "InvalidParametersError",
    "ConstraintError",
    "DenominatorError",
    "DegeneratePointError",
    "CurveSampleError",
    "SklyaninParams",
    "ProjPoint",
    "proj_equal",
    "presentation",
    "s11c_presentation",
    "validate_s11c",
    "curve_residual",
    "curve_sample",
    "sigma",
    "sigma_order",
    "RepFamily",
    "FAMILIES",
    "REPRESENTATIVE_IDS",
    "family_ids",
    "family",
    "CenterChar",
    "center_words",
    "central_character",
    "xc_gradient",
    "xc_slice",
]

VALIDITY_MARGIN = 1e-6


class InvalidParametersError(ValueError):
    """Parameters violate the defining inequalities (with numeric margin)."""


class ConstraintError(ValueError):
    """Family parameters violate the family's side conditions."""


class DenominatorError(ValueError):
    """A closed-form denominator vanished; carries the denominator label."""

    def __init__(self, label):
        super().__init__(f"denominator {label} vanishes")
        self.denominator = label


class DegeneratePointError(ValueError):
    """The translation formula maps this point to [0:0:0]."""


class CurveSampleError(RuntimeError):
    """Curve sampling failed repeatedly (degenerate cubic in every draw)."""


@dataclass(frozen=True)
class SklyaninParams:
    """Parameter triple (a, b, c); valid when abc != 0 and (3abc)^3 != (a^3+b^3+c^3)^3."""

    a: complex
    b: complex
    c: complex

    def validate(self, margin: float = VALIDITY_MARGIN):
        a, b, c = complex(self.a), complex(self.b), complex(self.c)
        if not np.isfinite([a, b, c]).all():
            raise InvalidParametersError("a, b and c must be finite")
        if abs(a * b * c) <= margin:
            raise InvalidParametersError(f"abc = {a * b * c} is too close to 0")
        lhs = (3 * a * b * c) ** 3
        rhs = (a ** 3 + b ** 3 + c ** 3) ** 3
        if abs(lhs - rhs) <= margin:
            raise InvalidParametersError(
                f"(3abc)^3 - (a^3+b^3+c^3)^3 = {lhs - rhs} is too close to 0"
            )
        return self


def validate_s11c(c, margin: float = VALIDITY_MARGIN) -> complex:
    """Validity of S(1,1,c): c, c^3 - 1 and c^3 + 8 all bounded away from 0."""
    c = complex(c)
    if not np.isfinite(c):
        raise InvalidParametersError("c must be finite")
    if abs(c) <= margin:
        raise InvalidParametersError("c is too close to 0")
    if abs(c ** 3 - 1.0) <= margin:
        raise InvalidParametersError("c^3 is too close to 1")
    if abs(c ** 3 + 8.0) <= margin:
        raise InvalidParametersError("c^3 is too close to -8")
    return c


def presentation(params: SklyaninParams) -> Presentation:
    """The three defining relations a*yz + b*zy + c*x^2 and their cyclic
    shifts, with (a, b, c) numerically bound."""
    params.validate()
    a, b, c = (complex(v) for v in (params.a, params.b, params.c))
    gens = ("x", "y", "z")
    return Presentation(gens, tuple(
        NcPoly(gens, terms={(j, k): a, (k, j): b, (i, i): c})
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ))


def s11c_presentation(c) -> Presentation:
    return presentation(SklyaninParams(1.0, 1.0, validate_s11c(c)))


# ---------------------------------------------------------------------------
# the curve E and the translation automorphism


@dataclass(frozen=True)
class ProjPoint:
    """Point of complex projective 2-space, stored with its largest-modulus
    coordinate scaled to 1 (so normalization is idempotent)."""

    u: complex
    v: complex
    w: complex

    @classmethod
    def of(cls, u, v, w):
        coords = np.array([u, v, w], dtype=complex)
        mods = np.abs(coords)
        top = int(np.argmax(mods))
        if mods[top] == 0.0:
            raise ValueError("projective point needs a nonzero coordinate")
        coords = coords / coords[top]
        return cls(*map(complex, coords))

    @property
    def coords(self):
        return np.array([self.u, self.v, self.w], dtype=complex)


def proj_equal(p: ProjPoint, q: ProjPoint, tol: float = DEFAULT_RTOL) -> bool:
    """Scale-invariant equality: all three 2x2 cross-determinants small."""
    m, n = p.coords, q.coords
    crosses = [
        m[0] * n[1] - m[1] * n[0],
        m[0] * n[2] - m[2] * n[0],
        m[1] * n[2] - m[2] * n[1],
    ]
    return max(abs(x) for x in crosses) <= tol * (
        np.linalg.norm(m) * np.linalg.norm(n)
    )


def _curve_value(params: SklyaninParams, coords):
    a, b, c = (complex(v) for v in (params.a, params.b, params.c))
    u, v, w = coords
    s = a ** 3 + b ** 3 + c ** 3
    p = a * b * c
    return s * (u * v * w) - p * (u ** 3 + v ** 3 + w ** 3)


def curve_residual(params: SklyaninParams, pt: ProjPoint) -> float:
    """|E(pt)| at the normalized point; small means pt lies on E."""
    return abs(_curve_value(params, pt.coords))


def curve_sample(params: SklyaninParams, seed=0, strict: bool = True) -> ProjPoint:
    """Deterministic random point on E: fix u = 1, draw v, solve the cubic in w.

    With ``strict`` the parameters must pass :meth:`SklyaninParams.validate`;
    relaxed mode additionally accepts degenerate parameter triples (used by
    order probing), falling back to a random point when the curve equation
    is identically zero.
    """
    if strict:
        params.validate()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    a, b, c = (complex(v) for v in (params.a, params.b, params.c))
    s = a ** 3 + b ** 3 + c ** 3
    p = a * b * c
    if abs(p) < 1e-14 and abs(s) < 1e-14:
        # curve equation identically zero: every point qualifies
        z = rng.standard_normal(6)
        return ProjPoint.of(complex(z[0], z[1]), complex(z[2], z[3]), complex(z[4], z[5]))
    for _ in range(64):
        re, im = rng.uniform(-1.5, 1.5, size=2)
        v = complex(re, im)
        # E(1, v, w) = -p w^3 + s v w - p (1 + v^3)
        coeffs = np.array([-p, 0.0, s * v, -p * (1.0 + v ** 3)], dtype=complex)
        roots = np.roots(coeffs)
        roots = sorted(
            (w for w in roots if np.isfinite(w)), key=lambda z: (z.real, z.imag)
        )
        if not roots:
            continue
        w = roots[int(rng.integers(len(roots)))]
        for _ in range(3):  # polish the root
            f = -p * w ** 3 + s * v * w - p * (1.0 + v ** 3)
            df = -3 * p * w ** 2 + s * v
            if abs(df) < 1e-14:
                break
            w = w - f / df
        try:
            pt = ProjPoint.of(1.0, v, w)
        except ValueError:
            continue
        if curve_residual(params, pt) <= 1e-10:
            return pt
    raise CurveSampleError("no usable cubic root in 64 draws")


def sigma(params: SklyaninParams, pt: ProjPoint, strict: bool = True) -> ProjPoint:
    """One application of the translation automorphism.

    Raises :class:`DegeneratePointError` where the defining formula returns
    the zero vector (a base point of the formula, e.g. [1:1:c] for a=b=1).
    """
    if strict:
        params.validate()
    a, b, c = (complex(v) for v in (params.a, params.b, params.c))
    u, v, w = pt.coords
    image = np.array(
        [
            a * c * v ** 2 - b ** 2 * u * w,
            b * c * u ** 2 - a ** 2 * v * w,
            a * b * w ** 2 - c ** 2 * u * v,
        ],
        dtype=complex,
    )
    scale = max(abs(a), abs(b), abs(c)) ** 2
    if np.linalg.norm(image) <= 1e-10 * (1.0 + scale):
        raise DegeneratePointError(f"sigma undefined at [{u}:{v}:{w}]")
    return ProjPoint.of(*image)


def sigma_order(
    params: SklyaninParams,
    max_order: int,
    trials: int = 10,
    seed=0,
    strict: bool = True,
):
    """Smallest n <= max_order with sigma^n(pt) = pt at every sampled point.

    Iterates from ``trials`` independent curve samples, resampling a point
    whenever an iterate hits a base point of the formula.  Returns None when
    no n <= max_order works for all points.
    """
    if max_order < 1 or trials < 1:
        raise ValueError("max_order and trials must be >= 1")
    if strict:
        params.validate()
    rng = np.random.default_rng(seed)
    orbits = []
    for _ in range(trials):
        for _attempt in range(16):
            start = curve_sample(params, rng, strict=False)
            orbit = [start]
            ok = True
            pt = start
            for _n in range(max_order):
                try:
                    pt = sigma(params, pt, strict=False)
                except DegeneratePointError:
                    ok = False
                    break
                orbit.append(pt)
            if ok:
                orbits.append(orbit)
                break
        else:
            raise CurveSampleError("could not complete any orbit for a trial point")
    for n in range(1, max_order + 1):
        if all(proj_equal(orbit[0], orbit[n]) for orbit in orbits):
            return n
    return None


# ---------------------------------------------------------------------------
# closed-form solution families of S(1,1,c)
#
# The constructors below are derived directly from the defining relations:
# with X in one of the two Jordan shapes and Y, Z traceless, two of the
# relations pin the off-diagonal entries and the third pins the remaining
# unknown through a quadratic, whose two roots are the two radical branches.

_N2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _sqrt(value, sign):
    return sign * np.sqrt(complex(value))


def _div(numer, denom, label):
    if abs(complex(denom)) < 1e-12:
        raise DenominatorError(label)
    return numer / denom


def _t1f12(c, y4, z4, sign):
    r = _sqrt(y4 ** 4 - 8.0 * y4 * z4 ** 3, sign)
    y12 = _div(y4 ** 2 + r, 2.0 * c * z4 ** 2, "2*c*z4^2")
    y = np.array([[-y4, y12], [-c * z4 ** 2, y4]], dtype=complex)
    z = np.array([[-z4, 0.0], [c * (r - y4 ** 2) / 2.0, z4]], dtype=complex)
    return _N2, y, z


def _t1f34(c, z2, z3, z4, sign):
    dd = z2 * z3 + z4 ** 2
    r = _sqrt(c ** 4 * dd ** 3 - c * z3 ** 3, sign)
    a = _div(c ** 2 * z4 * dd + r, c * z3, "c*z3")
    b = _div(2.0 * a * z4 + c * z2 * dd, z3, "z3")
    y = np.array([[a, b], [-c * dd, -a]], dtype=complex)
    z = np.array([[-z4, z2], [z3, z4]], dtype=complex)
    return _N2, y, z


def _t1f5(c, y4, z4):
    y12 = _div(y4 ** 2, c * z4 ** 2, "c*z4^2")
    z12 = _div(2.0 * y4, c * z4, "c*z4")
    y = np.array([[-y4, y12], [-c * z4 ** 2, y4]], dtype=complex)
    z = np.array([[-z4, z12], [0.0, z4]], dtype=complex)
    return _N2, y, z


def _t2f1(c, y3, y4, z4):
    x1 = _div(c * z4 ** 2, 2.0 * y4, "2*y4")
    y12 = -_div(y4 ** 3 - z4 ** 3, y4 * y3, "y4*y3")
    z12 = -_div(z4 * (8.0 * y4 ** 3 + c ** 3 * z4 ** 3), 4.0 * y4 ** 2 * y3, "4*y4^2*y3")
    x = np.diag([x1, -x1]).astype(complex)
    y = np.array([[-y4, y12], [y3, y4]], dtype=complex)
    z = np.array([[-z4, z12], [0.0, z4]], dtype=complex)
    return x, y, z


def _t2f2(c, x4, y3):
    z12 = -_div(c * x4 ** 2, y3, "y3")
    x = np.diag([-x4, x4]).astype(complex)
    y = np.array([[0.0, 0.0], [y3, 0.0]], dtype=complex)
    z = np.array([[0.0, z12], [0.0, 0.0]], dtype=complex)
    return x, y, z


def _t2f3(c, y4, z3, z4):
    x1 = _div(c * y4 ** 2, 2.0 * z4, "2*z4")
    y12 = -_div(y4 * (8.0 * z4 ** 3 + c ** 3 * y4 ** 3), 4.0 * z3 * z4 ** 2, "4*z3*z4^2")
    z12 = _div(y4 ** 3 - z4 ** 3, z4 * z3, "z4*z3")
    x = np.diag([x1, -x1]).astype(complex)
    y = np.array([[-y4, y12], [0.0, y4]], dtype=complex)
    z = np.array([[-z4, z12], [z3, z4]], dtype=complex)
    return x, y, z


def _t2f4(c, x4, z3):
    y12 = -_div(c * x4 ** 2, z3, "z3")
    x = np.diag([-x4, x4]).astype(complex)
    y = np.array([[0.0, y12], [0.0, 0.0]], dtype=complex)
    z = np.array([[0.0, 0.0], [z3, 0.0]], dtype=complex)
    return x, y, z


def _t2f56(c, y3, y4, z3, z4, sign):
    rad = (z3 ** 2 * z4 + y3 ** 2 * y4) ** 2 + c ** 3 * y3 * z3 * (z3 * y4 - y3 * z4) ** 2
    r = _sqrt(rad, sign)
    x1 = _div(-(z3 ** 2 * z4 + y3 ** 2 * y4) + r, c ** 2 * y3 * z3, "c^2*y3*z3")
    y12 = _div(2.0 * x1 * z4 - c * y4 ** 2, c * y3, "c*y3")
    z12 = _div(2.0 * x1 * y4 - c * z4 ** 2, c * z3, "c*z3")
    x = np.diag([x1, -x1]).astype(complex)
    y = np.array([[-y4, y12], [y3, y4]], dtype=complex)
    z = np.array([[-z4, z12], [z3, z4]], dtype=complex)
    return x, y, z


_CUBE_ROOTS_OF_UNITY = tuple(np.exp(2j * np.pi * k / 3.0) for k in range(3))
_PRIMITIVE_CUBE_ROOTS = tuple(np.exp(s * 2j * np.pi / 3.0) for s in (1.0, -1.0))

_CONSTRAINT_TOL = 1e-8


def _near(a, b, scale=1.0):
    return abs(a - b) <= _CONSTRAINT_TOL * (1.0 + scale)


def _check_t4f3(env):
    y4, z4 = env["y4"], env["z4"]
    if abs(y4) <= _CONSTRAINT_TOL:
        raise ConstraintError("t4f3 requires y4 != 0")
    for zeta in _CUBE_ROOTS_OF_UNITY:
        if _near(z4, zeta * y4, abs(y4) + abs(z4)):
            raise ConstraintError("t4f3 requires z4 != zeta*y4 for zeta^3 = 1")


def _check_t4f4(env):
    y4, z3, z4 = env["y4"], env["z3"], env["z4"]
    for zeta in _PRIMITIVE_CUBE_ROOTS:
        if _near(y4, zeta * z4, abs(y4) + abs(z4)):
            raise ConstraintError("t4f4 requires y4 != exp(+-2*pi*i/3)*z4")
    if _near(z4, y4 * z3, abs(z4) + abs(y4 * z3)):
        raise ConstraintError("t4f4 requires z4 != y4*z3")


def _check_nonzero(name, message):
    def check(env):
        if abs(env[name]) <= _CONSTRAINT_TOL:
            raise ConstraintError(message)

    return check


def _no_constraint(env):
    return None


@dataclass(frozen=True)
class RepFamily:
    """One table row: stable id, free parameters, side conditions, radical flag."""

    id: str
    free_params: tuple
    has_radical: bool
    build: callable
    check: callable


FAMILIES = {
    f.id: f
    for f in (
        RepFamily(
            "t1f1", ("y4", "z4"), True,
            lambda e, s: _t1f12(e["c"], e["y4"], e["z4"], s), _no_constraint,
        ),
        RepFamily(
            "t1f2", ("y4", "z4"), True,
            lambda e, s: _t1f12(e["c"], e["y4"], e["z4"], -s), _no_constraint,
        ),
        RepFamily(
            "t1f3", ("z2", "z3", "z4"), True,
            lambda e, s: _t1f34(e["c"], e["z2"], e["z3"], e["z4"], s), _no_constraint,
        ),
        RepFamily(
            "t1f4", ("z2", "z3", "z4"), True,
            lambda e, s: _t1f34(e["c"], e["z2"], e["z3"], e["z4"], -s), _no_constraint,
        ),
        RepFamily(
            "t1f5", ("y4", "z4"), False,
            lambda e, s: _t1f5(e["c"], e["y4"], e["z4"]), _no_constraint,
        ),
        RepFamily(
            "t2f1", ("y3", "y4", "z4"), False,
            lambda e, s: _t2f1(e["c"], e["y3"], e["y4"], e["z4"]), _no_constraint,
        ),
        RepFamily(
            "t2f2", ("x4", "y3"), False,
            lambda e, s: _t2f2(e["c"], e["x4"], e["y3"]), _no_constraint,
        ),
        RepFamily(
            "t2f3", ("y4", "z3", "z4"), False,
            lambda e, s: _t2f3(e["c"], e["y4"], e["z3"], e["z4"]), _no_constraint,
        ),
        RepFamily(
            "t2f4", ("x4", "z3"), False,
            lambda e, s: _t2f4(e["c"], e["x4"], e["z3"]), _no_constraint,
        ),
        RepFamily(
            "t2f5", ("y3", "y4", "z3", "z4"), True,
            lambda e, s: _t2f56(e["c"], e["y3"], e["y4"], e["z3"], e["z4"], s),
            _no_constraint,
        ),
        RepFamily(
            "t2f6", ("y3", "y4", "z3", "z4"), True,
            lambda e, s: _t2f56(e["c"], e["y3"], e["y4"], e["z3"], e["z4"], -s),
            _no_constraint,
        ),
        RepFamily(
            "t3f1", ("z2", "z3"), True,
            lambda e, s: _t1f34(e["c"], e["z2"], e["z3"], 1.0, -s),
            _check_nonzero("z3", "t3f1 requires z3 != 0"),
        ),
        RepFamily(
            "t3f2", ("z4",), False,
            lambda e, s: _t1f5(e["c"], 1.0, e["z4"]),
            _check_nonzero("z4", "t3f2 requires z4 != 0"),
        ),
        RepFamily(
            "t4f1", ("y4", "z4"), False,
            lambda e, s: _t2f1(e["c"], 1.0, e["y4"], e["z4"]),
            _check_nonzero("z4", "t4f1 requires z4 != 0"),
        ),
        RepFamily(
            "t4f2", ("x4",), False,
            lambda e, s: _t2f2(e["c"], e["x4"], 1.0),
            _check_nonzero("x4", "t4f2 requires x4 != 0"),
        ),
        RepFamily(
            "t4f3", ("y4", "z4"), False,
            lambda e, s: _t2f3(e["c"], e["y4"], 1.0, e["z4"]),
            _check_t4f3,
        ),
        RepFamily(
            "t4f4", ("y4", "z3", "z4"), True,
            lambda e, s: _t2f56(e["c"], 1.0, e["y4"], e["z3"], e["z4"], s),
            _check_t4f4,
        ),
    )
}

REPRESENTATIVE_IDS = ("t3f1", "t3f2", "t4f1", "t4f2", "t4f3", "t4f4")


def family_ids():
    return tuple(FAMILIES)


def family(fid: str, env: dict, branch: str = "principal",
           enforce_constraints: bool = True) -> Rep:
    """Construct the closed-form representation of one table row.

    ``env`` must bind ``c`` and the family's free parameters (complex
    values).  ``branch`` selects the sign of the radical for families that
    contain one; it is ignored by radical-free rows.  With
    ``enforce_constraints`` the family's side conditions are checked (the
    relaxed mode exists to probe the boundary behaviour).
    """
    if fid not in FAMILIES:
        raise KeyError(f"unknown family id {fid!r}")
    if branch not in ("principal", "negated"):
        raise ValueError("branch must be 'principal' or 'negated'")
    fam = FAMILIES[fid]
    env = {k: complex(v) for k, v in env.items()}
    missing = [p for p in ("c",) + fam.free_params if p not in env]
    if missing:
        raise KeyError(f"family {fid} needs parameters {missing}")
    validate_s11c(env["c"])
    if enforce_constraints:
        fam.check(env)
    sign = 1.0 if branch == "principal" else -1.0
    x, y, z = fam.build(env, sign)
    return Rep(2, {"x": x, "y": y, "z": z}, env)


# ---------------------------------------------------------------------------
# center and geometry


def center_words(c):
    """The four central elements (u1, u2, u3, g) = (x^2, y^2, z^2,
    c*y^3 + yxz - xyz - c*x^3) with c bound."""
    gens = ("x", "y", "z")
    return (
        NcPoly(gens, {(0, 0): 1.0}),
        NcPoly(gens, {(1, 1): 1.0}),
        NcPoly(gens, {(2, 2): 1.0}),
        NcPoly(gens, {(1, 1, 1): c, (1, 0, 2): 1.0, (0, 1, 2): -1.0, (0, 0, 0): -c}),
    )


@dataclass(frozen=True)
class CenterChar:
    """Values of (u1, u2, u3, g) on a representation plus the residual of the
    degree-6 center relation at those values."""

    u1: complex
    u2: complex
    u3: complex
    g: complex
    f_residual: float

    @property
    def point(self):
        return np.array([self.u1, self.u2, self.u3, self.g], dtype=complex)


def f_value(c, point) -> complex:
    u1, u2, u3, g = (complex(v) for v in point)
    c = complex(c)
    return g ** 2 - c ** 2 * (u1 ** 3 + u2 ** 3 + u3 ** 3) - (c ** 3 - 4.0) * u1 * u2 * u3


def central_character(rep: Rep, tol: float = 1e-7) -> CenterChar:
    """Evaluate the center on a solution representation of S(1,1,c).

    The representation must satisfy the relations to within ``tol``, and
    each central image must be scalar to within ``tol`` (otherwise a
    ``ValueError`` is raised, also on a reducible representation); the
    scalar parts and the residual of the degree-6 relation are returned.
    """
    c = rep.env.get("c")
    if c is None:
        raise ValueError("representation environment does not bind c")
    u1, u2, u3, g = central_values(s11c_presentation(c), center_words(c), rep, tol)
    return CenterChar(u1, u2, u3, g, abs(f_value(c, (u1, u2, u3, g))))


def xc_gradient(c, point):
    """Gradient of the degree-6 relation at (u1, u2, u3, g)."""
    u1, u2, u3, g = (complex(v) for v in point)
    c = complex(c)
    k = c ** 3 - 4.0
    return np.array(
        [
            -3.0 * c ** 2 * u1 ** 2 - k * u2 * u3,
            -3.0 * c ** 2 * u2 ** 2 - k * u1 * u3,
            -3.0 * c ** 2 * u3 ** 2 - k * u1 * u2,
            2.0 * g,
        ],
        dtype=complex,
    )


def xc_slice(c, u1, grid) -> str:
    """CSV slice of the 3-fold at fixed u1.

    ``grid`` is (min, max, steps) applied to both u2 and u3; each row is
    ``u2,u3,value`` with value the real part of the principal square root of
    c^2(u1^3+u2^3+u3^3) + (c^3-4) u1 u2 u3.  A non-finite c or u1 raises
    ``ValueError``; a value that overflows raises ``OverflowError``.
    """
    lo, hi, steps = grid
    if not np.isfinite(lo) or not np.isfinite(hi) or int(steps) < 1:
        raise ValueError("grid bounds must be finite with at least one step")
    c = complex(c)
    u1 = complex(u1)
    for name, value in (("c", c), ("u1", u1)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")
    axis = np.linspace(float(lo), float(hi), int(steps)).tolist()
    lines = ["u2,u3,value"]
    for u2 in axis:
        for u3 in axis:
            val = c ** 2 * (u1 ** 3 + u2 ** 3 + u3 ** 3) + (c ** 3 - 4.0) * u1 * u2 * u3
            if not np.isfinite(val):
                raise OverflowError(f"the value at u2={u2:.17g}, u3={u3:.17g} overflows")
            lines.append(
                "%.17g,%.17g,%.17g" % (u2, u3, np.sqrt(val + 0j).real)
            )
    return "\n".join(lines) + "\n"
