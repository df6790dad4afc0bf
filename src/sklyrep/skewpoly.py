"""The skew polynomial ring C_{-1}[x,y] = C<x,y>/(xy + yx).

A worked second example exercising the whole pipeline on a known answer:
the one-dimensional representations live on the two coordinate axes, and
every two-dimensional irreducible representation is equivalent to one
with x diagonal anti-symmetric and y an anti-diagonal matrix, irreducible
exactly when the product of the two parameters is nonzero.  The center is
the polynomial ring on x^2 and y^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freealg import NcPoly, parse_ncpoly
from .matkit import DEFAULT_RTOL
from .reptheory import Presentation, Rep, central_values

__all__ = [
    "SkewRepSpec",
    "skew_presentation",
    "skew_rep",
    "skew_center_point",
    "skew_plane_slice",
]

_GENS = ("x", "y")
_PRESENTATION = Presentation(_GENS, (parse_ncpoly("x*y + y*x", _GENS),))
_CENTER_WORDS = (NcPoly(_GENS, {(0, 0): 1.0}), NcPoly(_GENS, {(1, 1): 1.0}))


def skew_presentation() -> Presentation:
    """Two generators x, y and the single relation xy + yx."""
    return _PRESENTATION


@dataclass(frozen=True)
class SkewRepSpec:
    """Which representation to build: a 1-dimensional one supported on the
    x-axis or y-axis, or the 2-dimensional family; the 2-dimensional one is
    irreducible iff alpha * beta != 0."""

    kind: str  # one_dim_x | one_dim_y | two_dim
    alpha: complex = 0.0
    beta: complex = 0.0


def skew_rep(spec: SkewRepSpec) -> Rep:
    alpha = complex(spec.alpha)
    beta = complex(spec.beta)
    if spec.kind == "one_dim_x":
        return Rep(1, {"x": [[alpha]], "y": [[0.0]]}, {"alpha": alpha})
    if spec.kind == "one_dim_y":
        return Rep(1, {"x": [[0.0]], "y": [[beta]]}, {"beta": beta})
    if spec.kind == "two_dim":
        x = np.diag([-alpha, alpha]).astype(complex)
        y = np.array([[0.0, 1.0], [beta, 0.0]], dtype=complex)
        return Rep(2, {"x": x, "y": y}, {"alpha": alpha, "beta": beta})
    raise ValueError(f"unknown kind {spec.kind!r}")


def skew_center_point(rep: Rep, tol: float = DEFAULT_RTOL):
    """Values (u1, u2) of the central generators x^2, y^2 on a solution rep.

    Each central image must be scalar to within ``tol``, on reducible reps
    too; otherwise a ``ValueError`` is raised.
    """
    return tuple(central_values(_PRESENTATION, _CENTER_WORDS, rep, tol))


def skew_plane_slice(grid) -> str:
    """CSV map of the parametrizing affine plane (u1, u2), axes marked.

    Each row is ``u1,u2,kind`` with kind one of ``origin`` (trivial rep),
    ``u1_axis``/``u2_axis`` (nontrivial 1-dimensional reps) or ``azumaya``
    (2-dimensional irreducibles).
    """
    lo, hi, steps = grid
    axis = np.linspace(float(lo), float(hi), int(steps))
    lines = ["u1,u2,kind"]
    for u1 in axis:
        for u2 in axis:
            if u1 == 0.0 and u2 == 0.0:
                kind = "origin"
            elif u2 == 0.0:
                kind = "u1_axis"
            elif u1 == 0.0:
                kind = "u2_axis"
            else:
                kind = "azumaya"
            lines.append("%.17g,%.17g,%s" % (u1, u2, kind))
    return "\n".join(lines) + "\n"
