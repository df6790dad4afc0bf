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
from .matkit import DEFAULT_RTOL, _sqrt_pair
from .reptheory import Algebra, Presentation, Rep, central_values

__all__ = [
    "SkewRepSpec",
    "skew_presentation",
    "skew_rep",
    "skew_center_point",
    "ALGEBRA",
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


def _candidates(env, jordan_kind, rep, char):
    """``Algebra.candidates``: the psi members at alpha^2 = u1, beta = u2."""
    u1, u2 = char
    return [("psi", {"alpha": alpha, "beta": u2}, None, None)
            for alpha in _sqrt_pair(u1) if abs(alpha) > 1e-10]


ALGEBRA = Algebra(
    "skew", (), _GENS,
    validate=lambda env: None,
    presentation=lambda env: skew_presentation(),
    center_words=lambda env: _CENTER_WORDS,
    character=lambda rep, tol: dict(zip(("u1", "u2"), skew_center_point(rep, tol=tol))),
    candidates=_candidates,
    members=lambda env, fid, params: [
        (None, skew_rep(SkewRepSpec("two_dim", params["alpha"], params["beta"])))],
)
