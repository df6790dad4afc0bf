"""Small dense complex-matrix helpers shared by the other modules.

Matrices are plain numpy ``complex128`` arrays (the code is exercised for
sizes 1..4 with 2x2 as the primary case).
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_RTOL", "rank", "nullspace", "is_scalar"]

DEFAULT_RTOL = 1e-8


def _as_cmat(m):
    return np.asarray(m, dtype=complex)


def is_scalar(m, rtol=DEFAULT_RTOL) -> bool:
    """True when ``m`` is within tolerance of a multiple of the identity."""
    m = _as_cmat(m)
    n = m.shape[0]
    lam = np.trace(m) / n
    return np.linalg.norm(m - lam * np.eye(n)) <= rtol * (1.0 + np.linalg.norm(m))


def _sqrt_pair(z):
    """Both square roots of ``z``, principal first; one where z = 0."""
    r = np.sqrt(complex(z))
    return (r, -r) if abs(r) > 0 else (r,)


def rank(m, rtol=DEFAULT_RTOL) -> int:
    """Numerical rank via singular values: count of sv > rtol * max sv."""
    m = _as_cmat(m)
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rtol * sv[0]))


def nullspace(m, rtol=DEFAULT_RTOL):
    """Orthonormal basis (list of 1-d arrays) of the numerical kernel of ``m``."""
    m = _as_cmat(m)
    if m.shape[0] == 0:
        return [v for v in np.eye(m.shape[1], dtype=complex)]
    _, sv, vh = np.linalg.svd(m)
    cut = rtol * sv[0] if sv.size and sv[0] > 0 else 0.0
    r = int(np.count_nonzero(sv > cut))
    return [vh[i].conj() for i in range(r, m.shape[1])]
