"""Small dense complex-matrix helpers shared by the other modules.

Matrices are plain numpy ``complex128`` arrays (the code is exercised for
sizes 1..4 with 2x2 as the primary case).
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_RTOL", "rank", "nullspace"]

DEFAULT_RTOL = 1e-8


def _as_cmat(m):
    return np.asarray(m, dtype=complex)


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
    """Orthonormal basis (list of 1-d arrays) of the numerical kernel of ``m``.

    A stack (P, r, c) gives ``(vecs, nullity)`` from one batched SVD: the
    kernel of ``m[p]`` is spanned by the last ``nullity[p]`` rows of the
    (c, c) array ``vecs[p]``, which are the rows a 2-d call returns for it.
    """
    m = _as_cmat(m)
    stack = m if m.ndim > 2 else m[None]
    count, rows, cols = stack.shape
    if rows == 0:
        vecs, nullity = np.tile(np.eye(cols, dtype=complex), (count, 1, 1)), np.full(count, cols)
    else:
        # with rows >= cols, V is square either way, and only V is needed
        _, sv, vh = np.linalg.svd(stack, full_matrices=rows < cols)
        vecs, nullity = vh.conj(), cols - (sv > rtol * sv[:, :1]).sum(axis=1)
    return (vecs, nullity) if m.ndim > 2 else list(vecs[0, cols - nullity[0]:])
