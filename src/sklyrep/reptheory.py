"""Representations of finitely presented algebras: residuals, irreducibility,
equivalence via trace fingerprints and explicit conjugators.

A representation (``Rep``) is a dimension, one complex matrix per
generator, and a parameter environment.  Two independent irreducibility
tests are provided for 2x2 representations: the Burnside span test (the
images generate the full matrix algebra) and the search for a common
invariant line.  Equivalence of tuples under simultaneous conjugation is
decided by solving the stacked Sylvester system ``Q M1 = M2 Q``; the
trace fingerprint is only a pre-filter, the conjugator is the authority.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .freealg import NcPoly, eval_ncpoly
from .matkit import DEFAULT_RTOL, is_scalar, nullspace, rank

__all__ = [
    "Presentation",
    "Rep",
    "EquivClass",
    "relation_residual",
    "central_values",
    "is_irreducible_burnside",
    "find_invariant_line",
    "fingerprint",
    "find_conjugator",
    "conjugate_rep",
    "classify",
    "rep_to_json",
    "rep_from_json",
]


@dataclass(frozen=True)
class Presentation:
    """Generator names and defining relations."""

    generators: tuple
    relations: tuple

    def __post_init__(self):
        for r in self.relations:
            if not isinstance(r, NcPoly) or r.gens != tuple(self.generators):
                raise ValueError("relation over a different generator list")


@dataclass
class Rep:
    """Candidate representation: one n x n matrix per generator plus bindings.

    Treated as immutable after construction.
    """

    n: int
    images: dict
    env: dict = field(default_factory=dict)

    def __post_init__(self):
        self.images = {
            name: np.asarray(m, dtype=complex) for name, m in self.images.items()
        }
        for name, m in self.images.items():
            if m.shape != (self.n, self.n):
                raise ValueError(f"image of {name!r} is not {self.n}x{self.n}")

    def matrices(self, generators):
        return [self.images[g] for g in generators]

    @property
    def generators(self):
        return tuple(self.images)


def relation_residual(pres: Presentation, rep: Rep) -> float:
    """Normalized residual: max over relations of ||eval|| / (1 + max ||image||^2)."""
    mats = rep.matrices(pres.generators)
    scale = 1.0 + max(np.linalg.norm(m) for m in mats) ** 2
    worst = 0.0
    for relation in pres.relations:
        worst = max(worst, np.linalg.norm(eval_ncpoly(relation, mats)))
    return worst / scale


def _word_span_rank(mats, n, tol):
    """Rank of the span of evaluated words, BFS by length with early exit."""
    eye = np.eye(n, dtype=complex)
    vecs = [eye.ravel()]
    frontier = [eye]
    target = n * n
    max_len = target - 1
    for _ in range(max_len):
        new_frontier = []
        for m in frontier:
            for g in mats:
                new_frontier.append(m @ g)
        vecs.extend(w.ravel() for w in new_frontier)
        if rank(np.array(vecs), tol) == target:
            return target
        frontier = new_frontier
    return rank(np.array(vecs), tol)


def is_irreducible_burnside(rep: Rep, tol: float = DEFAULT_RTOL) -> bool:
    """True iff words of length <= n^2 - 1 in the images span all of n x n."""
    if rep.n == 1:
        return True
    mats = list(rep.images.values())
    return _word_span_rank(mats, rep.n, tol) == rep.n * rep.n


def _is_invariant_line(v, mats, tol):
    for m in mats:
        mv = m @ v
        residual = mv - (np.vdot(v, mv)) * v
        if np.linalg.norm(residual) > tol * (1.0 + np.linalg.norm(m)):
            return False
    return True


def central_values(pres: Presentation, words, rep: Rep, tol: float) -> list:
    """Scalar values tr(w)/n of central elements ``words`` on a solution rep.

    The representation must satisfy the relations of ``pres`` to within
    ``tol``, and each central image m must be scalar:
    ``||m - (tr m / n) I|| <= tol * (1 + ||m||)``.  Otherwise a ``ValueError``
    is raised.  The test runs for every n and on reducible representations
    too, where a direct sum of points with different characters has a
    non-scalar centre and no central character.
    """
    res = relation_residual(pres, rep)
    if res > tol:
        raise ValueError(f"not a solution representation (residual {res:.3e})")
    mats = rep.matrices(pres.generators)
    values = []
    for word in words:
        m = eval_ncpoly(word, mats)
        value = np.trace(m) / rep.n
        deviation = np.linalg.norm(m - value * np.eye(rep.n))
        bound = tol * (1.0 + np.linalg.norm(m))
        if deviation > bound:
            raise ValueError(
                f"central element is not scalar: deviation {deviation:.3e} > {bound:.3e}"
            )
        values.append(value)
    return values


def find_invariant_line(rep: Rep, tol: float = DEFAULT_RTOL):
    """Common invariant line of all generator images, or None.

    A common invariant line must be an eigenline of every non-scalar
    image, so the candidates are the eigenlines of each non-scalar image
    (any unit vector if every image is scalar).  Returns a unit vector
    spanning the line, or None.
    """
    if rep.n != 2:
        raise ValueError("find_invariant_line supports n = 2 only")
    mats = list(rep.images.values())
    candidates = []
    for m in mats:
        if is_scalar(m, tol):
            continue
        t = m[0, 0] + m[1, 1]
        d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        disc = np.sqrt(t * t - 4.0 * d + 0j)
        for lam in ((t + disc) / 2.0, (t - disc) / 2.0):
            b = m - lam * np.eye(2)
            # adjugate columns span the kernel of a singular 2x2
            adj = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]], dtype=complex)
            col = max((adj[:, 0], adj[:, 1]), key=np.linalg.norm)
            nrm = np.linalg.norm(col)
            if nrm > 0:
                candidates.append(col / nrm)
    if not candidates:
        # every image is scalar: any line is invariant
        return np.array([1.0, 0.0], dtype=complex)
    for v in candidates:
        if _is_invariant_line(v, mats, tol):
            return v
    return None


def fingerprint(rep: Rep) -> np.ndarray:
    """Ordered conjugation-invariant traces of short words.

    For generators (X, Y, Z): tr X, tr Y, tr Z, tr X^2, tr Y^2, tr Z^2,
    tr XY, tr XZ, tr YZ, tr XYZ.  For two generators the analogous
    5-element list (tr X, tr Y, tr X^2, tr Y^2, tr XY).
    """
    mats = list(rep.images.values())
    k = len(mats)
    if k == 3:
        x, y, z = mats
        words = [x, y, z, x @ x, y @ y, z @ z, x @ y, x @ z, y @ z, x @ y @ z]
    elif k == 2:
        x, y = mats
        words = [x, y, x @ x, y @ y, x @ y]
    else:
        raise ValueError("fingerprint supports 2 or 3 generators")
    return np.array([np.trace(w) for w in words])


def conjugate_rep(rep: Rep, q) -> Rep:
    """Simultaneous conjugation of all images by an invertible q."""
    q = np.asarray(q, dtype=complex)
    qi = np.linalg.inv(q)
    images = {name: q @ m @ qi for name, m in rep.images.items()}
    return Rep(rep.n, images, dict(rep.env))


def _well_conditioned_det(qs):
    """|det Q| / ||Q||^n for each Q of a stack, 0 where Q = 0."""
    n = qs.shape[-1]
    dets = np.abs(np.linalg.det(qs))
    norms = np.sqrt(np.sum(qs.real ** 2 + qs.imag ** 2, axis=(-2, -1))) ** n
    return np.divide(dets, norms, out=np.zeros_like(dets), where=norms > 0.0)


def _sylvester_system(m1, m2):
    """Stacked ``I (x) M1^T - M2 (x) I`` over a ``(k, n, n)`` pair of stacks.

    Row ``g n^2 + i n + k`` is the ``(i, k)`` entry of ``Q M1_g - M2_g Q``
    for vec(Q) row-major.  The identity products are the ones ``np.kron``
    forms, so the matrix equals the stacked ``np.kron`` blocks bit for bit.
    """
    k, n, _ = m1.shape
    eye = np.eye(n, dtype=complex)
    left = eye[None, :, None, :, None] * m1.transpose(0, 2, 1)[:, None, :, None, :]
    right = m2[:, :, None, :, None] * eye[None, None, :, None, :]
    return (left - right).reshape(k * n * n, n * n)


def find_conjugator(r1: Rep, r2: Rep, tol: float = DEFAULT_RTOL):
    """Invertible Q with Q M1 Q^{-1} = M2 for every generator pair, or None.

    Stacks the Sylvester equations Q M1 - M2 Q = 0 over vec(Q) (row-major)
    and searches the nullspace for an invertible element; for a pair of
    irreducible representations the nullspace is at most one-dimensional,
    so invertibility of its basis vector decides.  A larger nullspace is
    searched through 32 seeded random combinations, best conditioned
    first.  The returned Q is verified against all generators before being
    accepted.
    """
    if r1.n != r2.n:
        return None
    gens = r1.generators
    if gens != r2.generators:
        raise ValueError("representations over different generator sets")
    n = r1.n
    m1 = np.array([r1.images[g] for g in gens])
    m2 = np.array([r2.images[g] for g in gens])
    basis = nullspace(_sylvester_system(m1, m2), tol)
    if not basis:
        return None

    if len(basis) == 1:
        qs = basis[0].reshape(1, n, n)
    else:
        # one candidate's real and imaginary coefficients are consecutive
        # draws, and its sum runs over the basis in order, term by term
        draws = np.random.default_rng(0).standard_normal((32, 2, len(basis)))
        coeffs = draws[:, 0] + 1j * draws[:, 1]
        qs = 0
        for c, b in zip(coeffs.T, basis):
            qs = qs + c[:, None] * b
        qs = qs.reshape(32, n, n)
    keys = _well_conditioned_det(qs).tolist()

    for i in sorted(range(len(keys)), key=keys.__getitem__, reverse=True):
        if keys[i] <= tol:
            continue
        q = qs[i]
        qi = np.linalg.inv(q)
        ok = all(
            np.linalg.norm(q @ a @ qi - b) <= 10.0 * tol * (1.0 + np.linalg.norm(b))
            for a, b in zip(m1, m2)
        )
        if ok:
            return q / np.linalg.norm(q)
    return None


@dataclass
class EquivClass:
    """One equivalence class: member indices and conjugators to the representative."""

    representative: int
    members: list
    conjugators: dict  # member index -> Q with Q member Q^{-1} = representative


# relative fingerprint gap above which classify skips the conjugator search
FINGERPRINT_RTOL = 1e-6


def classify(reps, tol: float = DEFAULT_RTOL):
    """Partition representations into equivalence classes.

    Fingerprint proximity is used as a cheap filter; every merge is
    confirmed by an explicit conjugator.  Deterministic given input order.
    """
    classes = []
    fps = [fingerprint(r) for r in reps]
    for i, r in enumerate(reps):
        placed = False
        for cls in classes:
            j = cls.representative
            gap = np.max(np.abs(fps[i] - fps[j])) if fps[i].shape == fps[j].shape else np.inf
            scale = 1.0 + max(np.linalg.norm(fps[i]), np.linalg.norm(fps[j]))
            if gap > FINGERPRINT_RTOL * scale:
                continue
            q = find_conjugator(r, reps[j], tol)
            if q is not None:
                cls.members.append(i)
                cls.conjugators[i] = q
                placed = True
                break
        if not placed:
            classes.append(EquivClass(i, [i], {i: np.eye(r.n, dtype=complex)}))
    return classes


def _complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _json_complex(pair):
    """The complex number of an ``[re, im]`` pair of finite numbers, else None."""
    numbers = isinstance(pair, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair
    )
    if numbers and len(pair) == 2 and cmath.isfinite(z := complex(*pair)):
        return z
    return None


def _bad_entry(field, pair):
    return ValueError(f"{field}: expected a finite [re, im] pair of numbers, got {pair!r}")


def _matrix_from_json(rows, n, field):
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"{field}: expected a list of rows")
    widths = sorted({len(row) for row in rows})
    if len(widths) > 1:
        raise ValueError(f"{field}: ragged matrix, row lengths {[len(row) for row in rows]}")
    width = widths[0] if widths else 0
    if width != len(rows):
        raise ValueError(f"{field}: {len(rows)}x{width} matrix is not square")
    if len(rows) != n:
        raise ValueError(f"n: {n} disagrees with the {len(rows)}x{len(rows)} matrix {field}")
    values = [[_json_complex(z) for z in row] for row in rows]
    for i, row in enumerate(values):
        if None in row:
            j = row.index(None)
            raise _bad_entry(f"{field}[{i}][{j}]", rows[i][j])
    return np.array(values, dtype=complex)


def rep_to_json(rep: Rep) -> dict:
    """Rep JSON schema shared with the CLI."""
    return {
        "n": rep.n,
        "generators": list(rep.images),
        "params": {k: _complex_to_pair(v) for k, v in rep.env.items()},
        "matrices": {
            name: [[_complex_to_pair(z) for z in row] for row in m]
            for name, m in rep.images.items()
        },
    }


def rep_from_json(data: dict) -> Rep:
    """Parse the schema of ``rep_to_json``; a ``ValueError`` names the bad field."""
    if not isinstance(data, dict):
        raise ValueError(f"representation: expected a JSON object, got {type(data).__name__}")
    for key in ("n", "generators", "matrices"):
        if key not in data:
            raise ValueError(f"{key}: required field is missing")
    n = data["n"]
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n: expected a positive integer, got {n!r}")
    gens = data["generators"]
    if not (isinstance(gens, list) and all(isinstance(g, str) for g in gens)):
        raise ValueError(f"generators: expected a list of names, got {gens!r}")
    for i, g in enumerate(gens):
        if g in gens[:i]:
            raise ValueError(f"generators: duplicate generator {g!r}")
    matrices = data["matrices"]
    params = data.get("params", {})
    for name, value in (("matrices", matrices), ("params", params)):
        if not isinstance(value, dict):
            raise ValueError(f"{name}: expected a JSON object, got {type(value).__name__}")
    images = {}
    for g in gens:
        if g not in matrices:
            raise ValueError(f"matrix for generator {g!r} missing")
        images[g] = _matrix_from_json(matrices[g], n, f"matrices.{g}")
    env = {}
    for k, v in params.items():
        env[k] = _json_complex(v)
        if env[k] is None:
            raise _bad_entry(f"params.{k}", v)
    return Rep(n, images, env)
