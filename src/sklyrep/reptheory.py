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
import functools
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from .freealg import NcPoly, eval_ncpoly
from .matkit import DEFAULT_RTOL, nullspace

__all__ = [
    "Presentation",
    "Rep",
    "Algebra",
    "EquivClass",
    "relation_residual",
    "central_values",
    "is_irreducible_burnside",
    "find_invariant_line",
    "fingerprint",
    "find_conjugator",
    "find_conjugators",
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


@dataclass(frozen=True)
class Algebra:
    """What the solver and the CLI need of one algebra, as functions of a
    parameter environment ``env`` that binds the names in ``params``.

    ``validate(env)``: raises a ``ValueError`` that names the parameter
    where ``env`` is outside the algebra's parameter space.
    ``presentation(env)``, ``center_words(env)``: the relations, and the
    central elements whose values are the central character.
    ``character(rep, tol, residual=None)``: the character ``verify``
    reports, a dict of complex values and float diagnostics (``ValueError``
    where the centre is not scalar); ``residual``, the rep's
    ``relation_residual`` where the caller has it, spares computing it
    again.  ``candidates(env, jordan_kind, rep, char)``: the family
    members to match a 2-dimensional irreducible solution of character
    ``char`` against, in order, as ``(fid, params, leg, shear)``; ``leg`` is
    None, or the member ``(fid, params)`` that the solution is conjugate to
    and that ``shear`` takes to the target.  ``members(env, fid, params)``:
    ``(branch, rep)`` for each branch whose side conditions hold.  A record
    reaches its module's functions through lambdas that look them up when
    called, so a wrapper on the module attribute sees every call.
    """

    name: str
    params: tuple
    generators: tuple
    validate: callable
    presentation: callable
    center_words: callable
    character: callable
    candidates: callable
    members: callable


def _image_stack(rep, generators=None):
    """The images of a Rep, shape (k, n, n), in the order ``generators``
    (default: its own), or an array of images (..., k, n, n) as it is."""
    if isinstance(rep, Rep):
        return np.array(rep.matrices(generators or rep.generators))
    return np.asarray(rep, dtype=complex)


def relation_residual(pres: Presentation, rep):
    """Normalized residual: max over relations of ||eval|| / (1 + max ||image||^2).

    ``rep`` is a Rep, or a stack of images of shape (..., k, n, n) in the
    order of ``pres.generators``; a stack gives one residual per
    representation, an array of shape (...).
    """
    mats = _image_stack(rep, pres.generators)
    per_gen = [mats[..., g, :, :] for g in range(mats.shape[-3])]
    worst = 0.0
    for relation in pres.relations:
        worst = np.maximum(worst, np.linalg.norm(eval_ncpoly(relation, per_gen), axis=(-2, -1)))
    worst = worst / (1.0 + np.max(np.linalg.norm(mats, axis=(-2, -1)), axis=-1) ** 2)
    return float(worst) if isinstance(rep, Rep) else worst


def _word_span_ranks(mats, tol):
    """Dimension of the span of all words in the images of each
    representation of the (count, k, n, n) stack ``mats``, by span closure.

    Keeps an orthonormal basis of the span, starting from I, and the part of
    each newly spanned direction at its own magnitude.  Each round multiplies
    only those new parts by every image, on the right, and adds the
    directions in which the products leave the span: the singular values of
    their projection onto the complement that exceed ``tol`` times the
    largest word norm seen so far (the scale of the word-matrix rank test).
    The span of words of length <= L + 1 is the span of length <= L plus its
    new elements times the images, so the closure is reached after at most
    n^2 rounds and n^2 * k products.  Each round runs on groups with equal
    basis and product counts, in stacked calls that leave every
    representation's arithmetic as it is on its own.
    """
    count, k, n, _ = mats.shape
    basis = np.zeros((count, 1, n * n), dtype=complex)
    basis[:, 0, :: n + 1] = n ** -0.5
    right = mats.transpose(0, 2, 1, 3).reshape(count, n, k * n)  # x @ right[i]: every x @ g
    ranks = np.zeros(count, dtype=int)
    # (basis count, product count) -> parts (indices, bases, products, scales, rights)
    groups = {(1, k): [(np.arange(count), basis, mats.reshape(count, k, n * n),
                        np.full(count, np.sqrt(n)), right)]}
    while groups:
        parts_by_shape, groups = groups, {}
        for parts in parts_by_shape.values():
            idx, basis, products, scale, right = (
                parts[0] if len(parts) == 1 else (np.concatenate(a) for a in zip(*parts)))
            scale = np.fmax(scale, np.sqrt((np.abs(products) ** 2).sum(axis=2).max(axis=1)))
            outside = products - (products @ basis.conj().transpose(0, 2, 1)) @ basis
            _, sv, vh = np.linalg.svd(outside, full_matrices=False)
            # singular values fall, so the kept ones are a prefix of each row
            kept = (sv > tol * scale[:, None]).sum(axis=1)
            counts = set(kept.tolist())
            for r in sorted(counts):
                sel = kept == r if len(counts) > 1 else slice(None)  # no copies unless it splits
                grown = np.concatenate([basis[sel], vh[sel, :r]], axis=1)
                if r == 0 or grown.shape[1] >= n * n:
                    ranks[idx[sel]] = grown.shape[1]
                    continue
                new = (sv[sel, :r, None] * vh[sel, :r]).reshape(-1, r * n, n)
                products = (new @ right[sel]).reshape(-1, r, n, k, n).transpose(0, 1, 3, 2, 4)
                groups.setdefault((grown.shape[1], r * k), []).append(
                    (idx[sel], grown, products.reshape(-1, r * k, n * n), scale[sel], right[sel]))
    return ranks


def is_irreducible_burnside(rep, tol: float = DEFAULT_RTOL):
    """True iff the words in the images span all of n x n (Burnside); a stack
    of images (count, k, n, n) gives a boolean array (count,) of verdicts."""
    stack = _image_stack(rep)[None] if isinstance(rep, Rep) else _image_stack(rep)
    n = stack.shape[-1]
    verdicts = np.full(len(stack), True) if n == 1 else _word_span_ranks(stack, tol) == n * n
    return bool(verdicts[0]) if isinstance(rep, Rep) else verdicts


def central_values(pres: Presentation, words, rep, tol: float, residual=None):
    """Scalar values tr(w)/n of central elements ``words`` on a solution rep.

    The representation must satisfy the relations of ``pres`` to within
    ``tol``, and each central image m must be scalar:
    ``||m - (tr m / n) I|| <= tol * (1 + ||m||)``.  Otherwise a ``ValueError``
    is raised.  The test runs for every n and on reducible representations
    too, where a direct sum of points with different characters has a
    non-scalar centre and no central character.

    A stack of images (count, k, n, n) in the order of ``pres.generators``
    gives the values (count, len(words)) and the mask (count,) of the
    representations that pass both tests, and raises nothing.  A caller
    that has computed ``relation_residual(pres, rep)`` passes it as
    ``residual`` (a float for a Rep, an array for a stack), and it is not
    computed again.
    """
    stack = _image_stack(rep, pres.generators)
    stack = stack[None] if isinstance(rep, Rep) else stack
    n = stack.shape[-1]
    per_gen = [stack[:, g] for g in range(stack.shape[1])]
    images = np.stack([eval_ncpoly(word, per_gen) for word in words], axis=1)
    values = np.trace(images, axis1=-2, axis2=-1) / n
    # a stacked norm can differ from one matrix's norm in the last bit, so
    # these decide the tests, and a message quotes one matrix's norms
    deviation = np.linalg.norm(images - values[..., None, None] * np.eye(n), axis=(-2, -1))
    scalar = ~(deviation > tol * (1.0 + np.linalg.norm(images, axis=(-2, -1))))
    res = relation_residual(pres, stack) if residual is None else np.atleast_1d(residual)
    if not isinstance(rep, Rep):
        return values, scalar.all(axis=1) & ~(res > tol)
    if res[0] > tol:
        raise ValueError(f"not a solution representation (residual {res[0]:.3e})")
    for value, m, ok in zip(values[0], images[0], scalar[0]):
        if not ok:
            deviation = np.linalg.norm(m - value * np.eye(n))
            bound = tol * (1.0 + np.linalg.norm(m))
            raise ValueError(
                f"central element is not scalar: deviation {deviation:.3e} > {bound:.3e}"
            )
    return list(values[0])


def find_invariant_line(rep: Rep, tol: float = DEFAULT_RTOL):
    """Common invariant line of all generator images, or None.

    A common invariant line must be an eigenline of every non-scalar
    image, so the candidates are the eigenlines of each non-scalar image
    (any unit vector if every image is scalar).  Returns the first, in image
    order, that spans an invariant line of every image, as a unit vector;
    all are tested in one stacked product, rounded as one at a time.
    """
    if rep.n != 2:
        raise ValueError("find_invariant_line supports n = 2 only")
    mats = _image_stack(rep)
    t = mats[:, 0, 0] + mats[:, 1, 1]
    norms, spread = _frobenius(np.array([mats, mats - (t / 2)[:, None, None] * np.eye(2)]))
    m, t = mats[keep := ~(spread <= tol * (1.0 + norms))], t[keep]
    lhs, rhs = np.array([t, m[:, 0, 0], m[:, 0, 1]]), np.array([t, m[:, 1, 1], m[:, 1, 0]])
    # t^2, ad and bc rounded as Python's complex products: numpy's loops fuse them
    tt, ad, bc = (lhs.astype(object) * rhs.astype(object)).astype(complex)
    disc = np.sqrt(tt - 4.0 * (ad - bc) + 0j)
    shifted = m[:, None] - (np.array([t + disc, t - disc]).T / 2.0)[..., None, None] * np.eye(2)
    # the adjugate's columns (b11, -b10) and (-b01, b00) span the kernel of a singular b
    signed = np.concatenate([shifted, -shifted], -1)
    cols = signed[..., [1, 1, 0, 0], [1, 2, 3, 0]].reshape(-1, 2, 2)
    col_norms = _frobenius(cols[..., None])
    larger = (np.arange(len(cols)), (col_norms[:, 1] > col_norms[:, 0]).astype(int))
    nrm = col_norms[larger]
    cands = cols[larger][nrm > 0] / nrm[nrm > 0, None]
    if not len(cands):
        # every image is scalar: any line is invariant
        return np.array([1.0, 0.0], dtype=complex)
    images = mats @ cands[:, None, :, None]
    residual = images - (cands.conj()[:, None, None, :] @ images) * cands[:, None, :, None]
    invariant = ~(_frobenius(residual) > tol * (1.0 + norms)).any(axis=1)
    return cands[invariant.argmax()] if invariant.any() else None


def fingerprint(rep) -> np.ndarray:
    """Ordered conjugation-invariant traces of short words.

    For generators (X, Y, Z): tr X, tr Y, tr Z, tr X^2, tr Y^2, tr Z^2,
    tr XY, tr XZ, tr YZ, tr XYZ.  For two generators the analogous
    5-element list (tr X, tr Y, tr X^2, tr Y^2, tr XY).  ``rep`` is a Rep,
    or a stack of images of shape (..., k, n, n) whose fingerprints come
    back as an array of shape (..., 10) or (..., 5).
    """
    mats = _image_stack(rep)
    gens = [mats[..., g, :, :] for g in range(mats.shape[-3])]
    if len(gens) == 3:
        x, y, z = gens
        xy = x @ y
        words = [x, y, z, x @ x, y @ y, z @ z, xy, x @ z, y @ z, xy @ z]
    elif len(gens) == 2:
        x, y = gens
        words = [x, y, x @ x, y @ y, x @ y]
    else:
        raise ValueError("fingerprint supports 2 or 3 generators")
    return np.trace(np.stack(words, axis=-3), axis1=-2, axis2=-1)


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
    norms = np.sqrt((qs.real ** 2 + qs.imag ** 2).sum(axis=(-2, -1))) ** n
    return np.divide(dets, norms, out=np.zeros_like(dets), where=norms > 0.0)


def _frobenius(mats):
    """The Frobenius norm of each matrix of a (..., n, n) stack, bit for bit
    ``np.linalg.norm`` of one matrix: strided dot products of its real and
    of its imaginary parts, added."""
    *lead, n, m = mats.shape
    parts = np.ascontiguousarray(mats).view(float).reshape(*lead, n * m, 2).swapaxes(-1, -2)
    squares = (parts[..., None, :] @ parts[..., :, None])[..., 0, 0]
    return np.sqrt(squares[..., 0] + squares[..., 1])


def _sylvester_system(m1, m2):
    """Stacked ``I (x) M1^T - M2 (x) I`` over a pair of ``(..., k, n, n)``
    stacks, shape ``(..., k n^2, n^2)``.

    Row ``g n^2 + i n + k`` is the ``(i, k)`` entry of ``Q M1_g - M2_g Q``
    for vec(Q) row-major.  The identity products are the ones ``np.kron``
    forms, so the matrix equals the stacked ``np.kron`` blocks bit for bit.
    """
    *lead, k, n, _ = m1.shape
    eye = np.eye(n, dtype=complex)
    left = eye[:, None, :, None] * m1.swapaxes(-1, -2)[..., None, :, None, :]
    right = m2[..., None, :, None] * eye[:, None, :]
    return (left - right).reshape(*lead, k * n * n, n * n)


def _balancing(mats):
    """Powers of two ``d`` that balance the stack ``d_i m_ij / d_j``.

    Osborne's iteration on the squared magnitudes summed over the stack:
    index i is scaled until the off-diagonal norms of its row and its
    column agree to within a factor 4.  Scaling by powers of two is exact,
    so ``d^2`` and ``d^-2`` are kept entry by entry; every product in a
    row or column sum is exact, and for n <= 3 a sum has at most two
    non-zero terms, so plain floats give numpy's dot products bit for bit.
    A ratio well inside (1/4, 4) takes no step whatever log2's last bit.
    """
    a = (mats.real ** 2 + mats.imag ** 2).sum(axis=0)
    np.fill_diagonal(a, 0.0)
    a = a.tolist()
    d, square, inverse = ([1.0] * len(a) for _ in range(3))
    for _sweep in range(64):
        changed = False
        for i in range(len(a)):
            row = col = 0.0
            for j in range(len(a)):
                row += a[i][j] * inverse[j]
                col += a[j][i] * square[j]
            row, col = square[i] * row, inverse[i] * col
            if row == 0.0 or col == 0.0 or 0.26 < col / row < 3.9:
                continue
            e = round(np.log2(col / row) / 4.0)
            if e:
                d[i] *= 2.0 ** e
                square[i], inverse[i] = d[i] ** 2, d[i] ** -2.0
                changed = True
        if not changed:
            break
    return np.array(d)


def _conjugates(qs, m1, m2, tol):
    """The acceptance test ``||Q A Q^{-1} - B|| <= 10 tol (1 + ||B||)`` for
    every image pair (A, B), of each Q of an (M, n, n) stack against its
    (M, k, n, n) pair of stacks, or of one Q against one pair."""
    if qs.ndim == 2:
        return bool(_conjugates(qs[None], m1[None], m2[None], tol)[0])
    gaps, norms = _frobenius(np.stack([qs[:, None] @ m1 @ np.linalg.inv(qs)[:, None] - m2, m2]))
    return (gaps <= 10.0 * tol * (1.0 + norms)).all(axis=1)


@functools.lru_cache(maxsize=None)
def _combination_coeffs(dim):
    """32 seeded complex rows of ``dim`` coefficients; a row's real and
    imaginary parts are consecutive draws."""
    draws = np.random.default_rng(0).standard_normal((32, 2, dim))
    return draws[:, 0] + 1j * draws[:, 1]


def _accept(qs, owner, tried, m1, m2, tol, found):
    """Test the candidates ``tried`` (indices into ``qs``, of the pairs
    ``owner``); a pair without a conjugator in ``found`` takes its first
    that passes, normalized."""
    if not tried.size:
        return
    if tried.size == len(qs) == len(m1):  # one candidate per pair, in pair order
        passed = tried[_conjugates(qs, m1, m2, tol)]
    else:
        passed = tried[_conjugates(qs[tried], m1[owner[tried]], m2[owner[tried]], tol)]
    for i, p in zip(passed.tolist(), owner[passed].tolist()):
        if found[p] is None:
            found[p] = qs[i] / np.linalg.norm(qs[i])


def _search(m1, m2, tol):
    """The plain search on each pair of the (P, k, n, n) stacks, in groups
    of equal Sylvester nullity: the accepted conjugators (None where no
    candidate passes) and the nullities.  A basis vector is the only
    candidate; a larger nullspace gives 32 seeded combinations, each summed
    over the basis term by term, tested best conditioned first (ties in
    draw order), each pair's best one before all its others."""
    count, _, n, _ = m1.shape
    vecs, nullity = nullspace(_sylvester_system(m1, m2), tol)
    found, dims = [None] * count, set(nullity.tolist())
    for dim in sorted(dims - {0}):
        if len(dims) == 1:  # every pair has this nullity
            idx, basis = np.arange(count), vecs[:, n * n - dim:]
        else:
            idx = (nullity == dim).nonzero()[0]
            basis = vecs[idx, n * n - dim:]
        if dim == 1:
            qs = basis.reshape(-1, n, n)
            _accept(qs, idx, (_well_conditioned_det(qs) > tol).nonzero()[0], m1, m2, tol, found)
            continue
        combos, coeffs = 0, _combination_coeffs(dim)
        for j in range(dim):
            combos = combos + coeffs[:, j, None] * basis[:, j, None, :]
        qs, owner = combos.reshape(-1, n, n), np.repeat(idx, 32)
        keys = _well_conditioned_det(qs)
        live = (keys > tol).nonzero()[0]
        # best key first, ties in draw order: the order of a stable sort
        live = live[np.argsort(-keys[live], kind="stable")]
        heads, rest = {}, []
        for i, p in zip(live.tolist(), owner[live].tolist()):
            if p in heads:
                rest.append((i, p))
            else:
                heads[p] = i
        _accept(qs, owner, np.array(list(heads.values()), dtype=int), m1, m2, tol, found)
        rest = np.array([i for i, p in rest if found[p] is None], dtype=int)
        _accept(qs, owner, rest, m1, m2, tol, found)
    return found, nullity


def find_conjugators(m1, m2, tol: float = DEFAULT_RTOL):
    """``find_conjugator`` on each pair of two (P, k, n, n) image stacks, in
    one stacked search (one batched SVD): a list of P conjugators or None,
    bit for bit those of the search on each pair alone.  The pairs with
    candidates and no accepted one are balanced and searched again together.
    """
    m1, m2 = np.asarray(m1, dtype=complex), np.asarray(m2, dtype=complex)
    found, nullity = _search(m1, m2, tol)
    retry = []
    for p, dim in enumerate(nullity.tolist()):
        if dim and found[p] is None:
            d1, d2 = _balancing(m1[p]), _balancing(m2[p])
            if not (np.all(d1 == 1.0) and np.all(d2 == 1.0)):
                retry.append((p, d1, d2))
    if not retry:
        return found
    b1 = np.array([m1[p] * d1[:, None] / d1 for p, d1, _ in retry])
    b2 = np.array([m2[p] * d2[:, None] / d2 for p, _, d2 in retry])
    mapped = [(p, q * d1 / d2[:, None])
              for (p, d1, d2), q in zip(retry, _search(b1, b2, tol)[0]) if q is not None]
    if mapped:
        pairs = [p for p, _ in mapped]
        ok = _conjugates(np.array([q for _, q in mapped]), m1[pairs], m2[pairs], tol)
        for (p, q), passed in zip(mapped, ok.tolist()):
            if passed:
                found[p] = q / np.linalg.norm(q)
    return found


def find_conjugator(r1: Rep, r2: Rep, tol: float = DEFAULT_RTOL):
    """Invertible Q with Q M1 Q^{-1} = M2 for every generator pair, or None.

    Stacks the Sylvester equations Q M1 - M2 Q = 0 over vec(Q) (row-major)
    and searches the nullspace for an invertible element; for a pair of
    irreducible representations the nullspace is at most one-dimensional,
    so invertibility of its basis vector decides.  A larger nullspace is
    searched through 32 seeded random combinations, best conditioned
    first.  The returned Q is verified against all generators before being
    accepted.  The search is ``find_conjugators`` on one pair.

    When that search has candidates but none passes, the same search runs
    once more on the pair balanced by diagonal similarities
    ``D1 M1 D1^{-1}`` and ``D2 M2 D2^{-1}`` (``_balancing``), which
    recovers conjugators of badly scaled pairs.  Its conjugator ``Q'`` is
    mapped back by ``Q = D2^{-1} Q' D1`` and returned only if it passes the
    acceptance test in the original coordinates too.  Balancing runs only
    on this retry, so every pair the plain search accepts gets the same
    conjugator as before.  An empty nullspace is not searched again:
    ``Q -> D2 Q D1^{-1}`` maps the exact Sylvester nullspace of the pair
    onto that of the balanced pair, and only a singular value at the edge
    of the relative ``tol`` cut can cross it.

    Acceptance is not monotone in ``tol``: the nullspace cut moves with it,
    and the 32 combinations of the nullspace it leaves can all fail where
    those at a smaller ``tol`` passed (direct t3f1 members of three
    near-reducible classes are accepted at 1e-6 and rejected at 1e-4).
    """
    if r1.n != r2.n:
        return None
    gens = r1.generators
    if gens != r2.generators:
        raise ValueError("representations over different generator sets")
    m1 = np.array([r1.images[g] for g in gens])[None]
    m2 = np.array([r2.images[g] for g in gens])[None]
    return find_conjugators(m1, m2, tol)[0]


@dataclass
class EquivClass:
    """One equivalence class: member indices and conjugators to the representative."""

    representative: int
    members: list
    conjugators: dict  # member index -> Q with Q member Q^{-1} = representative


# relative fingerprint gap above which classify skips the conjugator search
FINGERPRINT_RTOL = 1e-6

# relation keys (``_relation_keys``): the cuts of P_hi and P_lo and the
# rounding level, as fractions of the largest singular value, and the
# distance by which a direction of one key may leave the other's span
KEY_CUTS = (1e-3, 1e-6)
KEY_EXACT = 1e-13
KEY_RTOL = 1e-2


def _relation_keys(mats):
    """The linear relations among I, the images and their products M_i M_j
    (i < j) of each representation of the (count, k, n, n) image stack
    ``mats``, seen through the singular value decomposition of
    ``W = [vec I, vec M_1, ..., vec M_i M_j, ...]``.

    Let ``P_hi`` and ``P_lo`` be the projectors onto the spans of the right
    singular vectors whose singular values exceed the fractions
    ``KEY_CUTS`` of the largest.  Returns the stacks of ``P_hi`` and of
    ``I - P_lo``, and the boolean matrix ``complete``: ``complete[j, i]``
    holds when every singular value that ``P_lo,j`` drops is at most
    ``KEY_EXACT`` of the largest, or when ``P_lo,j`` has at least as many
    directions as ``P_hi,i`` and as ``P_lo,i``.

    The relation space ``{a : W a = 0}`` and its orthogonal complement, the
    row space of W, are invariant under simultaneous conjugation: each word
    of ``Q M Q^{-1}`` is ``Q w Q^{-1}``, and ``vec(Q w Q^{-1}) = K vec(w)``
    with ``K = Q (x) Q^{-T}`` invertible, so the conjugate's matrix ``K W``
    has the kernel of W.  Rounding and solver noise (Newton endpoints at
    singular points of the solution set are off by up to about 1e-5) add
    small singular values, so the exact row space contains the ``P_hi``
    span.  It lies in the ``P_lo`` span only while no row-space direction
    has a singular value under the lower cut, and that is not invariant:
    ``K`` has condition number ``cond(Q)^2`` and can rescale the singular
    values of ``K W`` relative to each other by as much.  So a ``P_lo``
    with fewer directions than the other's ``P_hi`` (``v (x) N`` against
    ``v (x) 1e7 N``) or ``P_lo`` (two conjugates of a t4f4 member whose x
    image is 3e-4 of the others) is not complete, and ``classify`` splits a
    pair only against a complete ``P_lo``.  It never splits an equivalent
    pair with row space R where one of the two keeps all of R in its
    ``P_lo``, nor where one has R above the upper cut and ``cond(Q)^2 <
    KEY_CUTS[0] / KEY_EXACT``: a complete ``P_lo,j`` of ``dim R`` or more
    directions is R up to noise, an exact one keeps all of R (relative
    singular values in ``K W`` at least ``KEY_CUTS[0] / cond(Q)^2``), and
    ``P_hi,j`` lies in R.  Only two representations that both drop
    directions of R under the lower cut can be split wrongly.  No
    eigenvector is computed.

    For S(1,1,c) every reducible 2-dimensional solution is ``v (x) N`` with
    N nilpotent, since the trivial representation is its only
    1-dimensional one; the row space is spanned by ``e_I`` and
    ``(0, v, 0)``, the point ``[v]`` of P^2 that is the whole class.  For
    C_{-1}[x,y] the product word separates reducible solutions whose traces
    agree, such as ``X = diag(a, -a), Y = E_12`` (``XY = a Y``) and
    ``X = diag(-a, a), Y = E_12`` (``XY = -a Y``).
    """
    count, k, n, _ = mats.shape
    left, right = np.triu_indices(k, 1)
    words = np.concatenate([np.broadcast_to(np.eye(n), (count, 1, n, n)), mats,
                            mats[:, left] @ mats[:, right]], axis=1)
    _, sv, vh = np.linalg.svd(words.reshape(count, -1, n * n).transpose(0, 2, 1),
                              full_matrices=False)
    rel = sv / sv[:, :1]
    kept = [rel > cut for cut in KEY_CUTS]
    hi, lo = (np.einsum("sri,sr,srj->sij", vh, m.astype(float), vh.conj()) for m in kept)
    exact = np.all(kept[1] | (rel <= KEY_EXACT), axis=1)
    rank_hi, rank_lo = (np.count_nonzero(m, axis=1) for m in kept)
    complete = exact[:, None] | (rank_lo[:, None] >= np.maximum(rank_hi, rank_lo)[None, :])
    return hi, np.eye(lo.shape[-1]) - lo, complete


def classify(reps, tol: float = DEFAULT_RTOL):
    """Partition representations into equivalence classes.

    Each representation joins the first class, in order of creation, whose
    representative it is conjugate to, and otherwise opens a class.  Two
    conjugation invariants first mark, for all pairs j < i at once, where
    ``find_conjugator`` must decide; it runs there only, one pair per call
    in class order, and confirms every merge and supplies the conjugator.

    - The trace fingerprints must agree: ``max |f_i - f_j| <=
      FINGERPRINT_RTOL * (1 + max(||f_i||, ||f_j||))``, the gap taken one
      word at a time.  Traces only see the semisimplification.
    - The relation keys (``_relation_keys``), which separate reducible
      solutions, must not split the pair: a key splits it when
      ``||(I - P_lo,j) P_hi,i||_F^2 = tr(P_hi,i (I - P_lo,j))`` (orthogonal
      projectors: one product over the stack) exceeds ``KEY_RTOL^2``, or
      with i and j swapped, and that ``P_lo`` span is complete.  On the
      solver's output equivalent pairs stay below 1e-5, three orders under
      ``KEY_RTOL``.

    Deterministic given input order.  All representations must share one
    dimension and one generator list; otherwise a ``ValueError`` is raised.
    """
    if not reps:
        return []
    if any(r.generators != reps[0].generators or r.n != reps[0].n for r in reps):
        raise ValueError("representations over different generator sets or dimensions")
    count = len(reps)
    mats = np.array([r.matrices(reps[0].generators) for r in reps])
    fps = fingerprint(mats)
    norms = np.linalg.norm(fps, axis=1)
    hi, out, complete = _relation_keys(mats)
    hi, out = hi.reshape(count, -1), out.reshape(count, -1).conj()
    undecided = np.zeros((count, count), dtype=bool)
    block = max(1, 4096 // count)
    for a in range(0, count, block):
        b = min(a + block, count)
        gap = np.zeros((b - a, b))
        for f in fps.T:
            np.maximum(gap, np.abs(f[a:b, None] - f[None, :b]), out=gap)
        close = ~(gap > FINGERPRINT_RTOL * (1.0 + np.maximum(norms[a:b, None], norms[None, :b])))
        i_out = (hi[a:b] @ out[:b].T).real > KEY_RTOL ** 2
        j_out = (out[a:b] @ hi[:b].T).real > KEY_RTOL ** 2
        split = (i_out & complete[:b, a:b].T) | (j_out & complete[a:b, :b])
        undecided[a:b, :b] = np.tril(close & ~split, a - 1)  # the pairs j < i
    head = np.ones(count, dtype=bool)
    joined = {}  # member -> (representative, conjugator), in member order
    for i in np.flatnonzero(undecided.any(axis=1)).tolist():
        for j in np.flatnonzero(undecided[i] & head).tolist():  # heads before i, in class order
            q = find_conjugator(reps[i], reps[j], tol)
            if q is not None:
                head[i] = False
                joined[i] = (j, q)
                break
    classes = {h: EquivClass(h, [h], {h: np.eye(reps[0].n, dtype=complex)})
               for h in np.flatnonzero(head).tolist()}
    for i, (j, q) in joined.items():
        classes[j].members.append(i)
        classes[j].conjugators[i] = q
    return list(classes.values())


def _complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _json_complex(pair):
    """The complex number of an ``[re, im]`` pair of finite numbers, else None."""
    numbers = isinstance(pair, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair
    )
    try:
        z = complex(*pair) if numbers and len(pair) == 2 else None
    except OverflowError:  # an int beyond the float range
        z = None
    return z if z is not None and cmath.isfinite(z) else None


def _bad_entry(field, pair):
    return ValueError(f"{field}: expected a finite [re, im] pair of numbers, got {pair!r}")


def _matrix_from_json(matrices, g, n):
    if g not in matrices:
        raise ValueError(f"matrix for generator {g!r} missing")
    rows, field = matrices[g], f"matrices.{g}"
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


def _images_from_json(mats, n):
    """The (k, n, n) stack of k JSON matrices from one ``np.array`` call, or
    None unless all are n x n lists of lists of finite [int|float, int|float]."""
    try:
        stack = np.array(mats)
    except ValueError:  # ragged
        return None
    if stack.shape == (len(mats), n, n, 2) and stack.dtype.kind in "if":
        pairs = list(chain.from_iterable(rows := list(chain.from_iterable(mats))))
        # no tuples, bools, numeric strings or number subclasses
        if set(map(type, chain(mats, rows, pairs, *pairs))) <= {list, int, float}:
            stack = stack.astype(float, copy=False)
            return stack.view(complex)[..., 0] if np.isfinite(stack).all() else None
    return None


def _matrix_to_json(m):
    """A complex array with each entry as the ``[re, im]`` pair of ``_complex_to_pair``."""
    return np.ascontiguousarray(m, dtype=complex)[..., None].view(float).tolist()


def _reps_to_json(reps):
    """``rep_to_json`` of each representation of a list that shares one
    dimension and generator list, every matrix from one ``tolist``."""
    if not reps:
        return []
    gens = list(reps[0].images)
    mats = _matrix_to_json(np.array([rep.matrices(gens) for rep in reps]))
    return [{
        "n": rep.n,
        "generators": list(gens),
        "params": {k: _complex_to_pair(v) for k, v in rep.env.items()},
        "matrices": dict(zip(gens, m)),
    } for rep, m in zip(reps, mats)]


def rep_to_json(rep: Rep) -> dict:
    """Rep JSON schema shared with the CLI."""
    return _reps_to_json([rep])[0]


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
    images = _images_from_json([matrices.get(g) for g in gens], n)
    if images is None:
        images = [_matrix_from_json(matrices, g, n) for g in gens]
    env = {}
    for k, v in params.items():
        env[k] = _json_complex(v)
        if env[k] is None:
            raise _bad_entry(f"params.{k}", v)
    return Rep(n, dict(zip(gens, images)), env)
