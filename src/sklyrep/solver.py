"""Numerical rediscovery of the two-dimensional representation classification.

With the first generator image fixed in one of the two Jordan shapes, the
defining relations become a quadratic system in the remaining matrix
entries.  The generator images are one affine tensor in the unknowns
(``_layout``), and the system's coefficients come from expanding each
relation in that tensor (``_build_system``).  The solver runs damped
Gauss-Newton from many random starts, each on the system restricted to a
few random affine slices (the slices spread the starts across the
positive-dimensional solution components), then re-polishes every endpoint
on the unsliced system, keeps the points that satisfy the relations,
deduplicates them up to simultaneous conjugation, and certifies each
irreducible class by an explicit conjugator to a representative family
member.  Everything specific to an algebra comes from its ``Algebra``
record (``ALGEBRAS``): the presentation, the centre, and the candidate
members at a class's central character, which one matcher (``_match``)
tries for every algebra.  It matches the irreducible classes in waves:
wave j tries the j-th member of every class still unmatched in one stacked
conjugator search, and each class builds its members lazily, so it builds
and accepts the members a loop over that class alone would.

Every Newton phase, in the 2-dimensional solves and in the 1-dimensional
sweep (``one_dim_solutions``), runs all of its starts at once through
``_gauss_newton_batch``: batched residuals and Jacobians on an ``(S, n)``
stack of starts, Gauss-Newton steps (``_lstsq_steps``), and exact
step-length scoring.  The tall Jacobians of the 2-dimensional phases take
the damped normal-equation step and certified square ones the LU step,
each one batched solve; every other row takes the ``lstsq(rcond=None)``
step from its SVD.  A slice is not an extra equation: each start runs in
its own affine chart ``u = P + N z`` of its slice (``_slice_charts``), the
chart of a witness set in numerical algebraic geometry (Sommese and
Wampler, *The Numerical Solution of Systems of Polynomials*, 2005, ch. 13).
The slice equations then hold exactly at every iterate and the Jacobians
shrink to ``J N``.  Pinning tiny unknowns to zero uses the same kernel, in
the chart spanned by the unpinned axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sklyanin, skewpoly
from .matkit import DEFAULT_RTOL
from .reptheory import (
    Presentation,
    Rep,
    _complex_to_pair,
    _conjugates,
    _matrix_to_json,
    _reps_to_json,
    central_values,
    classify,
    find_conjugators,
    fingerprint,
    is_irreducible_burnside,
    relation_residual,
)

__all__ = [
    "ALGEBRAS",
    "DEFAULT_SLICES",
    "SolveTask",
    "Solution",
    "SolveReport",
    "solve_reps",
    "one_dim_solutions",
    "report_to_json",
]

ALGEBRAS = {algebra.name: algebra for algebra in (sklyanin.ALGEBRA, skewpoly.ALGEBRA)}

DEFAULT_SLICES = {"one_block": 2, "two_blocks": 3}

KEEP_RESIDUAL = 1e-9
CONVERGE_RESIDUAL = 1e-11
MAX_STEPS = 100

# a square n x n Jacobian with |det J| > SOLVE_CERTIFICATE * ||J||_F^n has
# sigma_min / sigma_max >= |det J| / ||J||_F^n, so cond(J) < 1e8: lstsq with
# rcond=None drops none of its singular values, and its step is the unique
# solution an LU solve computes
SOLVE_CERTIFICATE = 1e-8

# the batched Newton kernel forms Jacobians and steps, and scores halved
# steps, in blocks of rows whose stack of (k, n) Jacobians or (29, k) scores
# stays within this many bytes (J^H of the normal equations is as large
# again): one block for all 200 starts of a 2-D solve raised a solve-sweep
# peak by 1 MB
JACOBIAN_BLOCK_BYTES = 2 ** 17

# probability that one slice is a coordinate-vanishing functional e_j . u = 0;
# those keep the coordinate-degenerate solution components inside the sliced
# set, which dense slices alone essentially never reach
COORD_SLICE_PROB = 0.45

# endpoints with every image below this norm are snapped to the exact zero
# (trivial) solution, which Newton approaches only algebraically
ZERO_SNAP = 1e-5

# a residual bounds no distance (on the skew ring 2|xy| passes CONVERGE_RESIDUAL
# 1.7e-8 off an axis); one Newton step ||J^+ r|| estimates it, so a 1-D endpoint
# whose step exceeds STEP_BOUND * max(1, ||u||) takes up to REFINE_STEPS more,
# and every 2-D endpoint up to REFINE_STEPS more while they lower its residual
STEP_BOUND = 1e-9
REFINE_STEPS = 5


@dataclass(frozen=True)
class SolveTask:
    """One solve run: the name of an algebra in ``ALGEBRAS``, the Jordan
    shape of the first generator image, the parameter c where the algebra
    has one, and the randomized-search budget."""

    algebra: str
    jordan_kind: str  # one_block | two_blocks
    c: complex = None
    num_starts: int = 200
    seed: int = 0
    slice_count: int = None

    def __post_init__(self):
        if self.algebra not in ALGEBRAS:
            raise ValueError(f"unknown algebra {self.algebra!r}")
        if self.jordan_kind not in DEFAULT_SLICES:
            raise ValueError(f"unknown jordan_kind {self.jordan_kind!r}")
        if ("c" in ALGEBRAS[self.algebra].params) != (self.c is not None):
            rule = "is required for" if self.c is None else "does not apply to"
            raise ValueError(f"c {rule} the {self.algebra} algebra")
        ALGEBRAS[self.algebra].validate(self.env)
        if self.num_starts < 1:
            raise ValueError(f"num_starts must be at least 1, got {self.num_starts}")
        if self.slice_count is not None and self.slice_count < 0:
            raise ValueError(f"slice_count must be at least 0, got {self.slice_count}")

    def slices(self):
        if self.slice_count is not None:
            return int(self.slice_count)
        return DEFAULT_SLICES[self.jordan_kind]

    @property
    def env(self) -> dict:
        """The parameters bound in every solution's environment."""
        return {} if self.c is None else {"c": complex(self.c)}

    def presentation(self) -> Presentation:
        return ALGEBRAS[self.algebra].presentation(self.env)


@dataclass
class Solution:
    rep: Rep
    residual: float
    irreducible: bool
    matched_family: str = None
    fitted_params: dict = None
    branch: str = None
    conjugator: np.ndarray = None
    multiplicity: int = 1


@dataclass
class SolveReport:
    task: SolveTask
    solutions: list
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# quadratic residual systems


class _QuadSystem:
    """Equations r_k(u) = C_k + B_k.u + u^T T_k u with complex coefficients."""

    def __init__(self, T, B, C):
        self.T = T  # (k, n, n), symmetric in the last two axes
        self.B = B  # (k, n)
        self.C = C  # (k,)

    @property
    def n_unknowns(self):
        return self.B.shape[1]

    def _half_jacobians(self, U):
        """T.u for each row u of the (S, n) stack U, shape (S, k, n)."""
        k, n, _ = self.T.shape
        return (U @ self.T.reshape(k * n, n).T).reshape(len(U), k, n)

    def quadratic(self, U):
        """u^T T_k u for each row u of the (S, n) stack U, shape (S, k)."""
        quad = self._half_jacobians(U)
        quad *= U[:, None, :]
        return np.sum(quad, axis=2)

    def residuals(self, U):
        """Residual of every row of the (S, n) stack U, shape (S, k)."""
        return self.C + U @ self.B.T + self.quadratic(U)

    def jacobians(self, U):
        """Jacobian at every row of the (S, n) stack U, shape (S, k, n)."""
        jac = self._half_jacobians(U)
        jac *= 2.0
        jac += self.B
        return jac


# the first generator's image in each Jordan shape: its constant entries,
# then its derivative along each of its unknowns
_JORDAN_SHAPES = {
    "one_block": np.array([[[0, 1], [0, 0]], [[1, 0], [0, 1]]], dtype=complex),
    "two_blocks": np.array([[[0, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 1]]], dtype=complex),
}


def _layout(n_gens, jordan_kind, n):
    """Generator images as one affine tensor of shape (n_gens, m+1, n, n).

    Slice 0 of a generator's image holds its constant entries and slice 1+i
    its derivative along the unknown u_i, so the images at u are the
    contraction with h = (1, u).  For n = 2 the first generator is fixed in
    ``jordan_kind`` (unknowns u_0, or u_0 and u_1); every entry of the other
    images is an unknown of its own, numbered row by row and generator by
    generator.  For n = 1 each generator is one unknown.
    """
    if n == 1:
        return np.eye(n_gens + 1, dtype=complex)[1:, :, None, None]
    head = _JORDAN_SHAPES[jordan_kind]
    free = 4 * (n_gens - 1)
    images = np.zeros((n_gens, len(head) + free, 2, 2), dtype=complex)
    images[0, : len(head)] = head
    images[1:, len(head) :] = np.eye(free).reshape(free, n_gens - 1, 2, 2).transpose(1, 0, 2, 3)
    return images


def _build_system(pres: Presentation, jordan_kind, n):
    """The layout's image tensor and the relations at those images, one
    equation per matrix entry.

    Only relations of degree <= 2 are supported.  A word of length <= 2 in
    the affine images is a quadratic form in h = (1, u) with (n, n) matrix
    coefficients; summing the forms of a relation gives Q with
    r(u) = sum_ab h_a h_b Q[a, b], from which C, B and the symmetric T are
    read off.  Every form entry is a small integer, so only the coefficient
    products round.
    """
    images = _layout(len(pres.generators), jordan_kind, n)
    shape = (images.shape[1], images.shape[1], n, n)
    forms = []
    for relation in pres.relations:
        q = np.zeros(shape, dtype=complex)
        for word, coef in relation.terms.items():
            if len(word) > 2:
                raise ValueError("relation of degree > 2 in the unknowns")
            if len(word) == 2:
                q += coef * np.einsum("aij,bjk->abik", images[word[0]], images[word[1]])
            elif word:
                q[0] += coef * images[word[0]]
            else:
                q[0, 0] += coef * np.eye(n)
        forms.append(q.transpose(2, 3, 0, 1).reshape(n * n, *shape[:2]))
    q = np.concatenate(forms)
    quad = q[:, 1:, 1:]
    T = (quad + quad.transpose(0, 2, 1)) / 2.0
    return images, _QuadSystem(T, q[:, 0, 1:] + q[:, 1:, 0], q[:, 0, 0])


def _images_at(images, U):
    """The generator images at each row u of the (S, m) stack U, shape
    (S, n_gens, n, n): ``images`` contracted with h = (1, u)."""
    H = np.concatenate([np.ones((len(U), 1), dtype=complex), U], axis=1)
    return np.einsum("sa,gaij->sgij", H, images)


def _lstsq_steps(jac, rhs):
    """Newton steps ``x`` with ``jac[s] @ x ~ rhs[s]`` for each row s of the
    (S, k, n) stack ``jac``.

    A tall stack (k > n) solves the damped normal equations
    ``(J^H J + mu I) x = J^H b``, ``mu = n * eps * ||J||_F^2`` (1 where J = 0),
    in one batched ``np.linalg.solve`` (Marquardt, SIAM J. Appl. Math. 11,
    1963; it converges on non-isolated solutions too: Yamashita and
    Fukushima, Computing Suppl. 15, 2001).  This is the least-squares step
    to rounding where J is well conditioned; directions with singular value
    below about ``sqrt(n * eps) * ||J||_F`` are damped, not inverted.
    Square rows that pass the ``SOLVE_CERTIFICATE`` test take one batched LU
    solve; every other row the ``np.linalg.lstsq(rcond=None)`` step from its
    SVD, which drops singular values at or below ``max(k, n) eps sigma_max``.
    """
    S, k, n = jac.shape
    if k > n:
        jh = jac.conj().transpose(0, 2, 1)
        # a non-finite or overflowing row gets a NaN step, quietly
        with np.errstate(over="ignore", invalid="ignore"):
            gram = jh @ jac
            mu = n * np.finfo(float).eps * np.trace(gram, axis1=1, axis2=2).real
            gram[:, range(n), range(n)] += np.where(mu > 0.0, mu, 1.0)[:, None]
            return np.linalg.solve(gram, jh @ rhs[..., None])[..., 0]
    steps = np.empty((S, n), dtype=complex)
    certified = np.zeros(S, dtype=bool)
    if k == n:
        # a non-finite or overflowing row fails the comparison quietly
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.linalg.norm(jac, axis=(1, 2)) ** n
            certified = np.abs(np.linalg.det(jac)) > SOLVE_CERTIFICATE * scale
        if certified.all():
            return np.linalg.solve(jac, rhs[..., None])[..., 0]
        steps[certified] = np.linalg.solve(jac[certified], rhs[certified, :, None])[..., 0]
    rest = ~certified
    if rest.any():
        u, sv, vh = np.linalg.svd(jac if rest.all() else jac[rest], full_matrices=False)
        # the step is V diag(1/s) U^H b over the kept singular values; coef
        # holds its conjugate conj(U^H b) / s and the step is conj(V^T coef):
        # conjugation is exact, and this spares conjugated copies of U and V
        coef = np.einsum("skr,sk->sr", u, rhs[rest].conj())
        kept = sv > max(k, n) * np.finfo(float).eps * sv[:, :1]
        coef = np.divide(coef, sv, out=np.zeros_like(coef), where=kept)
        steps[rest] = np.einsum("srn,sr->sn", vh, coef).conj()
    return steps


def _gauss_newton_batch(system, U0, chart=None, converged=CONVERGE_RESIDUAL, max_steps=MAX_STEPS):
    """Damped Gauss-Newton on every row of the (S, n) stack U0 at once.

    Each row takes a Gauss-Newton step d (``_lstsq_steps``).  Where the
    full step does not improve a row, the exact quadratic
    ``r(u + t d) = r(u) + t J(u) d + t^2 d^T T d`` scores ``t = 2^-h``,
    h = 1..29, in one array operation, and the row is evaluated again at
    the longest t predicted to improve it.  A row freezes once its residual
    norm is at most ``converged``, or when no t is predicted to improve it
    or that evaluation does not; every row stops after ``max_steps``.
    With ``chart``, an (S, n, m) stack, row s moves only in its affine chart
    ``u = U0[s] + chart[s] z``: its Jacobian is ``J(u) chart[s]`` and its
    step ``chart[s] dz``, so the linear equations that cut out the chart
    hold at every iterate and never enter the Jacobian.  Returns the
    endpoints, their residual norms and the converged flags.
    """

    def steps(idx, X, R):
        J = system.jacobians(X)
        if chart is None:
            return _lstsq_steps(J, -R)
        dz = _lstsq_steps(J @ chart[idx], -R)
        return (chart[idx] @ dz[..., None])[..., 0]

    U = np.array(U0, dtype=complex)
    R = system.residuals(U)
    rn = np.linalg.norm(R, axis=1)
    width = U.shape[1] if chart is None else chart.shape[2]
    block = max(1, JACOBIAN_BLOCK_BYTES // (R.shape[1] * max(width, 1) * U.itemsize))
    ladder = 0.5 ** np.arange(1, 30)[:, None]
    score_block = max(1, JACOBIAN_BLOCK_BYTES // (R.shape[1] * ladder.size * U.itemsize))
    live = np.ones(len(U), dtype=bool)
    for _ in range(max_steps):
        live &= rn > converged
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        step = np.empty((rows.size, U.shape[1]), dtype=complex)
        for i in range(0, rows.size, block):
            part = rows[i:i + block]
            step[i:i + block] = steps(part, U[part], R[part])
        U_try = U[rows] + step
        R_try = system.residuals(U_try)
        rn_try = np.linalg.norm(R_try, axis=1)
        slow = np.flatnonzero(~(rn_try < rn[rows]))
        t = np.zeros(slow.size)
        for i in range(0, slow.size, score_block):
            part = slow[i:i + score_block]
            lin = (system.jacobians(U[rows[part]]) @ step[part, :, None])[..., 0]
            quad = system.quadratic(step[part])
            pred = R[rows[part], None] + ladder * (lin[:, None] + ladder * quad[:, None])
            better = np.linalg.norm(pred, axis=2) < rn[rows[part], None]
            t[i:i + score_block] = np.where(better.any(axis=1), ladder[better.argmax(axis=1), 0], 0)
        retry, t = slow[t > 0.0], t[t > 0.0]
        if retry.size:
            U_try[retry] = U[rows[retry]] + t[:, None] * step[retry]
            R_try[retry] = system.residuals(U_try[retry])
            rn_try[retry] = np.linalg.norm(R_try[retry], axis=1)
        better = rn_try < rn[rows]
        done = rows[better]
        U[done], R[done], rn[done] = U_try[better], R_try[better], rn_try[better]
        live[rows[~better]] = False
    return U, rn, rn <= converged


def _disk_samples(rng, shape):
    radii = 2.0 * np.sqrt(rng.uniform(size=shape))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return radii * np.exp(1j * angles)


# ---------------------------------------------------------------------------
# matching discovered solutions to the representative families


def _char_gap(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / (1.0 + max(np.linalg.norm(a), np.linalg.norm(b))))


def _strict_tries(algebra, env, cands):
    """``(fid, params, leg, shear, branch, member)`` for each member of each
    candidate (of its leg, for a gauge one), built when it is reached."""
    for fid, params, leg, shear in cands:
        for branch, member in algebra.members(env, *(leg or (fid, params))):
            yield fid, params, leg, shear, branch, member


def _through_shear(algebra, env, fid, params, shear, q, mats, tol):
    """A gauge candidate's match: the leg's conjugator ``q`` composed with
    the shear, if it passes the acceptance test against a target member."""
    q = shear @ q
    for branch, target in algebra.members(env, fid, params):
        if _conjugates(q, mats, np.array(target.matrices(algebra.generators)), tol):
            return fid, params, branch, q / np.linalg.norm(q)
    return None


def _match(task, pres, reps, tol, chars):
    """Match irreducible solutions to family members by explicit
    conjugators: for each solution of ``reps``, at its central character in
    ``chars``, ``(fid, params, branch, Q)`` or None.

    Two tiers run over the record's candidates at a solution's character.
    The strict tier tries every candidate at ``tol``: a direct one needs
    the conjugator search to accept it; a gauge one needs the search to
    accept its leg member, and the composition with the shear must pass
    the acceptance test (``_conjugates``) at ``tol`` against the target
    member in either branch, in the original coordinates.  It runs in
    waves: wave j tries the j-th member (``_strict_tries``) of every
    solution still unmatched, in one ``find_conjugators`` call.  The loose
    tier, for solutions polished right next to a component junction, runs
    one by one on the rest: direct candidates only, at 1e-6, and the
    central characters must also agree, so it cannot merge distinct classes.

    The family reported is the first candidate, in the record's order, that
    holds the class: the Table-4 families overlap, so it names a chart, not
    a unique class.
    """
    algebra, env = ALGEBRAS[task.algebra], task.env
    gens = algebra.generators
    mats = [np.array(rep.matrices(gens)) for rep in reps]
    cands = [algebra.candidates(env, task.jordan_kind, rep, char) for rep, char in zip(reps, chars)]
    tries = {i: _strict_tries(algebra, env, c) for i, c in enumerate(cands)}
    matches = [None] * len(reps)
    while tries:
        wave = []
        for i, pending in list(tries.items()):
            attempt = next(pending, None)
            if attempt is None:
                del tries[i]
            else:
                wave.append((i, attempt))
        if not wave:
            break
        qs = find_conjugators(np.array([mats[i] for i, _ in wave]),
                              np.array([attempt[-1].matrices(gens) for _, attempt in wave]), tol)
        for (i, (fid, params, leg, shear, branch, _)), q in zip(wave, qs):
            if q is not None:
                matches[i] = ((fid, params, branch, q) if leg is None else
                              _through_shear(algebra, env, fid, params, shear, q, mats[i], tol))
            if matches[i] is not None:
                del tries[i]
    words = algebra.center_words(env)
    return [match if match is not None else
            _loose_match(algebra, env, pres, words, cands[i], mats[i], chars[i])
            for i, match in enumerate(matches)]


def _loose_match(algebra, env, pres, words, cands, mats, char):
    """The loose tier for one solution: the first direct candidate member
    with a scalar centre and the solution's character that the search
    accepts at 1e-6, or None."""
    for fid, params, leg, _ in cands:
        if leg is not None:
            continue
        for branch, member in algebra.members(env, fid, params):
            member = np.array([member.matrices(algebra.generators)])
            ch, ok = central_values(pres, words, member, 1e-6)
            if not ok[0] or _char_gap(char, ch[0]) > 1e-5:
                continue
            q = find_conjugators(mats[None], member, 1e-6)[0]
            if q is not None:
                return fid, params, branch, q
    return None


def _rounded_keys(values):
    """The sort key of each row of a complex array: its real and imaginary
    parts, interleaved, rounded to 9 decimals by ``np.round`` (which is what
    ``round`` does to a numpy float, ties included)."""
    return np.round(values, 9).view(float).tolist()


def _slices_and_starts(rng, task, n_u):
    """Every start's slice equations ``rows . u = targets`` and its start
    point, drawn start by start: first the slices, then the start."""
    k = task.slices()
    rows = np.zeros((task.num_starts, k, n_u), dtype=complex)
    targets = np.zeros((task.num_starts, k), dtype=complex)
    starts = np.empty((task.num_starts, n_u), dtype=complex)
    for s in range(task.num_starts):
        for i in range(k):
            if rng.uniform() < COORD_SLICE_PROB:
                rows[s, i, int(rng.integers(n_u))] = 1.0
            else:
                row = rng.standard_normal(n_u) + 1j * rng.standard_normal(n_u)
                rows[s, i] = row / np.linalg.norm(row)
                targets[s, i] = _disk_samples(rng, ())
        starts[s] = _disk_samples(rng, n_u)
    return rows, targets, starts


def _slice_charts(rows, targets, starts):
    """Each start's affine chart on its slice ``rows[s] . u = targets[s]``,
    in groups of starts whose slice rows have the same rank.

    From the SVD of the slice rows, a start's chart origin is the orthogonal
    projection of its drawn start onto the slice, and its chart directions
    are an orthonormal basis of the kernel of its rows.  Singular values at
    or below ``max(k, n) * eps * sigma_max`` (the ``lstsq`` rule) count as
    zero, so a repeated coordinate slice keeps every direction of its
    larger kernel.  Yields ``(idx, origins, directions)`` with directions
    of shape ``(len(idx), n, n - rank)``.
    """
    S, k, n = rows.shape
    left, sv, vh = np.linalg.svd(rows)
    kept = sv > max(k, n) * np.finfo(float).eps * sv[:, :1]
    gap = (rows @ starts[..., None])[..., 0] - targets
    p = sv.shape[1]
    coef = np.einsum("skr,sk->sr", left[:, :, :p].conj(), gap)
    coef = np.divide(coef, sv, out=np.zeros_like(coef), where=kept)
    origins = starts - np.einsum("srn,sr->sn", vh[:, :p].conj(), coef)
    rank = np.count_nonzero(kept, axis=1)
    for r in sorted(set(rank.tolist()), reverse=True):
        idx = np.flatnonzero(rank == r)
        yield idx, origins[idx], vh[idx, r:].conj().transpose(0, 2, 1)


def _pinned_polish(system, U):
    """The endpoints with a tiny unknown, by index, and each of them with
    its tiny unknowns pinned to zero and re-polished.

    An unknown is tiny when ``0 < |u_j| <= 1e-4 * max(1, max |u|)``.
    Endpoints are polished in groups with the same number of pinned
    unknowns, each in the chart whose directions are its unpinned
    coordinate axes.
    """
    scale = np.maximum(1.0, np.max(np.abs(U), axis=1))
    tiny = (np.abs(U) > 0.0) & (np.abs(U) <= 1e-4 * scale[:, None])
    counts = np.count_nonzero(tiny, axis=1)
    n = U.shape[1]
    found, polished = [np.zeros(0, dtype=int)], [np.zeros((0, n), dtype=complex)]
    for t in sorted(set(counts.tolist()) - {0}):
        idx = np.flatnonzero(counts == t)
        free = np.nonzero(~tiny[idx])[1].reshape(len(idx), n - t)
        axes = np.zeros((len(idx), n, n - t), dtype=complex)
        axes[np.arange(len(idx))[:, None], free, np.arange(n - t)] = 1.0
        ends, _, _ = _gauss_newton_batch(system, np.where(tiny[idx], 0.0, U[idx]), chart=axes)
        found.append(idx)
        polished.append(ends)
    return np.concatenate(found), np.concatenate(polished)


def _kept_solutions(task, pres):
    """The certified endpoints of the multistart solve, in start order, as
    (rep, residual) pairs.

    All starts run through ``_gauss_newton_batch``: first each in its chart
    on its own slices (``_slice_charts``), then on the base system alone.
    Newton endpoints that cling to a degenerate stratum (some unknowns tiny
    but not zero) belong to classes at parameter magnitudes far outside
    numeric reach; their tiny unknowns are pinned to exactly zero and
    re-polished, and the stratum point replaces the endpoint when it still
    solves the relations.  Newton approaches a singular point of the
    stratum only linearly and stops within about 1e-5 of it, so a stratum
    point can have tiny unknowns of its own: the pinning repeats until no
    replacement is left with one (at most once per unknown).  A residual
    of ``CONVERGE_RESIDUAL`` leaves a class near the reducible stratum too
    far off for its conjugator to pass ``tol`` (``_match``), so every
    endpoint then takes up to ``REFINE_STEPS`` more steps, while they lower
    its residual, in the chart of its nonzero unknowns: exact zeros stay
    zero.  Every endpoint is certified by one stacked ``relation_residual``.
    """
    gens = pres.generators
    images, base = _build_system(pres, task.jordan_kind, 2)
    rng = np.random.default_rng(task.seed)
    U = np.empty((task.num_starts, base.n_unknowns), dtype=complex)
    for idx, origins, directions in _slice_charts(*_slices_and_starts(rng, task, base.n_unknowns)):
        U[idx] = _gauss_newton_batch(base, origins, chart=directions)[0]
    U, _, _ = _gauss_newton_batch(base, U)
    todo = np.arange(len(U))
    for _pass in range(base.n_unknowns):
        idx, pinned = _pinned_polish(base, U[todo])
        solves = relation_residual(pres, _images_at(images, pinned)) <= KEEP_RESIDUAL
        todo = todo[idx[solves]]
        if not todo.size:
            break
        U[todo] = pinned[solves]
    U[np.max(np.abs(U), axis=1) <= ZERO_SNAP] = 0.0
    U, _, _ = _gauss_newton_batch(base, U, chart=np.eye(U.shape[1]) * (U != 0)[:, None, :],
                                  converged=0.0, max_steps=REFINE_STEPS)
    mats = _images_at(images, U)
    residuals = relation_residual(pres, mats)
    return [(Rep(2, dict(zip(gens, m)), task.env), float(rr))
            for m, rr in zip(mats, residuals) if rr <= KEEP_RESIDUAL]


def solve_reps(task: SolveTask, tol: float = DEFAULT_RTOL) -> SolveReport:
    """Run the randomized solve described in the module docstring.

    Deterministic for a fixed task (including the seed).  Every reported
    solution satisfies the unsliced relations with normalized residual at
    most 1e-9.  Every class that Burnside calls irreducible goes through
    ``_match`` against the algebra's representative families, and a match
    is reported only with its explicit conjugator.  A class whose centre is not scalar has no
    central character; it is left out of the solutions and counted in
    ``stats["degenerate"]``.
    """
    pres = task.presentation()
    kept = _kept_solutions(task, pres)
    degenerate = 0
    classes = classify([rep for rep, _ in kept], tol)
    heads = [kept[cls.representative] for cls in classes]
    mats = np.array([rep.matrices(pres.generators) for rep, _ in heads])
    mats = mats.reshape(-1, len(pres.generators), 2, 2)
    irreducible = is_irreducible_burnside(mats, tol).tolist()
    words = ALGEBRAS[task.algebra].center_words(task.env)
    chars, scalar = central_values(pres, words, mats, 1e-6)
    keys = _rounded_keys(fingerprint(mats))
    todo = [i for i in range(len(heads)) if irreducible[i] and scalar[i]]
    matches = dict(zip(todo, _match(task, pres, [heads[i][0] for i in todo], tol, chars[todo])))
    solutions = []
    for i, (cls, (rep, rr)) in enumerate(zip(classes, heads)):
        sol = Solution(rep, rr, irreducible[i], multiplicity=len(cls.members))
        if sol.irreducible and not scalar[i]:
            degenerate += len(cls.members)
            continue
        if matches.get(i) is not None:
            sol.matched_family, sol.fitted_params, sol.branch, sol.conjugator = matches[i]
        solutions.append((keys[i], rr, sol))
    solutions = [sol for *_, sol in sorted(solutions, key=lambda entry: entry[:2])]

    stats = {
        "starts": int(task.num_starts),
        "converged": len(kept),
        "deduped": len(solutions),
        "degenerate": degenerate,
    }
    return SolveReport(task, solutions, stats)


def one_dim_solutions(pres: Presentation, num_starts: int = 200, seed: int = 0):
    """Scalar (1-dimensional) solutions of the presentation via Newton sweeps.

    All starts run through one batched Gauss-Newton solve.  Endpoints with
    every value below ``ZERO_SNAP`` are snapped to the exact zero; the others
    take full Newton steps while their step is long (``STEP_BOUND``).  All
    endpoints are certified by one stacked ``relation_residual``.  Certified
    endpoints are deduplicated in start order: an endpoint is kept unless it
    lies within 1e-4 of a root kept before it.

    Returns the roots as tuples, one complex value per generator, sorted
    deterministically.
    """
    images, system = _build_system(pres, "one_block", 1)
    rng = np.random.default_rng(seed)
    starts = _disk_samples(rng, (num_starts, system.n_unknowns))
    ends, _, _ = _gauss_newton_batch(system, starts)
    ends[np.max(np.abs(ends), axis=1) <= ZERO_SNAP] = 0.0
    for _ in range(REFINE_STEPS):
        rows = np.flatnonzero(np.max(np.abs(ends), axis=1) > ZERO_SNAP)
        if not rows.size:
            break
        step = _lstsq_steps(system.jacobians(ends[rows]), -system.residuals(ends[rows]))
        scale = np.maximum(1.0, np.linalg.norm(ends[rows], axis=1))
        far = np.linalg.norm(step, axis=1) > STEP_BOUND * scale
        if not far.any():
            break
        ends[rows[far]] += step[far]
    pending = ends[relation_residual(pres, _images_at(images, ends)) <= KEEP_RESIDUAL]
    roots = []
    while len(pending):
        roots.append(pending[0])
        pending = pending[np.linalg.norm(pending - pending[0], axis=1) > 1e-4]
    keys = _rounded_keys(np.array(roots).reshape(-1, system.n_unknowns))
    return [tuple(roots[i].tolist()) for i in sorted(range(len(roots)), key=keys.__getitem__)]


def report_to_json(report: SolveReport) -> dict:
    task = report.task
    out = {
        "task": {
            "algebra": task.algebra,
            "jordan_kind": task.jordan_kind,
            "c": _complex_to_pair(task.c) if task.c is not None else None,
            "num_starts": int(task.num_starts),
            "seed": int(task.seed),
            "slice_count": task.slices(),
        },
        "stats": dict(report.stats),
        "solutions": [],
    }
    reps = _reps_to_json([sol.rep for sol in report.solutions])
    for sol, rep in zip(report.solutions, reps):
        entry = {
            "rep": rep,
            "residual": sol.residual,
            "irreducible": bool(sol.irreducible),
            "multiplicity": int(sol.multiplicity),
            "matched_family": sol.matched_family,
            "branch": sol.branch,
            "fitted_params": (
                {k: _complex_to_pair(v) for k, v in sol.fitted_params.items()}
                if sol.fitted_params
                else None
            ),
            "conjugator": (
                _matrix_to_json(sol.conjugator) if sol.conjugator is not None else None
            ),
        }
        out["solutions"].append(entry)
    return out
