"""Numerical rediscovery of the two-dimensional representation classification.

With the first generator image fixed in one of the two Jordan shapes, the
defining relations become a quadratic system in the remaining matrix
entries.  The generator images are one affine tensor in the unknowns
(``_layout``), and the system's coefficients come from expanding each
relation in that tensor (``_build_system``).  The solver runs damped
Gauss-Newton from many random starts on that system augmented with a few
random affine slices (the slices spread the starts across the
positive-dimensional solution components), then re-polishes every endpoint
on the unsliced system, keeps the points that satisfy the relations,
deduplicates them up to simultaneous conjugation, and matches each
irreducible solution to a representative family through its central
character.  These 2-dimensional solves run the serial
``_gauss_newton`` one start at a time.

The 1-dimensional sweep (``one_dim_solutions``) runs all of its starts
through ``_gauss_newton_batch``, which takes the same iteration on an
``(S, n)`` stack of starts: batched residuals and Jacobians, least-squares
steps by the ``lstsq(rcond=None)`` rule (``_lstsq_steps``), and step halving
per start.  A square Jacobian that carries a conditioning certificate gets
its step from one batched LU solve; every other row takes the SVD
pseudo-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sklyanin
from .matkit import DEFAULT_RTOL
from .reptheory import (
    Presentation,
    Rep,
    _complex_to_pair,
    classify,
    find_conjugator,
    fingerprint,
    is_irreducible_burnside,
    relation_residual,
    rep_to_json,
)
from .skewpoly import SkewRepSpec, skew_center_point, skew_presentation, skew_rep

__all__ = [
    "DEFAULT_SLICES",
    "SolveTask",
    "Solution",
    "SolveReport",
    "solve_reps",
    "one_dim_solutions",
    "report_to_json",
]

DEFAULT_SLICES = {"one_block": 2, "two_blocks": 3}

KEEP_RESIDUAL = 1e-9
CONVERGE_RESIDUAL = 1e-11
MAX_STEPS = 100

# a square n x n Jacobian with |det J| > SOLVE_CERTIFICATE * ||J||_F^n has
# sigma_min / sigma_max >= |det J| / ||J||_F^n, so cond(J) < 1e8: lstsq with
# rcond=None drops none of its singular values, and its step is the unique
# solution an LU solve computes
SOLVE_CERTIFICATE = 1e-8

# probability that one slice is a coordinate-vanishing functional e_j . u = 0;
# those keep the coordinate-degenerate solution components inside the sliced
# set, which dense slices alone essentially never reach
COORD_SLICE_PROB = 0.45

# endpoints with every image below this norm are snapped to the exact zero
# (trivial) solution, which Newton approaches only algebraically
ZERO_SNAP = 1e-5

# a non-zero endpoint whose central character is this close to the origin sits
# at working precision on the reducible stratum and cannot be certified
DEGENERATE_CHAR = 1e-6


@dataclass(frozen=True)
class SolveTask:
    """One solve run: algebra ("sklyanin" or "skew"), the Jordan shape of the
    first generator image, and the randomized-search budget."""

    algebra: str
    jordan_kind: str  # one_block | two_blocks
    c: complex = None
    num_starts: int = 200
    seed: int = 0
    slice_count: int = None

    def __post_init__(self):
        if self.num_starts < 1:
            raise ValueError(f"num_starts must be at least 1, got {self.num_starts}")
        if self.slice_count is not None and self.slice_count < 0:
            raise ValueError(f"slice_count must be at least 0, got {self.slice_count}")

    def slices(self):
        if self.slice_count is not None:
            return int(self.slice_count)
        return DEFAULT_SLICES[self.jordan_kind]

    def presentation(self) -> Presentation:
        if self.algebra == "sklyanin":
            if self.c is None:
                raise ValueError("sklyanin tasks need c")
            return sklyanin.s11c_presentation(self.c)
        if self.algebra == "skew":
            return skew_presentation()
        raise ValueError(f"unknown algebra {self.algebra!r}")


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

    def residual(self, u):
        return self.C + self.B @ u + np.einsum("kij,i,j->k", self.T, u, u)

    def jacobian(self, u):
        return self.B + 2.0 * np.einsum("kij,j->ki", self.T, u)

    def _half_jacobians(self, U):
        """T.u for each row u of the (S, n) stack U, shape (S, k, n)."""
        k, n, _ = self.T.shape
        return (U @ self.T.reshape(k * n, n).T).reshape(len(U), k, n)

    def residuals(self, U):
        """Residual of every row of the (S, n) stack U, shape (S, k)."""
        return self.C + U @ self.B.T + np.sum(self._half_jacobians(U) * U[:, None, :], axis=2)

    def jacobians(self, U):
        """Jacobian at every row of the (S, n) stack U, shape (S, k, n)."""
        return self.B + 2.0 * self._half_jacobians(U)

    def with_affine(self, rows, targets):
        k_extra = rows.shape[0]
        T = np.concatenate(
            [self.T, np.zeros((k_extra,) + self.T.shape[1:], dtype=complex)]
        )
        B = np.concatenate([self.B, rows])
        C = np.concatenate([self.C, -np.asarray(targets, dtype=complex)])
        return _QuadSystem(T, B, C)


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
    if jordan_kind not in _JORDAN_SHAPES:
        raise ValueError(f"unknown jordan_kind {jordan_kind!r}")
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


def _rep_from_unknowns(u, gens, images, env):
    """The representation at the unknowns u: ``images`` contracted with h = (1, u)."""
    mats = np.einsum("a,gaij->gij", np.concatenate(([1.0], u)), images)
    return Rep(images.shape[-1], dict(zip(gens, mats)), dict(env))


def _gauss_newton(system, u0):
    u = np.asarray(u0, dtype=complex).copy()
    r = system.residual(u)
    rn = np.linalg.norm(r)
    for _ in range(MAX_STEPS):
        if rn <= CONVERGE_RESIDUAL:
            break
        jac = system.jacobian(u)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        t = 1.0
        improved = False
        for _halving in range(30):
            u_try = u + t * step
            r_try = system.residual(u_try)
            rn_try = np.linalg.norm(r_try)
            if rn_try < rn:
                u, r, rn = u_try, r_try, rn_try
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return u, rn, rn <= CONVERGE_RESIDUAL


def _lstsq_steps(jac, rhs):
    """Least-squares solutions of ``jac[s] @ x = rhs[s]`` for each row s of the
    (S, k, n) stack ``jac``, by the ``np.linalg.lstsq(rcond=None)`` rule.

    Rows with a square Jacobian that passes the ``SOLVE_CERTIFICATE`` test
    take one batched ``np.linalg.solve``.  Every other row (non-square,
    singular, ill-conditioned, or not finite) takes the pseudo-inverse whose
    ``rtol=None`` cut-off is the ``lstsq(rcond=None)`` one.
    """
    S, k, n = jac.shape
    steps = np.empty((S, n), dtype=complex)
    certified = np.zeros(S, dtype=bool)
    if k == n:
        # a non-finite or overflowing row fails the comparison quietly
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.linalg.norm(jac, axis=(1, 2)) ** n
            certified = np.abs(np.linalg.det(jac)) > SOLVE_CERTIFICATE * scale
        steps[certified] = np.linalg.solve(jac[certified], rhs[certified, :, None])[..., 0]
    rest = ~certified
    if rest.any():
        pinv = np.linalg.pinv(jac[rest], rtol=None)
        steps[rest] = np.einsum("snk,sk->sn", pinv, rhs[rest])
    return steps


def _gauss_newton_batch(system, U0):
    """``_gauss_newton`` run on every row of the (S, n) stack U0 at once.

    Each row follows the serial iteration: a least-squares step
    (``_lstsq_steps``), then up to 30 halvings until the residual norm
    drops.  A row freezes once it converges or when no halving improves it.
    Returns the endpoints, their residual norms and the converged flags.
    """
    U = np.array(U0, dtype=complex)
    R = system.residuals(U)
    rn = np.linalg.norm(R, axis=1)
    live = np.ones(len(U), dtype=bool)
    for _ in range(MAX_STEPS):
        live &= rn > CONVERGE_RESIDUAL
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        step = _lstsq_steps(system.jacobians(U[rows]), -R[rows])
        t = 1.0
        for _halving in range(30):
            U_try = U[rows] + t * step
            R_try = system.residuals(U_try)
            rn_try = np.linalg.norm(R_try, axis=1)
            better = rn_try < rn[rows]
            done = rows[better]
            U[done], R[done], rn[done] = U_try[better], R_try[better], rn_try[better]
            rows, step = rows[~better], step[~better]
            if rows.size == 0:
                break
            t *= 0.5
        live[rows] = False
    return U, rn, rn <= CONVERGE_RESIDUAL


def _disk_samples(rng, shape, radius=2.0):
    radii = radius * np.sqrt(rng.uniform(size=shape))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return radii * np.exp(1j * angles)


# ---------------------------------------------------------------------------
# matching discovered solutions to the representative families


def _sqrt_pair(z):
    r = np.sqrt(complex(z))
    return (r, -r) if abs(r) > 0 else (r,)


def _family_candidates(task, char):
    c = complex(task.c)
    u1, u2, u3 = char.u1, char.u2, char.u3
    cands = []
    if task.jordan_kind == "one_block":
        z3 = -c * u2
        if abs(z3) > 1e-8:
            cands.append(("t3f1", {"z2": (u3 - 1.0) / z3, "z3": z3}))
        for z4 in _sqrt_pair(u3):
            if abs(z4) > 1e-8:
                cands.append(("t3f2", {"z4": z4}))
        return cands
    for x1 in _sqrt_pair(u1):
        if abs(x1) <= 1e-10:
            continue
        cands.append(("t4f2", {"x4": x1}))
        y4_f1 = c * u3 / (2.0 * x1)
        for z4 in _sqrt_pair(u3):
            cands.append(("t4f1", {"y4": y4_f1, "z4": z4}))
        z4_f3 = c * u2 / (2.0 * x1)
        for y4 in _sqrt_pair(u2):
            cands.append(("t4f3", {"y4": y4, "z4": z4_f3}))
        z4 = c * u2 / (2.0 * x1)
        y4 = c * u3 / (2.0 * x1)
        quad = np.array(
            [
                2.0 * x1 * z4 - c * y4 ** 2,
                c ** 2 * x1 ** 2 + 2.0 * c * y4 * z4,
                2.0 * x1 * y4 - c * z4 ** 2,
            ],
            dtype=complex,
        )
        if np.max(np.abs(quad)) > 1e-12:
            for z3 in np.roots(quad):
                if np.isfinite(z3):
                    cands.append(("t4f4", {"y4": y4, "z3": z3, "z4": z4}))
    return cands


def _char_gap(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b)) / (1.0 + max(np.linalg.norm(a), np.linalg.norm(b))))


def _match_sklyanin(task, rep, tol, char):
    """Match an irreducible solution to a representative family member.

    A strict conjugator search runs first; a looser second pass (for
    solutions polished right next to a component junction) additionally
    demands that the central characters agree, so it cannot merge distinct
    classes.
    """
    for loose_tol in (tol, 1e-6):
        for fid, params in _family_candidates(task, char):
            env = {"c": complex(task.c), **params}
            for branch in ("principal", "negated"):
                try:
                    member = sklyanin.family(fid, env, branch=branch)
                except (sklyanin.ConstraintError, sklyanin.DenominatorError,
                        sklyanin.InvalidParametersError):
                    continue
                if loose_tol > tol:
                    try:
                        member_char = sklyanin.central_character(member, tol=1e-6)
                    except ValueError:
                        continue
                    if _char_gap(char.point, member_char.point) > 1e-5:
                        continue
                q = find_conjugator(rep, member, loose_tol)
                if q is not None:
                    return fid, params, branch, q
                if not sklyanin.FAMILIES[fid].has_radical:
                    break
    return None


def _match_skew(rep, tol):
    try:
        u1, u2 = skew_center_point(rep, tol=1e-6)
    except ValueError:
        return None
    for alpha in _sqrt_pair(u1):
        if abs(alpha) <= 1e-10:
            continue
        member = skew_rep(SkewRepSpec("two_dim", alpha, u2))
        q = find_conjugator(rep, member, tol)
        if q is not None:
            return "psi", {"alpha": alpha, "beta": u2}, None, q
    return None


def _rounded_key(values):
    return tuple(v for z in values for v in (round(z.real, 9), round(z.imag, 9)))


def solve_reps(task: SolveTask, tol: float = DEFAULT_RTOL) -> SolveReport:
    """Run the randomized solve described in the module docstring.

    Deterministic for a fixed task (including the seed).  Every reported
    solution satisfies the unsliced relations with normalized residual at
    most 1e-9; irreducible solutions are matched against the representative
    families (``t3f*``/``t4f*`` for S(1,1,c), ``psi`` for the skew ring)
    when the match is confirmed by an explicit conjugator.
    """
    pres = task.presentation()
    gens = pres.generators
    images, base = _build_system(pres, task.jordan_kind, 2)
    env = {"c": complex(task.c)} if task.algebra == "sklyanin" else {}
    rng = np.random.default_rng(task.seed)
    n_u = base.n_unknowns
    k_slices = task.slices()

    kept = []
    degenerate = 0
    for _start in range(task.num_starts):
        rows = np.zeros((k_slices, n_u), dtype=complex)
        targets = np.zeros(k_slices, dtype=complex)
        for i in range(k_slices):
            if rng.uniform() < COORD_SLICE_PROB:
                rows[i, int(rng.integers(n_u))] = 1.0
            else:
                row = rng.standard_normal(n_u) + 1j * rng.standard_normal(n_u)
                rows[i] = row / np.linalg.norm(row)
                targets[i] = _disk_samples(rng, ())
        u0 = _disk_samples(rng, n_u)
        u_mid, _, _ = _gauss_newton(base.with_affine(rows, targets), u0)
        u_fin, _, _ = _gauss_newton(base, u_mid)
        # Newton endpoints that cling to a degenerate stratum (some unknowns
        # tiny but not zero) belong to classes at parameter magnitudes far
        # outside numeric reach; pin the tiny unknowns to exactly zero and
        # re-polish, keeping the stratum point when it still solves the
        # relations
        scale = max(1.0, float(np.max(np.abs(u_fin))))
        tiny = [j for j in range(n_u) if 0.0 < abs(u_fin[j]) <= 1e-4 * scale]
        if tiny:
            hold = np.zeros((len(tiny), n_u), dtype=complex)
            for i, j in enumerate(tiny):
                hold[i, j] = 1.0
            u_try = u_fin.copy()
            u_try[tiny] = 0.0
            u_try, _, _ = _gauss_newton(base.with_affine(hold, np.zeros(len(tiny))), u_try)
            rep_try = _rep_from_unknowns(u_try, gens, images, env)
            if relation_residual(pres, rep_try) <= KEEP_RESIDUAL:
                u_fin = u_try
        if np.max(np.abs(u_fin)) <= ZERO_SNAP:
            u_fin = np.zeros_like(u_fin)
        rep = _rep_from_unknowns(u_fin, gens, images, env)
        rr = relation_residual(pres, rep)
        if rr <= KEEP_RESIDUAL:
            kept.append((rep, rr))

    classes = classify([rep for rep, _ in kept], tol)
    solutions = []
    for cls in classes:
        rep, rr = kept[cls.representative]
        irreducible = is_irreducible_burnside(rep, tol)
        char = None
        if irreducible and task.algebra == "sklyanin":
            try:
                char = sklyanin.central_character(rep, tol=1e-6)
            except ValueError:
                degenerate += len(cls.members)
                continue
            if np.linalg.norm(char.point) <= DEGENERATE_CHAR:
                # indistinguishable from the reducible stratum at this precision
                degenerate += len(cls.members)
                continue
        sol = Solution(rep, rr, irreducible, multiplicity=len(cls.members))
        if irreducible:
            match = (
                _match_sklyanin(task, rep, tol, char)
                if task.algebra == "sklyanin"
                else _match_skew(rep, tol)
            )
            if match is not None:
                sol.matched_family, sol.fitted_params, sol.branch, sol.conjugator = match
        solutions.append(sol)
    solutions.sort(key=lambda s: (_rounded_key(fingerprint(s.rep)), s.residual))

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
    every value below ``ZERO_SNAP`` are snapped to the exact zero, and each
    distinct endpoint is certified once by ``relation_residual``.  Certified
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
    verdicts = {}
    for u in ends:
        key = u.tobytes()
        if key not in verdicts:
            rep = _rep_from_unknowns(u, pres.generators, images, {})
            verdicts[key] = relation_residual(pres, rep) <= KEEP_RESIDUAL
    pending = ends[[verdicts[u.tobytes()] for u in ends]]
    roots = []
    while len(pending):
        roots.append(pending[0])
        pending = pending[np.linalg.norm(pending - pending[0], axis=1) > 1e-4]
    roots.sort(key=_rounded_key)
    return [tuple(map(complex, u)) for u in roots]


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
    for sol in report.solutions:
        entry = {
            "rep": rep_to_json(sol.rep),
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
                [[_complex_to_pair(z) for z in row] for row in sol.conjugator]
                if sol.conjugator is not None
                else None
            ),
        }
        out["solutions"].append(entry)
    return out
