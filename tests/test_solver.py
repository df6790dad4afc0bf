import json

import numpy as np
import pytest

from sklyrep import sklyanin, solver
from sklyrep.freealg import eval_ncpoly, parse_ncpoly
from sklyrep.matkit import DEFAULT_RTOL
from sklyrep.reptheory import (
    Presentation,
    Rep,
    _conjugates,
    central_values,
    classify,
    find_conjugator,
    fingerprint,
    is_irreducible_burnside,
    relation_residual,
)
from sklyrep.sklyanin import FAMILIES, REPRESENTATIVE_IDS, family, s11c_presentation
from sklyrep.skewpoly import skew_presentation
from sklyrep.solver import (
    ALGEBRAS,
    CONVERGE_RESIDUAL,
    DEFAULT_SLICES,
    MAX_STEPS,
    Solution,
    SolveReport,
    SolveTask,
    _QuadSystem,
    _build_system,
    _disk_samples,
    _gauss_newton_batch,
    _images_at,
    _kept_solutions,
    _lstsq_steps,
    _match,
    _pinned_polish,
    _rounded_keys,
    _slice_charts,
    one_dim_solutions,
    report_to_json,
    solve_reps,
)

from conftest import (
    central_values_reference,
    random_param,
    random_valid_c,
    rounded_key_reference,
    span_rank_reference,
)


def test_default_slice_counts():
    assert DEFAULT_SLICES == {"one_block": 2, "two_blocks": 3}
    assert SolveTask("sklyanin", "one_block", c=5.0).slices() == 2
    assert SolveTask("sklyanin", "two_blocks", c=5.0, slice_count=4).slices() == 4


@pytest.mark.parametrize("args, kwargs, message", [
    (("quantum", "one_block"), {}, "unknown algebra 'quantum'"),
    (("sklyanin", "three_blocks"), {"c": 5.0}, "unknown jordan_kind 'three_blocks'"),
    (("sklyanin", "one_block"), {}, "c is required for the sklyanin algebra"),
    (("skew", "two_blocks"), {"c": 5.0}, "c does not apply to the skew algebra"),
    (("sklyanin", "one_block"), {"c": 0.0}, "c is too close to 0"),
    (("sklyanin", "two_blocks"), {"c": np.exp(2j * np.pi / 3)}, r"c\^3 is too close to 1"),
    (("sklyanin", "one_block"), {"c": -2.0}, r"c\^3 is too close to -8"),
    (("sklyanin", "one_block"), {"c": complex("nan")}, "c must be finite"),
], ids=["unknown_algebra", "unknown_jordan_kind", "c_missing", "c_for_skew", "c_zero",
        "c_cube_root_of_1", "c_cube_root_of_minus_8", "c_not_finite"])
def test_solve_task_checks_its_inputs_against_the_record(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        SolveTask(*args, **kwargs)


def test_solve_task_binds_the_record_parameters():
    assert SolveTask("sklyanin", "one_block", c=5.0).env == {"c": 5.0 + 0j}
    assert SolveTask("skew", "two_blocks").env == {}
    assert SolveTask("skew", "two_blocks").presentation() == skew_presentation()


# the representative families of each algebra: id, Jordan shape of the first
# image, free parameters
REPRESENTATIVES = {
    "sklyanin": [(fid, "one_block" if fid.startswith("t3") else "two_blocks",
                  FAMILIES[fid].free_params) for fid in REPRESENTATIVE_IDS],
    "skew": [("psi", "two_blocks", ("alpha", "beta"))],
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_candidates_at_a_members_character_list_an_equivalent_member(name, rng):
    # the closed-form inversion alone: the direct candidates at a random
    # member's own central character include one that it is conjugate to
    algebra = ALGEBRAS[name]
    for fid, kind, free in REPRESENTATIVES[name]:
        drawn = 0
        while drawn < 12:
            env = {"c": random_valid_c(rng)} if algebra.params else {}
            members = list(algebra.members(env, fid, {p: random_param(rng) for p in free}))
            if not members:
                continue
            drawn += 1
            member = members[int(rng.integers(len(members)))][1]
            pres = algebra.presentation(env)
            mats = np.array([member.matrices(pres.generators)])
            chars, scalar = central_values(pres, algebra.center_words(env), mats, 1e-6)
            assert scalar[0]
            accepted = [
                cand_fid
                for cand_fid, params, leg, _ in algebra.candidates(env, kind, member, chars[0])
                if leg is None
                for _, cand in algebra.members(env, cand_fid, params)
                if find_conjugator(member, cand) is not None
            ]
            assert accepted, (fid, env, member.env)


def test_determinism_identical_reports():
    task = SolveTask("sklyanin", "one_block", c=5.0, num_starts=40, seed=9)
    a = json.dumps(report_to_json(solve_reps(task)), sort_keys=True)
    b = json.dumps(report_to_json(solve_reps(task)), sort_keys=True)
    assert a == b


def test_soundness_on_unsliced_system():
    task = SolveTask("sklyanin", "two_blocks", c=5.0, num_starts=60, seed=3)
    report = solve_reps(task)
    pres = s11c_presentation(5.0)
    assert report.solutions
    for sol in report.solutions:
        assert sol.residual <= 1e-8
        assert relation_residual(pres, sol.rep) <= 1e-8


def test_one_block_solutions_have_nilpotent_x():
    report = solve_reps(SolveTask("sklyanin", "one_block", c=5.0, num_starts=60, seed=2))
    for sol in report.solutions:
        x = sol.rep.images["x"]
        assert abs(x[0, 0]) <= 1e-7 and abs(x[1, 1]) <= 1e-7


def test_irreducible_solutions_match_representative_families():
    for kind, allowed in (
        ("one_block", {"t3f1", "t3f2"}),
        ("two_blocks", {"t4f1", "t4f2", "t4f3", "t4f4"}),
    ):
        report = solve_reps(SolveTask("sklyanin", kind, c=5.0, num_starts=120, seed=1))
        assert any(s.irreducible for s in report.solutions)
        for sol in report.solutions:
            if sol.irreducible:
                assert sol.matched_family in allowed
                assert sol.conjugator is not None


def test_skew_solver_closure():
    report = solve_reps(SolveTask("skew", "one_block", num_starts=40, seed=4))
    assert all(not s.irreducible for s in report.solutions)
    report = solve_reps(SolveTask("skew", "two_blocks", num_starts=60, seed=4))
    irr = [s for s in report.solutions if s.irreducible]
    assert irr
    assert all(s.matched_family == "psi" and s.branch is None for s in irr)


def _character(task, rep):
    pres = task.presentation()
    mats = np.array([rep.matrices(pres.generators)])
    words = ALGEBRAS[task.algebra].center_words(task.env)
    chars, scalar = central_values(pres, words, mats, 1e-6)
    assert scalar[0]
    return chars[0]


def test_near_apex_two_blocks_class_matches_by_a_strict_conjugator():
    # an exact t4f2 solution near the apex of the homogeneous two_blocks
    # solution cone: its central character is O(|u|^2), below 1e-6, yet the
    # strict conjugator certificate holds
    task = SolveTask("sklyanin", "two_blocks", c=40.0, num_starts=200, seed=1466870536)
    report = solve_reps(task)
    assert report.stats["degenerate"] == 0
    near = [s for s in report.solutions
            if s.irreducible and np.linalg.norm(_character(task, s.rep)) < 1e-6]
    assert len(near) == 1
    sol = near[0]
    assert sol.matched_family == "t4f2"
    member = family("t4f2", {"c": 40.0, **sol.fitted_params}, branch=sol.branch)
    mats = [np.array(r.matrices("xyz")) for r in (sol.rep, member)]
    assert _conjugates(sol.conjugator, *mats, DEFAULT_RTOL)


def _match_reference(task, pres, rep, tol, char):
    """The per-class match loop that the waves replaced (reference): the
    strict tier, then the loose tier, over one class's candidates."""
    algebra, env = ALGEBRAS[task.algebra], task.env
    cands = algebra.candidates(env, task.jordan_kind, rep, char)
    for loose in (False, True):
        for fid, params, leg, shear in cands:
            if loose and leg is not None:
                continue
            for branch, member in algebra.members(env, *(leg or (fid, params))):
                if loose:
                    mats = np.array([member.matrices(rep.generators)])
                    ch, ok = central_values(pres, algebra.center_words(env), mats, 1e-6)
                    if not ok[0] or solver._char_gap(char, ch[0]) > 1e-5:
                        continue
                q = find_conjugator(rep, member, 1e-6 if loose else tol)
                if q is None:
                    continue
                if leg is None:
                    return fid, params, branch, q
                q = shear @ q
                mats = np.array(rep.matrices(rep.generators))
                for target_branch, target in algebra.members(env, fid, params):
                    if _conjugates(q, mats, np.array(target.matrices(rep.generators)), tol):
                        return fid, params, target_branch, q / np.linalg.norm(q)
    return None


def _small_z3_reps(c):
    return [family("t1f4", {"c": c, "z2": 0.7 - 0.2j, "z3": z3, "z4": 1.3 + 0.4j})
            for z3 in (1.5e-5, 1e-5)]


def test_small_z3_one_block_solutions_match_t3f1_through_the_shear():
    # a one_block solution at z3 ~ 1e-5 in its own gauge: its t3f1 member has
    # entries near 1e10 and no conjugator that the direct search accepts, and
    # the loose pass would take a t3f2 member, whose class has z3 = 0 (z3 is
    # invariant under I + tN, the centralizer of x)
    for c in (40.0, 12.0):
        task = SolveTask("sklyanin", "one_block", c=c)
        reps = _small_z3_reps(c)
        chars = [_character(task, rep) for rep in reps]
        matches = _match(task, task.presentation(), reps, DEFAULT_RTOL, chars)
        for rep, (fid, params, branch, q) in zip(reps, matches):
            assert fid == "t3f1" and params["z3"] == rep.env["z3"]
            member = family("t3f1", {"c": c, **params}, branch=branch)
            assert np.max(np.abs(member.images["y"])) > 1e8
            mats = [np.array(r.matrices("xyz")) for r in (rep, member)]
            assert _conjugates(q, *mats, DEFAULT_RTOL)


def _counting_family(monkeypatch):
    calls = []

    def counted(*args, _fn=sklyanin.family, **kwargs):
        calls.append(args[0])
        return _fn(*args, **kwargs)

    monkeypatch.setattr(sklyanin, "family", counted)
    return calls


def test_wave_matcher_equals_the_per_class_loop(monkeypatch):
    # one wave call over the classes of a solve, gauge-route classes and a
    # class that only the loose tier matches gives each class the per-class
    # loop's match, bit for bit, from the same family members; at the first
    # seed one class passes the gauge leg and fails the shear re-check
    calls = _counting_family(monkeypatch)
    rechecks = []

    def recorded(*args, _fn=solver._through_shear):
        result = _fn(*args)
        rechecks.append(result is not None)
        return result

    for c, seed in ((0.5 + 1.2j, 798573753), (40.0, 1)):
        task = SolveTask("sklyanin", "one_block", c=c, num_starts=200, seed=seed)
        pres = task.presentation()
        kept = [rep for rep, _ in _kept_solutions(task, pres)]
        member = family("t3f2", {"c": c, "z4": 0.9 + 0.3j})
        reps = [kept[cls.representative] for cls in classify(kept)] + _small_z3_reps(c) + [member]
        mats = np.array([rep.matrices(pres.generators) for rep in reps])
        words = ALGEBRAS["sklyanin"].center_words(task.env)
        chars, scalar = central_values(pres, words, mats, 1e-6)
        keep = [i for i, r in enumerate(reps) if scalar[i] and is_irreducible_burnside(r)]
        reps, chars = [reps[i] for i in keep], chars[keep]
        assert reps[-1] is member
        # the member's character off by 3e-6 in u3, as at an endpoint polished
        # next to a junction: the member at that character misses the strict
        # tolerance and passes the loose one
        chars[-1, 2] += 3e-6

        calls.clear()
        expected = [_match_reference(task, pres, rep, DEFAULT_RTOL, ch)
                    for rep, ch in zip(reps, chars)]
        reference_calls = len(calls)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_through_shear", recorded)
            matches = _match(task, pres, reps, DEFAULT_RTOL, chars)
        assert len(calls) == reference_calls > 0
        assert len(matches) == len(expected)
        for match, ref in zip(matches, expected):
            assert (match is None) == (ref is None)
            if ref is not None:
                assert match[:3] == ref[:3]
                assert match[3].tobytes() == ref[3].tobytes()
        assert [m[0] for m in expected[-3:-1]] == ["t3f1", "t3f1"]
        fid, params, branch, q = expected[-1]
        loose = [np.array(r.matrices("xyz"))
                 for r in (member, family(fid, {"c": c, **params}, branch=branch))]
        assert fid == "t3f2" and params["z4"] != 0.9 + 0.3j
        assert not _conjugates(q, *loose, DEFAULT_RTOL) and _conjugates(q, *loose, 1e-6)
    assert set(rechecks) == {True, False}


@pytest.mark.parametrize("c, seed", [(5.0, 354007259), (0.05, 644153130)])
def test_near_reducible_one_block_classes_match_once_polished(c, seed):
    # near-reducible t3f1 classes whose conjugators have cond 1e6 or more:
    # only endpoints polished past CONVERGE_RESIDUAL pass the strict tol
    report = solve_reps(SolveTask("sklyanin", "one_block", c=c, num_starts=200, seed=seed))
    assert report.stats["degenerate"] == 0
    irreducible = [s for s in report.solutions if s.irreducible]
    assert irreducible and all(s.matched_family in ("t3f1", "t3f2") for s in irreducible)


def test_one_dim_sklyanin_only_origin():
    roots = one_dim_solutions(s11c_presentation(2.0), num_starts=120, seed=5)
    assert roots == [(0j, 0j, 0j)]


def test_quadratic_system_matches_relations():
    rng = np.random.default_rng(17)
    presentations = [s11c_presentation(random_valid_c(rng)) for _ in range(4)]
    layouts = (("one_block", 2), ("two_blocks", 2), ("one_block", 1))
    cases = [(pres, kind, n) for pres in presentations + [skew_presentation()]
             for kind, n in layouts]
    for pres, kind, n in cases:
        images, system = _build_system(pres, kind, n)
        for _ in range(5):
            u = _disk_samples(rng, system.n_unknowns)
            mats = _images_at(images, u[None])[0]
            expected = np.concatenate([eval_ncpoly(r, mats).ravel() for r in pres.relations])
            gap = np.max(np.abs(system.residuals(u[None])[0] - expected))
            assert gap <= 1e-12 * (1.0 + np.max(np.abs(expected))), (kind, n)
    gens = ("x", "y")
    cubic = Presentation(gens, (parse_ncpoly("x*y*x + y^2", gens),))
    with pytest.raises(ValueError, match="degree > 2"):
        _build_system(cubic, "two_blocks", 2)


def _serial_gauss_newton(system, p, n_dirs=None):
    """Damped Gauss-Newton from one start p, one ``lstsq`` step at a time
    (reference).  With ``n_dirs`` = N the iterates stay in the affine chart
    ``p + N z``: each step solves ``J(u) N dz = -r(u)`` and moves u by N dz."""
    T, B, C = system.T, system.B, system.C

    def residual(u):
        return C + B @ u + np.einsum("kij,i,j->k", T, u, u)

    u = np.asarray(p, dtype=complex).copy()
    r = residual(u)
    rn = np.linalg.norm(r)
    for _ in range(MAX_STEPS):
        if rn <= CONVERGE_RESIDUAL:
            break
        jac = B + 2.0 * np.einsum("kij,j->ki", T, u)
        if n_dirs is None:
            step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        else:
            step = n_dirs @ np.linalg.lstsq(jac @ n_dirs, -r, rcond=None)[0]
        t = 1.0
        for _halving in range(30):
            r_try = residual(u + t * step)
            if np.linalg.norm(r_try) < rn:
                u, r, rn = u + t * step, r_try, np.linalg.norm(r_try)
                break
            t *= 0.5
        else:
            break
    return u, rn, rn <= CONVERGE_RESIDUAL


def _assert_matches_serial(system, starts, charts=None):
    ends, _, converged = _gauss_newton_batch(system, starts, chart=charts)
    for s, (u, ok) in enumerate(zip(ends, converged)):
        ref, _, ref_ok = _serial_gauss_newton(system, starts[s],
                                              None if charts is None else charts[s])
        assert ok == ref_ok
        assert np.max(np.abs(u - ref)) <= 1e-12
    return converged


def test_batched_kernel_matches_serial_reference():
    rng = np.random.default_rng(31)
    systems = [
        _build_system(pres, "one_block", 1)[1]
        for pres in [s11c_presentation(random_valid_c(rng)) for _ in range(4)]
        + [skew_presentation()]
    ]
    # u^2 = 1: full steps from near 0 overshoot, so the step halving runs
    systems.append(_QuadSystem(np.ones((1, 1, 1), complex), np.zeros((1, 1), complex),
                               -np.ones(1, complex)))
    # two copies of u0^2 + u1^2 = 1: a square Jacobian that is singular everywhere
    circle = _QuadSystem(np.stack([np.eye(2, dtype=complex)] * 2),
                         np.zeros((2, 2), complex), -np.ones(2, complex))
    systems.append(circle)
    for system in systems:
        _assert_matches_serial(system, _disk_samples(rng, (50, system.n_unknowns)))
    # one random line per start through the skew ring's coordinate axes and
    # through the circle, in the line's own chart: isolated roots, as in the
    # sliced 2-dimensional solve
    for system in (_build_system(skew_presentation(), "one_block", 1)[1], circle):
        rows = _disk_samples(rng, (50, 1, 2))
        targets = _disk_samples(rng, (50, 1))
        [(idx, origins, directions)] = _slice_charts(rows, targets, _disk_samples(rng, (50, 2)))
        assert np.array_equal(idx, np.arange(50)) and directions.shape == (50, 2, 1)
        assert _assert_matches_serial(system, origins, directions).any()


def test_residual_along_a_step_is_the_exact_quadratic_in_the_step_length():
    rng = np.random.default_rng(47)
    systems = [_build_system(s11c_presentation(random_valid_c(rng)), "two_blocks", 2)[1],
               _build_system(skew_presentation(), "one_block", 2)[1]]
    ladder = 0.5 ** np.arange(30)
    for system in systems:
        U = _disk_samples(rng, (20, system.n_unknowns))
        D = _disk_samples(rng, (20, system.n_unknowns))
        R = system.residuals(U)
        lin = (system.jacobians(U) @ D[..., None])[..., 0]
        quad = system.quadratic(D)
        for t in ladder:
            exact = system.residuals(U + t * D)
            pred = R + t * lin + t * t * quad
            scale = np.abs(R) + t * np.abs(lin) + t * t * np.abs(quad)
            assert np.all(np.abs(pred - exact) <= 1e-12 * scale)


def test_kernel_freezes_a_row_that_no_step_length_improves(monkeypatch):
    # u - 1 = 0 and u + 1 = 0 have no common root; the least-squares point
    # u = 0 is reached in one step, after which no step length helps beyond
    # rounding.  Each iteration evaluates the full steps and then, at most
    # once, the scored ones
    inconsistent = _QuadSystem(np.zeros((2, 1, 1), complex), np.ones((2, 1), complex),
                               np.array([-1.0, 1.0], dtype=complex))
    calls = []
    residuals = _QuadSystem.residuals

    def counting_residuals(self, U):
        calls.append(len(U))
        return residuals(self, U)

    monkeypatch.setattr(_QuadSystem, "residuals", counting_residuals)
    ends, rn, converged = _gauss_newton_batch(inconsistent, np.array([[0.3], [2.0]], complex))
    assert len(calls) <= 5
    assert not converged.any()
    assert np.max(np.abs(ends)) <= 1e-15 and np.allclose(rn, np.sqrt(2.0))


def test_slice_charts_keep_every_direction_of_a_repeated_coordinate_slice():
    rng = np.random.default_rng(37)
    # the sphere u0^2 + u1^2 + u2^2 = 1 and two slices per start: a line
    # meets it in isolated roots, a repeated coordinate slice in a circle
    n = 3
    sphere = _QuadSystem(np.eye(n, dtype=complex)[None], np.zeros((1, n), complex),
                         -np.ones(1, complex))
    rows = _disk_samples(rng, (40, 2, n))
    targets = _disk_samples(rng, (40, 2))
    for s in range(0, 40, 2):  # e_j . u = 0 twice, as the slice draw can give
        rows[s] = 0.0
        rows[s, :, s % n] = 1.0
        targets[s] = 0.0
    starts = _disk_samples(rng, (40, n))
    groups = list(_slice_charts(rows, targets, starts))
    assert [(idx.tolist(), d.shape[2]) for idx, _, d in groups] == [
        (list(range(1, 40, 2)), n - 2), (list(range(0, 40, 2)), n - 1)]
    for idx, origins, directions in groups:
        for s, p, dirs in zip(idx, origins, directions):
            # the origin is the start's orthogonal projection onto the slice,
            # and the directions are an orthonormal basis of its kernel
            assert np.max(np.abs(rows[s] @ p - targets[s])) <= 1e-12
            assert np.max(np.abs(rows[s] @ dirs)) <= 1e-12
            assert np.max(np.abs(dirs.conj().T @ dirs - np.eye(dirs.shape[1]))) <= 1e-12
            assert np.max(np.abs(dirs.conj().T @ (starts[s] - p))) <= 1e-12
        assert _assert_matches_serial(sphere, origins, directions).all()


def test_pinned_polish_runs_on_the_unpinned_axes():
    rng = np.random.default_rng(43)
    # the curve u0^2 + u1^2 + u2^2 = 1, u0 u1 + u0 u2 + u1 u2 = 0: one or two
    # pinned unknowns leave isolated roots
    T = np.stack([np.eye(3), (np.ones((3, 3)) - np.eye(3)) / 2.0]).astype(complex)
    curve = _QuadSystem(T, np.zeros((2, 3), complex), np.array([-1.0, 0.0], dtype=complex))
    ends = _disk_samples(rng, (40, 3))
    ends[np.abs(ends) < 0.1] = 0.1
    ends[5] = 0.0  # exact zeros are not tiny
    for s in range(0, 40, 3):  # one or two unknowns on the tiny scale
        ends[s, [s % 3, (s + 1) % 3][: 1 + s % 2]] = 1e-6
    idx, pinned = _pinned_polish(curve, ends)
    assert sorted(idx.tolist()) == list(range(0, 40, 3))
    for s, u in zip(idx, pinned):
        tiny = np.abs(ends[s]) == 1e-6
        assert np.all(u[tiny] == 0.0)
        ref, _, _ = _serial_gauss_newton(curve, np.where(tiny, 0.0, ends[s]), np.eye(3)[:, ~tiny])
        assert np.max(np.abs(u - ref)) <= 1e-12


def _random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def test_lstsq_steps_follow_the_lstsq_rule(monkeypatch):
    rng = np.random.default_rng(41)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def with_singular_values(sv):
        n = len(sv)
        return _random_unitary(rng, n) @ np.diag(sv) @ _random_unitary(rng, n).conj().T

    square = np.array([
        cplx(3, 3),
        with_singular_values([1.0, 1.0, 1.0]),
        np.outer(cplx(3), cplx(3).conj()),  # rank 1
        with_singular_values([2.0, 1.0, 1e-12]),  # cond 2e12
        cplx(3, 3),
        np.zeros((3, 3)),
    ])
    fallback = np.array([False, False, True, True, False, True])
    stacks = [square, cplx(4, 1, 2)]  # and the skew ring's 1x2

    routed = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        routed.append(a.copy())
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for jac in stacks:
        rhs = cplx(*jac.shape[:2])
        steps = _lstsq_steps(jac, rhs)
        for j, b, x in zip(jac, rhs, steps):
            ref = np.linalg.lstsq(j, b, rcond=None)[0]
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.array_equal(routed[0], square[fallback])
    assert [r.shape for r in routed[1:]] == [(4, 1, 2)]


def test_lstsq_steps_damp_tall_rows(monkeypatch):
    # tall rows take the damped normal-equation step, mu = n eps ||J||_F^2
    rng = np.random.default_rng(43)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def with_singular_values(k, sv):
        n = len(sv)
        return _random_unitary(rng, k)[:, :n] @ np.diag(sv) @ _random_unitary(rng, n).conj().T

    routed = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        routed.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    well = np.array([cplx(12, 7), cplx(12, 7), with_singular_values(12, np.linspace(1.0, 10.0, 7)),
                     with_singular_values(12, [4.0, 3.0, 2.0, 2.0, 1.0, 1.0, 0.5])])
    rhs = cplx(4, 12)
    for j, b, x in zip(well, rhs, _lstsq_steps(well, rhs)):
        ref = np.linalg.lstsq(j, b, rcond=None)[0]
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    deficient = cplx(3, 12, 7)
    deficient[0, :, 1] = 2.0 * deficient[0, :, 0]
    deficient[1] = with_singular_values(12, [3.0, 2.0, 1.0, 1.0, 0.5, 0.0, 0.0])
    deficient[2] = np.outer(cplx(12), cplx(7).conj())  # rank 1
    rhs = cplx(3, 12)
    for j, b, x in zip(deficient, rhs, _lstsq_steps(deficient, rhs)):
        ref = np.linalg.lstsq(j, b, rcond=None)[0]
        assert np.linalg.norm(j @ x - j @ ref) <= 1e-10 * np.linalg.norm(b)
        assert np.linalg.norm(x) <= 2.0 * np.linalg.norm(ref)

    odd = cplx(3, 3, 2)
    odd[0] = 0.0
    odd[1, 0, 0] = np.nan
    odd[2] = 1e300  # overflows in J^H J
    with np.errstate(all="warn"):  # warnings are errors in the suite
        steps = _lstsq_steps(odd, cplx(3, 3))
    assert np.array_equal(steps[0], np.zeros(2))
    # a non-finite step makes the kernel freeze its row
    assert not np.isfinite(steps[1:]).all(axis=1).any()
    assert routed == []


def test_one_dim_skew_coordinate_lines():
    roots = one_dim_solutions(skew_presentation(), num_starts=80, seed=5)
    assert roots
    for x, y in roots:
        assert abs(x) <= 1e-7 or abs(y) <= 1e-7


@pytest.mark.parametrize("seed", [537474920, 1384090333, 783426226])
def test_one_dim_skew_roots_lie_on_the_axes(seed):
    # each of these sweeps once ended at a point whose residual 2|xy| passed
    # CONVERGE_RESIDUAL at 1.7e-8 or more from the nearest axis
    roots = one_dim_solutions(skew_presentation(), 200, seed)
    assert len(roots) == 200
    assert all(min(abs(x), abs(y)) <= 1e-8 for x, y in roots)


def test_rounded_keys_equal_the_per_row_keys_at_rounding_ties(rng):
    # numpy rounds x * 1e9 half to even, so 0.1234567895 (stored just below
    # the tie) rounds up, where round() of the Python float rounds it down
    ties = [0.1234567895, -0.1234567895, 1.0000000005, 2.5e-9, 5e-10, 1.5e-9, -0.0, 3e7 + 1e-9]
    values = np.array([ties[:4], ties[4:]]) + 1j * np.array([ties[4:], ties[:4]])
    noise = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    values = np.concatenate([values, noise * 10.0 ** rng.integers(-12, 8, (50, 1))])
    keys = _rounded_keys(values)
    reference = [rounded_key_reference(row) for row in values]
    assert np.array(keys).tobytes() == np.array(reference).tobytes()
    assert keys[0][0] == 0.12345679 != round(0.1234567895, 9)


def test_one_dim_roots_follow_the_rounded_keys():
    roots = one_dim_solutions(skew_presentation(), num_starts=60, seed=3)
    keys = [rounded_key_reference(np.array(r)) for r in roots]
    assert len(roots) == 60 and keys == sorted(keys)


@pytest.mark.parametrize("algebra, kind, c", [
    ("sklyanin", "one_block", 5.0), ("sklyanin", "two_blocks", 0.05), ("skew", "two_blocks", None)])
def test_stacked_certification_reports_equal_the_per_class_loop(algebra, kind, c):
    # the loop over classes that the stacked calls replaced, with the
    # per-representation references: the report must match byte for byte
    task = SolveTask(algebra, kind, c=c, num_starts=60, seed=7)
    pres = task.presentation()
    words = ALGEBRAS[algebra].center_words(task.env)
    kept = _kept_solutions(task, pres)
    solutions = []
    for cls in classify([rep for rep, _ in kept]):
        rep, rr = kept[cls.representative]
        irreducible = span_rank_reference(rep.matrices(pres.generators), 2, DEFAULT_RTOL) == 4
        sol = Solution(rep, rr, irreducible, multiplicity=len(cls.members))
        if irreducible:
            char = np.array(central_values_reference(pres, words, rep, 1e-6))
            match = _match_reference(task, pres, rep, DEFAULT_RTOL, char)
            if match is not None:
                sol.matched_family, sol.fitted_params, sol.branch, sol.conjugator = match
        solutions.append(sol)
    fps = fingerprint(np.array([s.rep.matrices(pres.generators) for s in solutions]))
    order = sorted(range(len(solutions)),
                   key=lambda i: (rounded_key_reference(fps[i]), solutions[i].residual))
    stats = {"starts": 60, "converged": len(kept), "deduped": len(order), "degenerate": 0}
    reference = SolveReport(task, [solutions[i] for i in order], stats)
    assert any(s.matched_family for s in reference.solutions)
    assert json.dumps(report_to_json(solve_reps(task))) == json.dumps(report_to_json(reference))


def test_solve_counts_a_class_without_central_character_as_degenerate(monkeypatch):
    # a Burnside-irreducible class that fails the centre's tests (here: it is
    # no solution) has no character; it is counted, not reported
    rng = np.random.default_rng(3)
    member = family("t3f2", {"c": 5.0, "z4": 0.7})
    stray = Rep(2, {g: rng.standard_normal((2, 2)) for g in "xyz"}, {"c": 5.0 + 0j})
    monkeypatch.setattr(solver, "_kept_solutions",
                        lambda task, pres: [(member, 0.0), (stray, 0.0), (stray, 0.0)])
    report = solve_reps(SolveTask("sklyanin", "one_block", c=5.0))
    assert report.stats["degenerate"] == 2
    assert [s.matched_family for s in report.solutions] == ["t3f2"]


def test_report_json_shape():
    task = SolveTask("sklyanin", "two_blocks", c=5.0, num_starts=30, seed=6)
    data = report_to_json(solve_reps(task))
    assert data["task"]["algebra"] == "sklyanin"
    assert data["task"]["jordan_kind"] == "two_blocks"
    assert data["task"]["slice_count"] == 3
    assert set(data["stats"]) == {"starts", "converged", "deduped", "degenerate"}
    for sol in data["solutions"]:
        assert set(sol) == {
            "rep", "residual", "irreducible", "multiplicity",
            "matched_family", "branch", "fitted_params", "conjugator",
        }
        assert sol["residual"] <= 1e-8
