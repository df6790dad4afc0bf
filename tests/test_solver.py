import json

import numpy as np
import pytest

from sklyrep.freealg import eval_ncpoly, parse_ncpoly
from sklyrep.reptheory import Presentation, relation_residual
from sklyrep.sklyanin import s11c_presentation
from sklyrep.skewpoly import skew_presentation
from sklyrep.solver import (
    DEFAULT_SLICES,
    SolveTask,
    _QuadSystem,
    _build_system,
    _disk_samples,
    _gauss_newton,
    _gauss_newton_batch,
    _lstsq_steps,
    _rep_from_unknowns,
    one_dim_solutions,
    report_to_json,
    solve_reps,
)

from conftest import random_valid_c


def test_default_slice_counts():
    assert DEFAULT_SLICES == {"one_block": 2, "two_blocks": 3}
    assert SolveTask("sklyanin", "one_block", c=5.0).slices() == 2
    assert SolveTask("sklyanin", "two_blocks", c=5.0, slice_count=4).slices() == 4


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
    assert all(s.matched_family == "psi" for s in irr)


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
            mats = _rep_from_unknowns(u, pres.generators, images, {}).matrices(pres.generators)
            expected = np.concatenate([eval_ncpoly(r, mats).ravel() for r in pres.relations])
            gap = np.max(np.abs(system.residual(u) - expected))
            assert gap <= 1e-12 * (1.0 + np.max(np.abs(expected))), (kind, n)
    gens = ("x", "y")
    cubic = Presentation(gens, (parse_ncpoly("x*y*x + y^2", gens),))
    with pytest.raises(ValueError, match="degree > 2"):
        _build_system(cubic, "two_blocks", 2)


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
    systems.append(_QuadSystem(np.stack([np.eye(2, dtype=complex)] * 2),
                               np.zeros((2, 2), complex), -np.ones(2, complex)))
    for system in systems:
        starts = _disk_samples(rng, (50, system.n_unknowns))
        ends, _, converged = _gauss_newton_batch(system, starts)
        for u0, u, ok in zip(starts, ends, converged):
            ref, _, ref_ok = _gauss_newton(system, u0)
            assert ok == ref_ok
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
    stacks = [square, cplx(4, 1, 2), cplx(4, 3, 2)]  # the skew ring's 1x2, and 3x2
    stacks[2][0, :, 1] = 2.0 * stacks[2][0, :, 0]  # a rank-deficient non-square row

    routed = []
    pinv = np.linalg.pinv

    def recording_pinv(a, **kwargs):
        routed.append(a.copy())
        return pinv(a, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", recording_pinv)
    for jac in stacks:
        rhs = cplx(*jac.shape[:2])
        steps = _lstsq_steps(jac, rhs)
        for j, b, x in zip(jac, rhs, steps):
            ref = np.linalg.lstsq(j, b, rcond=None)[0]
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.array_equal(routed[0], square[fallback])
    assert [r.shape for r in routed[1:]] == [(4, 1, 2), (4, 3, 2)]


def test_one_dim_skew_coordinate_lines():
    roots = one_dim_solutions(skew_presentation(), num_starts=80, seed=5)
    assert roots
    for x, y in roots:
        assert abs(x) <= 1e-7 or abs(y) <= 1e-7


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
