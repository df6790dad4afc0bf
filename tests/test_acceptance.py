"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete (they are also captured in the normal run).
"""

import json
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from sklyrep.freealg import eval_ncpoly
from sklyrep.reptheory import (
    conjugate_rep,
    find_conjugator,
    find_invariant_line,
    is_irreducible_burnside,
    relation_residual,
    rep_to_json,
)
from sklyrep.sklyanin import (
    FAMILIES,
    REPRESENTATIVE_IDS,
    ConstraintError,
    SklyaninParams,
    center_words,
    central_character,
    curve_residual,
    curve_sample,
    family,
    family_ids,
    proj_equal,
    s11c_presentation,
    sigma,
    sigma_order,
    xc_gradient,
)
from sklyrep.skewpoly import SkewRepSpec, skew_center_point, skew_rep
from sklyrep.solver import SolveTask, one_dim_solutions, solve_reps

from conftest import (
    random_conjugator,
    random_param,
    random_valid_c,
    sample_family,
    subprocess_env,
)

DRAWS_PER_FAMILY = 500


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {title}: FAIL")
        raise
    print(f"[criterion {number:2d}] {title}: PASS")


@pytest.fixture(scope="module")
def representative_samples():
    """500 constraint-satisfying draws per representative family (criteria 2, 6)."""
    rng = np.random.default_rng(618)
    return {
        fid: [sample_family(fid, rng) for _ in range(DRAWS_PER_FAMILY)]
        for fid in REPRESENTATIVE_IDS
    }


def test_criterion_01_relation_soundness():
    rng = np.random.default_rng(101)
    with criterion(1, "relation soundness of all 17 family constructors"):
        presentations = {}
        for fid in family_ids():
            for _ in range(DRAWS_PER_FAMILY):
                rep = sample_family(fid, rng)
                c = rep.env["c"]
                if c not in presentations:
                    presentations[c] = s11c_presentation(c)
                assert relation_residual(presentations[c], rep) <= 1e-8, fid


def test_criterion_02_representatives_irreducible(representative_samples):
    rng = np.random.default_rng(202)
    with criterion(2, "irreducibility of representative families + test agreement"):
        for fid, reps in representative_samples.items():
            for rep in reps:
                assert is_irreducible_burnside(rep), fid
                assert find_invariant_line(rep) is None, fid
        # 1000 mixed samples: the two tests must agree on every single one
        mixed_ids = (
            "t1f1", "t1f2", "t1f3", "t1f4", "t1f5", "t2f1", "t2f3", "t2f5",
            "t3f1", "t3f2", "t4f1", "t4f2", "t4f3", "t4f4",
        )
        agree = 0
        total = 1000
        for k in range(total):
            roll = k % 10
            if roll == 0:
                z = np.zeros((2, 2))
                from sklyrep.reptheory import Rep

                rep = Rep(2, {"x": z, "y": z, "z": z}, {"c": 5.0})
            elif roll == 1:
                boundary = (
                    ("t4f1", {"c": 5.0, "y4": random_param(rng), "z4": 0.0}),
                    ("t4f2", {"c": 5.0, "x4": 0.0}),
                    ("t2f1", {"c": 5.0, "y3": random_param(rng),
                              "y4": random_param(rng), "z4": 0.0}),
                )[k % 3]
                rep = family(boundary[0], boundary[1], enforce_constraints=False)
            else:
                rep = sample_family(mixed_ids[int(rng.integers(len(mixed_ids)))], rng)
            rep = conjugate_rep(rep, random_conjugator(rng))
            if is_irreducible_burnside(rep) == (find_invariant_line(rep) is None):
                agree += 1
        assert agree == total, f"agreement {agree}/{total}"


def test_criterion_03_constraint_sharpness():
    rng = np.random.default_rng(303)
    with criterion(
        3,
        "Table 4 side conditions are sharp "
        "(t4f3 leg marks overlap with t4f1, not reducibility; see ledger)",
    ):
        for _ in range(25):
            c = random_valid_c(rng)
            y4 = random_param(rng)
            # t4f1 at the z4 -> 0 limit: reducible, and the constructor refuses
            with pytest.raises(ConstraintError):
                family("t4f1", {"c": c, "y4": y4, "z4": 0.0})
            rep = family("t4f1", {"c": c, "y4": y4, "z4": 0.0}, enforce_constraints=False)
            assert find_invariant_line(rep) is not None
            # t4f2 at x4 = 0: reducible, and the constructor refuses
            with pytest.raises(ConstraintError):
                family("t4f2", {"c": c, "x4": 0.0})
            rep = family("t4f2", {"c": c, "x4": 0.0}, enforce_constraints=False)
            assert find_invariant_line(rep) is not None
            # t4f3 at z4 = zeta*y4 (each cube root): the side condition fires;
            # the relaxed member is irreducible but duplicates a t4f1 class,
            # which is what the condition is there to prevent
            for k in range(3):
                zeta = np.exp(2j * np.pi * k / 3.0)
                with pytest.raises(ConstraintError):
                    family("t4f3", {"c": c, "y4": y4, "z4": zeta * y4})
                rep = family(
                    "t4f3", {"c": c, "y4": y4, "z4": zeta * y4},
                    enforce_constraints=False,
                )
                twin = family("t4f1", {"c": c, "y4": -y4, "z4": -zeta * y4})
                assert find_conjugator(rep, twin) is not None


def test_criterion_04_between_family_equivalences():
    rng = np.random.default_rng(404)
    with criterion(4, "equivalences between table rows / no false merges in Table 4"):
        for _ in range(100):
            c = random_valid_c(rng)
            # Table 1: family (3) ~ family (4) at shear-matched parameters
            z2, z3, z4 = (random_param(rng) for _ in range(3))
            t = random_param(rng, lo=0.05, hi=1.0)
            m3 = family("t1f3", {"c": c, "z2": z2, "z3": z3, "z4": z4})
            sheared = {
                "c": c, "z2": z2 + 2 * t * z4 - t * t * z3, "z3": z3, "z4": z4 - t * z3,
            }
            assert any(
                find_conjugator(m3, family("t1f4", sheared, branch=br)) is not None
                for br in ("negated", "principal")
            )
            # Table 2: family (4) ~ family (2)
            x4, w3 = random_param(rng), random_param(rng)
            m4 = family("t2f4", {"c": c, "x4": x4, "z3": w3})
            m2 = family("t2f2", {"c": c, "x4": -x4, "y3": -c * x4 ** 2 / w3})
            assert find_conjugator(m4, m2) is not None
            # Table 2: family (6) ~ family (5)
            y3, y4, u3, u4, v3 = (random_param(rng) for _ in range(5))
            m6 = family("t2f6", {"c": c, "y3": y3, "y4": y4, "z3": u3, "z4": u4})
            matched = {"c": c, "y3": v3, "y4": y4, "z3": u3 * v3 / y3, "z4": u4}
            assert any(
                find_conjugator(m6, family("t2f5", matched, branch=br)) is not None
                for br in ("negated", "principal")
            )
        # distinct Table 4 representative families never merge
        t4 = ("t4f1", "t4f2", "t4f3", "t4f4")
        for _ in range(100):
            i, j = rng.choice(4, size=2, replace=False)
            c = random_valid_c(rng)
            a = sample_family(t4[i], rng, c=c)
            b = sample_family(t4[j], rng, c=c)
            assert find_conjugator(a, b) is None, (t4[i], t4[j])


def test_criterion_05_sigma_order():
    rng = np.random.default_rng(505)
    with criterion(5, "sigma has order 2 iff a = b; order 1 at (1,-1,0); preserves E"):
        for k in range(100):
            c = random_valid_c(rng)
            p = SklyaninParams(1.0, 1.0, c)
            assert sigma_order(p, 4, trials=3, seed=k) == 2
            pt = curve_sample(p, seed=k)
            assert curve_residual(p, sigma(p, pt)) <= 1e-7
        # a != b: sigma^2 moves sampled curve points
        count = 0
        while count < 100:
            a = 1.0
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(a - b) <= 0.1:
                continue
            p = SklyaninParams(a, b, c)
            try:
                p.validate()
            except Exception:
                continue
            pt = curve_sample(p, seed=count)
            try:
                img = sigma(p, sigma(p, pt))
            except Exception:
                continue
            assert not proj_equal(img, pt), (a, b, c)
            assert curve_residual(p, img) <= 1e-7
            count += 1
        # order 1 triple, pointwise at random projective points
        from sklyrep.sklyanin import ProjPoint

        pm = SklyaninParams(1.0, -1.0, 0.0)
        for _ in range(100):
            coords = rng.standard_normal(6)
            pt = ProjPoint.of(
                complex(coords[0], coords[1]),
                complex(coords[2], coords[3]),
                complex(coords[4], coords[5]),
            )
            assert proj_equal(sigma(pm, pt, strict=False), pt)


def test_criterion_06_center_and_xc(representative_samples):
    with criterion(6, "central characters land on the center variety; smooth off 0"):
        checked = 0
        gradient_points = 0
        for fid, reps in representative_samples.items():
            for rep in reps:
                char = central_character(rep, tol=1e-7)  # raises if non-scalar
                assert char.f_residual <= 1e-6, fid
                checked += 1
                if gradient_points < 1000 and np.linalg.norm(char.point) > 1e-8:
                    grad = xc_gradient(rep.env["c"], char.point)
                    assert np.linalg.norm(grad) > 1e-6
                    gradient_points += 1
        assert checked == len(REPRESENTATIVE_IDS) * DRAWS_PER_FAMILY
        assert gradient_points == 1000
        # frozen point for t3f2 at c=2, z4=1
        char = central_character(family("t3f2", {"c": 2.0, "z4": 1.0}))
        assert np.max(np.abs(char.point - np.array([0, 0, 1, -2]))) <= 1e-10
        assert char.f_residual <= 1e-10
        # every center word evaluates to the zero 2x2 deviation on that rep
        rep = family("t3f2", {"c": 2.0, "z4": 1.0})
        mats = rep.matrices(("x", "y", "z"))
        for word in center_words(rep.env["c"]):
            m = eval_ncpoly(word, mats)
            assert max(abs(m[0, 1]), abs(m[1, 0]), abs(m[0, 0] - m[1, 1])) <= 1e-12
        # the origin is the singular point
        assert np.linalg.norm(xc_gradient(2.0, (0, 0, 0, 0))) == 0.0


def test_criterion_07_one_dimensional_reps():
    rng = np.random.default_rng(707)
    with criterion(7, "S(1,1,c) has only the trivial 1-dimensional representation"):
        for k in range(20):
            c = random_valid_c(rng)
            roots = one_dim_solutions(s11c_presentation(c), num_starts=200, seed=k)
            assert roots == [(0j, 0j, 0j)], c


def test_criterion_08_solver_closure():
    with criterion(8, "solver finds only known families and finds all six"):
        hits = set()
        for seed in range(1, 6):
            for kind, allowed in (
                ("one_block", {"t3f1", "t3f2"}),
                ("two_blocks", {"t4f1", "t4f2", "t4f3", "t4f4"}),
            ):
                report = solve_reps(
                    SolveTask("sklyanin", kind, c=5.0, num_starts=200, seed=seed)
                )
                for sol in report.solutions:
                    assert sol.residual <= 1e-8
                    if kind == "one_block":
                        x = sol.rep.images["x"]
                        assert abs(x[0, 0]) <= 1e-7
                    if sol.irreducible:
                        assert sol.matched_family in allowed, sol.matched_family
                        hits.add(sol.matched_family)
        assert hits == {"t3f1", "t3f2", "t4f1", "t4f2", "t4f3", "t4f4"}, hits


def test_criterion_09_skew_ring():
    with criterion(9, "skew ring: irreducibility boundary, center map, solver closure"):
        grid = np.linspace(0.0, 2.0, 50)
        for alpha in grid:
            for beta in grid:
                rep = skew_rep(SkewRepSpec("two_dim", alpha, beta))
                expected = abs(alpha * beta) > 1e-8
                assert is_irreducible_burnside(rep) == expected, (alpha, beta)
                u1, u2 = skew_center_point(rep)
                assert abs(u1 - alpha ** 2) <= 1e-10
                assert abs(u2 - beta) <= 1e-10
        report = solve_reps(SolveTask("skew", "one_block", num_starts=60, seed=1))
        assert all(not s.irreducible for s in report.solutions)
        report = solve_reps(SolveTask("skew", "two_blocks", num_starts=100, seed=1))
        irr = [s for s in report.solutions if s.irreducible]
        assert irr
        assert all(s.matched_family == "psi" for s in irr)


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "sklyrep", *args],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    return proc.returncode, proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical CLI output for every subcommand"):
        reps = [
            rep_to_json(family("t4f1", {"c": 5.0, "y4": 1.1, "z4": 0.7})),
            rep_to_json(family("t4f2", {"c": 5.0, "x4": 0.8})),
        ]
        rep_file = tmp_path / "reps.json"
        rep_file.write_text(json.dumps(reps))
        cases = [
            ["verify", "--family", "t3f1", "--set", "c=5,z2=0.3,z3=1.1"],
            ["verify", "--family", "t3f2", "--set", "c=2,z4=1", "--format", "human"],
            ["classify", "--input", str(rep_file)],
            ["sigma", "--a", "1", "--b", "1", "--c", "2"],
            ["sigma", "--a", "1", "--b", "-1", "--c", "0", "--format", "human"],
            ["solve", "--algebra", "sklyanin", "--c", "5", "--jordan", "two",
             "--starts", "40", "--seed", "7"],
            ["solve", "--algebra", "skew", "--jordan", "two", "--starts", "30",
             "--seed", "7"],
            ["slice", "--c", "5", "--u1", "0.3", "--grid", "-1:1:6"],
        ]
        for args in cases:
            code1, out1 = _run_cli(args)
            code2, out2 = _run_cli(args)
            assert code1 == code2 == 0, args
            assert out1 == out2, args
