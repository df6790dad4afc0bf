import numpy as np
import pytest

from sklyrep.freealg import NcPoly, eval_ncpoly
from sklyrep.reptheory import (
    Presentation,
    Rep,
    find_conjugator,
    find_invariant_line,
    is_irreducible_burnside,
    relation_residual,
)
from sklyrep.sklyanin import (
    FAMILIES,
    REPRESENTATIVE_IDS,
    CenterChar,
    ConstraintError,
    CurveSampleError,
    DegeneratePointError,
    DenominatorError,
    InvalidParametersError,
    ProjPoint,
    SklyaninParams,
    center_words,
    central_character,
    curve_residual,
    curve_sample,
    family,
    family_ids,
    presentation,
    proj_equal,
    s11c_presentation,
    sigma,
    sigma_order,
    validate_s11c,
    xc_gradient,
    xc_slice,
)
from sklyrep.solver import _build_system

from conftest import random_conjugator, random_param, random_valid_c, sample_family


# --- parameters and presentation ---------------------------------------------


def test_presentation_numeric_coefficients():
    pres = presentation(SklyaninParams(1.0, 1.0, 2.0))
    assert pres.generators == ("x", "y", "z")
    r1 = pres.relations[0]
    assert r1.terms[(1, 2)] == 1.0  # yz
    assert r1.terms[(2, 1)] == 1.0  # zy
    assert r1.terms[(0, 0)] == 2.0  # 2 x^2


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParametersError):
        presentation(SklyaninParams(1.0, -1.0, 0.0))  # abc = 0
    with pytest.raises(InvalidParametersError):
        presentation(SklyaninParams(1.0, 1.0, 1.0))  # 27 = 27
    with pytest.raises(InvalidParametersError):
        validate_s11c(-2.0)  # c^3 = -8
    validate_s11c(2.0)


# --- the curve and sigma ------------------------------------------------------


def test_curve_membership_examples(rng):
    for _ in range(20):
        c = random_valid_c(rng)
        p = SklyaninParams(1.0, 1.0, c)
        assert curve_residual(p, ProjPoint.of(1.0, 1.0, c)) <= 1e-12
        assert curve_residual(p, ProjPoint.of(1.0, -1.0, 0.0)) <= 1e-12
    p = SklyaninParams(1.0, 1.0, 2.0)
    assert curve_residual(p, ProjPoint.of(1.0, 2.0, 3.0)) > 1e-3


def test_curve_sample_determinism_and_residual(rng):
    p = SklyaninParams(1.0, 1.0, random_valid_c(rng))
    pts = [curve_sample(p, seed=11) for _ in range(2)]
    assert pts[0] == pts[1]
    assert curve_residual(p, pts[0]) <= 1e-10
    with pytest.raises(InvalidParametersError):
        curve_sample(SklyaninParams(1.0, -1.0, 0.0), seed=0)


def test_sigma_formula_examples():
    # order-1 triple: the image is a rescaling of the input
    pm = SklyaninParams(1.0, -1.0, 0.0)
    pt = ProjPoint.of(1.0, 2.0, 3.0)
    assert proj_equal(sigma(pm, pt, strict=False), pt)
    # translation of the origin lands on [1:1:c]
    for c in (2.0, 5.0, 0.5 + 1.1j):
        p = SklyaninParams(1.0, 1.0, c)
        img = sigma(p, ProjPoint.of(1.0, -1.0, 0.0))
        assert proj_equal(img, ProjPoint.of(1.0, 1.0, c))
    # base point of the formula
    with pytest.raises(DegeneratePointError):
        sigma(SklyaninParams(1.0, 1.0, 2.0), ProjPoint.of(1.0, 1.0, 2.0))


def test_sigma_preserves_curve(rng):
    for trial in range(30):
        p = SklyaninParams(1.0, 1.0, random_valid_c(rng))
        pt = curve_sample(p, seed=trial)
        try:
            img = sigma(p, pt)
        except DegeneratePointError:
            continue
        assert curve_residual(p, img) <= 1e-7


def test_sigma_order_examples(rng):
    assert sigma_order(SklyaninParams(1.0, 1.0, 2.0), 8, seed=3) == 2
    assert sigma_order(SklyaninParams(1.0, 1.0, random_valid_c(rng)), 4, seed=5) == 2
    assert sigma_order(SklyaninParams(1.0, -1.0, 0.0), 4, seed=1, strict=False) == 1
    # generic a != b: no order <= 8
    assert sigma_order(SklyaninParams(1.0, 1.7, 0.9), 8, trials=4, seed=2) is None
    with pytest.raises(ValueError):
        sigma_order(SklyaninParams(1.0, 1.0, 2.0), 0)


def test_proj_point_normalization_idempotent():
    pt = ProjPoint.of(2.0, -4.0, 1.0 + 1.0j)
    again = ProjPoint.of(pt.u, pt.v, pt.w)
    assert pt == again
    assert max(abs(pt.u), abs(pt.v), abs(pt.w)) == 1.0
    with pytest.raises(ValueError):
        ProjPoint.of(0.0, 0.0, 0.0)
    assert proj_equal(ProjPoint.of(1.0, 2.0, 3.0), ProjPoint.of(-2.0, -4.0, -6.0))


# --- family constructors ------------------------------------------------------


def test_family_registry_ids():
    assert set(family_ids()) == {
        "t1f1", "t1f2", "t1f3", "t1f4", "t1f5",
        "t2f1", "t2f2", "t2f3", "t2f4", "t2f5", "t2f6",
        "t3f1", "t3f2", "t4f1", "t4f2", "t4f3", "t4f4",
    }
    assert set(REPRESENTATIVE_IDS) <= set(family_ids())


def test_family_t3f2_example_matrices():
    rep = family("t3f2", {"c": 2.0, "z4": 1.0})
    assert np.allclose(rep.images["x"], [[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(rep.images["y"], [[-1.0, 0.5], [-2.0, 1.0]])
    assert np.allclose(rep.images["z"], [[-1.0, 1.0], [0.0, 1.0]])


def test_family_t2f2_example_matrices():
    rep = family("t2f2", {"c": 2.0, "x4": 1.0, "y3": 1.0})
    assert np.allclose(rep.images["x"], np.diag([-1.0, 1.0]))
    assert np.allclose(rep.images["y"], [[0.0, 0.0], [1.0, 0.0]])
    assert np.allclose(rep.images["z"], [[0.0, -2.0], [0.0, 0.0]])


def test_family_constraint_violations():
    with pytest.raises(ConstraintError):
        family("t4f1", {"c": 5.0, "y4": 1.0, "z4": 0.0})
    with pytest.raises(ConstraintError):
        family("t4f2", {"c": 5.0, "x4": 0.0})
    with pytest.raises(ConstraintError):
        family("t3f1", {"c": 5.0, "z2": 1.0, "z3": 0.0})
    with pytest.raises(KeyError):
        family("nope", {"c": 5.0})
    with pytest.raises(KeyError):
        family("t3f2", {"c": 5.0})  # z4 missing
    with pytest.raises(InvalidParametersError):
        family("t3f2", {"c": 1.0, "z4": 1.0})


def test_family_denominator_reported():
    with pytest.raises(DenominatorError) as err:
        family("t3f1", {"c": 5.0, "z2": 1.0, "z3": 0.0}, enforce_constraints=False)
    assert "z3" in str(err.value)


def test_families_satisfy_relations(rng):
    for fid in family_ids():
        for _ in range(30):
            rep = sample_family(fid, rng)
            pres = s11c_presentation(rep.env["c"])
            assert relation_residual(pres, rep) <= 1e-8, fid


def test_representative_families_are_irreducible(rng):
    for fid in REPRESENTATIVE_IDS:
        for _ in range(30):
            rep = sample_family(fid, rng)
            assert is_irreducible_burnside(rep), fid
            assert find_invariant_line(rep) is None, fid


def test_branch_flag_changes_radical_families(rng):
    env = {"c": random_valid_c(rng), "z2": 0.4 + 0.2j, "z3": 1.1 - 0.3j}
    a = family("t3f1", env, branch="principal")
    b = family("t3f1", env, branch="negated")
    assert not np.allclose(a.images["y"], b.images["y"])
    for rep in (a, b):
        assert relation_residual(s11c_presentation(env["c"]), rep) <= 1e-10


def test_constraint_boundary_t4f1_t4f2_reducible_when_relaxed(rng):
    c = random_valid_c(rng)
    rep = family("t4f1", {"c": c, "y4": 1.3, "z4": 0.0}, enforce_constraints=False)
    assert find_invariant_line(rep) is not None
    rep = family("t4f2", {"c": c, "x4": 0.0}, enforce_constraints=False)
    assert find_invariant_line(rep) is not None


def test_constraint_boundary_t4f3_overlaps_t4f1(rng):
    # at z4 = zeta*y4 the row duplicates a t4f1 class instead of a new one
    c = 5.0
    y4 = 0.9 - 0.4j
    for k in range(3):
        zeta = np.exp(2j * np.pi * k / 3.0)
        with pytest.raises(ConstraintError):
            family("t4f3", {"c": c, "y4": y4, "z4": zeta * y4})
        rep = family(
            "t4f3", {"c": c, "y4": y4, "z4": zeta * y4}, enforce_constraints=False
        )
        twin = family("t4f1", {"c": c, "y4": -y4, "z4": -zeta * y4})
        assert find_conjugator(rep, twin) is not None


# --- equivalences between table rows -----------------------------------------


def test_table1_family3_equivalent_to_family4_at_matched_parameters(rng):
    for _ in range(25):
        c = random_valid_c(rng)
        z2, z3, z4 = (random_param(rng) for _ in range(3))
        t = random_param(rng, lo=0.05, hi=1.0)
        m3 = family("t1f3", {"c": c, "z2": z2, "z3": z3, "z4": z4})
        sheared = {"c": c, "z2": z2 + 2 * t * z4 - t * t * z3, "z3": z3, "z4": z4 - t * z3}
        assert any(
            find_conjugator(m3, family("t1f4", sheared, branch=br)) is not None
            for br in ("negated", "principal")
        )


def test_table2_family4_equivalent_to_family2(rng):
    for _ in range(25):
        c = random_valid_c(rng)
        x4, z3 = random_param(rng), random_param(rng)
        m4 = family("t2f4", {"c": c, "x4": x4, "z3": z3})
        m2 = family("t2f2", {"c": c, "x4": -x4, "y3": -c * x4 ** 2 / z3})
        assert find_conjugator(m4, m2) is not None


def test_table2_family6_equivalent_to_family5(rng):
    for _ in range(25):
        c = random_valid_c(rng)
        y3, y4, z3, z4, v3 = (random_param(rng) for _ in range(5))
        m6 = family("t2f6", {"c": c, "y3": y3, "y4": y4, "z3": z3, "z4": z4})
        matched = {"c": c, "y3": v3, "y4": y4, "z3": z3 * v3 / y3, "z4": z4}
        assert any(
            find_conjugator(m6, family("t2f5", matched, branch=br)) is not None
            for br in ("negated", "principal")
        )


# --- center and geometry ------------------------------------------------------


def test_center_words_shapes():
    c = 2.0 - 0.5j
    u1, u2, u3, g = center_words(c)
    assert set(u1.terms) == {(0, 0)}
    assert set(u3.terms) == {(2, 2)}
    assert set(g.terms) == {(1, 1, 1), (1, 0, 2), (0, 1, 2), (0, 0, 0)}
    assert g.terms[(1, 1, 1)] == c
    assert g.terms[(1, 0, 2)] == 1.0
    assert g.terms[(0, 1, 2)] == -1.0
    assert g.terms[(0, 0, 0)] == -c
    eye = np.eye(2)
    out = eval_ncpoly(u3, [np.zeros((2, 2)), np.zeros((2, 2)), eye])
    assert np.allclose(out, eye)


def test_central_character_frozen_example():
    rep = family("t3f2", {"c": 2.0, "z4": 1.0})
    char = central_character(rep)
    assert abs(char.u1) <= 1e-12
    assert abs(char.u2) <= 1e-12
    assert abs(char.u3 - 1.0) <= 1e-12
    assert abs(char.g + 2.0) <= 1e-12
    assert char.f_residual <= 1e-12


def test_central_character_trivial_rep():
    z = np.zeros((2, 2))
    rep = Rep(2, {"x": z, "y": z, "z": z}, {"c": 2.0})
    char = central_character(rep)
    assert char.point.tolist() == [0, 0, 0, 0]
    assert char.f_residual == 0.0


def test_central_character_requires_solution_rep(rng):
    images = {
        g: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for g in ("x", "y", "z")
    }
    rep = Rep(2, images, {"c": 2.0})
    with pytest.raises(ValueError):
        central_character(rep)


def test_central_scalarity_on_samples(rng):
    for _ in range(100):
        fid = REPRESENTATIVE_IDS[int(rng.integers(len(REPRESENTATIVE_IDS)))]
        rep = sample_family(fid, rng)
        char = central_character(rep, tol=1e-7)
        assert char.f_residual <= 1e-6


def _t3f2_plus_trivial():
    member = family("t3f2", {"c": 2.0, "z4": 0.7})
    images = {g: np.pad(m, ((0, 1), (0, 1))) for g, m in member.images.items()}
    return Rep(3, images, dict(member.env))


def test_central_character_rejects_non_scalar_centre():
    # the direct sum mixes the t3f2 point with the origin, so the trace
    # average tr(m)/3 is no character
    with pytest.raises(ValueError, match="not scalar"):
        central_character(_t3f2_plus_trivial())


def test_central_character_on_upper_triangular_reps_and_every_family(rng):
    for _ in range(20):
        c = random_valid_c(rng)
        upper = {
            g: np.array([[0.0, random_param(rng)], [0.0, 0.0]], dtype=complex)
            for g in ("x", "y", "z")
        }
        rep = Rep(2, upper, {"c": c})
        assert central_character(rep).point.tolist() == [0, 0, 0, 0]
        q = random_conjugator(rng)
        qinv = np.linalg.inv(q)
        conj = Rep(2, {g: q @ m @ qinv for g, m in upper.items()}, {"c": c})
        assert np.max(np.abs(central_character(conj).point)) <= 1e-12
    for fid in family_ids():
        for _ in range(10):
            char = central_character(sample_family(fid, rng), tol=1e-7)
            assert char.f_residual <= 1e-6


def test_xc_gradient_values():
    assert np.allclose(xc_gradient(2.0, (0, 0, 0, 0)), 0.0)
    grad = xc_gradient(2.0, (0.0, 0.0, 1.0, -2.0))
    assert np.allclose(grad, [0.0, 0.0, -12.0, -4.0])
    assert np.linalg.norm(xc_gradient(5.0, (0, 0, 0, 1.0))) > 1e-6


def test_xc_slice_csv():
    csv = xc_slice(5.0, 0.0, (-1.0, 1.0, 3))
    lines = csv.strip().split("\n")
    assert lines[0] == "u2,u3,value"
    assert len(lines) == 1 + 9
    rows = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in lines[1:]}
    # at u1 = 0, u2 = 1, u3 = 0 the value is sqrt(25) = 5
    assert abs(rows[("1", "0")] - 5.0) <= 1e-12
    assert abs(rows[("0", "0")]) == 0.0
    with pytest.raises(ValueError):
        xc_slice(5.0, 0.0, (0.0, 1.0, 0))


def test_center_char_dataclass_point():
    ch = CenterChar(1.0, 2.0, 3.0, 4.0, 0.0)
    assert np.allclose(ch.point, [1, 2, 3, 4])


def _literal_presentation(a, b, c):
    """S(a,b,c) written out word by word, the reference form."""
    gens = ("x", "y", "z")
    x, y, z = range(3)
    return Presentation(gens, (
        NcPoly(gens, {(y, z): a, (z, y): b, (x, x): c}),
        NcPoly(gens, {(z, x): a, (x, z): b, (y, y): c}),
        NcPoly(gens, {(x, y): a, (y, x): b, (z, z): c}),
    ))


@pytest.mark.parametrize(
    "a, b, c",
    [(1.0, 1.0, c) for c in (5.0, -0.7, 1.2j, 0.5 - 1.2j, 40.0, 0.05)]
    + [(1.5, -0.5 + 0.25j, 2.0)],
)
def test_presentation_matches_text_form(a, b, c):
    expected = _literal_presentation(a, b, c)
    built = [presentation(SklyaninParams(a, b, c))]
    if a == b == 1.0:
        built.append(s11c_presentation(c))
    for pres in built:
        assert pres.generators == expected.generators
        assert pres.relations == expected.relations
        for kind, n in (("one_block", 2), ("two_blocks", 2), ("one_block", 1)):
            got = _build_system(pres, kind, n)[1]
            ref = _build_system(expected, kind, n)[1]
            for x, y in ((got.T, ref.T), (got.B, ref.B), (got.C, ref.C)):
                assert x.tobytes() == y.tobytes(), (kind, n)


@pytest.mark.parametrize("bad", [float("inf"), complex(1.0, float("nan"))])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(InvalidParametersError, match="finite"):
        validate_s11c(bad)
    with pytest.raises(InvalidParametersError, match="finite"):
        SklyaninParams(1.0, bad, 2.0).validate()
