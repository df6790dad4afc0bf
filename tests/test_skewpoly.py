import numpy as np
import pytest

from sklyrep.freealg import eval_ncpoly
from sklyrep.reptheory import (
    find_conjugator,
    find_invariant_line,
    is_irreducible_burnside,
    relation_residual,
)
from sklyrep.skewpoly import (
    SkewRepSpec,
    skew_center_point,
    skew_presentation,
    skew_rep,
)


def test_presentation_single_relation():
    pres = skew_presentation()
    assert pres.generators == ("x", "y")
    assert len(pres.relations) == 1
    rel = pres.relations[0]
    # vanishes on the anti-commuting family, equals 2XY on commuting matrices
    rep = skew_rep(SkewRepSpec("two_dim", 0.8, -1.2))
    assert np.linalg.norm(eval_ncpoly(rel, rep.matrices(pres.generators))) <= 1e-15
    rho = skew_rep(SkewRepSpec("one_dim_x", 2.5))
    assert np.linalg.norm(eval_ncpoly(rel, rho.matrices(pres.generators))) == 0.0
    x = np.diag([1.0, 2.0]).astype(complex)
    y = np.diag([3.0, 4.0]).astype(complex)
    assert np.allclose(eval_ncpoly(rel, [x, y]), 2.0 * x @ y)


def test_two_dim_construction_and_irreducibility():
    rep = skew_rep(SkewRepSpec("two_dim", 1.0, 1.0))
    assert np.allclose(rep.images["x"], np.diag([-1.0, 1.0]))
    assert np.allclose(rep.images["y"], [[0.0, 1.0], [1.0, 0.0]])
    assert is_irreducible_burnside(rep)
    assert not is_irreducible_burnside(skew_rep(SkewRepSpec("two_dim", 1.0, 0.0)))
    assert find_invariant_line(skew_rep(SkewRepSpec("two_dim", 0.0, 1.0))) is not None


def test_one_dim_reps():
    rho = skew_rep(SkewRepSpec("one_dim_x", 3.0))
    assert rho.n == 1
    assert rho.images["x"][0, 0] == 3.0
    assert rho.images["y"][0, 0] == 0.0
    assert relation_residual(skew_presentation(), rho) == 0.0
    with pytest.raises(ValueError):
        skew_rep(SkewRepSpec("three_dim", 1.0, 1.0))


def test_center_point_values(rng):
    for _ in range(50):
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        u1, u2 = skew_center_point(skew_rep(SkewRepSpec("two_dim", alpha, beta)))
        assert abs(u1 - alpha ** 2) <= 1e-10 * (1.0 + abs(alpha) ** 2)
        assert abs(u2 - beta) <= 1e-10 * (1.0 + abs(beta))
    assert skew_center_point(skew_rep(SkewRepSpec("one_dim_x", 2.0))) == (4.0, 0.0)
    assert skew_center_point(skew_rep(SkewRepSpec("two_dim", 0.0, 0.0))) == (0.0, 0.0)


def test_center_point_rejects_non_solutions(rng):
    from sklyrep.reptheory import Rep

    rep = Rep(2, {"x": np.eye(2), "y": np.eye(2)}, {})
    with pytest.raises(ValueError):
        skew_center_point(rep)


def test_center_point_rejects_mixed_direct_sum():
    from sklyrep.reptheory import Rep

    # one_dim_x(1) (+) one_dim_x(2) solves the relation, but x^2 = diag(1, 4)
    rep = Rep(2, {"x": np.diag([1.0, 2.0]), "y": np.zeros((2, 2))}, {})
    with pytest.raises(ValueError, match="not scalar"):
        skew_center_point(rep)


def test_equivalence_exactly_when_center_points_agree(rng):
    for _ in range(40):
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        if abs(alpha) < 0.2 or abs(beta) < 0.2:
            continue
        a = skew_rep(SkewRepSpec("two_dim", alpha, beta))
        b = skew_rep(SkewRepSpec("two_dim", -alpha, beta))
        assert find_conjugator(a, b) is not None
        # different center point: no conjugator
        c = skew_rep(SkewRepSpec("two_dim", 1.5 * alpha + 0.3, beta))
        assert find_conjugator(a, c) is None
