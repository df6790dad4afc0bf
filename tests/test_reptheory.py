import numpy as np
import pytest

from sklyrep.matkit import nullspace
from sklyrep.reptheory import (
    Rep,
    _sylvester_system,
    classify,
    conjugate_rep,
    find_conjugator,
    find_invariant_line,
    fingerprint,
    is_irreducible_burnside,
    relation_residual,
    rep_from_json,
    rep_to_json,
)
from sklyrep.sklyanin import family, s11c_presentation
from sklyrep.skewpoly import SkewRepSpec, skew_presentation, skew_rep

from conftest import random_conjugator, random_valid_c, sample_family


def trivial_rep(c=2.0):
    z = np.zeros((2, 2))
    return Rep(2, {"x": z, "y": z, "z": z}, {"c": c})


T3F2_EXAMPLE = {"c": 2.0, "z4": 1.0}


def test_relation_residual_trivial_rep_is_zero():
    assert relation_residual(s11c_presentation(2.0), trivial_rep()) == 0.0


def test_relation_residual_on_table_row_example():
    rep = family("t3f2", T3F2_EXAMPLE)
    # the stated matrices, checked directly against the three relations
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    y = np.array([[-1.0, 0.5], [-2.0, 1.0]])
    z = np.array([[-1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(rep.images["x"], x)
    assert np.allclose(rep.images["y"], y)
    assert np.allclose(rep.images["z"], z)
    c = 2.0
    assert np.linalg.norm(y @ z + z @ y + c * x @ x) <= 1e-12
    assert np.linalg.norm(z @ x + x @ z + c * y @ y) <= 1e-12
    assert np.linalg.norm(x @ y + y @ x + c * z @ z) <= 1e-12
    assert relation_residual(s11c_presentation(2.0), rep) <= 1e-12


def test_relation_residual_on_anticommuting_pair():
    rep = skew_rep(SkewRepSpec("two_dim", 0.9 - 0.4j, 1.2 + 0.1j))
    assert relation_residual(skew_presentation(), rep) <= 1e-15


def test_burnside_examples():
    assert not is_irreducible_burnside(trivial_rep())
    assert is_irreducible_burnside(family("t3f2", T3F2_EXAMPLE))
    assert not is_irreducible_burnside(skew_rep(SkewRepSpec("two_dim", 1.0, 0.0)))
    assert is_irreducible_burnside(skew_rep(SkewRepSpec("one_dim_x", 3.0)))  # n = 1


def test_invariant_line_examples():
    w = find_invariant_line(trivial_rep())
    assert w is not None
    rep = sample_family("t2f2", np.random.default_rng(5))
    assert find_invariant_line(rep) is None
    w = find_invariant_line(skew_rep(SkewRepSpec("two_dim", 1.3, 0.0)))
    assert w is not None
    assert abs(w[1]) <= 1e-10  # proportional to (1, 0)


def test_fingerprint_trivial_and_frozen_example():
    assert np.allclose(fingerprint(trivial_rep()), 0.0)
    rep = family("t3f2", T3F2_EXAMPLE)
    x, y, z = rep.images["x"], rep.images["y"], rep.images["z"]
    expected = [
        np.trace(w)
        for w in (x, y, z, x @ x, y @ y, z @ z, x @ y, x @ z, y @ z, x @ y @ z)
    ]
    got = fingerprint(rep)
    assert np.allclose(got, expected)
    # frozen values from the direct matrix arithmetic above
    assert np.allclose(got, [0, 0, 0, 0, 0, 2, -2, 0, 0, 2])


def test_fingerprint_conjugation_invariance(rng):
    for _ in range(1000):
        rep = sample_family(
            ("t3f1", "t3f2", "t4f1", "t4f4")[int(rng.integers(4))], rng
        )
        fp = fingerprint(rep)
        fp2 = fingerprint(conjugate_rep(rep, random_conjugator(rng)))
        assert np.max(np.abs(fp - fp2)) <= 1e-8 * (1.0 + np.linalg.norm(fp))


def test_find_conjugator_self_gives_scalar(rng):
    rep = sample_family("t3f2", rng)
    q = find_conjugator(rep, rep)
    assert q is not None
    off = q - (np.trace(q) / 2.0) * np.eye(2)
    assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(q)


def test_find_conjugator_roundtrip_and_correctness(rng):
    for _ in range(50):
        rep = sample_family(("t3f1", "t4f4", "t4f1")[int(rng.integers(3))], rng)
        q0 = random_conjugator(rng)
        other = conjugate_rep(rep, q0)
        q = find_conjugator(rep, other)
        assert q is not None
        qi = np.linalg.inv(q)
        for g, m in rep.images.items():
            target = other.images[g]
            assert np.linalg.norm(q @ m @ qi - target) <= 1e-7 * (
                1.0 + np.linalg.norm(target)
            )


def test_find_conjugator_none_between_distinct_classes(rng):
    r1 = sample_family("t4f1", rng, c=5.0)
    r2 = sample_family("t4f2", rng, c=5.0)
    assert find_conjugator(r1, r2) is None


def _kron_system(m1, m2):
    """The stacked Sylvester matrix built block by block with np.kron (reference)."""
    eye = np.eye(m1.shape[-1], dtype=complex)
    return np.vstack([np.kron(eye, a.T) - np.kron(b, eye) for a, b in zip(m1, m2)])


def _draw_find_conjugator(r1, r2, tol=1e-8):
    """find_conjugator with np.kron blocks and 32 separate coefficient draws (reference)."""
    n, gens = r1.n, r1.generators
    stack = [np.array([r.images[g] for g in gens]) for r in (r1, r2)]
    basis = nullspace(_kron_system(*stack), tol)
    if not basis:
        return None

    def key(q):
        nrm = np.linalg.norm(q)
        return 0.0 if nrm == 0.0 else abs(np.linalg.det(q)) / nrm ** n

    candidates = [basis[0].reshape(n, n)]
    if len(basis) > 1:
        rng = np.random.default_rng(0)
        candidates = []
        for _ in range(32):
            coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            candidates.append(sum(c * b for c, b in zip(coeffs, basis)).reshape(n, n))
        candidates.sort(key=key, reverse=True)
    for q in candidates:
        if key(q) <= tol:
            continue
        qi = np.linalg.inv(q)
        if all(
            np.linalg.norm(q @ r1.images[g] @ qi - r2.images[g])
            <= 10.0 * tol * (1.0 + np.linalg.norm(r2.images[g]))
            for g in gens
        ):
            return q / np.linalg.norm(q)
    return None


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sylvester_system_matches_kron(n, k, rng):
    palette = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -3.25e-9, 7.0e12])
    for _ in range(10):
        m1, m2 = (np.empty((k, n, n), dtype=complex) for _ in range(2))
        for m in (m1, m2):
            # signed zeros and exact values in either part, next to random entries
            m.real = np.where(rng.random(m.shape) < 0.5, rng.choice(palette, m.shape),
                              rng.standard_normal(m.shape))
            m.imag = np.where(rng.random(m.shape) < 0.5, rng.choice(palette, m.shape),
                              rng.standard_normal(m.shape))
        assert _sylvester_system(m1, m2).tobytes() == _kron_system(m1, m2).tobytes()


def test_find_conjugator_matches_separate_draws_on_upper_triangular_pairs(rng):
    # strictly upper triangular pairs have a 2-dimensional Sylvester kernel,
    # and an invertible element of it exactly when their corners are proportional
    def upper(corner):
        return Rep(2, {g: [[0.0, v], [0.0, 0.0]] for g, v in zip("xyz", corner)})

    hits = 0
    for i in range(40):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = v * complex(*rng.standard_normal(2)) if i % 2 else rng.standard_normal(3) + 0j
        if i % 4 < 2:
            r1, r2 = upper(v), upper(w)
        else:
            r1 = conjugate_rep(upper(v), random_conjugator(rng))
            r2 = conjugate_rep(upper(w), random_conjugator(rng))
        q, ref = find_conjugator(r1, r2), _draw_find_conjugator(r1, r2)
        assert (q is None) == (ref is None)
        if q is not None:
            assert q.tobytes() == ref.tobytes()
            hits += 1
    assert hits == 20


def test_classify_conjugates_into_one_class(rng):
    rep = sample_family("t4f4", rng)
    reps = [rep] + [conjugate_rep(rep, random_conjugator(rng)) for _ in range(7)]
    classes = classify(reps)
    assert len(classes) == 1
    assert sorted(classes[0].members) == list(range(8))


def test_classify_table4_families_stay_separate(rng):
    c = random_valid_c(rng)
    reps = [sample_family(fid, rng, c=c) for fid in ("t4f1", "t4f2", "t4f3", "t4f4")]
    classes = classify(reps)
    assert len(classes) == 4
    # idempotent: classifying the representatives again gives singletons
    again = classify([reps[cls.representative] for cls in classes])
    assert all(len(cls.members) == 1 for cls in again)


def test_classify_empty():
    assert classify([]) == []


def test_rep_json_round_trip(rng):
    rep = sample_family("t4f4", rng)
    back = rep_from_json(rep_to_json(rep))
    assert back.n == rep.n
    assert back.generators == rep.generators
    for g in rep.generators:
        assert np.allclose(back.images[g], rep.images[g])
    assert back.env == {k: complex(v) for k, v in rep.env.items()}


def test_rep_json_missing_matrix_rejected():
    data = {"n": 1, "generators": ["x", "y"], "params": {}, "matrices": {"x": [[[0.0, 0.0]]]}}
    with pytest.raises(ValueError):
        rep_from_json(data)


def test_burnside_and_invariant_line_agree_on_mixed_samples(rng):
    ids = ("t1f1", "t1f3", "t1f5", "t2f1", "t2f2", "t2f5", "t3f1", "t3f2", "t4f1", "t4f2", "t4f3", "t4f4")
    for k in range(300):
        if k % 10 == 0:
            rep = conjugate_rep(trivial_rep(), random_conjugator(rng))
        else:
            rep = conjugate_rep(
                sample_family(ids[int(rng.integers(len(ids)))], rng),
                random_conjugator(rng),
            )
        assert is_irreducible_burnside(rep) == (find_invariant_line(rep) is None)
