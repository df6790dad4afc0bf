import functools
import json
import time
import tracemalloc

import numpy as np
import pytest

from sklyrep import reptheory
from sklyrep.matkit import nullspace, rank
from sklyrep.reptheory import (
    FINGERPRINT_RTOL,
    EquivClass,
    Rep,
    _complex_to_pair,
    _reps_to_json,
    _sylvester_system,
    _well_conditioned_det,
    _word_span_ranks,
    central_values,
    classify,
    conjugate_rep,
    find_conjugator,
    find_conjugators,
    find_invariant_line,
    fingerprint,
    is_irreducible_burnside,
    relation_residual,
    rep_from_json,
    rep_to_json,
)
from sklyrep.sklyanin import (
    FAMILIES,
    REPRESENTATIVE_IDS,
    center_words,
    family,
    s11c_presentation,
)
from sklyrep.skewpoly import _CENTER_WORDS, SkewRepSpec, skew_presentation, skew_rep
from sklyrep.solver import SolveTask, _kept_solutions

from conftest import (
    central_values_reference,
    invariant_line_reference,
    random_conjugator,
    random_valid_c,
    sample_family,
    span_rank_reference,
)


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


def test_find_conjugator_balanced_retry(monkeypatch):
    # Q = [[1, t], [0, 1]] fixes the Jordan block x of t3f1 and has
    # |det Q| / ||Q||^2 ~ 1 / t^2 below tol, so the plain search rejects the
    # only candidate; in balanced coordinates it is well conditioned
    a = conjugate_rep(family("t3f1", {"c": 5.0, "z2": 0.3, "z3": 1.1}), np.diag([256.0, 1.0]))
    b = conjugate_rep(a, np.array([[1.0, 1e4], [0.0, 1.0]]))
    assert 1e6 < max(np.linalg.norm(m) for m in b.images.values()) < 1e7
    q = find_conjugator(a, b)
    assert q is not None
    qi = np.linalg.inv(q)
    for g, m in a.images.items():
        target = b.images[g]
        assert np.linalg.norm(q @ m @ qi - target) <= 1e-7 * (1.0 + np.linalg.norm(target))
    other = conjugate_rep(conjugate_rep(family("t3f1", {"c": 5.0, "z2": 0.31, "z3": 1.1}),
                                        np.diag([256.0, 1.0])), np.array([[1.0, 1e4], [0.0, 1.0]]))
    assert find_conjugator(a, other) is None
    # without the balanced retry the plain search misses the pair
    monkeypatch.setattr(reptheory, "_balancing", lambda mats: np.ones(mats.shape[-1]))
    assert find_conjugator(a, b) is None


def _one_pair_reference(m1, m2, tol):
    """The one-pair conjugator search as it ran before the stacked kernel
    (reference): candidates of one pair, tested one by one, best first,
    then the balanced retry."""
    n = m1.shape[-1]

    def accepts(q, a, b):
        qi = np.linalg.inv(q)
        return all(np.linalg.norm(q @ x @ qi - y) <= 10.0 * tol * (1.0 + np.linalg.norm(y))
                   for x, y in zip(a, b))

    def candidates(a, b):
        basis = nullspace(_sylvester_system(a, b), tol)
        if len(basis) <= 1:
            return np.array(basis).reshape(len(basis), n, n)
        draws = np.random.default_rng(0).standard_normal((32, 2, len(basis)))
        coeffs = draws[:, 0] + 1j * draws[:, 1]
        qs = 0
        for c, v in zip(coeffs.T, basis):
            qs = qs + c[:, None] * v
        return qs.reshape(32, n, n)

    def accepted(qs, a, b):
        keys = _well_conditioned_det(qs).tolist()
        for i in sorted(range(len(keys)), key=keys.__getitem__, reverse=True):
            if keys[i] > tol and accepts(qs[i], a, b):
                return qs[i] / np.linalg.norm(qs[i])
        return None

    qs = candidates(m1, m2)
    q = accepted(qs, m1, m2)
    if q is not None or not len(qs):
        return q
    d1, d2 = reptheory._balancing(m1), reptheory._balancing(m2)
    if np.all(d1 == 1.0) and np.all(d2 == 1.0):
        return None
    b1, b2 = m1 * d1[:, None] / d1, m2 * d2[:, None] / d2
    q = accepted(candidates(b1, b2), b1, b2)
    if q is None:
        return None
    q = q * d1 / d2[:, None]
    return q / np.linalg.norm(q) if accepts(q, m1, m2) else None


def _retry_pair(z2):
    a = conjugate_rep(family("t3f1", {"c": 5.0, "z2": 0.3, "z3": 1.1}), np.diag([256.0, 1.0]))
    b = conjugate_rep(conjugate_rep(family("t3f1", {"c": 5.0, "z2": z2, "z3": 1.1}),
                                    np.diag([256.0, 1.0])), np.array([[1.0, 1e4], [0.0, 1.0]]))
    return a, b


def _mixed_pairs(rng):
    """Pairs of every kind the search meets, with the kind of each."""
    def upper(corner):
        return Rep(2, {g: [[0.0, v], [0.0, 0.0]] for g, v in zip("xyz", corner)})

    pairs = []
    for _ in range(4):
        rep = sample_family(("t3f1", "t4f4", "t4f1")[int(rng.integers(3))], rng)
        pairs.append(("empty", rep, sample_family("t4f2", rng)))
        pairs.append(("accepted", rep, conjugate_rep(rep, random_conjugator(rng))))
        # a non-split extension of two points against their direct sum: a
        # one-dimensional, singular Sylvester nullspace
        diag = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        corner = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        split = Rep(2, {g: np.diag(d) for g, d in zip("xyz", diag)})
        extension = Rep(2, {g: np.diag(d) + np.array([[0.0, u], [0.0, 0.0]])
                            for g, d, u in zip("xyz", diag, corner)})
        pairs.append(("singular", extension, split))
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for w in (v * complex(*rng.standard_normal(2)), rng.standard_normal(3) + 0j):
            pairs.append(("upper", conjugate_rep(upper(v), random_conjugator(rng)),
                          conjugate_rep(upper(w), random_conjugator(rng))))
    pairs += [("retry", *_retry_pair(0.3)), ("retry_negative", *_retry_pair(0.31))]
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def _stacks(pairs):
    return [np.array([[r.images[g] for g in "xyz"] for r in side]) for side in zip(*pairs)]


def test_stacked_conjugator_search_equals_the_one_pair_search(rng):
    pairs = _mixed_pairs(rng)
    m1, m2 = _stacks([(a, b) for _, a, b in pairs])
    found = find_conjugators(m1, m2)
    hits = {}
    for (kind, a, b), q, x, y in zip(pairs, found, m1, m2):
        ref = _one_pair_reference(x, y, 1e-8)
        assert (q is None) == (ref is None), kind
        if q is not None:
            assert q.tobytes() == ref.tobytes(), kind
            assert find_conjugator(a, b).tobytes() == q.tobytes()
        hits.setdefault(kind, set()).add(q is not None)
    # every kind shows up, with the outcome it is built for
    assert hits == {"empty": {False}, "accepted": {True}, "singular": {False},
                    "upper": {True, False}, "retry": {True}, "retry_negative": {False}}
    assert nullspace(_sylvester_system(m1, m2), 1e-8)[1].max() >= 2


def test_stacked_search_misses_the_retry_pair_without_balancing(rng, monkeypatch):
    pairs = _mixed_pairs(rng)
    m1, m2 = _stacks([(a, b) for _, a, b in pairs])
    monkeypatch.setattr(reptheory, "_balancing", lambda mats: np.ones(mats.shape[-1]))
    found = find_conjugators(m1, m2)
    for (kind, _, _), q, x, y in zip(pairs, found, m1, m2):
        ref = _one_pair_reference(x, y, 1e-8)
        assert (q is None) == (ref is None), kind
        assert q is None or q.tobytes() == ref.tobytes()
        if kind == "retry":
            assert q is None


def _greedy_classify(reps, tol=1e-8):
    """classify with a conjugator search on every fingerprint hit (reference)."""
    classes = []
    fps = [fingerprint(r) for r in reps]
    for i, r in enumerate(reps):
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
                break
        else:
            classes.append(EquivClass(i, [i], {i: np.eye(r.n, dtype=complex)}))
    return classes


def _assert_same_classes(classes, expected):
    assert [c.representative for c in classes] == [c.representative for c in expected]
    assert [c.members for c in classes] == [c.members for c in expected]
    for c, e in zip(classes, expected):
        assert sorted(c.conjugators) == sorted(e.conjugators)
        for i, q in c.conjugators.items():
            assert q.tobytes() == e.conjugators[i].tobytes()


@pytest.mark.parametrize("algebra, kind, c", [
    ("sklyanin", kind, c) for c in (5.0, 0.5 + 1.2j, 40.0, 0.05)
    for kind in ("one_block", "two_blocks")
] + [("skew", "one_block", None), ("skew", "two_blocks", None)])
def test_classify_matches_greedy_reference_on_solver_output(algebra, kind, c):
    task = SolveTask(algebra, kind, c=c, num_starts=40, seed=11)
    reps = [rep for rep, _ in _kept_solutions(task, task.presentation())]
    _assert_same_classes(classify(reps), _greedy_classify(reps))
    for rep in reps:
        assert is_irreducible_burnside(rep) == (_bfs_span_rank(list(rep.images.values()), 2) == 4)


def test_classify_keys_split_nilpotent_reps_by_their_point(rng, monkeypatch):
    n_mat = np.array([[0.0, 1.0], [0.0, 0.0]])

    def v_tensor_n(v):
        return conjugate_rep(Rep(2, {g: vi * n_mat for g, vi in zip("xyz", v)}, {"c": 5.0}),
                             random_conjugator(rng))

    points = [np.eye(3)[i] for i in range(3)]  # one non-zero image each
    points += [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
    labelled = [(p, v_tensor_n(points[p] * complex(*rng.standard_normal(2))))
                for p in range(len(points)) for _ in range(4)]
    labelled.append((len(points), trivial_rep(5.0)))
    order = rng.permutation(len(labelled))
    labels = [labelled[i][0] for i in order]
    reps = [labelled[i][1] for i in order]

    calls = []
    search = reptheory.find_conjugator

    def counting(r1, r2, tol):
        q = search(r1, r2, tol)
        calls.append(q is not None)
        return q

    monkeypatch.setattr(reptheory, "find_conjugator", counting)
    classes = classify(reps)
    monkeypatch.undo()
    _assert_same_classes(classes, _greedy_classify(reps))
    assert sorted(sorted(labels[i] for i in c.members) for c in classes) == [
        [p] * 4 for p in range(len(points))] + [[len(points)]]
    assert all(calls)  # the keys leave only the conjugator calls that merge


def test_classify_keys_leave_rescaled_pairs_to_the_conjugator(rng):
    # rescaling pushes one direction of the word matrix's row space under
    # the lower cut: e_I in v (x) 1e7 N, the smallest singular directions of
    # an irreducible rep conjugated by diag(d, 1), whose K has condition d^2
    n_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    v = np.array([0.6, -0.3 + 0.5j, 0.4])
    pair = [Rep(2, {g: s * vi * n_mat for g, vi in zip("xyz", v)}, {"c": 5.0})
            for s in (1.0, 1e7)]
    classes = classify(pair)
    _assert_same_classes(classes, _greedy_classify(pair))
    assert [c.members for c in classes] == [[0, 1]]
    for fid in ("t4f1", "t4f2", "t4f3", "t4f4"):
        rep = sample_family(fid, rng)
        reps = [rep] + [conjugate_rep(rep, np.diag(d)) for d in ([1e3, 1.0], [1.0, 1e4])]
        classes = classify(reps)
        _assert_same_classes(classes, _greedy_classify(reps))
        assert [c.members for c in classes] == [[0, 1, 2]]


def test_classify_keeps_conjugates_whose_keys_drop_different_directions():
    # a t4f4 member whose x image is 3e-4 of y and z: the second conjugate
    # drops one of its four row-space directions under the lower key cut,
    # the first keeps all four above it and three above the upper cut, so
    # the second's P_lo has as many directions as the first's P_hi but
    # fewer than its P_lo: not complete
    rep = family("t4f4", {"c": -0.767350177284071 - 0.40961798969782226j,
                          "y4": 1.389310868871504 - 0.6986230185898616j,
                          "z3": 0.7079881880024301 + 0.8002241887397779j,
                          "z4": 1.5132227049997093 + 0.6498581736924229j}, branch="principal")
    qs = [[[-2.028953262626297 - 1.1880637294026715j, 0.6682333362845491 + 0.568410703612659j],
           [0.9824870597465292 + 0.9045831085301839j, -0.10839248352180596 - 1.2553074821254684j]],
          [[1.235551335717769 + 0.18836331647310722j, -0.25456479170655255 + 0.8622280961032539j],
           [-0.4369191050101202 + 0.20082266679021316j, -0.1534651904151944 - 0.459232222363362j]]]
    reps = [conjugate_rep(rep, np.array(q)) for q in qs]
    hi, out, _ = reptheory._relation_keys(np.array([r.matrices("xyz") for r in reps]))
    assert max(np.linalg.norm(out[0] @ hi[1]), np.linalg.norm(out[1] @ hi[0])) > reptheory.KEY_RTOL
    classes = classify(reps)
    _assert_same_classes(classes, _greedy_classify(reps))
    assert [c.members for c in classes] == [[0, 1]]


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


def test_classify_rejects_mixed_generator_lists():
    pair = skew_rep(SkewRepSpec("two_dim", 1.0, 1.0))
    with pytest.raises(ValueError, match="different generator sets or dimensions"):
        classify([trivial_rep(), pair])
    with pytest.raises(ValueError, match="different generator sets or dimensions"):
        classify([trivial_rep(), Rep(1, {g: [[0.0]] for g in "xyz"})])


def _per_rep_classify(reps, tol=1e-8):
    """classify as one Python pass per representation against the class
    heads, keys tested by their Frobenius norms (reference)."""
    mats = np.array([r.matrices(reps[0].generators) for r in reps])
    fps = fingerprint(mats)
    fp_norm = np.linalg.norm(fps, axis=1)
    hi, out, complete = reptheory._relation_keys(mats)
    classes = []
    heads = np.zeros(len(reps), dtype=int)
    for i, r in enumerate(reps):
        js = heads[: len(classes)]
        gap = np.max(np.abs(fps[js] - fps[i]), axis=1)
        scale = 1.0 + np.maximum(fp_norm[js], fp_norm[i])
        hits = np.flatnonzero(~(gap > FINGERPRINT_RTOL * scale))
        i_out = np.linalg.norm(out[js[hits]] @ hi[i], axis=(1, 2)) > reptheory.KEY_RTOL
        j_out = np.linalg.norm(out[i] @ hi[js[hits]], axis=(1, 2)) > reptheory.KEY_RTOL
        split = (i_out & complete[js[hits], i]) | (j_out & complete[i, js[hits]])
        for c in hits[~split]:
            q = reptheory.find_conjugator(r, reps[js[c]], tol)
            if q is not None:
                classes[c].members.append(i)
                classes[c].conjugators[i] = q
                break
        else:
            heads[len(classes)] = i
            classes.append(EquivClass(i, [i], {i: np.eye(r.n, dtype=complex)}))
    return classes


@functools.lru_cache(maxsize=None)
def _kept_at_200(algebra, kind, c):
    task = SolveTask(algebra, kind, c=c, num_starts=200, seed=1)
    return [rep for rep, _ in _kept_solutions(task, task.presentation())]


def _cli_batch_input(seed):
    """A shuffled list of 4 representatives x 4 conjugates and 4 classes of
    3 conjugate strictly upper triangular representations, at one c."""
    rng = np.random.default_rng(seed)
    c = random_valid_c(rng)
    corner = np.array([[0.0, 1.0], [0.0, 0.0]])
    groups = [[conjugate_rep(rep, random_conjugator(rng)) for _ in range(4)]
              for rep in (sample_family(fid, rng, c=c) for fid in ("t3f1", "t3f2", "t4f2", "t4f4"))]
    for _ in range(4):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        groups.append([conjugate_rep(Rep(2, {g: s * vi * corner for g, vi in zip("xyz", v)},
                                         {"c": c}), random_conjugator(rng))
                       for s in rng.standard_normal(3) + 1j * rng.standard_normal(3)])
    reps = [rep for group in groups for rep in group]
    return [reps[i] for i in rng.permutation(len(reps))]


CLASSIFY_INPUTS = [("sklyanin", "one_block", 5.0), ("sklyanin", "two_blocks", 5.0),
                   ("skew", "one_block", None), "cli-batch"]
CLASSIFY_IDS = ["s11c-one_block", "s11c-two_blocks", "skew", "cli-batch"]


def _classify_input(case):
    return _cli_batch_input(7) if case == "cli-batch" else _kept_at_200(*case)


def _recorded_classify(classify_fn, reps, monkeypatch):
    """The classes and the (i, j) index pairs of every conjugator call."""
    index = {id(r): k for k, r in enumerate(reps)}
    calls = []
    search = reptheory.find_conjugator

    def recording(r1, r2, tol):
        calls.append((index[id(r1)], index[id(r2)]))
        return search(r1, r2, tol)

    monkeypatch.setattr(reptheory, "find_conjugator", recording)
    classes = classify_fn(reps)
    monkeypatch.undo()
    return classes, calls


@pytest.mark.parametrize("case", CLASSIFY_INPUTS, ids=CLASSIFY_IDS)
def test_classify_equals_the_per_rep_loop(case, monkeypatch):
    reps = _classify_input(case)
    classes, calls = _recorded_classify(classify, reps, monkeypatch)
    expected, expected_calls = _recorded_classify(_per_rep_classify, reps, monkeypatch)
    _assert_same_classes(classes, expected)
    assert calls == expected_calls
    assert all(list(c.conjugators) == list(e.conjugators) for c, e in zip(classes, expected))
    if case == "cli-batch":
        assert sorted(len(c.members) for c in classes) == [3] * 4 + [4] * 4
    if case[1] == "two_blocks":
        assert len(classes) < len(reps)


@pytest.mark.parametrize("case", CLASSIFY_INPUTS, ids=CLASSIFY_IDS)
def test_key_value_is_the_projector_identity(case):
    reps = _classify_input(case)
    mats = np.array([r.matrices(reps[0].generators) for r in reps])
    hi, out, _ = reptheory._relation_keys(mats)
    count = len(reps)
    value = hi.reshape(count, -1) @ out.reshape(count, -1).conj().T
    norms = np.linalg.norm(out[None, :] @ hi[:, None], axis=(2, 3))  # [i, j]: (I - P_lo,j) P_hi,i
    assert np.abs(value - norms ** 2).max() <= 1e-12


def _balancing_reference(mats):
    """Osborne balancing with numpy dot products (reference)."""
    a = (mats.real ** 2 + mats.imag ** 2).sum(axis=0)
    np.fill_diagonal(a, 0.0)
    d, square, inverse = np.ones((3, len(a)))
    for _sweep in range(64):
        changed = False
        for i in range(len(a)):
            row = square[i] * (a[i] @ inverse)
            col = inverse[i] * (a[:, i] @ square)
            if row == 0.0 or col == 0.0:
                continue
            e = round(np.log2(col / row) / 4.0)
            if e:
                d[i] *= 2.0 ** e
                square[i], inverse[i] = d[i] ** 2, d[i] ** -2.0
                changed = True
        if not changed:
            break
    return d


def test_balancing_equals_the_numpy_iteration(rng, monkeypatch):
    recorded = []
    balancing = reptheory._balancing
    monkeypatch.setattr(reptheory, "_balancing", lambda mats: recorded.append(mats) or balancing(mats))
    classify(_kept_at_200("sklyanin", "two_blocks", 5.0))
    monkeypatch.undo()
    assert len(recorded) > 100
    stacks = list(recorded)
    for n in (2, 3):
        for _ in range(500):
            scale = 10.0 ** rng.uniform(-8, 8, (n, n))
            m = (rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))) * scale
            m[:, rng.integers(n), rng.integers(n)] *= rng.integers(2)
            stacks.append(m)
    moved = 0
    for m in stacks:
        d = reptheory._balancing(m)
        assert d.tobytes() == _balancing_reference(m).tobytes()
        moved += np.any(d != 1.0)
    assert moved > 100


def test_classify_memory_peak_on_a_solver_list():
    reps = _kept_at_200("sklyanin", "two_blocks", 5.0)
    assert len(reps) == 200
    tracemalloc.start()
    try:
        classify(reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


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


def _json_corpus(rng):
    """Valid representation schemas: conjugated family members and skew
    representations as ``rep_to_json`` writes them, and integer, mixed and
    signed-zero entries, in dimensions 1 to 3."""
    corpus = [rep_to_json(conjugate_rep(sample_family(fid, rng), random_conjugator(rng)))
              for fid in FAMILIES for _ in range(6)]
    corpus += [rep_to_json(skew_rep(SkewRepSpec("two_dim", *rng.standard_normal(2))))
               for _ in range(10)]
    for k in range(120):
        n = 1 + k % 3
        ints = rng.integers(-2 ** 62, 2 ** 62, (3, n, n, 2)) >> int(rng.integers(0, 62))
        mats = ints.tolist()
        if k % 2:  # mixed: floats, signed zeros, one int above the int64 range
            mats[0][0][0] = [float(rng.standard_normal()), -0.0]
            mats[-1][-1][-1] = [-0.0, 2 ** 63 + 2 ** 11 * k]
        corpus.append({"n": n, "generators": ["x", "y", "z"], "params": {"c": [k, -0.0]},
                       "matrices": dict(zip("xyz", mats))})
    return [json.loads(json.dumps(data)) for data in corpus]


def test_rep_from_json_converts_like_the_entry_walk(rng):
    for data in _json_corpus(rng):
        n, gens = data["n"], data["generators"]
        assert reptheory._images_from_json([data["matrices"][g] for g in gens], n) is not None
        rep = rep_from_json(data)
        assert rep.generators == tuple(gens)
        for g in gens:
            walk = reptheory._matrix_from_json(data["matrices"], g, n)
            assert rep.images[g].dtype == complex and rep.images[g].tobytes() == walk.tobytes()


def _set_entry(g, i, j, value):
    def corrupt(data):
        data["matrices"][g][i][j] = value
    return corrupt


_BAD_PAIR = "expected a finite [re, im] pair of numbers, got"


@pytest.mark.parametrize("corrupt, message", [
    (_set_entry("y", 1, 0, [True, 0.0]), f"matrices.y[1][0]: {_BAD_PAIR} [True, 0.0]"),
    (_set_entry("x", 0, 1, ["1.5", 0.0]), f"matrices.x[0][1]: {_BAD_PAIR} ['1.5', 0.0]"),
    (_set_entry("x", 1, 1, [1.0]), f"matrices.x[1][1]: {_BAD_PAIR} [1.0]"),
    (_set_entry("y", 0, 0, [1.0, 2.0, 3.0]), f"matrices.y[0][0]: {_BAD_PAIR} [1.0, 2.0, 3.0]"),
    (_set_entry("y", 1, 1, [0.0, float("nan")]), f"matrices.y[1][1]: {_BAD_PAIR} [0.0, nan]"),
    (_set_entry("x", 0, 0, [float("-inf"), 0]), f"matrices.x[0][0]: {_BAD_PAIR} [-inf, 0]"),
    (_set_entry("x", 1, 0, {"re": 1.0}), f"matrices.x[1][0]: {_BAD_PAIR} {{'re': 1.0}}"),
    (_set_entry("y", 0, 1, [10 ** 400, 0]), f"matrices.y[0][1]: {_BAD_PAIR} [{10 ** 400}, 0]"),
    (_set_entry("x", 0, 0, None), f"matrices.x[0][0]: {_BAD_PAIR} None"),
    (lambda data: data["matrices"]["x"].__setitem__(1, [[0.0, 0.0]]),
     "matrices.x: ragged matrix, row lengths [2, 1]"),
    (lambda data: data["matrices"].__setitem__("y", [[[0.0, 0.0]] * 3] * 2),
     "matrices.y: 2x3 matrix is not square"),
    (lambda data: data["matrices"]["x"].__setitem__(0, "row"), "matrices.x: expected a list of rows"),
    (lambda data: data["matrices"].__setitem__("y", (((0, 0), (0, 0)), ((0, 0), (0, 0)))),
     "matrices.y: expected a list of rows"),
    (lambda data: data.__setitem__("n", 3), "n: 3 disagrees with the 2x2 matrix matrices.x"),
    (lambda data: data["matrices"].pop("y"), "matrix for generator 'y' missing"),
], ids=["bool", "numeric_string", "one_element_pair", "three_element_pair", "nan", "infinity",
        "dict_entry", "huge_int", "null", "ragged", "not_square", "row_not_a_list",
        "tuples", "wrong_n", "missing_generator"])
def test_rep_from_json_keeps_the_entry_walk_messages(corrupt, message):
    data = {"n": 2, "generators": ["x", "y"], "params": {"c": [2.0, 0.0]},
            "matrices": {g: [[[0.5, -0.0], [1, 2]], [[3.0, 0], [-1.5, 2.5]]] for g in "xy"}}
    corrupt(data)
    with pytest.raises(ValueError) as exc:
        rep_from_json(data)
    assert str(exc.value) == message


def _bfs_span_rank(mats, n, tol=1e-8):
    """Rank of the span of all words of length <= n^2 - 1, built length by
    length with an early exit at full rank (reference)."""
    eye = np.eye(n, dtype=complex)
    vecs, frontier = [eye.ravel()], [eye]
    for _ in range(n * n - 1):
        frontier = [m @ g for m in frontier for g in mats]
        vecs.extend(w.ravel() for w in frontier)
        if rank(np.array(vecs), tol) == n * n:
            return n * n
    return rank(np.array(vecs), tol)


@pytest.mark.parametrize("seed", range(60))
def test_burnside_span_closure_matches_word_bfs(seed):
    # n, k and split are drawn per seed; split 0 leaves the images generic,
    # otherwise they are block upper triangular with an invariant subspace
    # of dimension min(split, n - 1), then conjugated
    rng = np.random.default_rng(seed)
    n, k, split = (int(v) for v in rng.integers((1, 1, 0), (4, 4, 3)))
    mats = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    if split:
        p = min(split, n - 1)
        mats[:, p:, :p] = 0.0
        q = random_conjugator(rng, n)
        mats = q @ mats @ np.linalg.inv(q)
    rep = Rep(n, dict(zip("xyz", mats)))
    expected = n == 1 or _bfs_span_rank(list(mats), n) == n * n
    assert is_irreducible_burnside(rep) == expected


@pytest.mark.parametrize("eps, irreducible", [(1e-4, False), (2e-4, True)])
def test_burnside_span_closure_keeps_new_words_at_their_own_magnitude(eps, irreducible):
    # X = eps E12 and Y = eps E21 span I, E12 and E21 well above the cut, but
    # the fourth direction E11 - E22 first shows in the words XY and YX, at
    # eps^2 / sqrt(2) against the cut 1e-8 * sqrt(2): eps = 1e-4 leaves it
    # just below, 2e-4 just above.  A closure that multiplied the unit new
    # directions instead would see it at eps / sqrt(2) and call both
    # irreducible.
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((2, 2, 2)) @ [1, 1j])
    units = np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], dtype=complex)
    mats = q @ (eps * units) @ q.conj().T
    assert (_bfs_span_rank(list(mats), 2) == 4) == irreducible
    assert is_irreducible_burnside(Rep(2, dict(zip("xy", mats)))) == irreducible


def test_burnside_on_a_reducible_4x4_rep_is_fast(rng):
    mats = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    mats[:, 2:, :2] = 0.0  # an invariant plane
    q = random_conjugator(rng, 4)
    rep = Rep(4, dict(zip("xyz", q @ mats @ np.linalg.inv(q))))
    start = time.perf_counter()
    assert not is_irreducible_burnside(rep)
    assert time.perf_counter() - start < 1.0
    mats[:, 2:, :2] = rng.standard_normal((3, 2, 2))
    assert is_irreducible_burnside(Rep(4, dict(zip("xyz", mats))))


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


def _invariant_line_cases(rng):
    """(rep, tol) pairs: conjugated members of the representative families,
    upper-triangular reducibles as they are and conjugated, scalar and
    near-scalar images, skew representations and random triples."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def conj(rep):
        return conjugate_rep(rep, random_conjugator(rng))

    cases = []
    for fid in REPRESENTATIVE_IDS:
        cases += [(conj(sample_family(fid, rng)), 1e-8) for _ in range(100)]
        cases += [(sample_family(fid, rng), 1e-8) for _ in range(20)]
    for k in range(500):
        mats = np.triu(cplx(3, 2, 2))
        if k % 5 == 0:  # equal diagonals: one eigenline per image
            mats[:, 1, 1] = mats[:, 0, 0]
        if k % 7 == 0:  # real entries with signed zeros
            mats = np.triu(rng.standard_normal((3, 2, 2))) * -1.0 + 0j
        rep = Rep(2, dict(zip("xyz", mats)), {"c": 2.0})
        cases.append((conj(rep) if k % 4 else rep, 1e-8))
    for k in range(300):
        lam = cplx(3)
        mats = lam[:, None, None] * np.eye(2)
        eps = 10.0 ** rng.uniform(-11, -5, 3)
        mats = mats + (eps * (k % 3 != 0))[:, None, None] * cplx(3, 2, 2)
        mats[: k % 4] = lam[: k % 4, None, None] * np.eye(2)
        rep = Rep(2, dict(zip("xyz", mats)), {"c": 2.0})
        cases.append((conj(rep) if k % 2 else rep, (1e-8, 1e-6, 1e-12)[k % 3]))
    for k in range(400):
        alpha, beta = cplx(2)
        if k % 4 == 0:
            alpha = 0.0
        elif k % 4 == 1:
            beta = 0.0
        rep = skew_rep(SkewRepSpec("two_dim", alpha, beta))
        cases.append((conj(rep) if k % 3 else rep, 1e-8))
    cases += [(Rep(2, dict(zip("xyz", cplx(3, 2, 2))), {}), 1e-8) for _ in range(200)]
    cases += [(Rep(2, dict(zip("xyz", np.zeros((3, 2, 2)))), {}), 1e-8)]
    return cases


def test_invariant_line_equals_the_per_candidate_search(rng):
    cases = _invariant_line_cases(rng)
    assert len(cases) >= 2000
    found = 0
    for rep, tol in cases:
        reference = invariant_line_reference(rep, tol)
        line = find_invariant_line(rep, tol)
        if reference is None:
            assert line is None
        else:
            found += 1
            assert line.dtype == complex and line.tobytes() == reference.tobytes()
    assert 500 < found < len(cases) - 500


def _burnside_cases(rng):
    """(count, k, n, n) stacks: solver endpoints, family members, v (x) N,
    direct sums, near-reducible and all-scalar images."""
    stacks = []
    for algebra, kind, c in (("sklyanin", "one_block", 5.0), ("sklyanin", "two_blocks", 0.05),
                             ("skew", "two_blocks", None)):
        task = SolveTask(algebra, kind, c=c, num_starts=40, seed=11)
        reps = [rep for rep, _ in _kept_solutions(task, task.presentation())]
        stacks.append(np.array([r.matrices(r.generators) for r in reps]))
    members = [sample_family(fid, rng) for fid in FAMILIES for _ in range(3)]
    n_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    tensors = [np.multiply.outer(rng.standard_normal(3) * 10.0 ** rng.integers(-8, 8), n_mat)
               for _ in range(10)]
    sums = [np.array([np.diag(rng.standard_normal(2) * s) for _ in range(3)])
            for s in (1.0, 1e-6, 0.0)]
    scalars = [np.array([a * np.eye(2) for a in rng.standard_normal(3)]) for _ in range(3)]
    near = [np.array([e * np.array([[0, 1], [0, 0]]), e * np.array([[0, 0], [1, 0]]), np.eye(2)])
            for e in (1e-4, 1.4e-4, 2e-4)]
    mixed = [r.matrices(r.generators) for r in members] + tensors + sums + scalars + near
    order = rng.permutation(len(mixed))
    stacks.append(np.array([mixed[i] for i in order], dtype=complex))
    blocks = []
    for _ in range(8):  # 4x4 direct sums of two members, conjugated or not
        a, b = (sample_family(("t3f2", "t4f1")[int(rng.integers(2))], rng, c=5.0) for _ in "ab")
        m = np.zeros((3, 4, 4), dtype=complex)
        m[:, :2, :2], m[:, 2:, 2:] = a.matrices("xyz"), b.matrices("xyz")
        if rng.integers(2):
            q = random_conjugator(rng, 4)
            m = q @ m @ np.linalg.inv(q)
        blocks.append(m)
    stacks.append(np.array(blocks))
    return stacks


@pytest.mark.parametrize("tol", [1e-8, 1e-3])
def test_stacked_burnside_equals_the_per_rep_span_closure(rng, tol):
    for stack in _burnside_cases(rng):
        n = stack.shape[-1]
        reference = [span_rank_reference(m, n, tol) for m in stack]
        assert _word_span_ranks(stack, tol).tolist() == reference
        verdicts = is_irreducible_burnside(stack, tol)
        assert verdicts.tolist() == [r == n * n for r in reference]
        assert [is_irreducible_burnside(Rep(n, dict(zip("xyz", m))), tol) for m in stack] \
            == verdicts.tolist()
    assert is_irreducible_burnside(np.zeros((0, 3, 2, 2))).shape == (0,)


def _outcome(fn, *args):
    try:
        return np.array(fn(*args)).tobytes()
    except ValueError as exc:
        return str(exc)


def test_stacked_central_values_equal_the_per_rep_values(rng):
    # S(1,1,c) at one c: members of every family, v (x) N, a stray non-solution,
    # and in 3 dimensions t3f2 (+) trivial, whose centre is not scalar
    c = 2.0
    pres, words = s11c_presentation(c), center_words(c)
    reps = [sample_family(fid, rng, c=c) for fid in FAMILIES for _ in range(4)]
    reps += [conjugate_rep(r, random_conjugator(rng)) for r in reps[::3]]
    n_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    reps += [Rep(2, {g: v * n_mat for g, v in zip("xyz", rng.standard_normal(3))}, {"c": c})]
    reps += [Rep(2, {g: rng.standard_normal((2, 2)) for g in "xyz"}, {"c": c})]
    member = family("t3f2", {"c": c, "z4": 0.7})
    padded = {g: np.pad(m, ((0, 1), (0, 1))) for g, m in member.images.items()}
    upper = {g: v * np.eye(3, k=2) for g, v in zip("xyz", rng.standard_normal(3))}
    cases = [(pres, words, reps, 1e-7),
             (pres, words, [Rep(3, padded, {"c": c}), Rep(3, upper, {"c": c})], 1e-7)]
    skew = [skew_rep(SkewRepSpec("two_dim", *rng.standard_normal(2))) for _ in range(6)]
    skew += [Rep(2, {"x": np.diag([1.0, 2.0]), "y": np.zeros((2, 2))})]  # non-scalar x^2
    # a non-scalar x^2 whose deviation, 1.2345e-3, reads 1.235e-03 by one
    # matrix's norm and 1.234e-03 by a stacked norm (x86-64, OpenBLAS 0.3.31)
    p, q = (complex(float.fromhex(a), float.fromhex(b)) for a, b in (
        ("-0x1.58b2a0634c99dp-6", "-0x1.1ca0a826c627dp-5"),
        ("-0x1.ab047d0f322c3p-8", "0x1.6971967a4b0c6p-7")))
    skew += [Rep(2, {"x": np.diag([p, q]), "y": np.zeros((2, 2))})]
    cases.append((skew_presentation(), _CENTER_WORDS, skew, 1e-6))
    # three copies of one point of the x-axis, conjugated: tr(x^2) / 3 rounds
    triple = []
    for a in rng.standard_normal(20) + 1j * rng.standard_normal(20):
        q = random_conjugator(rng, 3)
        triple.append(Rep(3, {"x": q @ (a * np.eye(3)) @ np.linalg.inv(q), "y": np.zeros((3, 3))}))
    cases.append((skew_presentation(), _CENTER_WORDS, triple, 1e-6))
    messages = []
    for pres, words, reps, tol in cases:
        reference = [_outcome(central_values_reference, pres, words, r, tol) for r in reps]
        assert [_outcome(central_values, pres, words, r, tol) for r in reps] == reference
        values, ok = central_values(pres, words, np.array([r.matrices(pres.generators)
                                                            for r in reps]), tol)
        assert ok.tolist() == [isinstance(ref, bytes) for ref in reference]
        assert [v.tobytes() for v, k in zip(values, ok) if k] == \
            [ref for ref in reference if isinstance(ref, bytes)]
        messages += [ref for ref in reference if isinstance(ref, str)]
    assert [m.split(" (")[0].split(":")[0] for m in messages] == [
        "not a solution representation"] + ["central element is not scalar"] * 3


def test_report_rows_equal_the_per_entry_codec(rng):
    reps = [sample_family("t4f4", rng) for _ in range(3)]
    reps.append(Rep(2, {g: np.array([[-0.0, np.nan], [np.inf, 1e-300j]]) for g in "xyz"},
                    {"c": 2.0}))
    rows = _reps_to_json(reps)
    assert json.dumps([rep_to_json(r) for r in reps]) == json.dumps(rows)
    for rep, row in zip(reps, rows):
        expected = {name: [[_complex_to_pair(z) for z in r] for r in m]
                    for name, m in rep.images.items()}
        assert json.dumps(row["matrices"]) == json.dumps(expected)
