import numpy as np

from sklyrep.matkit import nullspace, rank


def test_rank_basic():
    assert rank(np.zeros((4, 4))) == 0
    assert rank(np.eye(4)) == 4


def test_rank_of_vectorized_words_spanning_matrix_units():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    y = np.array([[0.0, 0.0], [1.0, 0.0]])
    rows = [np.eye(2).ravel(), x.ravel(), y.ravel(), (x @ y).ravel()]
    assert rank(np.array(rows)) == 4


def test_rank_plus_nullity_and_unitary_invariance(rng):
    for _ in range(200):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        r = min(rows, cols, int(rng.integers(0, 5)))
        a = rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r)) if r else np.zeros((rows, 1))
        b = rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols)) if r else np.zeros((1, cols))
        m = a @ b
        rk = rank(m)
        assert rk == r
        assert rk + len(nullspace(m)) == cols
        qu, _ = np.linalg.qr(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))
        qv, _ = np.linalg.qr(rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols)))
        assert rank(qu @ m @ qv) == rk


def test_nullspace_basic():
    assert nullspace(np.eye(3)) == []
    basis = nullspace(np.zeros((2, 3)))
    assert len(basis) == 3
    gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(3))


def test_nullspace_of_self_intertwiner_contains_identity(rng):
    # stacked Sylvester system Q M = M Q over all images of one representation
    from conftest import sample_family

    rep = sample_family("t3f2", rng)
    eye = np.eye(2, dtype=complex)
    blocks = [
        np.kron(eye, m.T) - np.kron(m, eye) for m in rep.images.values()
    ]
    basis = nullspace(np.vstack(blocks))
    assert basis, "identity always intertwines a representation with itself"
    span = np.array(basis).T  # columns
    target = eye.ravel() / np.linalg.norm(eye.ravel())
    proj = span @ (span.conj().T @ target)
    assert np.linalg.norm(proj - target) <= 1e-8
