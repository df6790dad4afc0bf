import os
from pathlib import Path

import numpy as np
import pytest

import sklyrep
from sklyrep.freealg import eval_ncpoly
from sklyrep.reptheory import relation_residual
from sklyrep.sklyanin import ConstraintError, DenominatorError, FAMILIES, family

C_MARGIN = 0.05
SRC = str(Path(sklyrep.__file__).resolve().parent.parent)


def subprocess_env(**overrides):
    """Environment in which ``python -m sklyrep`` imports the package under test."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def random_valid_c(rng, lo=0.35, hi=2.0):
    """c in an annulus, bounded away from c = 0, c^3 = 1 and c^3 = -8."""
    while True:
        z = complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi))
        if not (lo < abs(z) < hi):
            continue
        if abs(z ** 3 - 1.0) > C_MARGIN and abs(z ** 3 + 8.0) > C_MARGIN:
            return z


def random_param(rng, lo=0.3, hi=1.8):
    while True:
        z = complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi))
        if abs(z) > lo:
            return z


def sample_family(fid, rng, c=None, branch=None):
    """Constraint-satisfying random member of one family."""
    fam = FAMILIES[fid]
    if branch is None:
        branch = ("principal", "negated")[int(rng.integers(2))]
    for _ in range(64):
        env = {"c": c if c is not None else random_valid_c(rng)}
        for p in fam.free_params:
            env[p] = random_param(rng)
        try:
            return family(fid, env, branch=branch)
        except (ConstraintError, DenominatorError):
            continue
    raise RuntimeError(f"could not draw valid parameters for {fid}")


def random_conjugator(rng, n=2, min_det=0.1):
    """Random invertible matrix with a bounded condition number."""
    while True:
        q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if abs(np.linalg.det(q)) / np.linalg.norm(q) ** n > min_det / n:
            return q


# per-representation references for the stacked calls of reptheory and solver


def span_rank_reference(mats, n, tol):
    """Span closure of one representation in 2-D arithmetic: the reference
    that ``reptheory._word_span_ranks`` must equal on every stack."""
    gens = np.array(mats, dtype=complex).reshape(-1, n, n)
    right = gens.transpose(1, 0, 2).reshape(n, -1)
    basis = np.zeros((1, n * n), dtype=complex)
    basis[0, :: n + 1] = n ** -0.5
    products = gens.reshape(-1, n * n)
    scale = np.sqrt(n)
    while len(products):
        scale = max(scale, np.sqrt(np.max(np.sum(np.abs(products) ** 2, axis=1))))
        outside = products - (products @ basis.conj().T) @ basis
        _, sv, vh = np.linalg.svd(outside, full_matrices=False)
        kept = sv > tol * scale
        basis = np.concatenate([basis, vh[kept]])
        if len(basis) >= n * n:
            break
        new = (sv[kept, None] * vh[kept]).reshape(-1, n)
        products = (new @ right).reshape(-1, n, len(gens), n).transpose(0, 2, 1, 3)
        products = products.reshape(-1, n * n)
    return len(basis)


def central_values_reference(pres, words, rep, tol):
    """Central values of one representation, matrix by matrix: the reference
    for ``reptheory.central_values`` on a Rep and on a stack."""
    res = relation_residual(pres, rep)
    if res > tol:
        raise ValueError(f"not a solution representation (residual {res:.3e})")
    mats = rep.matrices(pres.generators)
    values = []
    for word in words:
        m = eval_ncpoly(word, mats)
        value = np.trace(m) / rep.n
        deviation = np.linalg.norm(m - value * np.eye(rep.n))
        bound = tol * (1.0 + np.linalg.norm(m))
        if deviation > bound:
            raise ValueError(
                f"central element is not scalar: deviation {deviation:.3e} > {bound:.3e}"
            )
        values.append(value)
    return values


def invariant_line_reference(rep, tol):
    """Common invariant line of a 2x2 representation, candidate by candidate
    and image by image: the reference for ``reptheory.find_invariant_line``."""
    mats = list(rep.images.values())
    candidates = []
    for m in mats:
        if np.linalg.norm(m - np.trace(m) / 2 * np.eye(2)) <= tol * (1.0 + np.linalg.norm(m)):
            continue  # a scalar image
        t = m[0, 0] + m[1, 1]
        d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        disc = np.sqrt(t * t - 4.0 * d + 0j)
        for lam in ((t + disc) / 2.0, (t - disc) / 2.0):
            b = m - lam * np.eye(2)
            adj = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]], dtype=complex)
            col = max((adj[:, 0], adj[:, 1]), key=np.linalg.norm)
            nrm = np.linalg.norm(col)
            if nrm > 0:
                candidates.append(col / nrm)
    if not candidates:
        return np.array([1.0, 0.0], dtype=complex)
    for v in candidates:
        invariant = True
        for m in mats:
            mv = m @ v
            residual = mv - (np.vdot(v, mv)) * v
            if np.linalg.norm(residual) > tol * (1.0 + np.linalg.norm(m)):
                invariant = False
                break
        if invariant:
            return v
    return None


def xc_slice_reference(c, u1, grid):
    """The slice CSV point by point in Python's complex arithmetic: the
    reference for ``sklyanin.xc_slice`` on valid arguments."""
    lo, hi, steps = grid
    c, u1 = complex(c), complex(u1)
    lines = ["u2,u3,value"]
    for u2 in np.linspace(float(lo), float(hi), int(steps)).tolist():
        for u3 in np.linspace(float(lo), float(hi), int(steps)).tolist():
            val = c ** 2 * (u1 ** 3 + u2 ** 3 + u3 ** 3) + (c ** 3 - 4.0) * u1 * u2 * u3
            if not np.isfinite(val):
                raise OverflowError(f"the value at u2={u2:.17g}, u3={u3:.17g} overflows")
            lines.append("%.17g,%.17g,%.17g" % (u2, u3, np.sqrt(val + 0j).real))
    return "\n".join(lines) + "\n"


def rounded_key_reference(values):
    """The ordering key of one row, element by element: the reference for
    ``solver._rounded_keys``."""
    return tuple(v for z in values for v in (round(z.real, 9), round(z.imag, 9)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)
