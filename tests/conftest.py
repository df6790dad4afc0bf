import os
from pathlib import Path

import numpy as np
import pytest

import sklyrep
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)
