"""The family table of ``sklyanin`` against a hand-written reference.

``REFERENCE`` states every family the long way: one lambda per row that
names the builder's arguments, the free parameters in the builder's order,
and the side condition.  ``family`` must give the same images, bit for bit,
and the same exceptions with the same messages, whichever of the two tables
it reads.
"""

import numpy as np
import pytest

from sklyrep import sklyanin
from sklyrep.sklyanin import (
    FAMILIES,
    ConstraintError,
    RepFamily,
    _check_t4f3,
    _check_t4f4,
    _t1f5,
    _t1f12,
    _t1f34,
    _t2f1,
    _t2f2,
    _t2f3,
    _t2f4,
    _t2f56,
    family,
)

from conftest import random_param, random_valid_c

DRAWS = 200


def _no_constraint(env):
    return None


def _check_nonzero(name, message):
    def check(env):
        if abs(env[name]) <= sklyanin._CONSTRAINT_TOL:
            raise ConstraintError(message)

    return check


REFERENCE = {
    f.id: f
    for f in (
        RepFamily(
            "t1f1", ("y4", "z4"), True,
            lambda e, s: _t1f12(e["c"], e["y4"], e["z4"], s), _no_constraint,
        ),
        RepFamily(
            "t1f2", ("y4", "z4"), True,
            lambda e, s: _t1f12(e["c"], e["y4"], e["z4"], -s), _no_constraint,
        ),
        RepFamily(
            "t1f3", ("z2", "z3", "z4"), True,
            lambda e, s: _t1f34(e["c"], e["z2"], e["z3"], e["z4"], s), _no_constraint,
        ),
        RepFamily(
            "t1f4", ("z2", "z3", "z4"), True,
            lambda e, s: _t1f34(e["c"], e["z2"], e["z3"], e["z4"], -s), _no_constraint,
        ),
        RepFamily(
            "t1f5", ("y4", "z4"), False,
            lambda e, s: _t1f5(e["c"], e["y4"], e["z4"]), _no_constraint,
        ),
        RepFamily(
            "t2f1", ("y3", "y4", "z4"), False,
            lambda e, s: _t2f1(e["c"], e["y3"], e["y4"], e["z4"]), _no_constraint,
        ),
        RepFamily(
            "t2f2", ("x4", "y3"), False,
            lambda e, s: _t2f2(e["c"], e["x4"], e["y3"]), _no_constraint,
        ),
        RepFamily(
            "t2f3", ("y4", "z3", "z4"), False,
            lambda e, s: _t2f3(e["c"], e["y4"], e["z3"], e["z4"]), _no_constraint,
        ),
        RepFamily(
            "t2f4", ("x4", "z3"), False,
            lambda e, s: _t2f4(e["c"], e["x4"], e["z3"]), _no_constraint,
        ),
        RepFamily(
            "t2f5", ("y3", "y4", "z3", "z4"), True,
            lambda e, s: _t2f56(e["c"], e["y3"], e["y4"], e["z3"], e["z4"], s),
            _no_constraint,
        ),
        RepFamily(
            "t2f6", ("y3", "y4", "z3", "z4"), True,
            lambda e, s: _t2f56(e["c"], e["y3"], e["y4"], e["z3"], e["z4"], -s),
            _no_constraint,
        ),
        RepFamily(
            "t3f1", ("z2", "z3"), True,
            lambda e, s: _t1f34(e["c"], e["z2"], e["z3"], 1.0, -s),
            _check_nonzero("z3", "t3f1 requires z3 != 0"),
        ),
        RepFamily(
            "t3f2", ("z4",), False,
            lambda e, s: _t1f5(e["c"], 1.0, e["z4"]),
            _check_nonzero("z4", "t3f2 requires z4 != 0"),
        ),
        RepFamily(
            "t4f1", ("y4", "z4"), False,
            lambda e, s: _t2f1(e["c"], 1.0, e["y4"], e["z4"]),
            _check_nonzero("z4", "t4f1 requires z4 != 0"),
        ),
        RepFamily(
            "t4f2", ("x4",), False,
            lambda e, s: _t2f2(e["c"], e["x4"], 1.0),
            _check_nonzero("x4", "t4f2 requires x4 != 0"),
        ),
        RepFamily(
            "t4f3", ("y4", "z4"), False,
            lambda e, s: _t2f3(e["c"], e["y4"], 1.0, e["z4"]),
            _check_t4f3,
        ),
        RepFamily(
            "t4f4", ("y4", "z3", "z4"), True,
            lambda e, s: _t2f56(e["c"], 1.0, e["y4"], e["z3"], e["z4"], s),
            _check_t4f4,
        ),
    )
}


def _draw_env(rng, fid):
    """c and the free parameters of ``fid``.  One draw in 20 takes c = 1,
    one in four puts a zero at a parameter, and one in four puts t4f3 and
    t4f4 on the loci their side conditions exclude, so that the draws reach
    every ConstraintError and many DenominatorErrors."""
    env = {"c": 1.0 if rng.uniform() < 0.05 else random_valid_c(rng)}
    params = REFERENCE[fid].free_params
    env.update((p, random_param(rng)) for p in params)
    if rng.uniform() < 0.25:
        env[params[int(rng.integers(len(params)))]] = 0.0
    elif fid in ("t4f3", "t4f4") and rng.uniform() < 0.33:
        zeta = np.exp(2j * np.pi * int(rng.integers(3)) / 3.0)
        if fid == "t4f3":
            env["z4"] = zeta * env["y4"]
        elif zeta != 1.0:
            env["y4"] = zeta * env["z4"]
        else:
            env["z4"] = env["y4"] * env["z3"]
    return env


def _outcomes(envs, fid):
    """Per draw and branch: the three images as bytes, or the exception's
    type and message."""
    out = []
    for env in envs:
        for branch in ("principal", "negated"):
            try:
                rep = family(fid, env, branch=branch)
            except (KeyError, ValueError) as exc:
                out.append((type(exc), str(exc)))
            else:
                out.append(tuple(rep.images[g].tobytes() for g in ("x", "y", "z")))
    return out


@pytest.mark.parametrize("fid", sorted(REFERENCE))
def test_family_table_matches_reference(fid, monkeypatch):
    assert FAMILIES[fid].free_params == REFERENCE[fid].free_params
    assert FAMILIES[fid].has_radical == REFERENCE[fid].has_radical
    rng = np.random.default_rng(sorted(REFERENCE).index(fid))
    envs = [_draw_env(rng, fid) for _ in range(DRAWS)]
    got = _outcomes(envs, fid)
    monkeypatch.setattr(sklyanin, "FAMILIES", REFERENCE)
    expected = _outcomes(envs, fid)
    assert got == expected
    # the draws reach both built members and side-condition failures
    assert any(isinstance(o[0], bytes) for o in got)
    if REFERENCE[fid].check is not _no_constraint:
        assert any(o[0] is ConstraintError for o in got)


def test_family_table_order():
    assert list(FAMILIES) == list(REFERENCE)
