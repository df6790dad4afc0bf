"""The benchmark's three workloads: inputs drawn from a seed, the timed call
into sklyrep's public API, and the check of every output.

A workload is a list of rounds; each round is a fixed list of tasks whose
parameters come from the seeded generator.  A task is one solve, one 1-D
Newton sweep or one CLI command.

Outcome of a check:
- ``attempted``/``failed`` count the operations a task performed and those
  that did not produce a complete result;
- ``problems`` lists outputs that are wrong (a failed check other than the
  solver's unmatched or degenerate classes).  Any problem makes the run
  incorrect;
- a check that cannot be evaluated raises :class:`CheckError`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from sklyrep import cli, reptheory, sklyanin, skewpoly, solver

STARTS = 200
RESIDUAL_MAX = 1e-8
NILPOTENT_X00_MAX = 1e-7
AXIS_TOL = 1e-8

SOLVE_KINDS = ("one_block", "two_blocks")
# c = 40 and c = 0.05 are where the solver leaves irreducible classes
# unmatched; they stay in the sweep so that defect shows in ok_frac.
SOLVE_C = (5.0, 0.5 + 1.2j, 40.0, 0.05)
SOLVE_MATRIX = tuple(
    [("sklyanin", kind, c) for c in SOLVE_C for kind in SOLVE_KINDS]
    + [("skew", kind, None) for kind in SOLVE_KINDS]
)
ALLOWED_FAMILIES = {
    ("sklyanin", "one_block"): {"t3f1", "t3f2"},
    ("sklyanin", "two_blocks"): {"t4f1", "t4f2", "t4f3", "t4f4"},
    ("skew", "one_block"): {"psi"},
    ("skew", "two_blocks"): {"psi"},
}

NEWTON_SKLYANIN_PER_ROUND = 9

CLASSIFY_PER_ROUND = 6
CLASSIFY_IRREDUCIBLE = 4  # distinct representative members per classify input
CLASSIFY_CONJUGATES = 4  # conjugates of each
CLASSIFY_REDUCIBLE = 4  # distinct trivial-by-trivial classes per input
CLASSIFY_REDUCIBLE_MEMBERS = 3
VERIFY_REP_IRREDUCIBLE = 6
VERIFY_REP_REDUCIBLE = 2
SLICE_STEPS = 24


class CheckError(RuntimeError):
    """An output check could not be evaluated."""


@dataclass
class Outcome:
    attempted: int = 1
    failed: int = 0
    problems: list = field(default_factory=list)
    irreducible: int = 0
    matched: int = 0

    def fail(self, problem=None):
        self.failed += 1
        if problem is not None:
            self.problems.append(problem)


@dataclass
class Task:
    label: str
    run: object  # () -> output; the timed call into sklyrep
    check: object  # output -> Outcome
    items: int  # starts or representations the task processes

    def digest(self, output):
        return hashlib.sha256(_canonical(output).encode()).hexdigest()


def _canonical(output):
    if isinstance(output, str):
        return output
    return json.dumps(output, sort_keys=True, default=_pair)


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# seeded inputs


def random_valid_c(rng, lo=0.35, hi=2.0, margin=0.05):
    """c in an annulus, bounded away from c = 0, c^3 = 1 and c^3 = -8."""
    while True:
        z = complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi))
        if lo < abs(z) < hi and abs(z ** 3 - 1.0) > margin and abs(z ** 3 + 8.0) > margin:
            return z


def random_param(rng, lo=0.3, hi=1.8):
    while True:
        z = complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi))
        if abs(z) > lo:
            return z


def random_conjugator(rng, min_det=0.05):
    """Random invertible 2x2 matrix with a bounded condition number."""
    while True:
        q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(q)) / np.linalg.norm(q) ** 2 > min_det:
            return q


def random_member(rng, fid, c):
    """Constraint-satisfying member of one family: (params, branch, rep)."""
    fam = sklyanin.FAMILIES[fid]
    for _ in range(64):
        params = {p: random_param(rng) for p in fam.free_params}
        branch = ("principal", "negated")[int(rng.integers(2))]
        try:
            rep = sklyanin.family(fid, {"c": c, **params}, branch=branch)
        except (sklyanin.ConstraintError, sklyanin.DenominatorError):
            continue
        return params, branch, rep
    raise RuntimeError(f"no valid parameters drawn for {fid}")


def upper_triangular_rep(c, corner):
    """Extension of the trivial representation by itself: every image is
    strictly upper triangular, and two such are equivalent exactly when their
    corner vectors are proportional."""
    images = {g: [[0.0, v], [0.0, 0.0]] for g, v in zip(("x", "y", "z"), corner)}
    return reptheory.Rep(2, images, {"c": c})


def random_corner(rng):
    return np.array([random_param(rng) for _ in range(3)])


def fmt_complex(z):
    """Complex literal in the CLI's syntax, round-tripping both parts exactly."""
    z = complex(z)
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _task_seed(rng):
    return int(rng.integers(2 ** 31))


# ---------------------------------------------------------------------------
# solve-sweep


def _check_solve(task_key, payload):
    try:
        solutions = payload["solutions"]
        degenerate = int(payload["stats"]["degenerate"])
    except (KeyError, TypeError) as exc:
        raise CheckError(f"solve report lacks {exc}") from None
    allowed = ALLOWED_FAMILIES[task_key]
    out = Outcome(attempted=len(solutions) + degenerate)
    for _ in range(degenerate):
        out.fail()
    for k, sol in enumerate(solutions):
        try:
            residual = sol["residual"]
            irreducible = sol["irreducible"]
            family = sol["matched_family"]
            x00 = sol["rep"]["matrices"]["x"][0][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise CheckError(f"solution {k} lacks {exc}") from None
        if not residual <= RESIDUAL_MAX:
            out.fail(f"solution {k}: residual {residual:.3e} > {RESIDUAL_MAX}")
        elif task_key == ("sklyanin", "one_block") and not abs(complex(*x00)) <= NILPOTENT_X00_MAX:
            out.fail(f"solution {k}: one_block x[0,0] = {complex(*x00)} is not 0")
        elif irreducible:
            out.irreducible += 1
            if family is None:
                out.fail()  # unmatched irreducible class
            elif family in allowed:
                out.matched += 1
            else:
                out.fail(f"solution {k}: matched {family!r}, allowed {sorted(allowed)}")
    return out


def solve_sweep_round(rng, workdir):
    tasks = []
    for algebra, kind, c in SOLVE_MATRIX:
        spec = solver.SolveTask(algebra, kind, c=c, num_starts=STARTS, seed=_task_seed(rng))

        def run(spec=spec):
            return solver.report_to_json(solver.solve_reps(spec))

        def check(payload, key=(algebra, kind)):
            return _check_solve(key, payload)

        tasks.append(Task(f"solve {algebra} {kind} c={c} seed={spec.seed}", run, check, STARTS))
    return tasks


# ---------------------------------------------------------------------------
# newton-1d


def _check_roots_sklyanin(roots):
    out = Outcome()
    if roots != [(0j, 0j, 0j)]:
        out.fail(f"1-dimensional roots {roots[:3]}... are not exactly [(0, 0, 0)]")
    return out


def _check_roots_skew(roots):
    out = Outcome()
    if not roots:
        out.fail("no 1-dimensional root found")
    off_axis = [r for r in roots if min(abs(r[0]), abs(r[1])) > AXIS_TOL]
    if off_axis:
        out.fail(f"{len(off_axis)} roots off the coordinate axes, e.g. {off_axis[0]}")
    return out


def newton_1d_round(rng, workdir):
    tasks = []
    for _ in range(NEWTON_SKLYANIN_PER_ROUND):
        c, seed = random_valid_c(rng), _task_seed(rng)

        def run(c=c, seed=seed):
            return solver.one_dim_solutions(sklyanin.s11c_presentation(c), STARTS, seed)

        tasks.append(Task(f"one_dim S(1,1,{c:.4g}) seed={seed}", run,
                          _check_roots_sklyanin, STARTS))
    seed = _task_seed(rng)

    def run_skew(seed=seed):
        return solver.one_dim_solutions(skewpoly.skew_presentation(), STARTS, seed)

    tasks.append(Task(f"one_dim skew seed={seed}", run_skew, _check_roots_skew, STARTS))
    return tasks


# ---------------------------------------------------------------------------
# cli-batch


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def _split_cli(output):
    head, _, body = output.partition("\n")
    try:
        return int(head.removeprefix("exit ")), body
    except ValueError:
        raise CheckError(f"unparseable CLI result header {head!r}") from None


def _cli_json(output, what):
    code, body = _split_cli(output)
    if code != 0:
        return code, None
    try:
        return code, json.loads(body)
    except json.JSONDecodeError:
        raise CheckError(f"{what}: stdout is not JSON") from None


def _check_verify(irreducible, what):
    def check(output):
        out = Outcome()
        code, payload = _cli_json(output, what)
        if code != 0:
            out.fail(f"{what}: exit {code}, expected 0: {output[-200:]!r}")
            return out
        try:
            burnside = payload["irreducible_burnside"]
            line = payload["invariant_line"]
        except KeyError as exc:
            raise CheckError(f"{what}: payload lacks {exc}") from None
        if burnside != irreducible or (line is None) != irreducible:
            out.fail(f"{what}: burnside={burnside}, invariant line={line}, "
                     f"constructed irreducible={irreducible}")
        return out
    return check


def _check_classify(truth, what):
    def check(output):
        out = Outcome()
        code, payload = _cli_json(output, what)
        if code != 0:
            out.fail(f"{what}: exit {code}, expected 0: {output[-200:]!r}")
            return out
        try:
            found = {frozenset(cls["members"]) for cls in payload["classes"]}
        except (KeyError, TypeError) as exc:
            raise CheckError(f"{what}: payload lacks {exc}") from None
        if found != set(truth):
            out.fail(f"{what}: partition {sorted(map(sorted, found))} != "
                     f"{sorted(map(sorted, truth))}")
        return out
    return check


def _check_sigma(what):
    def check(output):
        out = Outcome()
        code, payload = _cli_json(output, what)
        order = payload.get("order") if payload else None
        if code != 0 or order != 2:
            out.fail(f"{what}: exit {code}, order {order}; a = b needs order 2")
        return out
    return check


def _check_slice(what):
    def check(output):
        out = Outcome()
        code, body = _split_cli(output)
        lines = body.splitlines()
        if code != 0 or lines[:1] != ["u2,u3,value"] or len(lines) != 1 + SLICE_STEPS ** 2:
            out.fail(f"{what}: exit {code}, {len(lines)} CSV lines")
        return out
    return check


def _write_json(workdir, name, obj):
    path = workdir / name
    path.write_text(json.dumps(obj))
    return str(path)


def cli_batch_round(rng, workdir):
    tag = f"r{_task_seed(rng)}"
    commands = []  # (argv, check, reps)

    for fid in sklyanin.family_ids():
        c = random_valid_c(rng)
        params, branch, _ = random_member(rng, fid, c)
        assignments = ",".join(f"{k}={fmt_complex(v)}" for k, v in {"c": c, **params}.items())
        argv = ["verify", "--family", fid, "--set", assignments, "--branch", branch]
        commands.append((argv, _check_verify(True, f"verify --family {fid}"), 1))

    kinds = [True] * VERIFY_REP_IRREDUCIBLE + [False] * VERIFY_REP_REDUCIBLE
    for k, irreducible in enumerate(kinds):
        c = random_valid_c(rng)
        if irreducible:
            fid = sklyanin.REPRESENTATIVE_IDS[k % len(sklyanin.REPRESENTATIVE_IDS)]
            rep = random_member(rng, fid, c)[2]
        else:
            rep = upper_triangular_rep(c, random_corner(rng))
        rep = reptheory.conjugate_rep(rep, random_conjugator(rng))
        path = _write_json(workdir, f"{tag}-rep{k}.json", reptheory.rep_to_json(rep))
        what = f"verify --rep ({'irreducible' if irreducible else 'reducible'})"
        commands.append((["verify", "--rep", path], _check_verify(irreducible, what), 1))

    for k in range(CLASSIFY_PER_ROUND):
        c = random_valid_c(rng)
        groups = []
        fids = rng.choice(len(sklyanin.REPRESENTATIVE_IDS), CLASSIFY_IRREDUCIBLE, replace=False)
        for i in fids:
            rep = random_member(rng, sklyanin.REPRESENTATIVE_IDS[i], c)[2]
            groups.append([reptheory.conjugate_rep(rep, random_conjugator(rng))
                           for _ in range(CLASSIFY_CONJUGATES)])
        for _ in range(CLASSIFY_REDUCIBLE):
            corner = random_corner(rng)
            groups.append([
                reptheory.conjugate_rep(upper_triangular_rep(c, corner * random_param(rng)),
                                        random_conjugator(rng))
                for _ in range(CLASSIFY_REDUCIBLE_MEMBERS)
            ])
        labelled = [(g, rep) for g, members in enumerate(groups) for rep in members]
        order = rng.permutation(len(labelled))
        reps = [labelled[i][1] for i in order]
        truth = [frozenset(pos for pos, i in enumerate(order) if labelled[i][0] == g)
                 for g in range(len(groups))]
        path = _write_json(workdir, f"{tag}-classify{k}.json",
                           [reptheory.rep_to_json(r) for r in reps])
        commands.append((["classify", "--input", path],
                         _check_classify(truth, f"classify #{k}"), len(reps)))

    for k in range(2):
        c = random_valid_c(rng)
        argv = ["sigma", "--a", "1", "--b", "1", "--c", fmt_complex(c),
                "--seed", str(_task_seed(rng))]
        commands.append((argv, _check_sigma(f"sigma c={c:.4g}"), 0))
        c, u1 = random_valid_c(rng), float(rng.uniform(-1.0, 1.0))
        argv = ["slice", "--c", fmt_complex(c), "--u1", repr(u1),
                "--grid", f"-1:1:{SLICE_STEPS}"]
        commands.append((argv, _check_slice(f"slice c={c:.4g}"), 0))

    return [Task(" ".join(argv[:2]), lambda argv=argv: _run_cli(argv), check, reps)
            for argv, check, reps in commands]


WORKLOADS = {
    "solve-sweep": solve_sweep_round,
    "newton-1d": newton_1d_round,
    "cli-batch": cli_batch_round,
}

ITEM_NAMES = {"solve-sweep": "starts", "newton-1d": "starts", "cli-batch": "reps"}

# rounds in the traced run: fixed, so span counts are exact for a seed
TRACE_ROUNDS = {"solve-sweep": 1, "newton-1d": 4, "cli-batch": 10}
