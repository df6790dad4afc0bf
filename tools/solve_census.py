"""Replay benchmark tasks or the closure sweep; print each output's digest.

    python3 tools/solve_census.py --seeds 1-10 --rounds 4
    python3 tools/solve_census.py --workload newton-1d --seeds 1-30 --rounds 10
    python3 tools/solve_census.py --workload newton-1d --only skew --seeds 1-30 --rounds 1500
    python3 tools/solve_census.py --workload cli-batch --seeds 1-10 --rounds 4
    python3 tools/solve_census.py --workload closure

The rounds come from ``bench/workloads.solve_sweep_round`` (the
default), ``bench/workloads.newton_1d_round`` or
``bench/workloads.cli_batch_round`` as ``bench/run.py`` draws them (one
generator per seed, rounds in order from 0); cli-batch writes its input
files to a temporary directory that is removed at exit.  Each line gives
seed, round, task label, the sha256 digest of the task's output (a solve
report, a 1-dimensional root set, or a CLI command's exit code, stdout
and stderr), the attempted and failed operation counts of the
benchmark's check and its problem count (outputs ``bench/run.py`` marks
incorrect), then the problems themselves; the last line the totals and
the number of open tasks (tasks with a failure or a problem).  Two
checkouts are compared by diffing this output.  With ``--only TEXT`` only
the tasks whose label contains TEXT run and are checked; the generator
still draws every task, so each task keeps the seed it has in the full
replay.

The closure sweep solves S(1,1,c) in both Jordan shapes at 200 starts for
each c in ``CLOSURE_C`` and each solver seed in ``--seeds`` (default 1-2;
``--rounds`` does not apply), under the solve-sweep check: criterion 08's
residual, nilpotent-x and allowed-family rules, with every unmatched or
degenerate class failed, plus one problem for each allowed family the
solve did not find.
"""


import os

# one BLAS thread before numpy loads, as bench/run.py runs the solves
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
from workloads import (  # noqa: E402
    ALLOWED_FAMILIES,
    SOLVE_KINDS,
    STARTS,
    Task,
    _check_solve,
    cli_batch_round,
    newton_1d_round,
    solve_sweep_round,
)

from sklyrep import solver  # noqa: E402

ROUNDS = {"solve-sweep": solve_sweep_round, "newton-1d": newton_1d_round,
          "cli-batch": cli_batch_round}
CLOSURE_C = (5.0, 0.5 + 1.2j, -0.7, 40.0, 0.05, 12.0, 0.2, -20.0, 1.001, -2.001)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def closure_tasks(seed):
    """The closure sweep's solves at one solver seed."""
    for c in CLOSURE_C:
        for kind in SOLVE_KINDS:
            spec = solver.SolveTask("sklyanin", kind, c=c, num_starts=STARTS, seed=seed)

            def run(spec=spec):
                return solver.report_to_json(solver.solve_reps(spec))

            def check(payload, key=("sklyanin", kind)):
                outcome = _check_solve(key, payload)
                found = {sol["matched_family"] for sol in payload["solutions"]}
                outcome.problems += [f"missing {f}" for f in sorted(ALLOWED_FAMILIES[key] - found)]
                return outcome

            yield Task(f"closure sklyanin {kind} c={c} seed={seed}", run, check, STARTS)


def replay(args, workdir):
    """(line prefix, task) for every task the census runs, in order."""
    for seed in args.seeds:
        if args.workload == "closure":
            yield from ((f"{seed}", task) for task in closure_tasks(seed))
            continue
        rng = np.random.default_rng(seed)
        for rnd in range(args.rounds):
            yield from ((f"{seed} {rnd}", task) for task in ROUNDS[args.workload](rng, workdir))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=None,
                        help="benchmark seeds, or solver seeds for closure, as N or LO-HI "
                             "(default 1-10, 1-2 for closure)")
    parser.add_argument("--rounds", type=int, default=4, help="rounds per seed (default 4)")
    parser.add_argument("--workload", choices=sorted(ROUNDS) + ["closure"], default="solve-sweep",
                        help="benchmark workload to replay, or the closure sweep "
                             "(default solve-sweep)")
    parser.add_argument("--only", default="", metavar="TEXT",
                        help="run only the tasks whose label contains TEXT")
    args = parser.parse_args()
    if args.seeds is None:
        args.seeds = seed_range("1-2" if args.workload == "closure" else "1-10")
    attempted = failed = problems = open_tasks = 0
    with tempfile.TemporaryDirectory() as workdir:
        for prefix, task in replay(args, Path(workdir)):
            if args.only not in task.label:
                continue
            output = task.run()
            outcome = task.check(output)
            attempted += outcome.attempted
            failed += outcome.failed
            problems += len(outcome.problems)
            open_tasks += bool(outcome.failed or outcome.problems)
            print(f"{prefix} {task.label} {task.digest(output)} attempted {outcome.attempted} "
                  f"failed {outcome.failed} problems {len(outcome.problems)}",
                  *outcome.problems, flush=True)
    print(f"total attempted {attempted} failed {failed} problems {problems} open {open_tasks}")


if __name__ == "__main__":
    main()
