"""Replay the benchmark's solve-sweep or newton-1d tasks and print each
output's digest.

    python3 tools/solve_census.py --seeds 1-10 --rounds 4
    python3 tools/solve_census.py --workload newton-1d --seeds 1-30 --rounds 10
    python3 tools/solve_census.py --workload newton-1d --only skew --seeds 1-30 --rounds 1500

The rounds come from ``bench/workloads.solve_sweep_round`` (the default) or
``bench/workloads.newton_1d_round`` as ``bench/run.py`` draws them (one
generator per seed, rounds in order from 0).  Each line gives seed, round,
task label, the sha256 digest of the task's output (a solve report or a
1-dimensional root set) and the attempted and failed operation counts of the
benchmark's check; the last line the totals.  Two checkouts are compared by
diffing this output.  With ``--only TEXT`` only the tasks whose label
contains TEXT run and are checked; the generator still draws every task, so
each task keeps the seed it has in the full replay.
"""

import os

# one BLAS thread before numpy loads, as bench/run.py runs the solves
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
from workloads import newton_1d_round, solve_sweep_round  # noqa: E402

ROUNDS = {"solve-sweep": solve_sweep_round, "newton-1d": newton_1d_round}


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                        help="benchmark seeds, as N or LO-HI (default 1-10)")
    parser.add_argument("--rounds", type=int, default=4, help="rounds per seed (default 4)")
    parser.add_argument("--workload", choices=sorted(ROUNDS), default="solve-sweep",
                        help="benchmark workload to replay (default solve-sweep)")
    parser.add_argument("--only", default="", metavar="TEXT",
                        help="run only the tasks whose label contains TEXT")
    args = parser.parse_args()
    attempted = failed = 0
    for seed in args.seeds:
        rng = np.random.default_rng(seed)
        for rnd in range(args.rounds):
            for task in ROUNDS[args.workload](rng, None):
                if args.only not in task.label:
                    continue
                output = task.run()
                outcome = task.check(output)
                attempted += outcome.attempted
                failed += outcome.failed
                print(f"{seed} {rnd} {task.label} {task.digest(output)} "
                      f"attempted {outcome.attempted} failed {outcome.failed}", flush=True)
    print(f"total attempted {attempted} failed {failed}")


if __name__ == "__main__":
    main()
