"""sklyrep benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload solve-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from any directory of a checkout; the program is imported from its
``src/``.  Each workload runs in its own process with one BLAS thread.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, each metric with its unit and sample count, and the output
digests.  Metric names and units come from ``BENCHMARK.json``.

``--trace 0`` measures for about ``--seconds`` seconds in whole rounds and
reports the end-to-end metrics.  ``--trace 1`` runs each task of a fixed
number of rounds untraced and then with every public function of the
package wrapped (see ``tracer.py``), checks that both give the same output
digests, and reports the per-layer metrics.  ``bench/README.md`` explains
the workloads, the metrics and the machine-speed scaling of times.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process
# or its children: default OpenBLAS threading makes small batched kernels
# many times slower and noisier on a 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import REFERENCE_S, SpeedScale  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = BENCH_DIR / ".work"

SETUP_REPEATS = 15
# The child times its own set-up, then runs the reference kernel on the same
# vCPU to give the speed factor for that time.
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import sklyrep.cli, sklyrep.solver\n"
    "sklyrep.sklyanin.s11c_presentation(5.0)\n"
    "elapsed = time.perf_counter() - t0\n"
    "import statistics, calibrate\n"
    "kernel = statistics.median(calibrate.kernel_seconds() for _ in range(3))\n"
    "print(repr(elapsed), repr(kernel))\n"
)
CLI_SUBCOMMANDS = ("verify", "classify", "sigma", "slice", "solve")
# a find_conjugator call is "in classify" or "in match" by its parent span;
# solve_reps calls it only from its private family-matching step
CONJUGATOR_PARENTS = {"in_classify": "reptheory.classify", "in_match": "solver.solve_reps"}
P90_MIN_TASKS = 100  # a 90th percentile needs ten samples beyond it
SELF_TIME_MARGIN = 0.02  # share of the traced wall time not covered by spans


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read {path.name}: {exc}")


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": sha,
    }


def measure_setup():
    """Median over fresh processes of: import the CLI and solver, build the
    first presentation.  One untimed process first fills the bytecode caches,
    whatever the caller's PYTHONDONTWRITEBYTECODE says.
    Returns (scaled median, raw median, count)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    raw, scaled = [], []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"setup process failed: {proc.stderr.strip()}")
        if k:
            elapsed, kernel = map(float, proc.stdout.split())
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_S / kernel)
    return statistics.median(scaled), statistics.median(raw), len(raw)


class Totals:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.irreducible = 0
        self.matched = 0

    def add(self, task, outcome):
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.irreducible += outcome.irreducible
        self.matched += outcome.matched
        self.problems += [f"{task.label}: {p}" for p in outcome.problems]


def run_tasks(tasks, totals, digests, record):
    """Run tasks in order, timing each call into sklyrep and checking its output."""
    from workloads import CheckError

    for task in tasks:
        start = time.perf_counter()
        output = task.run()
        record(time.perf_counter() - start)
        try:
            outcome = task.check(output)
        except CheckError as exc:
            fail(f"output check of {task.label!r} cannot be evaluated: {exc}", code=3)
        totals.add(task, outcome)
        digests.append(task.digest(output))


def combined_digest(digests):
    import hashlib

    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def measure(workload, seed, seconds, workdir):
    """Whole rounds, at least one, while another round would end within ``seconds``."""
    import numpy as np
    from workloads import WORKLOADS

    make_round = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    totals, digests, scale = Totals(), [], SpeedScale()
    items = 0
    first = None
    rounds = 0
    while True:
        tasks = make_round(rng, workdir)
        first = first or tasks[0]
        scale.open()
        run_tasks(tasks, totals, digests, scale.add)
        scale.close()
        items += sum(t.items for t in tasks)
        rounds += 1
        # the scaled time keeps the number of rounds from following the host's
        # load; the raw time keeps a slow host within the time budget
        elapsed = max(sum(scale.scaled), sum(scale.raw))
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    # determinism: the first task again, outside the timed region
    output = first.run()
    if first.digest(output) != digests[0]:
        totals.problems.append(f"{first.label}: output digest changed on a second run")
    return totals, digests, scale, items, rounds


def report_line(name, value, unit, note=""):
    print(f"  {name:<56} {value:>14.6g} {unit:<6} {note}")


def end_to_end(args, spec, workdir):
    from workloads import ITEM_NAMES

    setup_s, setup_raw, setup_n = measure_setup()
    totals, digests, scale, items, rounds = measure(args.workload, args.seed,
                                                    args.seconds, workdir)
    times = scale.scaled
    item_name = ITEM_NAMES[args.workload]
    failed_frac = totals.failed / totals.attempted
    values = {
        "setup_s": (setup_s, f"n={setup_n} fresh processes; raw {setup_raw:.6g} s"),
        "items_per_s": (items / sum(times), f"{item_name}_per_s: {items} {item_name}; "
                        f"raw {items / sum(scale.raw):.6g}/s"),
        "task_s_p50": (statistics.median(times), f"n={len(times)} tasks; "
                       f"raw {statistics.median(scale.raw):.6g} s"),
        "ok_frac": (1.0 - failed_frac, f"failed {totals.failed} of {totals.attempted}, "
                    f"failed_frac {failed_frac:.6g}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "ru_maxrss of this process"),
    }
    print(f"# {args.workload}: seed {args.seed}, {rounds} rounds, {len(times)} tasks, "
          f"digest {combined_digest(digests)}")
    metrics = {}
    for entry in spec["end_to_end"]:
        value, detail = values[entry["name"]]
        report_line(entry["name"], value, entry["unit"], detail)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if len(times) >= P90_MIN_TASKS:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        report_line("task_s_p90", p90, "s", f"n={len(times)} tasks (not gated)")
    print(f"# reference kernel: median {statistics.median(scale.kernel):.6g} s over "
          f"{len(scale.kernel)} runs, {REFERENCE_S} s at reference speed")
    return totals, metrics


def _function_attributes():
    return {(name, attr): value for name, module in sorted(sys.modules.items())
            if name.startswith("sklyrep") and module is not None
            for attr, value in vars(module).items() if callable(value)}


def check_wrappers(workdir):
    """Exact span counts on a tiny input; exits if a wrapper is missing.
    Returns the names of the wrapped functions."""
    import contextlib

    import numpy as np
    from sklyrep import cli, reptheory, solver
    from tracer import Tracer
    from workloads import random_conjugator, random_member

    rng = np.random.default_rng(7)
    rep = random_member(rng, "t4f1", 5.0)[2]
    reps = [reptheory.conjugate_rep(rep, random_conjugator(rng)) for _ in range(3)]
    path = workdir / "wrapper-check.json"
    path.write_text(json.dumps([reptheory.rep_to_json(r) for r in reps]))

    before = _function_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        missing = tracer.unpatched()
        start = time.perf_counter()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            codes = [cli.main(["classify", "--input", str(path)])]
            in_classify = tracer.stat("reptheory.find_conjugator", "reptheory.classify",
                                      by_parent=True)
            in_classify = (in_classify.calls, in_classify.hits)
            codes.append(cli.main(["verify", "--family", "t3f2", "--set", "c=2,z4=1"]))
        solver.solve_reps(solver.SolveTask("sklyanin", "two_blocks", c=5.0,
                                           num_starts=8, seed=3))
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    expected = {
        "solver.solve_reps": 1,
        "reptheory.classify": 2,  # one solve task plus one classify command
        "reptheory.rep_from_json": 3,
        "cli.main.classify": 1,
        "cli.main.verify": 1,
    }
    errors = [f"{name}: {tracer.stat(name).calls} calls, expected {n}"
              for name, n in expected.items() if tracer.stat(name).calls != n]
    if in_classify != (2, 2):  # two conjugates merged into the first rep's class
        errors.append(f"find_conjugator in classify: (calls, hits) = {in_classify}")
    if missing:
        errors.append(f"unwrapped references: {missing}")
    if codes != [0, 0]:
        errors.append(f"CLI exit codes {codes}")
    if abs(wall - tracer.self_total()) > SELF_TIME_MARGIN * wall:
        errors.append(f"self times sum to {tracer.self_total():.4f} s of {wall:.4f} s")
    if _function_attributes() != before:
        errors.append("uninstall left wrapped functions behind")
    if errors:
        fail("wrapper completeness check: " + "; ".join(errors), code=3)
    return tracer.spans


def per_layer(args, spec, workdir):
    import numpy as np
    from tracer import Tracer
    from workloads import TRACE_ROUNDS, WORKLOADS

    wrapped = check_wrappers(workdir)

    rng = np.random.default_rng(args.seed)
    tasks = [t for _ in range(TRACE_ROUNDS[args.workload])
             for t in WORKLOADS[args.workload](rng, workdir)]
    # each task untraced, then traced right after it, so that both passes see
    # the same host load and the difference is the tracing overhead
    tracer = Tracer()
    totals, digests, times = Totals(), [], []
    traced, traced_digests, traced_times = Totals(), [], []
    for task in tasks:
        run_tasks([task], totals, digests, times.append)
        tracer.install()
        try:
            run_tasks([task], traced, traced_digests, traced_times.append)
        finally:
            tracer.uninstall()
    if traced_digests != digests:
        changed = sum(a != b for a, b in zip(digests, traced_digests))
        totals.problems.append(f"{changed} task outputs differ between the untraced and "
                               "traced runs of the same seed")
    wall, traced_wall = sum(times), sum(traced_times)
    gap = traced_wall - tracer.self_total()
    if abs(gap) > SELF_TIME_MARGIN * traced_wall:
        fail(f"span self times sum to {tracer.self_total():.4f} s of {traced_wall:.4f} s "
             "traced wall time", code=3)

    values = {
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": wall,
        "trace.overhead_s": traced_wall - wall,
        "trace.overhead_frac": (traced_wall - wall) / wall,
        "trace.unattributed_s": gap,
        "solver.match.hit_ratio": traced.matched / traced.irreducible if traced.irreducible
        else 0.0,
        "solver.match.irreducible_classes": traced.irreducible,
    }
    spans = set(wrapped) | {f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS}
    for span in spans:
        stat = tracer.stat(span)
        values[f"{span}.calls"] = stat.calls
        values[f"{span}.self_s"] = stat.self_s
    for key, parent in CONJUGATOR_PARENTS.items():
        stat = tracer.stat("reptheory.find_conjugator", parent, by_parent=True)
        prefix = f"reptheory.find_conjugator.{key}"
        values[f"{prefix}.calls"] = stat.calls
        values[f"{prefix}.self_s"] = stat.self_s
        values[f"{prefix}.hit_ratio"] = stat.hits / stat.calls if stat.calls else 0.0

    print(f"# {args.workload} traced: seed {args.seed}, {len(tasks)} tasks, "
          f"{len(wrapped)} wrapped functions, digest {combined_digest(digests)}")
    metrics = {}
    for entry in spec["per_layer"]:
        if entry["name"] not in values:
            fail(f"per-layer metric {entry['name']!r} names no traced span", code=3)
        value = values[entry["name"]]
        report_line(entry["name"], value, entry["unit"])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return totals, metrics


def run_all(args, workloads):
    """Each workload in its own fresh process."""
    status = 0
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        status = status or proc.returncode
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sklyrep" / "__init__.py").is_file():
        fail(f"no sklyrep sources under {SRC}; run from a full checkout")
    spec = load_spec()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, tuple(WORKLOADS))
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {tuple(WORKLOADS)} or all")

    print("# env " + json.dumps(environment(), sort_keys=True))
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            totals, metrics = per_layer(args, spec, workdir)
        else:
            totals, metrics = end_to_end(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    for problem in totals.problems[:20]:
        print(f"# WRONG: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not totals.problems,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
