import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
BENCH = BENCHMARK.parent / "bench"


def _traced_functions():
    """(module, function) pairs named by the benchmark's per-layer span metrics."""
    pairs = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        parts = metric["name"].split(".")
        if parts[-1] not in ("calls", "self_s") or parts[0] == "cli":
            continue
        if importlib.util.find_spec(f"sklyrep.{parts[0]}") is not None:
            pairs.add((parts[0], parts[1]))
    return sorted(pairs)


def test_benchmark_spans_name_public_functions():
    # the traced benchmark run exits 3 when a per-layer metric names no span,
    # and it traces only public functions defined in their own module
    pairs = _traced_functions()
    assert ("freealg", "parse_ncpoly") in pairs
    missing = []
    for short, name in pairs:
        module = importlib.import_module(f"sklyrep.{short}")
        fn = getattr(module, name, None)
        if (
            name.startswith("_")
            or not inspect.isfunction(fn)
            or fn.__module__ != module.__name__
        ):
            missing.append(f"{short}.{name}")
    assert not missing, missing


def test_records_reach_traced_functions_through_module_attributes(monkeypatch):
    # the traced run wraps module attributes, so a record that held the
    # function objects themselves would bypass the wrappers without a warning
    from sklyrep import sklyanin, skewpoly

    calls = []
    for module, name in ((sklyanin, "family"), (sklyanin, "s11c_presentation"),
                         (sklyanin, "central_character"), (skewpoly, "skew_center_point")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    def through(name, call):
        calls.clear()
        result = call()
        assert name in calls, name
        return result

    env = {"c": 2.0 + 0j}
    through("s11c_presentation", lambda: sklyanin.ALGEBRA.presentation(env))
    _, member = through("family", lambda: next(iter(
        sklyanin.ALGEBRA.members(env, "t3f2", {"z4": 1.0}))))
    through("central_character", lambda: sklyanin.ALGEBRA.character(member, 1e-7))
    _, psi = next(iter(skewpoly.ALGEBRA.members({}, "psi", {"alpha": 0.8, "beta": -1.2})))
    through("skew_center_point", lambda: skewpoly.ALGEBRA.character(psi, 1e-7))


def test_traced_benchmark_wrapper_check_passes(tmp_path, monkeypatch):
    # the traced run starts with bench/run.py's wrapper check and exits 3 when
    # it fails: a span left unwrapped, or classify's conjugator calls other
    # than (calls, hits) = (2, 2) on its three conjugate representations
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # set by run.py on import, restored here
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("calibrate", "tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        spans = run.check_wrappers(tmp_path)
    finally:
        for name in ("calibrate", "tracer", "workloads"):
            sys.modules.pop(name, None)
    assert "reptheory.find_conjugator" in spans and "solver.solve_reps" in spans
