import importlib
import importlib.util
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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
