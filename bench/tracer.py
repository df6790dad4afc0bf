"""Per-layer spans recorded from outside the package.

The traced run wraps every public function of the sklyrep modules listed
in ``TRACED_MODULES``.  Several modules import names by value (``from
.reptheory import classify``), so a wrapper must replace the original in
every module that holds it; ``install`` does that and ``unpatched`` checks
it.  Spans are aggregated in memory per name and per (name, parent) pair:
call count, self time (duration minus the time covered by child spans)
and the number of calls that returned something other than None.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = ("solver", "reptheory", "sklyanin", "skewpoly", "freealg", "matkit", "cli")

# The CLI's public surface is its entry point.  Its handlers and argument
# helpers run inside the ``cli.main.<subcommand>`` span, so that span's self
# time is argument parsing and JSON input/output.
PUBLIC_OVERRIDE = {"cli": ("main",)}


def public_functions(module, short):
    names = PUBLIC_OVERRIDE.get(short)
    out = {}
    for name, value in vars(module).items():
        if names is not None and name not in names:
            continue
        if name.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ == module.__name__:
            out[name] = value
    return out


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sklyrep" or name.startswith("sklyrep."))]


class Stat:
    __slots__ = ("calls", "self_s", "hits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0


class Tracer:
    """Wraps the public functions of the ``TRACED_MODULES`` while installed."""

    def __init__(self):
        self.by_name = {}
        self.by_edge = {}  # (span, parent span or None) -> Stat
        self._stack = []  # [span name, seconds covered by children]
        self._originals = {}  # id(original) -> (original, wrapper)
        self._patches = []  # (module, attribute, original)
        self.spans = []  # names of the wrapped functions
        for short in TRACED_MODULES:
            module = importlib.import_module(f"sklyrep.{short}")
            for name, fn in public_functions(module, short).items():
                self._originals[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
                self.spans.append(f"{short}.{name}")

    def _finish(self, frame, duration, hit):
        stack = self._stack
        stack.pop()
        name = frame[0]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        self_s = duration - frame[1]
        for table, key in ((self.by_name, name),
                           (self.by_edge, (name, parent[0] if parent else None))):
            stat = table.get(key)
            if stat is None:
                stat = table[key] = Stat()
            stat.calls += 1
            stat.self_s += self_s
            stat.hits += hit

    def _wrap(self, span, fn):
        clock = time.perf_counter
        stack = self._stack
        finish = self._finish
        by_subcommand = span == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span
            if by_subcommand:
                argv = args[0] if args else kwargs.get("argv")
                name = f"{span}.{argv[0] if argv else 'none'}"
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                finish(frame, clock() - start, False)
                raise
            finish(frame, clock() - start, result is not None)
            return result

        return traced

    def install(self):
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def unpatched(self):
        """Module attributes that still hold an original function while installed."""
        return [
            f"{module.__name__}.{attr}"
            for module in _package_modules()
            for attr, value in vars(module).items()
            if id(value) in self._originals and self._originals[id(value)][0] is value
        ]

    def stat(self, name, parent=None, by_parent=False):
        table, key = (self.by_edge, (name, parent)) if by_parent else (self.by_name, name)
        return table.get(key) or Stat()

    def self_total(self):
        return sum(s.self_s for s in self.by_name.values())
