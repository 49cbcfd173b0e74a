"""In-memory spans around the public functions of the library modules.

`Tracer.install` replaces every public function of the measured modules,
and every public method of the classes they define, with a wrapper that
records one span per call.  The same wrapper is written into each module
that imported the function by name, so a call through ``chern.necklace_parity``
is timed like one through ``words_necklaces.necklace_parity``.

Spans are aggregated as they close: per function the call count, total
time and self time (total minus the time covered by child spans), and per
(parent, child) pair the call count.  `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
from collections import Counter
from time import perf_counter_ns

# cyclic_forms and the verify suites are left out: no speed aim targets them.
MODULES = (
    "complexes",
    "words_necklaces",
    "cyclic_category",
    "exact_linalg",
    "decorations",
    "bundles",
    "chern",
    "serialize",
    "cli",
)
PACKAGE = "necklace_chern"


def _public_callables(module):
    """(owner, attribute, qualified name, original) for each function and
    method defined in the module whose name has no leading underscore."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield module, attr, f"{short}.{attr}", value
        elif inspect.isclass(value):
            for meth, raw in vars(value).items():
                if meth.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    yield value, meth, f"{short}.{meth}", raw


def _subwords(args):
    letters = args[0].letters
    total = 1
    for m in Counter(letters).values():
        total *= m
    return "words_necklaces.subwords", total


def _file_bytes(args):
    path = next(a for a in args if isinstance(a, (str, os.PathLike)))
    return "serialize.bytes", os.path.getsize(path)


def _determinants(args):
    m = args[0]
    return "exact_linalg.determinants", math.comb(m.rows, m.cols)


# Counters taken from a call's arguments once the call has returned normally.
_COUNTERS = {
    "words_necklaces.rational_parity": _subwords,
    "exact_linalg.determinant": lambda args: ("exact_linalg.determinants", 1),
    "exact_linalg.sum_maximal_minors": _determinants,
    "serialize.load_bundle": _file_bytes,
    "serialize.load_decoration": _file_bytes,
    "serialize.load_complex": _file_bytes,
    "serialize.save_bundle": _file_bytes,
    "serialize.save_decoration": _file_bytes,
    "serialize.save_complex": _file_bytes,
}


class Tracer:
    def __init__(self):
        self._stack = []
        self._patched = []
        # name -> [calls, total_ns, self_ns]
        self.functions = {}
        self.edges = Counter()
        self.counters = Counter()

    def reset(self):
        self.functions.clear()
        self.edges.clear()
        self.counters.clear()

    def snapshot(self):
        """The spans recorded since the last reset, as plain data."""
        return {
            "functions": {k: list(v) for k, v in self.functions.items()},
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "counters": dict(self.counters),
        }

    def _wrap(self, name, fn):
        stack = self._stack
        functions, edges, counters = self.functions, self.edges, self.counters
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = functions.get(name)
                if entry is None:
                    entry = functions[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                edges[(parent, name)] += 1
            if counter is not None:
                key, amount = counter(args)
                counters[key] += amount
            return result

        return traced

    def install(self):
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrapped = {}
        for module in modules:
            for owner, attr, name, raw in _public_callables(module):
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(self._wrap(name, raw.__func__))
                    wrapped[raw.__func__] = new.__func__
                else:
                    new = self._wrap(name, raw)
                    wrapped[raw] = new
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, new)
        # import sites: any package module holding an original by name
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapped[value])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def merge(snaps):
    """Sum several snapshots, as from the processes of one job."""
    functions, edges, counters = {}, Counter(), Counter()
    for snap in snaps:
        for name, row in snap["functions"].items():
            acc = functions.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += row[i]
        for parent, child, count in snap["edges"]:
            edges[(parent, child)] += count
        counters.update(snap["counters"])
    return {
        "functions": functions,
        "edges": [[p, c, n] for (p, c), n in edges.items()],
        "counters": dict(counters),
    }


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
