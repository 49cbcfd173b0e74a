#!/usr/bin/env python3
"""The necklace-chern benchmark: four seeded closed-loop workloads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one job at a time for S seconds; cli-corpus jobs start one
CLI process at a time.  Every job gets an input that no earlier job of the
process has seen, and its output is checked outside the timed region.

With ``--trace 0`` the last line of stdout is the end-to-end result.  With
``--trace 1`` the first half of the time runs untraced and the second half
with every public library function wrapped (see spans.py); the last line
then holds the per-layer metrics.  The line before it is a report with the
input sizes, the run context, and the numbers behind every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import necklace_chern
    from necklace_chern import bundles, chern, decorations

    import inputs
    import spans
except ImportError as err:
    _IMPORT_ERROR = err
else:
    _IMPORT_ERROR = None

SETUP_REPEATS = 10
TAIL_BEYOND = 10
# Peak memory is read after this many jobs, so it does not grow with the
# number of jobs a faster commit fits into the same run.
RSS_AFTER_JOBS = 8
CHILD_TIMEOUT_S = 120

FULL = {
    "grid_n": 8,
    "ladder": (4, 6),
    "fiber": 3,
    "h1_mult": (30, 34),
    "h2_mult": (6, 7),
    "max_len": 10,
    "cli_content": (30, 30, 30),
    "pool": 4,
}

# A size small enough for the smoke test to cover every workload quickly.
TINY = {
    "grid_n": 3,
    "ladder": (4,),
    "fiber": 3,
    "h1_mult": (3, 5),
    "h2_mult": (1, 2),
    "max_len": 3,
    "cli_content": (2, 3, 2),
    "pool": 1,
}


class Mismatch(Exception):
    """A job's output differs from the independently known answer."""


# =========================================================================
# Workloads
# =========================================================================


class GridBundle:
    """Product bundle over a relabeled N x N grid torus, through the path
    the CLI's extract and chern commands take."""

    in_process = True

    def __init__(self, rng, sizes, expected, workdir):
        self.sizes_cfg = sizes
        self.rng = rng
        self.ladder_seed = rng.getrandbits(32)
        self.fiber = sizes["fiber"]
        self.expected_c1 = expected.get("c1", 0)
        self.surfaces = {}
        self.total_simplices = {}

    def fresh(self, n=None):
        n = n or self.sizes_cfg["grid_n"]
        if n not in self.surfaces:
            rng = self.rng if n == self.sizes_cfg["grid_n"] else random.Random(self.ladder_seed + n)
            self.surfaces[n] = inputs.RelabeledSurfaces(rng, n * n, inputs.grid_torus_triangles(n))
        b = inputs.product_over(self.surfaces[n].next(), self.fiber)
        self.total_simplices[n] = len(b.total.simplices)
        return b

    def run(self, b, traced=False):
        if not bundles.validate_bundle(b).ok:
            raise Mismatch("bundle validation failed")
        d = bundles.extract_decoration(b)
        if not decorations.validate_decoration(d).ok:
            raise Mismatch("decoration validation failed")
        chern.chern_cochain(d, 1, validate=False)
        fc = chern.fundamental_cycle(d.base)
        return chern.chern_number(d, fc, validate=False)

    def check(self, b, c1):
        if c1 != self.expected_c1:
            raise Mismatch(f"c1 = {c1}, expected {self.expected_c1}")

    def sizes(self):
        n = self.sizes_cfg["grid_n"]
        return {
            "N": n,
            "triangles": 2 * n * n,
            "total_simplices": self.total_simplices.get(n),
            "fiber": self.fiber,
            "word_length": 3 * self.fiber,
            "alphabet_size": 3,
        }


class WordParity:
    """One fresh random word per job through chern_cochain of its
    elementary decoration, alternating h = 1 and h = 2."""

    in_process = True

    def __init__(self, rng, sizes, expected, workdir):
        self.words = inputs.RandomWords(rng)
        self.shapes = ((1, 3, sizes["h1_mult"]), (2, 5, sizes["h2_mult"]))
        self.schedules = [inputs.content_schedule(k, *m) for _, k, m in self.shapes]
        self.count = 0
        self.lengths = []
        self.offset = expected.get("offset", 0)

    def fresh(self):
        kind, turn = self.count % 2, self.count // 2
        self.count += 1
        contents = self.schedules[kind]
        w = self.words.next(contents[turn % len(contents)])
        self.lengths.append(w.length)
        return self.shapes[kind][0], w

    def run(self, item, traced=False):
        h, w = item
        return chern.chern_cochain(decorations.elementary_decoration(w), h).values

    def check(self, item, values):
        h, w = item
        scale = Fraction((-1) ** h * math.factorial(h), math.factorial(2 * h))
        want = scale * inputs.okada_parity(w.letters, w.alphabet_size) + self.offset
        if tuple(values) != (want,):
            raise Mismatch(f"cochain {values}, Okada route gives {want}")

    def sizes(self):
        return {
            "word_length_median": statistics.median(self.lengths),
            "word_length_max": max(self.lengths),
            "alphabet_size": [s[1] for s in self.shapes],
            "multiplicity_range": {f"h={s[0]}": list(s[2]) for s in self.shapes},
        }


class RangeSearch:
    """achievable_chern_numbers over a relabeled 7-vertex torus."""

    in_process = True

    def __init__(self, rng, sizes, expected, workdir):
        self.max_len = sizes["max_len"]
        self.surfaces = inputs.RelabeledSurfaces(rng, 7, inputs.torus7_triangles())
        half = len(self.surfaces.triangles) // 2
        self.expected = expected.get("window", set(range(-half, half + 1)))

    def fresh(self):
        return self.surfaces.next()

    def run(self, base, traced=False):
        return chern.achievable_chern_numbers(base, self.max_len)

    def check(self, base, achieved):
        if achieved != self.expected:
            raise Mismatch(f"achieved {sorted(achieved)}, expected {sorted(self.expected)}")

    def sizes(self):
        return {
            "vertices": 7,
            "triangles": len(self.surfaces.triangles),
            "max_len": self.max_len,
            "alphabet_size": 3,
        }


class CliCorpus:
    """Fresh CLI processes: extract then chern on the packaged Hopf and
    trivial bundles, and parity on one seeded 3-letter word."""

    in_process = False
    _TIME = re.compile(r"^time: ([0-9.]+) ms$", re.M)

    def __init__(self, rng, sizes, expected, workdir):
        self.workdir = Path(workdir)
        self.corpus = inputs.write_corpus(self.workdir)
        self.words = inputs.RandomWords(rng)
        self.content = sizes["cli_content"]
        self.expected_c1 = {"hopf": 1, "trivial": 0, **expected.get("c1", {})}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.lengths = []
        self.calls = 0

    def fresh(self):
        w = self.words.next(self.content)
        self.lengths.append(w.length)
        return w

    def _cli(self, args, traced):
        self.calls += 1
        if traced:
            trace_file = self.workdir / f"spans-{self.calls}.json"
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(trace_file)]
        else:
            cmd = [sys.executable, "-m", "necklace_chern.cli"]
        proc = subprocess.run(
            cmd + args,
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.workdir,
            timeout=CHILD_TIMEOUT_S,
        )
        snap = None
        if traced:
            snap = json.loads(trace_file.read_text())
            trace_file.unlink()
        return proc, snap

    def run(self, w, traced=False):
        results = []
        for name, path in self.corpus.items():
            dec = self.workdir / f"{name}_decoration.json"
            results.append((name, "extract", self._cli(["extract", "--bundle", str(path), "--out", str(dec)], traced)))
            results.append((name, "chern", self._cli(["chern", "--decoration", str(dec)], traced)))
        results.append(("word", "parity", self._cli(["parity", *map(str, w.letters)], traced)))
        return results

    def check(self, w, results):
        for name, command, (proc, _) in results:
            if proc.returncode != 0:
                raise Mismatch(f"{command} on {name} exited {proc.returncode}: {proc.stdout[-200:]}")
            if command == "chern":
                want = f"c1 = {self.expected_c1[name]}"
                if want not in proc.stdout.splitlines():
                    raise Mismatch(f"chern on {name} did not print {want!r}")
            if command == "parity":
                want = inputs.okada_parity(w.letters, w.alphabet_size)
                lines = proc.stdout.splitlines()
                if f"P = {want}" not in lines or f"brute force P = {want}" not in lines:
                    raise Mismatch(f"parity did not print P = {want}")

    @classmethod
    def command_ms(cls, results):
        return sum(float(t) for _, _, (proc, _) in results for t in cls._TIME.findall(proc.stdout))

    @staticmethod
    def spans(results):
        return spans.merge([snap for _, _, (_, snap) in results])

    def sizes(self):
        return {
            "bundles": {name: p.stat().st_size for name, p in self.corpus.items()},
            "base_triangles": 4,
            "word_length_median": statistics.median(self.lengths),
            "alphabet_size": 3,
            "processes_per_job": 5,
        }


WORKLOADS = {
    "grid-bundle": GridBundle,
    "word-parity": WordParity,
    "range-search": RangeSearch,
    "cli-corpus": CliCorpus,
}


# =========================================================================
# The closed loop
# =========================================================================


class Job:
    __slots__ = ("wall_s", "error", "spans", "command_ms", "rss_mb")

    def __init__(self, wall_s, error, spans, command_ms, rss_mb):
        self.wall_s = wall_s
        self.error = error
        self.spans = spans
        self.command_ms = command_ms
        self.rss_mb = rss_mb


def run_job(workload, item, tracer=None):
    """Time one job; trace it if a tracer is given; check it untimed."""
    traced = tracer is not None
    error = result = None
    start = time.perf_counter()
    try:
        result = workload.run(item, traced)
    except Exception as exc:  # any failure is a counted job, never an abort
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    snap = None
    if traced:
        snap = tracer.snapshot() if workload.in_process else workload.spans(result or ())
    if error is None:
        try:
            workload.check(item, result)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    command_ms = None
    if isinstance(workload, CliCorpus) and result is not None:
        command_ms = CliCorpus.command_ms(result)
    return Job(wall, error, snap, command_ms, peak_rss_mb(workload))


def closed_loop(workload, seconds, pool=(), tracer=None, make=None, probe=None):
    """Run jobs one after another until ``seconds`` have passed (at least
    one job).  Inputs come from ``pool`` first, then from ``make``; in a
    traced run the input is made inside the traced span set of its job.

    ``probe``, if given, is called SETUP_REPEATS times between jobs, spread
    evenly over the rest of the run once the job that ``peak_rss_mb`` is
    read after has ended, so the probes neither add to that reading nor
    all fall into one state of the host."""
    make = make or workload.fresh
    pool = list(pool)
    jobs = []
    probes = 0
    probes_from = None
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        elapsed = time.perf_counter() - start
        if (
            probes_from is not None
            and probes < SETUP_REPEATS
            and elapsed >= probes_from + (seconds - probes_from) * probes / SETUP_REPEATS
        ):
            probe()
            probes += 1
            continue
        if tracer is not None and workload.in_process:
            tracer.reset()
        item = pool.pop(0) if pool else make()
        jobs.append(run_job(workload, item, tracer))
        if probe is not None and probes_from is None and len(jobs) == RSS_AFTER_JOBS:
            probes_from = time.perf_counter() - start
    while probe is not None and probes < SETUP_REPEATS:
        probe()
        probes += 1
    return jobs


def make_inputs(name, seed, sizes, expected, workdir):
    """The workload and its input pool, generated from the seed."""
    workload = WORKLOADS[name](random.Random(seed), sizes, expected, workdir)
    return workload, [workload.fresh() for _ in range(sizes["pool"])]


def time_setup(name, seed, sizes, workdir):
    """One set-up, timed: the same input generation as the run's own, and
    the package import in a fresh interpreter.  Returns (setup, import)
    seconds."""
    start = time.perf_counter()
    make_inputs(name, seed, sizes, {}, workdir)
    generated = time.perf_counter() - start
    imported = import_seconds()
    return generated + imported, imported


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import necklace_chern.cli; print(time.perf_counter() - t)"
)


def import_seconds():
    """Time to import the package's CLI module in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return float(out.stdout)


# =========================================================================
# Metrics
# =========================================================================


def peak_rss_mb(workload):
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def p90(values):
    """The 90th percentile by nearest rank."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(jobs, setup_s):
    """The bounded metrics, and the job-time summary the report adds.

    The host this was built on runs at speeds up to about 1.5x apart,
    staying in one state for seconds to minutes.  A run's median and mean
    follow the share of it spent in the fast state, and so do its lower
    order statistics while a run holds only ~20 long jobs; the 90th
    percentile lands in the slow state that every run reaches.  So the
    bounded timings are 90th percentiles, of the jobs and of the set-up
    repeats spread over the run (see README.md).
    """
    walls = sorted(j.wall_s * 1000.0 for j in jobs)
    n = len(walls)
    # the highest order statistic with TAIL_BEYOND jobs above it, never below the median
    idx = max(n - 1 - TAIL_BEYOND, n // 2)
    metrics = {
        "setup_s": (p90(setup_s), "s"),
        "job_ms_p90": (p90(walls), "ms"),
        "peak_rss_mb": (jobs[min(n, RSS_AFTER_JOBS) - 1].rss_mb, "MB"),
    }
    summary = {
        "jobs": n,
        "job_ms_p50": statistics.median(walls),
        "job_ms_tail": walls[idx],
        "tail_percentile": round(100.0 * (idx + 1) / n, 1),
        "tail_jobs_beyond": n - 1 - idx,
        "jobs_per_s": n / (sum(walls) / 1000.0),
    }
    return metrics, summary


def _per_job(jobs, pick):
    return statistics.median(pick(j.spans) for j in jobs)


def _self_ms(name):
    return lambda s: s["functions"].get(name, (0, 0, 0))[2] / 1e6


def _calls(name):
    return lambda s: s["functions"].get(name, (0, 0, 0))[0]


def _counter(name):
    return lambda s: s["counters"].get(name, 0)


SELF_MS = (
    "bundles.validate_bundle",
    "bundles.extract_decoration",
    "complexes.simplices_of_dimension",
    "complexes.from_maximal",
    "words_necklaces.rational_parity",
    "words_necklaces.canonical_necklace",
    "exact_linalg.matrix_parity",
    "exact_linalg.sum_maximal_minors",
    "cyclic_category.compose_word_morphisms",
    "decorations.validate_decoration",
    "chern.achievable_chern_numbers",
    "chern.chern_cochain",
    "chern.fundamental_cycle",
    "chern.chern_number",
    "serialize.load_bundle",
    "serialize.save_decoration",
    "serialize.load_decoration",
)
CALLS = (
    "bundles.elementary_view",
    "complexes.simplices_of_dimension",
    "words_necklaces.rational_parity",
    "cyclic_category.compose_word_morphisms",
    "decorations.validate_decoration",
    "decorations.morphism_from_shift",
    "chern.local_chern",
)
COUNTERS = {
    "words_necklaces.subwords": ("words_necklaces.subwords", "count"),
    "serialize.bytes": ("serialize.bytes", "bytes"),
    # determinants evaluated, by `determinant` or inside `sum_maximal_minors`
    "exact_linalg.determinant.calls": ("exact_linalg.determinants", "count"),
}
GROWTH = (
    "bundles.validate_bundle",
    "bundles.extract_decoration",
    "decorations.validate_decoration",
)


def per_layer_names():
    """Every per-layer metric name with its unit, in output order."""
    names = [(f"{n}.ms", "ms") for n in SELF_MS]
    names += [(f"{n}.calls", "count") for n in CALLS]
    names += [(k, unit) for k, (_, unit) in COUNTERS.items()]
    names += [("words_necklaces.parity_miss_ratio", "ratio")]
    names += [(f"{n}.growth", "log-log") for n in GROWTH]
    names += [
        ("cli.import_ms", "ms"),
        ("cli.command_ms", "ms"),
        ("cli.overhead_ms", "ms"),
        ("trace.overhead_frac", "fraction"),
    ]
    return names


def parity_miss_ratio(jobs):
    """Parity evaluations per necklace_parity call: 1 when every necklace
    is new, near 0 when the necklace cache answers."""
    misses = hits = 0
    for j in jobs:
        calls = j.spans["functions"].get("words_necklaces.necklace_parity")
        hits += calls[0] if calls else 0
        misses += sum(
            n
            for p, c, n in j.spans["edges"]
            if p == "words_necklaces.necklace_parity" and c == "words_necklaces.rational_parity"
        )
    return misses / hits if hits else 0.0


def growth_exponents(ladder):
    """Least-squares slope of log(inclusive ms) against log(triangles)."""
    out = {}
    xs = [math.log(p["triangles"]) for p in ladder]
    mx = statistics.fmean(xs)
    for name in GROWTH:
        ys = [math.log(max(p["ms"][name], 1e-6)) for p in ladder]
        my = statistics.fmean(ys)
        num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        den = sum((x - mx) ** 2 for x in xs)
        out[name] = num / den if den else 0.0
    return out


def _inclusive_ms(snap, name):
    return snap["functions"].get(name, (0, 0, 0))[1] / 1e6


def per_layer(traced, untraced, import_s, ladder):
    values = {}
    for n in SELF_MS:
        values[f"{n}.ms"] = _per_job(traced, _self_ms(n))
    for n in CALLS:
        values[f"{n}.calls"] = _per_job(traced, _calls(n))
    for k, (counter, _) in COUNTERS.items():
        values[k] = _per_job(traced, _counter(counter))
    values["words_necklaces.parity_miss_ratio"] = parity_miss_ratio(traced)
    exps = growth_exponents(ladder) if len(ladder) >= 2 else {}
    for n in GROWTH:
        values[f"{n}.growth"] = exps.get(n, 0.0)
    values["cli.import_ms"] = statistics.median(import_s) * 1000.0
    commands = [j for j in untraced if j.command_ms is not None]
    if commands:
        values["cli.command_ms"] = statistics.median(j.command_ms for j in commands)
        values["cli.overhead_ms"] = statistics.median(j.wall_s * 1000.0 - j.command_ms for j in commands)
    else:
        values["cli.command_ms"] = values["cli.overhead_ms"] = 0.0
    values["trace.overhead_frac"] = (
        statistics.median(j.wall_s for j in traced) / statistics.median(j.wall_s for j in untraced) - 1.0
    )
    return values


def function_table(jobs):
    """Median self ms and calls per job of every traced function."""
    names = sorted({n for j in jobs for n in j.spans["functions"]})
    return {
        n: {
            "self_ms": _per_job(jobs, _self_ms(n)),
            "calls": _per_job(jobs, _calls(n)),
        }
        for n in names
    }


# =========================================================================
# Driver
# =========================================================================


def context(seed):
    recorded = json.loads((BENCH / "context.json").read_text())
    loc = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "necklace_chern").rglob("*.py"))
    )
    return {
        "seed": seed,
        "src_loc": loc,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "tier1_wall_s": recorded["tier1_wall_s"],
        "tier1_measured": recorded["measured"],
    }


def run_workload(name, seed, seconds, trace, sizes=FULL, expected=None):
    """Set up, measure and check one workload; returns (report, result)."""
    expected = expected or {}
    scratch_root = ROOT / ".bench_work"
    scratch_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch_root)
    try:
        workload, pool = make_inputs(name, seed, sizes, expected, workdir)
        setups = []
        half = seconds / 2.0 if trace else seconds
        untraced = closed_loop(
            workload,
            half,
            pool,
            probe=lambda: setups.append(time_setup(name, seed, sizes, workdir)),
        )
        setup_s = [s for s, _ in setups]
        import_s = [i for _, i in setups]
        e2e, job_times = end_to_end(untraced, setup_s)
        jobs = list(untraced)
        report = {
            "workload": name,
            "seconds": seconds,
            "trace": trace,
            "context": context(seed),
            "setup_s_repeats": setup_s,
            "job_times": job_times,
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        }
        if trace:
            traced, ladder, ladder_jobs = traced_phase(workload, half, sizes)
            jobs += traced + ladder_jobs
            layer = per_layer(traced, untraced, import_s, ladder)
            units = dict(per_layer_names())
            metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
            report["per_layer"] = metrics
            report["functions"] = function_table(traced)
            report["growth_ladder"] = ladder
            report["traced_jobs"] = len(traced)
        else:
            metrics = report["end_to_end"]
        failed = [j.error for j in jobs if j.error is not None]
        report["failed_frac"] = len(failed) / len(jobs)
        report["failures"] = failed[:5]
        report["sizes"] = workload.sizes()
        result = {
            "correct": not failed,
            "attempted": len(jobs),
            "failed": len(failed),
            "metrics": metrics,
        }
        return report, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass


def traced_phase(workload, seconds, sizes):
    """Traced jobs; for grid-bundle first one job per ladder size."""
    tracer = spans.Tracer()
    ladder, ladder_jobs = [], []
    if workload.in_process:
        tracer.install()
    try:
        start = time.perf_counter()
        if isinstance(workload, GridBundle):
            for n in sizes["ladder"]:
                job = closed_loop(workload, 0, tracer=tracer, make=lambda n=n: workload.fresh(n))[0]
                ladder.append(_ladder_point(n, job.spans))
                ladder_jobs.append(job)
        remaining = max(seconds - (time.perf_counter() - start), 0)
        traced = closed_loop(workload, remaining, tracer=tracer)
    finally:
        tracer.uninstall()
    if isinstance(workload, GridBundle):
        n = sizes["grid_n"]
        point = {"N": n, "triangles": 2 * n * n, "jobs": len(traced)}
        point["ms"] = {g: _per_job(traced, lambda s, g=g: _inclusive_ms(s, g)) for g in GROWTH}
        ladder.append(point)
        ladder.sort(key=lambda p: p["N"])
    return traced, ladder, ladder_jobs


def _ladder_point(n, snap):
    return {
        "N": n,
        "triangles": 2 * n * n,
        "jobs": 1,
        "ms": {g: _inclusive_ms(snap, g) for g in GROWTH},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if _IMPORT_ERROR is not None or Path(necklace_chern.__file__).resolve().parent != SRC / "necklace_chern":
        print(f"bench: cannot import necklace_chern from {SRC}: {_IMPORT_ERROR}", file=sys.stderr)
        return 2
    try:
        report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except inputs.InputError as err:
        print(f"bench: input generation failed: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
