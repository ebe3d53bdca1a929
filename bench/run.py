"""Time-to-verdict benchmark for ualg.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes over the workload's verification jobs for about S seconds: a
closed loop, one job at a time, in this one process.  Every pass starts with
its own set-up: ualg is imported afresh and the pass's inputs, generated from
the seed and the pass index, are parsed through `ualg.fileio`.  So no pass
reuses an input, a parsed object or module state of another, and nothing a
program caches in one pass can serve the next.  Every verdict is checked
against an answer derived without ualg; a wrong verdict makes the run exit
1.  End-to-end times are scaled to the speed of a quiet reference host (see
REFERENCE_S); per-layer times are as measured.  The last stdout line is one
JSON object: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (which also writes its spans to bench_out/).
bench/baseline.json holds the figures at the seed commit and the layer each
metric belongs to.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"

# Per-job deadline.  Each is far above the slowest core job of the workload
# and far below the time the frontier job would need, so no verdict can
# flip between runs.
DEADLINE_S = {"hard-direction": 5.0, "easy-direction": 40.0, "free-closure": 40.0, "hom-search": 20.0}
# Set-ups per pass, the last of which the pass uses.  Host load comes in
# stretches of seconds, so set-up time is sampled all through the run.
SETUPS_PER_PASS = 2
# Other tenants of a shared host slow everything in a process by up to 2x,
# for stretches of seconds to minutes.  So a fixed piece of pure-Python
# work is timed between jobs, and each job's time is scaled by REFERENCE_S
# over the mean time of that work just before and just after it.
# REFERENCE_S is about its time on a quiet host (a 2-vCPU Intel Xeon at
# 2.1 GHz, Python 3.11); it only sets the scale.
REFERENCE_S = 0.0004
# Which layers the seed profiles say dominate self time (checked, never tuned).
SPLIT = {
    "hard-direction": ("terms", "eqlogic"),
    "free-closure": ("free", "core"),
    "hom-search": ("homs",),
    "easy-direction": None,  # no single layer holds a majority
}


class DeadlineExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Record:
    """The runs of one job over all passes (each pass on its own inputs)."""

    runs: int = 0
    missed: int = 0  # runs that hit the deadline, gave up or raised a ualg error
    wrong: str = ""  # the first wrong verdict
    outcome: str = ""


def import_ualg():
    """Import ualg afresh from this checkout's src/, never from elsewhere."""
    for name in [n for n in sys.modules if n == "ualg" or n.startswith("ualg.")]:
        del sys.modules[name]
    U = importlib.import_module("ualg")
    importlib.import_module("ualg.cli")
    importlib.import_module("ualg.fileio")
    if Path(U.__file__).resolve().parent != (SRC / "ualg").resolve():
        raise ImportError(f"ualg imported from {U.__file__}, not from {SRC}")
    return U


def run_job(U, job, deadline: float, record: Record, tracer=None) -> float:
    """Run one job under the in-process deadline and check its verdict;
    returns its time to verdict."""
    from workloads import Undecided

    if tracer is not None:
        tracer.job = job.label
    record.runs += 1
    signal.setitimer(signal.ITIMER_REAL, deadline)
    start = perf_counter()
    try:
        raw = job.run()
        elapsed = perf_counter() - start
    except DeadlineExceeded:
        record.missed += 1
        record.outcome = f"missed its {deadline:g} s deadline"
        return deadline
    except (U.UalgError, Undecided) as e:
        elapsed = perf_counter() - start
        record.missed += 1
        record.outcome = f"{type(e).__name__}: {e}"
        return elapsed
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        verdict = job.read(raw)
    except Undecided as e:
        record.missed += 1
        record.outcome = f"Undecided: {e}"
        return elapsed
    except Exception as e:  # an unreadable result is a wrong verdict, not a crash
        verdict = f"unreadable result: {e!r}"
    expected = job.expect()
    if verdict != expected and not record.wrong:
        record.wrong = f"got {verdict!r}, expected {expected!r}"
    return elapsed


_TABLE = tuple(i * 7 % 13 for i in range(169))


def _reference_work() -> None:
    counts: dict = {}
    for i in range(1500):
        a = i % 13
        c = _TABLE[a * 13 + i * 5 % 13]
        counts[a, c] = counts.get((a, c), 0) + 1


def reference_work_s() -> float:
    """Time the reference work once it is warm: the job before it leaves the
    caches cold, by an amount that depends on the program, so the first run
    is not timed.  The garbage collector is off meanwhile, so the program's
    garbage is never collected in it."""
    gc.disable()
    _reference_work()
    start = perf_counter()
    _reference_work()
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


def nearest_rank(n: int, p: float) -> int:
    return max(1, -(-n * p // 100))


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[int(nearest_rank(len(ordered), p)) - 1]


def tail_percentile(n: int) -> int:
    """The highest of 99, 95, 90, 75 and 50 that leaves at least ten of n
    samples above it.  It depends only on the number of core jobs, so it
    stays fixed for a workload and ranks stay comparable."""
    return next((p for p in (99, 95, 90, 75) if n - nearest_rank(n, p) >= 10), 50)


def resident_kb() -> int:
    """This process's resident memory now, in KiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


class Session:
    """The passes of one run, each on fresh inputs, and what they recorded."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.deadline = DEADLINE_S[workload]
        self.records: dict[str, Record] = defaultdict(Record)
        self.setups: list[float] = []
        self.slowdowns: list[float] = []  # one per pass: see passes()
        self.raw_walls: list[float] = []  # each pass's job times as measured
        self.index = 0
        self.labels = None
        self.tracer = None
        # per-layer totals over the traced jobs only: (stats, counts)
        self.spent: tuple[dict, dict] = ({}, {})
        self.resident_before_kb = resident_kb()  # before ualg is first imported
        self.rss_growth_kb = None  # see passes()

    def setup(self):
        """Import ualg afresh, generate the next pass's inputs (untimed) and
        parse them.  Set-up time is the import plus the parsing, scaled like
        a job's time."""
        from workloads import WORKLOADS, Inputs

        gc.collect()  # free the previous pass first: its modules form cycles
        reference = reference_work_s()
        start = perf_counter()
        U = import_ualg()
        imported = perf_counter() - start
        if self.tracer is not None:
            self.tracer.job = "set-up"
            self.tracer.install()
        inputs = Inputs(U, self.workdir)
        rng = random.Random(f"{self.workload}/{self.seed}/{self.index}")
        jobs = WORKLOADS[self.workload](rng, U, inputs)
        labels = [job.label for job in jobs]
        if len(set(labels)) != len(labels) or labels != (self.labels or labels):
            raise ValueError("job labels must be unique, and the same in every pass")
        self.labels = labels
        self.index += 1
        slowdown = (reference + reference_work_s()) / 2 / REFERENCE_S
        self.setups.append((imported + inputs.parse_s) / slowdown)
        return U, jobs

    def passes(self, seconds: float) -> list[list[float]]:
        """Passes over the core jobs, each with its own set-up, until the
        next one would, at the mean length so far, end more than half a pass
        after `seconds`; returns each pass's times to verdict, in job order.
        Each job's time is divided by the host's slowdown around it: the mean
        time of the reference work just before and just after the job, over
        REFERENCE_S.

        The first pass of a run also gives its memory figure: how far the
        peak resident size up to its end rises above the size before ualg
        was first imported: ualg's modules, the inputs of the first set-ups
        and the most the jobs held at once.  Later passes would add what each
        fresh import of ualg leaves behind."""
        passes = []
        start = perf_counter()
        while not passes or (perf_counter() - start) * (len(passes) + 0.5) / len(passes) < seconds:
            for _ in range(SETUPS_PER_PASS):
                U, jobs = self.setup()
            if self.tracer is not None:
                before = self.tracer.snapshot()
            times, slowdowns, reference = [], [], reference_work_s()
            for job in jobs:
                if not job.frontier:
                    times.append(run_job(U, job, self.deadline, self.records[job.label], self.tracer))
                    previous, reference = reference, reference_work_s()
                    slowdowns.append((previous + reference) / 2 / REFERENCE_S)
            passes.append([t / slowdown for t, slowdown in zip(times, slowdowns)])
            self.slowdowns.append(statistics.median(slowdowns))
            self.raw_walls.append(sum(times))
            if self.rss_growth_kb is None:
                self.rss_growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - self.resident_before_kb
            if self.tracer is not None:
                self._spend(before, self.tracer.snapshot())
        self.last = U, jobs
        return passes

    def _spend(self, before, after) -> None:
        stats, counts = self.spent
        for key, values in after[0].items():
            old = before[0].get(key, [0, 0.0, 0.0])
            total = stats.setdefault(key, [0, 0.0, 0.0])
            for i in range(3):
                total[i] += values[i] - old[i]
        for key, value in after[1].items():
            counts[key] = counts.get(key, 0.0) + value - before[1].get(key, 0.0)

    def frontier(self) -> None:
        """The known defects, once each, on the last pass's inputs."""
        U, jobs = self.last
        for job in jobs:
            if job.frontier:
                run_job(U, job, self.deadline, self.records[job.label], self.tracer)

    def check(self) -> tuple[bool, int, list[str]]:
        """Returns (no wrong verdict, jobs decided, report lines)."""
        _, jobs = self.last
        correct, decided, lines = True, 0, []
        for job in jobs:
            record = self.records[job.label]
            if record.wrong:
                correct = False
                lines.append(f"WRONG {job.label}: {record.wrong}")
            elif record.missed == 0 and record.runs:
                decided += 1
            else:
                kind = "frontier" if job.frontier else "core job"
                lines.append(f"undecided {kind} {job.label} ({record.missed} of {record.runs} runs): {record.outcome}")
        return correct, decided, lines


def typical(passes: list[list[float]]) -> list[float]:
    """Each job's time to verdict: the median of its runs over the passes,
    each on its own inputs.  Load from elsewhere on a shared host comes in
    bursts of seconds, and a burst that slows fewer than half of a job's
    runs does not move it."""
    return [statistics.median(times) for times in zip(*passes)]


def end_to_end(passes, setups, decided, total, rss_mb):
    times = typical(passes)
    n = len(times)
    p = tail_percentile(n)
    of = f"over {n} jobs, each the median of its {len(passes)} runs"
    return {
        "wall_s": (sum(times), "s", f"sum {of}"),
        "verdict_p50_s": (statistics.median(times), "s", f"median {of}"),
        "verdict_tail_s": (percentile(times, p), "s", f"p{p} {of}, {n - int(nearest_rank(n, p))} jobs beyond it"),
        "decided_share": (decided / total, "ratio", f"{decided} of {total} jobs"),
        "peak_rss_mb": (rss_mb, "MB", "peak resident size to the end of the first pass, above that before importing ualg"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups: import and parsing"),
    }


def per_layer(workload, tracer, spent, passes, untraced, traced, traced_raw_s, lines):
    from tracing import LAYERS

    stats, counts = spent

    def diff(key):
        return stats.get(key, [0, 0.0, 0.0])

    def count(key):
        return counts.get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def calls(key):
        m[key + ".calls"] = (diff(key)[0] / passes, "count/pass")

    def self_s(key):
        m[key + ".self_s"] = (diff(key)[2] / passes, "s/pass")

    def per_pass(name):
        m[name] = (count(name) / passes, "count/pass")

    calls("terms.evaluate")
    self_s("terms.evaluate")
    m["terms.evaluate.per_s"] = (ratio(diff("terms.evaluate")[0], diff("terms.evaluate")[2]), "1/s")
    per_pass("terms.enumerate_terms.terms")
    self_s("terms.enumerate_terms")
    calls("eqlogic.satisfies")
    self_s("eqlogic.satisfies")
    calls("eqlogic.mod_check")
    self_s("eqlogic.theory_upto")
    per_pass("eqlogic.theory_upto.pairs")
    m["eqlogic.theory_upto.kept_ratio"] = (
        ratio(count("eqlogic.theory_upto.kept"), count("eqlogic.theory_upto.pairs")), "ratio")
    calls("core.apply_op")
    self_s("core.apply_op")
    calls("free.build_free")
    self_s("free.build_free")
    for name in ("elements", "coords", "apply_op_calls"):
        per_pass("free.build_free." + name)
    m["free.build_free.new_ratio"] = (
        ratio(count("free.build_free.new"), count("free.build_free.tuples")), "ratio")
    calls("free.nat_epi")
    self_s("free.universal_map")
    calls("closure.product")
    self_s("closure.product")
    per_pass("closure.product.cells")
    calls("closure.subalgebra_generate")
    self_s("closure.subalgebra_generate")
    self_s("closure.hom_image")
    self_s("closure.hsp_certificate_check")
    calls("homs.iter_homs")
    self_s("homs.iter_homs")
    per_pass("homs.iter_homs.found")
    calls("homs.classify")
    m["homs.leaf_yield"] = (ratio(count("homs.iter_homs.found"), diff("homs.classify")[0]), "ratio")
    calls("homs.hom_violation")
    self_s("homs.hom_violation")
    self_s("homs.find_isomorphism")
    m["homs.search_cap_errors"] = (tracer.counts["homs.search_cap_errors"], "count")
    self_s("birkhoff.eqcl_to_var_check")
    self_s("birkhoff.var_to_eqcl_check")
    per_pass("birkhoff.enumerate_algebras.algebras")
    m["birkhoff.models_ratio"] = (
        ratio(count("birkhoff.models"), count("birkhoff.enumerate_algebras.algebras")), "ratio")
    calls("entail.search_proof")
    self_s("entail.search_proof")
    m["entail.search_proof.found_ratio"] = (
        ratio(count("entail.search_proof.found"), diff("entail.search_proof")[0]), "ratio")
    self_s("entail.soundness_audit")
    # set-up and jobs alike: most parsing happens in set-up
    m["fileio.parse.bytes_per_s"] = (
        ratio(tracer.counts["fileio.parse.bytes"], tracer.counts["fileio.parse.seconds"]), "B/s")
    self_s("fileio.emit_algebra_file")
    calls("cli.run_cli")
    self_s("cli.run_cli")

    total = traced_raw_s  # as measured, like the self times
    own = {layer: 0.0 for layer in LAYERS}
    for key, values in stats.items():
        own[key.partition(".")[0]] += values[2]
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = (ratio(own[layer], total), "ratio")
    m["layer.harness.self_share"] = (ratio(total - sum(own.values()), total), "ratio")
    traced_wall, untraced_wall = sum(typical(traced)), sum(typical(untraced))
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_ratio"] = (ratio(traced_wall, untraced_wall), "ratio")

    shares = {layer: own[layer] / total for layer in LAYERS}
    lines.append("layer self-time shares: " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    group = SPLIT[workload]
    if group is None:
        top = max(shares, key=shares.get)
        met = shares[top] < 0.5
        lines.append(f"split prediction (no layer holds a majority): largest is {top} "
                     f"{shares[top]:.3f}: {'met' if met else 'NOT MET'}")
    else:
        joint = sum(shares[layer] for layer in group)
        rival = max((layer for layer in LAYERS if layer not in group), key=shares.get)
        met = joint > shares[rival]
        lines.append(f"split prediction ({'+'.join(group)} largest): {joint:.3f} against "
                     f"{rival} {shares[rival]:.3f}: {'met' if met else 'NOT MET'}")
    return {k: (v, unit) for k, (v, unit) in m.items()}


def measure(args, workdir: Path) -> tuple[dict, list[str]]:
    session = Session(args.workload, args.seed, workdir)
    if args.trace:
        from tracing import Tracer

        untraced = session.passes(args.seconds / 3)
        session.tracer = Tracer()
        passes = session.passes(args.seconds * 2 / 3)
    else:
        passes = session.passes(args.seconds)
    session.frontier()
    correct, decided, report = session.check()

    _, jobs = session.last
    core = sum(not job.frontier for job in jobs)
    lines = [f"{args.workload} seed {args.seed}: {core} core jobs and {len(jobs) - core} frontier "
             f"jobs per pass, {len(passes)} passes, deadline {session.deadline:g} s",
             f"host slowdown against the reference work: median {statistics.median(session.slowdowns):.3f}, "
             f"range {min(session.slowdowns):.3f}-{max(session.slowdowns):.3f} over {len(session.slowdowns)} passes; "
             f"a pass's job times as measured sum to {statistics.median(session.raw_walls):.4g} s (median)"]
    if args.trace:
        tracer = session.tracer
        raw = sum(session.raw_walls[-len(passes):])
        metrics = per_layer(args.workload, tracer, session.spent, len(passes), untraced, passes, raw, lines)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "passes": len(passes)})
        lines.append(f"spans and function totals written to {path.relative_to(ROOT)}")
    else:
        full = end_to_end(passes, session.setups, decided, len(jobs), session.rss_growth_kb / 1024)
        lines.extend(f"{name} {value:.6g} {unit} ({note})" for name, (value, unit, note) in full.items())
        metrics = {name: (value, unit) for name, (value, unit, _) in full.items()}
    lines.extend(report)
    core_records = [session.records[job.label] for job in jobs if not job.frontier]
    result = {
        "correct": correct,
        "attempted": sum(r.runs for r in core_records),
        "failed": sum(r.missed for r in core_records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ualg" / "__init__.py").is_file():
        print(f"bench: no ualg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        result, lines = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
