"""musym benchmark.

    python3 perfbench/run.py --workload cold-gist --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports musym from its
``src`` directory.  One process, one thread, closed loop: the next
operation starts only after the previous one returned and was checked.
Each run makes its list of operations from the seed, at least MIN_OPS
of them, and passes over the list until ``--seconds`` have passed.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds
the per-layer metrics of a separate traced run, whose spans are written
to perfbench/out/.  Lines before it, each starting with ``#``, form a
readable report including the environment.  ``--workload all`` runs
every workload untraced, each in its own process, and prints the
reports one after another.

Exit code 2 without a result line means the benchmark could not run at
all, e.g. outside a checkout that holds src/musym.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# Every run passes over the whole list of operations at least this many
# times, spread over the run, and takes each operation's median time.
MIN_PASSES = 3
# The host's CPU speed swings by up to 2x over seconds to minutes with
# load from outside this process, for every operation alike.  Every
# timed call is therefore bracketed by a fixed calibration computation,
# and the reported time is scaled to the speed at which that computation
# takes CALIBRATION_MS (see Clock); the raw times are printed as well.
CALIBRATION_MS = 1.5
MIN_OPS = 100          # p90 then has at least ten samples above it
# set-up samples per run, taken a few before each pass so that a burst
# of load on the machine does not hit all of them
SETUP_SAMPLES = {"cold-gist": 24, "warm-batch": 6, "structure": 24}
SETUP_PER_GAP = {"cold-gist": 8, "warm-batch": 3, "structure": 8}
MODULES = ("cli", "gists", "gistresult", "groebner", "linsys", "polys", "reduction", "symfun")


class BenchError(Exception):
    pass


def import_musym() -> SimpleNamespace:
    """A fresh import of every musym module from src/."""
    for name in [k for k in sys.modules if k == "musym" or k.startswith("musym.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"musym.{m}") for m in MODULES})
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"musym was imported from {mods.cli.__file__}, not from {SRC}")
    return mods


class Clock:
    """Wall-clock intervals, scaled by the machine's speed around them.

    ``interval(fn)`` runs the calibration computation right before and
    right after fn.  An interval is scaled by the mean calibration time
    of the samples taken within one interval-length of it on either side,
    which for a long call averages the speed over several seconds rather
    than at its two ends.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.samples: list[float] = []      # calibration ms, by stamp

    def calibrate(self) -> None:
        start = time.perf_counter()
        acc: dict = {}
        total = Fraction(0)
        for i in range(1, 400):
            q = Fraction(i % 97 + 1, i % 89 + 2)
            total += q
            acc[i % 61] = acc.get(i % 61, 0) + q
        end = time.perf_counter()
        self.stamps.append((start + end) / 2)
        self.samples.append((end - start) * 1000.0)

    def interval(self, fn, *args):
        """(fn's result, start, end)."""
        self.calibrate()
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.calibrate()
        return result, start, end

    def scaled(self, start: float, end: float) -> float:
        pad = end - start
        lo = bisect.bisect_left(self.stamps, start - pad)
        hi = bisect.bisect_right(self.stamps, end + pad)
        near = self.samples[max(0, min(lo, hi - 2)):hi]
        return (end - start) * CALIBRATION_MS / statistics.fmean(near)


def timed_setup(workload, clock: Clock) -> tuple[SimpleNamespace, float, float]:
    """A fresh import plus the workload's warm-up: (modules, start, end)."""
    gc.collect()

    def setup():
        mods = import_musym()
        workload.setup(mods)
        return mods

    return clock.interval(setup)


def environment(name: str, seed: int, mods) -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            )
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "musym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "backend": type(mods.polys.rat(1)).__name__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest()[:16],
    }


class Run:
    """Operation loop with timing, checking and the oracle self-check."""

    def __init__(self, workload, mods, clock: Clock, tracer=None):
        self.workload = workload
        self.mods = mods
        self.clock = clock
        self.tracer = tracer
        self.latencies: list[tuple[str, float, float]] = []   # (kind, scaled s, raw s)
        self.failures: list[str] = []
        self.attempted = 0
        self.self_checked: set[tuple] = set()
        self.self_check_problems: list[str] = []
        self.labels: dict[int, tuple[str, str]] = {}     # traced op id -> (kind, label)

    def execute(self, op: workloads.Op) -> tuple[float, float] | None:
        """Time and check one operation: (start, end), or None if it failed."""
        if op.cold:
            workloads.clear_caches(self.mods)
        # every operation starts with the collector's counts at zero, so
        # the collections inside it do not depend on what ran before
        gc.collect()
        self.attempted += 1
        try:
            if self.tracer is None:
                raw, start, end = self.clock.interval(op.run, self.mods)
            else:
                self.labels[self.attempted] = (op.kind, op.label)
                (raw, _), start, end = self.clock.interval(
                    self.tracer.run_op, self.attempted, op.run, self.mods)
            answer = op.normalize(raw)
            problem = op.check(answer)
        except Exception as exc:  # any failure of the program counts against it
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return None
        if problem:
            self.failures.append(f"{op.label}: {problem}")
            return None
        self._self_check(op, answer)
        return start, end

    def _self_check(self, op, answer) -> None:
        """The oracle must reject altered copies of one answer per case."""
        key = (op.kind, answer.symmetric)
        if key in self.self_checked:
            return
        self.self_checked.add(key)
        for bad in workloads.mutations(answer):
            if op.check(bad) is None:
                self.self_check_problems.append(f"oracle accepted an altered answer to {op.label}")

    def passes(self, seconds: float, min_passes: int, setup=None) -> None:
        """Run every operation once per pass, in a new order each pass,
        until ``seconds`` have passed and at least ``min_passes`` ran; an
        operation's latency is its median over the passes.  ``setup()``,
        when given, runs before each pass."""
        rng = random.Random(f"order:{self.workload.seed}")
        start = time.perf_counter()
        times: list[list | None] = []
        done = 0
        while done < min_passes or time.perf_counter() - start < seconds:
            if setup is not None:
                self.mods = setup() or self.mods
            ops = self.workload.ops(self.mods)
            times = times or [[] for _ in ops]
            order = list(range(len(ops)))
            rng.shuffle(order)
            for i in order:
                took = self.execute(ops[i])
                if took is None or times[i] is None:
                    times[i] = None
                else:
                    times[i].append(took)
            done += 1
        scaled = self.clock.scaled
        self.latencies = [
            (op.kind, statistics.median(scaled(*t) for t in ts), statistics.median(b - a for a, b in ts))
            for op, ts in zip(ops, times) if ts is not None
        ]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(metrics for BENCHMARK.json, extra report-only figures)."""
    ms = [s * 1000.0 for _, s, _ in run.latencies]
    raw_ms = [s * 1000.0 for _, _, s in run.latencies]
    metrics = {
        "setup_s": statistics.median(s for s, _ in setup),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": percentile(ms, 90),
        "ops_per_s": len(ms) / (sum(ms) / 1000.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "samples": len(ms),
        "samples_above_p90": sum(1 for v in ms if v > metrics["latency_p90_ms"]),
        "fail_ratio": len(run.failures) / run.attempted,
        "raw setup_s": statistics.median(r for _, r in setup),
        "raw latency_p50_ms": statistics.median(raw_ms),
        "raw latency_p90_ms": percentile(raw_ms, 90),
    }
    for kind in ("ls", "cr", "groebner", "dims", "ideal"):
        kms = [s * 1000.0 for k, s, _ in run.latencies if k == kind]
        if kms:
            extra[f"{kind}.latency_p50_ms"] = statistics.median(kms)
            extra[f"{kind}.samples"] = len(kms)
    return metrics, extra


def heaviest_ops(run: Run, tracer) -> dict:
    """For each kind, the slowest operation and the spans its time went to."""
    selfs = tracer.self_times()
    by_op = defaultdict(lambda: defaultdict(float))    # (kind, label) -> span -> s
    for sid, name, _, _, _, op in tracer.spans:
        by_op[run.labels[op]][name] += selfs[sid]
    count = Counter(run.labels.values())
    out = {}
    for kind in sorted({kind for kind, _ in by_op}):
        key = max((k for k in by_op if k[0] == kind), key=lambda k: sum(by_op[k].values()) / count[k])
        names = by_op[key]
        whole = sum(names.values())
        top = sorted(names.items(), key=lambda kv: -kv[1])[:3]
        out[f"heaviest {kind}"] = f"{key[1]}: " + ", ".join(
            f"{name} {100 * s / whole:.0f}%" for name, s in top
        )
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> int:
    os.environ.pop("MUSYM_CACHE_DIR", None)
    workload = workloads.WORKLOADS[name](seed)
    clock = Clock()
    setup_times: list[tuple[float, float]] = []    # (start, end)

    def setup(count: int) -> SimpleNamespace | None:
        mods = None
        for _ in range(min(count, SETUP_SAMPLES[name] - len(setup_times))):
            mods, start, end = timed_setup(workload, clock)
            setup_times.append((start, end))
        return mods

    problems = []
    if not traced:
        run = Run(workload, None, clock)
        run.passes(seconds, MIN_PASSES, setup=lambda: setup(SETUP_PER_GAP[name]))
        setup(SETUP_SAMPLES[name])
        if len(run.latencies) + len(run.failures) < MIN_OPS:
            raise BenchError(f"{name} has fewer than {MIN_OPS} operations")
        metrics, extra = end_to_end(run, [(clock.scaled(a, b), b - a) for a, b in setup_times])
        wanted = spec["end_to_end"]
    else:
        mods = timed_setup(workload, clock)[0]
        # the first pass runs each operation both untraced and traced,
        # alternating which goes first, for the overhead ratio
        plain = Run(workload, mods, clock)
        tracer = spans.Tracer()
        spans.install(tracer, [getattr(mods, m) for m in MODULES])
        run = Run(workload, mods, clock, tracer)
        start = time.perf_counter()
        times = {plain: [], run: []}
        for i, op in enumerate(workload.ops(mods)):
            for r in (plain, run) if i % 2 else (run, plain):
                times[r].append(r.execute(op))
        overhead = sum(clock.scaled(*t) for t in times[run] if t) / sum(
            clock.scaled(*t) for t in times[plain] if t)
        run.passes(seconds - (time.perf_counter() - start), 1)
        tracer.uninstall()
        metrics = spans.layer_metrics(tracer, run.attempted)
        metrics["trace.overhead_ratio"] = overhead
        problems += tracer.check_partition()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(str(spans_path))
        extra = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans)}
        extra.update(heaviest_ops(run, tracer))
        wanted = spec["per_layer"]
        run.failures += plain.failures
        run.attempted += plain.attempted

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    problems += run.self_check_problems
    if not run.self_checked:
        problems.append("no answer passed the oracle, so the self-check never ran")

    print(f"# environment {json.dumps(environment(name, seed, run.mods))}")
    for m in wanted:
        print(f"# {m['name']:<40} {metrics[m['name']]:>14.4f} {m['unit']}")
    for key, value in extra.items():
        text = f"{value:14.4f}" if isinstance(value, float) else f"{value!s:>14}"
        print(f"# {key:<40} {text}")
    for line in (run.failures + problems)[:50]:
        print(f"# FAIL {line}")
    result = {
        "correct": not run.failures and not problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        print(f"## {name} (exit {proc.returncode})")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "musym" / "__init__.py").is_file():
            raise BenchError(f"no musym sources under {SRC}")
        spec_path = ROOT / "BENCHMARK.json"
        spec = json.loads(spec_path.read_text())
        sys.path.insert(0, str(SRC))
        if args.workload == "all":
            return run_all(args)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
