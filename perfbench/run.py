"""quadnorm benchmark.

    python3 perfbench/run.py --workload scan-witness --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # all four workloads, one process

Run from the root of a source checkout: the program is imported from
``src/``.  With ``--trace 0`` the run measures end-to-end metrics with no
tracing; with ``--trace 1`` it runs a fixed number of rounds, each untraced
and then traced, and reports per-layer metrics.  Every output is checked after the
timed region.  The last line of standard output is the result as one JSON
object; a run whose checks fail prints it and exits 1.  Details (metadata,
digests, error classes, ratio bases) go to ``perfbench/out/``, and the
spans of a traced run to a JSON-lines file next to it.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import layers  # this directory is on sys.path when run as a script
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PROGRAM_MODULES = ("intmath", "quadfield", "formclass", "cyclicext",
                   "normtest", "compose", "transfer", "harness")
# set-up is repeated before and after the measured rounds, so that its median
# samples more than one moment of a machine whose speed drifts
SETUP_REPS_BEFORE = 3
SETUP_REPS_AFTER = 4
WARMUP_INPUTS = 4  # leading inputs of a separate warm-up round, run in set-up
MAX_FAILURE_MESSAGES = 20
# with at least this many items p99 always has ten samples beyond it, so a
# run on a slow moment does not switch item_ms_tail from p99 to p90
MIN_ITEMS = 1100

# Machine speed.  The host these workloads were tuned on switches between
# speeds 30-40% apart for tens of seconds at a time, and every pure-Python
# workload follows it.  End-to-end times are therefore reported at a nominal
# speed: about once a second the runner times a fixed reference kernel that
# does not touch the program, and scales the times that follow by
# REF_NOMINAL_S / (median of its last CALIBRATION_WINDOW timings).  The raw
# times are recorded next to them.
REF_LOOPS = 50_000
REF_NOMINAL_S = 0.005
CALIBRATE_EVERY_S = 1.0
CALIBRATION_WINDOW = 5  # a single timing is too noisy to scale one item by

END_TO_END = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_program() -> SimpleNamespace:
    """Import (or re-import) quadnorm from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "quadnorm" or n.startswith("quadnorm.")]:
        del sys.modules[name]
    package = importlib.import_module("quadnorm")
    mods = {m: importlib.import_module(f"quadnorm.{m}") for m in PROGRAM_MODULES}
    return SimpleNamespace(package=package, **mods)


# --- percentiles -------------------------------------------------------------


def nearest_rank(sorted_values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    n = len(sorted_values)
    rank = max(1, -(-n * pct // 100))  # ceil(n * pct / 100), in integers
    return sorted_values[rank - 1], n - rank


def tail_percentile(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) for the highest of p99 and p90
    with at least ten samples beyond it; the maximum when neither has."""
    s = sorted(values)
    for pct in (99, 90):
        v, beyond = nearest_rank(s, pct)
        if beyond >= 10:
            return v, pct, beyond
    return s[-1], 100, 0


# --- measuring ---------------------------------------------------------------


def reference_kernel() -> float:
    """Best of three timings of a fixed integer loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(REF_LOOPS):
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """How to scale a time measured now to the nominal machine speed; the
    reference kernel is re-timed when CALIBRATE_EVERY_S has passed."""

    def __init__(self) -> None:
        self.scale = 1.0
        self.samples: list[float] = []
        self._due = 0.0

    def refresh(self, force: bool = False) -> float:
        """Re-time the kernel if due; returns the seconds that took."""
        t0 = time.perf_counter()
        if not force and t0 < self._due:
            return 0.0
        self.samples.append(reference_kernel())
        self.scale = REF_NOMINAL_S / statistics.median(self.samples[-CALIBRATION_WINDOW:])
        t1 = time.perf_counter()
        self._due = t1 + CALIBRATE_EVERY_S
        return t1 - t0


@dataclass
class Pass:
    """Timings, digests and check results of whole rounds of one workload.
    Outputs are checked and dropped round by round, so the benchmark's own
    memory does not grow with the length of the run."""

    digests: list[str] = field(default_factory=list)  # one per round
    round_items: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)  # output checks
    round_s: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)  # Speed.scale per item
    errors: Counter = field(default_factory=Counter)
    tracebacks: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    @property
    def wall_s(self) -> float:
        return sum(self.round_s)


def run_round(wl, mods, ctx, inputs, out: Pass, tracer: Tracer | None,
              speed: Speed | None = None) -> list:
    """Run and time one round's items and return their outputs (None for an
    item that raised); time spent re-timing the reference kernel is left out
    of the round's wall time."""
    outputs = []
    clock = time.perf_counter
    start = clock()
    calibrating = 0.0
    for thunk in wl.items(mods, ctx, inputs):
        if speed is not None:
            calibrating += speed.refresh()
        t0 = clock()
        try:
            if tracer is None:
                result = thunk()
            else:
                with tracer.span(layers.ITEM_SPAN):
                    result = thunk()
        except Exception as exc:  # an item that raises is counted, not fatal
            result = None
            cls = type(exc).__name__
            out.errors[cls] += 1
            out.tracebacks.setdefault(cls, traceback.format_exc())
        out.latencies.append(clock() - t0)
        out.scales.append(speed.scale if speed is not None else 1.0)
        outputs.append(result)
    out.round_s.append(clock() - start - calibrating)
    return outputs


def settle(wl, mods, ctx, outputs: list, out: Pass) -> None:
    """Check one round's outputs and keep only its digest and failures."""
    out.digests.append(digest(wl, outputs))
    out.round_items.append(len(outputs))
    out.failures += wl.check_round(ctx, outputs)
    for result in outputs:
        if result is not None:
            out.failures += wl.check(mods, ctx, result)


def measure(wl, mods, ctx, seed: int, seconds: float, speed: Speed) -> Pass:
    """Whole rounds 0, 1, ... while the next one is expected to end within
    ``seconds``, and in any case until MIN_ITEMS items are done.  Drawing a
    round's inputs is not timed."""
    out = Pass()
    r = 0
    while True:
        outputs = run_round(wl, mods, ctx, wl.round_inputs(ctx, seed, r), out, None, speed)
        settle(wl, mods, ctx, outputs, out)  # not timed
        r += 1
        if out.wall_s + out.wall_s / r > seconds and out.attempted >= MIN_ITEMS:
            return out


def setup_once(wl, warm_errors: Counter) -> tuple[SimpleNamespace, object, float]:
    """Import the program, build the input tables and run the warm-up."""
    t0 = time.perf_counter()
    mods = load_program()
    ctx = wl.prepare(mods)
    # the same warm-up inputs for every seed, so set-up time does not vary with it
    warm = wl.round_inputs(ctx, 0, "warmup")[:WARMUP_INPUTS]
    for thunk in wl.items(mods, ctx, warm):
        try:
            thunk()
        except Exception as exc:  # reported; the run is then not correct
            warm_errors[type(exc).__name__] += 1
    return mods, ctx, time.perf_counter() - t0


# --- checking ----------------------------------------------------------------


def digest(wl, outputs: list) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update((wl.canonical(out) if out is not None else "FAILED").encode())
        h.update(b"\n")
    return h.hexdigest()


# --- metadata ------------------------------------------------------------------


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "loadavg_before": loadavg(),
    }


# --- one workload ----------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    meta = metadata(seed)
    warm_errors: Counter = Counter()
    speed = Speed()
    setup_raw: list[float] = []
    setup_nominal: list[float] = []

    def set_up():
        speed.refresh(force=True)
        mods, ctx, t = setup_once(wl, warm_errors)
        setup_raw.append(t)
        setup_nominal.append(t * speed.scale)
        return mods, ctx

    for _ in range(SETUP_REPS_BEFORE):
        mods, ctx = set_up()
    failures: list[str] = []
    extra: dict = {}

    if not trace:
        main = measure(wl, mods, ctx, seed, seconds, speed)
        rss = peak_rss_mb()
        for _ in range(SETUP_REPS_AFTER):  # fresh module objects; ``mods`` keeps the measured ones
            set_up()
        raw_ms = [x * 1000.0 for x in main.latencies]
        nominal_ms = [x * k for x, k in zip(raw_ms, main.scales)]
        wall_scale = sum(nominal_ms) / sum(raw_ms)  # the scale, weighted by item time
        tail, pct, beyond = tail_percentile(nominal_ms)
        metrics = {
            "items_per_s": main.attempted / (main.wall_s * wall_scale),
            "item_ms_p50": statistics.median(nominal_ms),
            "item_ms_tail": tail,
            "success_rate": 1.0 - main.failed / main.attempted,
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setup_nominal),
        }
        units = END_TO_END
        extra.update(
            tail_percentile=pct, tail_samples_beyond=beyond,
            error_rate=main.failed / main.attempted,
            raw={"items_per_s": main.attempted / main.wall_s,
                 "item_ms_p50": statistics.median(raw_ms),
                 "item_ms_tail": tail_percentile(raw_ms)[0],
                 "setup_s": statistics.median(setup_raw)},
            reference_kernel_s={"nominal": REF_NOMINAL_S, "median": statistics.median(speed.samples),
                                "min": min(speed.samples), "max": max(speed.samples),
                                "count": len(speed.samples)},
            setup_s_all=setup_nominal, round_s=main.round_s)
        passes = [main]
    else:
        # each round runs untraced and then traced, so the two halves of the
        # overhead are measured moments apart on a machine whose speed drifts
        main, traced, tracer = Pass(), Pass(), Tracer()
        for r in range(wl.trace_rounds):
            inputs = wl.round_inputs(ctx, seed, r)
            settle(wl, mods, ctx, run_round(wl, mods, ctx, inputs, main, None), main)
            with tracer.install(vars(mods), layers.TARGETS):
                outputs = run_round(wl, mods, ctx, inputs, traced, tracer)
            settle(wl, mods, ctx, outputs, traced)
        metrics, bases = layers.layer_metrics(tracer, traced.wall_s, main.wall_s)
        units = layers.metric_units()
        coverage = metrics["trace.coverage"]
        if abs(coverage - 1.0) > 0.05:
            failures.append(f"spans cover {coverage:.3f} of the traced wall time, not within 5%")
        if traced.digests != main.digests:
            failures.append("traced outputs differ from untraced outputs")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{wl.name}-seed{seed}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        extra.update(ratio_bases=bases, spans_file=str(spans_path.relative_to(ROOT)),
                     overhead_ratio=(traced.wall_s - main.wall_s) / main.wall_s)
        passes = [main, traced]

    failures += [f"warm-up item raised {cls} x{k}" for cls, k in warm_errors.items()]
    for p in passes:
        failures += p.failures
    meta["loadavg_after"] = loadavg()
    failed = sum(p.failed for p in passes)
    attempted = sum(p.attempted for p in passes)
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "rounds": len(main.digests),
        "round_items": main.round_items,
        "digest_round0": main.digests[0],
        "errors": dict(sum((p.errors for p in passes), Counter())),
        "tracebacks": {k: v for p in passes for k, v in p.tracebacks.items()},
        "check_failures": failures[:MAX_FAILURE_MESSAGES],
        "check_failure_count": len(failures),
        "meta": meta,
        **extra,
    }


def report(res: dict) -> None:
    """Human-readable block for one workload, then its detail file."""
    print(f"== {res['workload']} seed={res['seed']} trace={res['trace']}: "
          f"{res['rounds']} rounds, {res['attempted']} items, {res['failed']} failed, "
          f"checks {'pass' if res['correct'] else 'FAIL'}")
    for name, m in res["metrics"].items():
        note = ""
        if name in res.get("raw", {}):
            note += f"  (raw {res['raw'][name]:.6g})"
        if name == "item_ms_tail":
            note += f"  (p{res['tail_percentile']}, {res['tail_samples_beyond']} samples beyond)"
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}{note}")
    if "reference_kernel_s" in res:
        ref = res["reference_kernel_s"]
        print(f"  reference kernel: median {1000 * ref['median']:.3f} ms over {ref['count']} timings "
              f"(nominal {1000 * ref['nominal']:.3f} ms)")
    if "error_rate" in res:
        print(f"  {'error_rate':42s} {res['error_rate']:.6g} ratio")
    if "overhead_ratio" in res:
        print(f"  tracing overhead: {res['metrics']['trace.overhead_s']['value']:.3f} s "
              f"({100 * res['overhead_ratio']:.1f}% of the untraced rounds)")
    print(f"  digest of round 0: sha256:{res['digest_round0']}")
    for cls, k in res["errors"].items():
        print(f"  items raising {cls}: {k}")
    for msg in res["check_failures"]:
        print(f"  CHECK FAILED: {msg}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps(res, indent=1, default=str) + "\n")
    print(f"  details: {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "quadnorm" / "__init__.py").is_file():
        print(f"error: no quadnorm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(res)
        results.append(res)

    if len(results) == 1:
        res = results[0]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:  # one process for all workloads: peak_rss_mb is the process peak so far
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v
                        for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, separators=(", ", ": ")))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
