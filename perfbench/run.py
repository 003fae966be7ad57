"""hyperlab benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload unique-battery --seed 1 --seconds 35 --trace 0

One client in one process runs the workload's seeded op list (the next op
starts when the previous one returns): one whole pass, then again from the
top until ``--seconds`` is up.  Every op's output is checked by ``checks``;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of traced passes that follow one
untraced pass.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import hyperlab.cli; "
                "print(time.perf_counter() - t)")
TAIL_BEYOND = 10     # the tail percentile keeps at least this many ops above it
TAIL_MIN_OPS = 20    # below this the "tail" would sit at or under the median
MAX_LOGGED_FAILURES = 5
E2E_SPECS = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s.p50", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("unique-battery", "violation-search", "exact-calculus"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def proc_status(field: str) -> str:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(np) -> list:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    lines = [f"# env: nproc={cores} python={platform.python_version()} numpy={np.__version__} "
             f"blas={blas} OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')} "
             f"threads_in_process={proc_status('Threads')}"]
    counts = {p.stem: sum(1 for _ in p.open(encoding="utf-8"))
              for p in sorted((SRC / "hyperlab").glob("*.py"))}
    lines.append("# src lines (static): " + " ".join(f"{k}={v}" for k, v in counts.items())
                 + f" total={sum(counts.values())}")
    return lines


# ----------------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------------

class Pass:
    """One run over the ops (or the ``only`` indices): wall and
    host-normalized times (see pace.py) and the errors of failed ops by
    index.  The first pass keeps every outcome; a later pass compares its
    outcomes with the first pass's, byte for byte, and keeps none."""

    def __init__(self, ops, workloads, checks, pace, ref=None, tracer=None,
                 deadline=None, only=None):
        self.ran = []
        self.times = []
        self.outcomes = {}
        self.errors = {}
        spans = []
        for i in range(len(ops)) if only is None else only:
            # Stop at the first op whose first run says it would end past
            # the deadline.
            if deadline is not None and time.perf_counter() + ref.times[i] > deadline:
                break
            if tracer is not None:
                tracer.current_op = i
            pace.maybe_sample()
            t0 = time.perf_counter()
            try:
                raw = ops[i].run()
            except Exception as exc:  # a failing op is counted, never fatal
                err = f"raised {type(exc).__name__}: {exc} at {where(exc)}"
            else:
                err = None
            t1 = time.perf_counter()
            self.ran.append(i)
            self.times.append(t1 - t0)
            spans.append((t0, t1))
            if err is None:
                try:
                    outcome = ops[i].check(raw)
                except checks.CheckFailed as exc:
                    err = f"check failed: {exc}"
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc} at {where(exc)}"
            if err is None and ref is not None and i in ref.outcomes:
                first = ref.outcomes[i]
                if outcome.verdict != first.verdict or outcome.blob != first.blob:
                    err = "verdict or serialized report differs from the first pass"
            if err is not None:
                self.errors[i] = f"op {i} ({ops[i].label}): {err}"
            elif ref is None:
                self.outcomes[i] = outcome
        pace.sample()
        self.norm = [t * pace.factor(a, b) for t, (a, b) in zip(self.times, spans)]


def where(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{frame.filename}:{frame.lineno}"


def tail(values: list):
    """(value, percentile) with TAIL_BEYOND ops above it, or None."""
    if len(values) < TAIL_MIN_OPS:
        return None
    j = len(values) - TAIL_BEYOND - 1
    return sorted(values)[j], 100.0 * (j + 1) / len(values)


def fmt(name: str, value, unit: str, note: str = "") -> str:
    return f"{name:<40} {value:>14.6g} {unit:<6} {note}".rstrip()


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------

def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    if not (SRC / "hyperlab" / "__init__.py").is_file():
        print(f"perfbench: no hyperlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import hyperlab
    if Path(hyperlab.__file__).resolve().parent != SRC / "hyperlab":
        print(f"perfbench: imported hyperlab from {hyperlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import pace as pacing
    import tracer as tracing
    import workloads

    work = OUT / f"work-{os.getpid()}"
    try:
        return bench(args, np, checks, tracing, pacing, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, np, checks, tracing, pacing, workloads, work: Path) -> int:
    build = workloads.WORKLOADS[args.workload]
    pace = pacing.Pace()
    # Set-up: import in a fresh interpreter, build the inputs and configs,
    # warm up.  Repeated; setup_s is the median.
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        pace.sample()
        t0 = time.perf_counter()
        imported = import_seconds()
        t1 = time.perf_counter()
        work.mkdir(parents=True)
        ops = build(args.seed, work)
        Pass(workloads.warmup_ops(args.workload, work), workloads, checks, pace)
        t2 = time.perf_counter()
        setups.append(imported * pace.factor(t0, t1) + (t2 - t1) * pace.factor(t1, t2))
    setup_s = statistics.median(setups)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops_per_pass={len(ops)}")
    for line in environment(np):
        print(line)

    tracer = None
    deadline = time.perf_counter() + args.seconds
    ref = Pass(ops, workloads, checks, pace)
    passes = [ref]
    if args.trace:
        # Whole traced passes, at least one, while another one fits.
        tracer = tracing.Tracer()
        while True:
            t0 = time.perf_counter()
            tracer.install()
            try:
                passes.append(Pass(ops, workloads, checks, pace, ref=ref, tracer=tracer))
            finally:
                tracer.uninstall()
            if 2 * time.perf_counter() - t0 > deadline:
                break
    else:
        # The list again from the top until the time is up; the last pass
        # may stop part-way.
        while time.perf_counter() < deadline:
            passes.append(Pass(ops, workloads, checks, pace, ref=ref, deadline=deadline))
    # Criterion 10: the same op with the same seed serializes to the same
    # bytes.  Every later pass checks that; so does one more run of the
    # cheapest op, which covers single-pass runs.
    cheapest = min(range(len(ops)), key=ref.times.__getitem__)
    runs = passes + [Pass(ops, workloads, checks, pace, ref=ref, only=[cheapest])]
    attempted = sum(len(p.ran) for p in runs)
    errors = [e for p in runs for e in p.errors.values()]
    failed = len(errors)
    for e in errors[:MAX_LOGGED_FAILURES]:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    print(f"# host speed {pace.speed():.3f} of nominal (median of {len(pace.took)} "
          f"reference samples); times below are normalized to nominal speed")

    if tracer is not None:
        traced = passes[1:]
        overhead = statistics.mean(sum(p.norm) for p in traced) - sum(ref.norm)
        values = tracer.metrics(len(traced), overhead)
        specs = [(name, unit) for name, unit, _ in tracing.metric_specs()]
        OUT.mkdir(parents=True, exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(span_file)
        print(f"# traced passes={len(traced)} spans={len(tracer.start)} -> {span_file}; "
              f"self times are raw wall time")
        for name, unit in specs:
            print(fmt(name, values[name], unit))
    else:
        norm = [[] for _ in ops]
        wall = [[] for _ in ops]
        for p in passes:
            for i, tn, tw in zip(p.ran, p.norm, p.times):
                norm[i].append(tn)
                wall[i].append(tw)
        per_op = [statistics.median(ts) for ts in norm]
        raw = [statistics.median(ts) for ts in wall]
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(per_op) / sum(per_op),
            "op_s.p50": statistics.median(per_op),
            "peak_rss_mb": peak_rss_mb(),
        }
        specs = E2E_SPECS
        print(f"# {len(ops)} ops, {sum(len(p.ran) for p in passes)} runs in "
              f"{len(passes)} passes; an op's time is its median over its runs")
        print(fmt("setup_s", setup_s, "s", f"(median of {SETUP_REPEATS} fresh imports, "
                  f"input builds and warm-ups)"))
        print(fmt("ops_per_s", values["ops_per_s"], "1/s",
                  f"(wall clock: {len(raw) / sum(raw):.4g} 1/s)"))
        print(fmt("op_s.p50", values["op_s.p50"], "s",
                  f"(wall clock: {statistics.median(raw):.4g} s)"))
        t = tail(per_op)
        if t is None:
            print(f"{'op_s.tail':<40} {'omitted':>14} {'s':<6} (only {len(per_op)} ops per pass)")
        else:
            print(fmt("op_s.tail", t[0], "s", f"(p{t[1]:.1f} of {len(per_op)} ops, "
                      f"{TAIL_BEYOND} beyond)"))
        print(fmt("failed_frac", failed / attempted, "1", f"({failed} of {attempted} attempted)"))
        print(fmt("peak_rss_mb", values["peak_rss_mb"], "MB"))
        devs = [o.deviation for o in ref.outcomes.values() if o.deviation is not None]
        if devs:
            print(fmt("certified_deviation.min", min(devs), "1",
                      f"(over {len(devs)} validated certificates)"))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
