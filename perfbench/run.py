"""Benchmark of exact Turaev-Viro computation through the ``tv`` CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A run generates the workload's inputs from the seed, times ``import
tvcalc.cli`` in fresh interpreters (``setup_s``), then repeats passes of
the workload, each in a fresh interpreter so the program's memo caches
start empty, until the next pass would end after ``--seconds``.  Times
are scaled to a reference host speed by a calibration kernel timed next
to them (calibrate.py).  Every call's output is checked exactly; see
workloads.py.  With ``--trace 1``
the run makes one untraced and one traced pass instead and reports the
per-layer metrics of spans.py.  The last line of stdout is one JSON
object; the exit code is 1 when any call failed, 2 when the checkout
has no ``tvcalc`` sources.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5         # imports timed before the first pass ...
SETUP_PER_PASS = 2        # ... and after every pass, to span the run
TAIL_BEYOND = 10          # calls that must lie beyond the tail percentile
RUN_LIMIT_S = 170         # a pass still running then is killed
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "sys.path.append(sys.argv[2]); import calibrate; "
                "clock = calibrate.Clock(); t = time.perf_counter(); "
                "import tvcalc.cli; u = time.perf_counter(); clock.stop(); "
                "print(clock.reference_seconds(t, u))")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "call_p50_s": "s",
             "call_tail_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def setup_seconds(samples: int) -> list:
    """Import time of tvcalc.cli in ``samples`` fresh interpreters, at
    the reference host speed of calibrate.py."""
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src"),
             str(HERE)],
            env=_env(), capture_output=True, text=True, check=True,
            timeout=60)
        times.append(float(out.stdout))
    return times


def run_pass(workload, trace: bool, directory: Path,
             timeout: float) -> dict | None:
    """One pass in a fresh worker process; None if the worker died or
    ran past ``timeout`` seconds."""
    directory.mkdir()
    plan, result = directory / "plan.json", directory / "result.json"
    plan.write_text(json.dumps({"calls": workload.calls, "trace": trace,
                                "kernel": workload.kernel}))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), str(plan),
             str(result)],
            cwd=directory, env=_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"perfbench: pass killed after {timeout:.0f} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: worker failed:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def failed_calls(workload, passes: list) -> int:
    """Failed calls over all passes: the workload's oracle, plus every
    pass's outputs matching the first pass byte for byte."""
    failed = 0
    reference = None
    for result in passes:
        if result is None:
            failed += len(workload.calls)
            continue
        records = result["calls"]
        bad = workload.check(records)
        if reference is None:
            reference = records
        bad.update(i for i, (rec, ref) in enumerate(zip(records, reference))
                   if (rec["code"], rec["stdout"], rec["files"])
                   != (ref["code"], ref["stdout"], ref["files"]))
        failed += len(bad)
    return failed


def tail(times: list) -> float:
    """The value with TAIL_BEYOND samples above it."""
    return sorted(times)[len(times) - TAIL_BEYOND - 1]


def end_to_end(setup: list, passes: list) -> dict:
    """Medians over the passes of a run.

    Per-call figures are taken within each pass and then the median over
    passes, so that they do not depend on how many passes fit: pooling
    would shift the rank they are read at whenever a gap between two
    kinds of call lies there.  call_tail_s is the call with TAIL_BEYOND
    calls beyond it; when a pass has too few calls for that to lie above
    its median (census), it is read from the calls pooled over passes.
    """
    per_pass = [[rec["seconds"] for rec in p["calls"]] for p in passes]
    if len(per_pass[0]) > 2 * TAIL_BEYOND + 2:
        call_tail = statistics.median(tail(times) for times in per_pass)
    else:
        pooled = [t for times in per_pass for t in times]
        call_tail = (tail(pooled) if len(pooled) > 2 * TAIL_BEYOND + 2
                     else max(pooled))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "call_p50_s": statistics.median(
            statistics.median(times) for times in per_pass),
        "call_tail_s": call_tail,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> dict:
    began_run = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - began_run)

    inputs_dir = scratch / "inputs"
    inputs_dir.mkdir()
    workload = workloads.build(name, seed, inputs_dir)

    passes = []
    if trace:
        for k, traced in enumerate((False, True)):
            passes.append(run_pass(workload, traced,
                                   scratch / f"pass{k}", remaining()))
    else:
        setup_seconds(1)    # warm-up: compiles the sources, not counted
        setup = setup_seconds(SETUP_SAMPLES)
        start = time.perf_counter()
        durations = []
        while True:
            began = time.perf_counter()
            passes.append(run_pass(workload, False,
                                   scratch / f"pass{len(passes)}",
                                   remaining()))
            setup += setup_seconds(SETUP_PER_PASS)
            durations.append(time.perf_counter() - began)
            if passes[-1] is None:
                break
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(durations) > seconds:
                break

    attempted = len(workload.calls) * len(passes)
    failed = failed_calls(workload, passes)
    done = [p for p in passes if p is not None]
    lines = [f"workload {name}  seed {seed}  passes {len(passes)}  "
             f"calls/pass {len(workload.calls)}"]
    metrics = {}
    if len(done) == len(passes):
        if trace:
            for metric, value in done[1]["layers"].items():
                kind = spans.LAYER_METRICS[metric][0]
                metrics[metric] = {"value": value, "unit": spans.UNITS[kind]}
            metrics["trace.overhead_s"] = {
                "value": done[1]["wall_s"] - done[0]["wall_s"], "unit": "s"}
        else:
            for metric, value in end_to_end(setup, done).items():
                metrics[metric] = {"value": value,
                                   "unit": E2E_UNITS[metric]}
    for metric, entry in metrics.items():
        lines.append(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
    if not trace and metrics:
        lines.append(f"  {'calls':<36} {attempted:>14d} count")
        raw = statistics.median(p["raw_wall_s"] for p in done)
        kernel = statistics.median(k for p in done for k in p["kernel_s"])
        lines.append(f"  {'wall_s unscaled':<36} {raw:>14.6g} s")
        lines.append(f"  {'calibration kernel':<36} {kernel:>14.6g} s")
    lines.append(f"  {'failed_frac':<36} {failed / attempted:>14.6g} ratio")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tvcalc" / "cli.py").is_file():
        print(f"perfbench: no tvcalc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    for name in names:
        scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        for line in results[name].pop("lines"):
            print(line)
    try:
        tmp_root.rmdir()
    except OSError:
        pass    # another run is still using it

    ok = all(r["correct"] for r in results.values())
    print(json.dumps(results if args.workload == "all"
                     else results[args.workload]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
