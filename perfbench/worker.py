"""One pass of a workload in a fresh interpreter.

Usage: python3 worker.py <checkout root> <plan.json> <result.json>

The plan lists the ``tv`` argument vectors of one pass, whether to
trace and the calibration kernel.  The calls run back to back through ``tvcalc.cli.main`` in this
process (a closed loop with one caller), with stdout and stderr
captured.  The result holds, per call, the exit code, the captured
output, any files a census call wrote and the call's time, plus the
pass's wall time, peak RSS and, when traced, the per-layer metrics.
Correctness is judged by the parent process, not here.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate


def run_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:       # argparse reports usage errors this way
        code = exc.code
    except Exception:               # a crash is one failed call, not the run
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    record = {"argv": argv, "code": code, "stdout": out.getvalue(),
              "stderr": err.getvalue(), "error": error}
    return record, start, start + seconds


def written_files(argv) -> dict:
    """Texts a ``census --out DIR`` call wrote, by file name."""
    if argv[0] != "census":
        return {}
    out = Path(argv[argv.index("--out") + 1])
    return {p.name: p.read_text() for p in sorted(out.glob("*.tri"))}


def main(root: str, plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, str(Path(root) / "src"))
    import tvcalc.cli as cli

    recorder = None
    if plan["trace"]:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    records, intervals = [], []
    clock = calibrate.Clock(timer=recorder is None, kernel=plan["kernel"])
    for call_id, argv in enumerate(plan["calls"]):
        if recorder is not None:
            recorder.call_id = call_id
        record, start, end = run_call(cli, argv)
        records.append(record)
        intervals.append((start, end))
        clock.between_calls()
    clock.stop()

    for record, (start, end) in zip(records, intervals):
        record["raw_seconds"] = end - start
        record["seconds"] = clock.reference_seconds(start, end)

    for record in records:
        record["files"] = written_files(record["argv"])
    result = {
        "wall_s": sum(record["seconds"] for record in records),
        "raw_wall_s": sum(record["raw_seconds"] for record in records),
        "kernel_s": clock.samples[1:],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": records,
    }
    if recorder is not None:
        result["layers"] = spans.layer_metrics(*recorder.columns(),
                                                 recorder.counters)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
