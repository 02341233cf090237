"""fiaedit benchmark launcher: one workload per call, its result as the last line.

    python3 benchmark/run.py --workload edit-blob16-full --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seconds 30

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Each measurement runs in a child
process with BLAS and OpenMP limited to one thread; set-up time is measured
in fresh child processes of its own.  Times are corrected for the host's
speed by a calibration kernel (see worker.py); the summary shows them raw too.  A readable summary precedes the JSON
line.  The exit code is 0 whenever a result was printed, whether or not the
outputs were correct; the result's ``correct`` field says which.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CALIB_REF_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SPEC = ROOT / "BENCHMARK.json"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROCESSES = 7  # fresh processes timed per run, after one untimed warm-up
TIME_LIMIT_S = 175.0  # every call must end within 180 s


def call_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return the JSON object it printed last."""
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES + 1):
            setups.append(call_worker(["setup", workload], deadline - time.monotonic()))
        setups = setups[1:]  # the first one compiles
    result = call_worker(
        ["run", workload, str(seed), str(seconds), "1" if trace else "0"],
        deadline - time.monotonic(),
    )
    measured = result["metrics"]
    if setups:
        measured["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        result["raw"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = measured.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if value is None:
            metrics[m["name"]]["missing"] = True
    return {"detail": result, "setup_runs": len(setups), "line": {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }}


def summary(workload: str, seed: int, seconds: int, trace: bool, out: dict) -> list[str]:
    detail, line = out["detail"], out["line"]
    lines = [f"# {workload}  seed={seed}  seconds={seconds}  trace={int(trace)}",
             f"# env {json.dumps(detail['env'], sort_keys=True)}"]
    notes = {}
    if not trace:
        tail, raw = detail["op_tail"], detail["raw"]
        lines.append(f"# host: calibration kernel {raw['calib_s_p50'] * 1e3:.2f} ms (median), "
                     f"times below are corrected to {CALIB_REF_S * 1e3:g} ms")
        notes["setup_s"] = (f"median of {out['setup_runs']} fresh processes; "
                            f"raw {raw['setup_s']:.4f} s")
        notes["op_s_p50"] = f"n={tail['n']}, " + (
            f"p{tail['pct']:g} {tail['pct_s']:.4f} s" if "pct" in tail
            else "no percentile has 10 samples beyond it"
        ) + f"; raw {raw['op_s_p50']:.4f} s"
        notes["ops_per_s"] = f"raw {raw['ops_per_s']:.4f} 1/s"
    for name, m in line["metrics"].items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"# {name:48s} {value:>12s} {m['unit']:6s} {notes.get(name, '')}".rstrip())
    if not trace:
        rate = line["failed"] / line["attempted"]
        lines.append(f"# {'error_rate':48s} {rate:>12.6g} {'ratio':6s} "
                     f"{line['failed']} of {line['attempted']} ops failed")
    for problem in detail["problems"]:
        lines.append(f"# problem: {problem}")
    for key in ("missing", "observer_errors"):
        if detail.get(key):
            lines.append(f"# {key}: {', '.join(detail[key])}")
    if detail.get("spans_file"):
        lines.append(f"# spans written to {detail['spans_file']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fiaedit" / "__init__.py").is_file():
        print(f"error: no fiaedit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if args.seconds < 1 or any(w not in names for w in workloads):
        parser.error(f"--workload must be one of {names} or 'all', --seconds at least 1")

    all_correct = True
    for workload in workloads:
        try:
            out = measure(spec, workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(summary(workload, args.seed, args.seconds, bool(args.trace), out)))
        print(json.dumps(out["line"]), flush=True)
        all_correct &= out["line"]["correct"]
    return 0 if all_correct or len(workloads) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
