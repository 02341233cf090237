"""One benchmark measurement in a process of its own; run.py starts it.

    worker.py setup WORKLOAD
        Times the set-up one ``fiaedit edit`` invocation pays, in this fresh
        process: import fiaedit, parse the config, load and encode the
        fixture, build the model, embed the prompts.  Then times the
        calibration kernel, which gives the host speed to correct it by.

    worker.py run WORKLOAD SEED SECONDS TRACE
        Prepares the requests the seed stands for, runs one warm-up op on the
        workload's stock-seed request and checks it against the pinned
        reference, then runs ops in a closed loop for SECONDS, cycling
        through the requests and checking every result.  The calibration
        kernel runs before the first op and after every op.  With TRACE 1 every
        other op after the first cycle runs under the tracer, and the spans
        are written to ``.bench_out/`` at the end.

Both modes print one JSON object as the last line of standard output.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_TRACE_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# Host-speed correction.  On the shared 2-vCPU virtual machine the baseline
# was measured on, speed drifts by up to half over minutes: process CPU time
# equals wall time and almost no time is stolen, yet the same op takes 0.26 s
# in one minute and 0.46 s in the next.  Raw wall times of two runs of the
# same code there differ by up to a quarter.  A fixed kernel that runs no fiaedit code, made of the
# same kinds of numpy calls as the ops (small matmuls, a softmax over 64 and
# over 256 tokens, a small FFT, Python loops), times the host next to each
# measurement.  A wall time w measured where the kernel took c seconds is
# reported as w * CALIB_REF_S / c: seconds on a host on which the kernel
# takes CALIB_REF_S, about its time on the baseline machine when unloaded.
# A change to fiaedit moves w and not c, so it shows in full.
CALIB_REF_S = 0.03
CALIB_ITERS = 96
SETUP_CALIB_REPEATS = 3


def calibration_kernel() -> float:
    """Fixed numpy and Python work independent of fiaedit: the host-speed probe."""
    import numpy as np

    rng = np.random.default_rng(0)
    w = rng.standard_normal((48, 48)) / 7.0
    inputs = (rng.standard_normal((64, 48)), rng.standard_normal((256, 48)))
    acc = 0.0
    for i in range(CALIB_ITERS):
        x = inputs[i % 8 == 0]
        q = x @ w
        s = q @ q.T / 7.0
        s -= s.max(axis=1, keepdims=True)
        p = np.exp(s)
        p /= p.sum(axis=1, keepdims=True)
        y = np.tanh(0.5 * (p @ x) + 0.5 * x)
        acc += float(np.abs(np.fft.fft2(y[:8, :8])).sum())
        acc += sum({j: 0.5 * j for j in range(20)}.values())
    return acc


def time_calibration() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def setup_main(name: str) -> dict:
    start = time.perf_counter()
    import bench_workloads as bw

    bw.prepare(bw.WORKLOADS[name])
    setup_s = time.perf_counter() - start
    calibration_kernel()  # its first run pays numpy's lazy set-up
    calib_s = statistics.median([time_calibration() for _ in range(SETUP_CALIB_REPEATS)])
    return {"setup_s": setup_s * CALIB_REF_S / calib_s, "raw_setup_s": setup_s, "calib_s": calib_s}


class Run:
    """Attempted and failed op counts, and the first output of every request.

    An op fails if it raises, returns non-finite values, or returns bytes
    that differ from the first run of the same request.
    """

    def __init__(self, bw, w, preps):
        self.bw, self.w, self.preps = bw, w, preps
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, tuple[bytes, object]] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def op(self, j: int, tracer=None, op_id=None) -> float:
        """Run, time and check one op on request ``j``; returns its raw wall time."""
        self.attempted += 1
        error = None
        with tracer.traced_op(op_id) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = self.bw.run_op(self.w, self.preps[j])
            except Exception as exc:
                error = exc
            elapsed = time.perf_counter() - start
        if error is not None:
            self.fail(f"request {j}: {type(error).__name__}: {error}")
        else:
            self.check(j, result)
        return elapsed

    def check(self, j: int, result) -> None:
        problem = self.bw.output_problem(self.w, self.preps[j], result)
        if problem is not None:
            self.fail(f"request {j}: {problem}")
            return
        data = self.bw.output_bytes(self.w, result)
        if j not in self.first:
            self.first[j] = (data, result)
        elif data != self.first[j][0]:
            self.fail(f"request {j}: output differs from its first run")

    def check_reference(self, prep, want: dict) -> None:
        """The warm-up op: the stock-seed request against its pinned values."""
        self.attempted += 1
        try:
            result = self.bw.run_op(self.w, prep)
            problem = self.bw.output_problem(self.w, prep, result)
            if problem is None:
                problem = self.bw.reference_mismatch(
                    self.bw.summarize(self.w, prep, result), want
                )
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.fail(f"pinned reference: {problem}")

    def check_bypass(self, j: int) -> None:
        """A run with FIA off must equal the build that bypasses FIA, bit for bit."""
        self.attempted += 1
        try:
            result = self.bw.run_op(self.w, self.preps[j], bypass_fia=True)
            same = self.bw.output_bytes(self.w, result) == self.first[j][0]
        except Exception as exc:
            self.fail(f"bypass check: {type(exc).__name__}: {exc}")
            return
        if not same:
            self.fail("bypass check: disabled FIA differs from bypass_fia=True")


def git_sha() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "threads": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"
        },
    }


def op_tail(durations: list[float]) -> dict:
    """Sample count and the highest percentile with ten samples beyond it."""
    import numpy

    tail = {"n": len(durations)}
    for pct in TAIL_PERCENTILES:
        if len(durations) * (1.0 - pct / 100.0) >= 10:
            tail.update(pct=pct, pct_s=float(numpy.percentile(durations, pct)))
            break
    return tail


def write_spans(tracer, name: str, seed: int) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.attrs]) + "\n")
    return path


def run_main(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import bench_workloads as bw

    w = bw.WORKLOADS[name]
    tracer = None
    if traced:
        import bench_tracer

        tracer = bench_tracer.Tracer()
        for _ in range(SETUP_TRACE_REPEATS):
            with tracer.traced_op("setup"):
                bw.prepare(w)

    preps = [bw.prepare(w, edit_seed) for edit_seed in bw.request_seeds(w, seed)]
    run = Run(bw, w, preps)
    run.check_reference(bw.prepare(w), bw.load_reference()[name]["fields"])

    # Closed loop: one caller, next op only after the last returns.  Op i runs
    # request i % k.  Every request runs at least once and one of them twice.
    # A traced run leaves its first cycle of k ops untraced, so each request's
    # first output is the untraced reference its traced runs must match, and
    # then traces every other op, so that host drift hits both sides of
    # trace.overhead_share alike.  Op i runs between calibrations i and i + 1,
    # and their mean gives the host speed its wall time is corrected by.
    k = len(preps)
    plain: dict[int, float] = {}
    traced_s: dict[int, float] = {}
    min_ops = 3 * k if traced else k + 1
    calibration_kernel()  # its first run pays numpy's lazy set-up
    calib = [time_calibration()]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        if tracer is not None and i >= k and (i - k) % 2:
            traced_s[i] = run.op(i % k, tracer, op_id=i)
        else:
            plain[i] = run.op(i % k)
        calib.append(time_calibration())
        i += 1

    if w.bypass_check and 0 in run.first:
        run.check_bypass(0)

    out = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "env": env_info(),
    }
    if tracer is not None:
        metrics = bench_tracer.layer_metrics(tracer, traced_s)
        metrics["trace.overhead_share"] = (
            statistics.median(traced_s.values()) / statistics.median(plain.values()) - 1.0
        )
        out["missing"] = sorted(tracer.missing)
        out["observer_errors"] = tracer.observer_errors[:10]
        out["spans_file"] = str(write_spans(tracer, name, seed).relative_to(ROOT))
    else:
        psnrs = [bw.bg_psnr_db(w, preps[j], res) for j, (_, res) in sorted(run.first.items())]
        corrected = [
            t * CALIB_REF_S / (0.5 * (calib[i] + calib[i + 1])) for i, t in plain.items()
        ]
        out["op_tail"] = op_tail(corrected)
        out["raw"] = {
            "op_s_p50": statistics.median(plain.values()),
            "ops_per_s": len(plain) / sum(plain.values()),
            "calib_s_p50": statistics.median(calib),
        }
        metrics = {
            "op_s_p50": statistics.median(corrected),
            "ops_per_s": len(corrected) / sum(corrected),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "bg_psnr_db": statistics.fmean(psnrs) if psnrs else None,
        }
    out["metrics"] = metrics
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        result = setup_main(argv[1])
    elif argv[:1] == ["run"] and len(argv) == 5:
        result = run_main(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
