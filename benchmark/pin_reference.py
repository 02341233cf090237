"""Write reference.json: the pinned outputs of each workload's stock-seed request.

    python3 benchmark/pin_reference.py

Run it only when a change is meant to alter fiaedit's outputs; the benchmark
counts every op whose stock-seed result drifts from these values by more
than a relative 1e-9 as failed.
"""

from __future__ import annotations

import json

import bench_workloads as bw


def main() -> None:
    pinned = {}
    for name, w in bw.WORKLOADS.items():
        prep = bw.prepare(w)
        result = bw.run_op(w, prep)
        problem = bw.output_problem(w, prep, result)
        if problem is not None:
            raise SystemExit(f"{name}: {problem}")
        pinned[name] = {
            "edit_seed": bw.STOCK_EDIT_SEED,
            "model_seed": prep.cfg.model_seed,
            "fields": bw.summarize(w, prep, result),
        }
    with open(bw.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    print(f"wrote {bw.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
