"""Fast self-test of the benchmark harness on shrunken workloads.

Usage: python3 perfbench/selftest.py

Checks that BENCHMARK.json and the harness agree on workloads, metric
names and units; that untraced and traced runs emit every metric with
its unit; that a corrupted summary count and a count off its pin are
each counted as a failed op; and that a directory without the pchn
sources makes the benchmark exit non-zero without a result.  Takes
about 30 s.
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import harness as h
import run


def shrink(w: h.Workload) -> h.Workload:
    """A seconds-long copy of a workload, with no counts pinned."""
    shape = replace(w.shape, n_targets=3, epochs=1, horizon=0.5, n_random_runs=2)
    config = dict(w.config, n_targets=3, epochs=1, duration_per_target=0.05,
                  horizon=0.5, n_random_runs=2)
    return replace(w, name=w.name + "_shrunk", config=config, shape=shape, pinned={})


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_result(result, units, label):
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: {result['failed']}/{result['attempted']} ops failed")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == units, f"{label}: metrics differ: {set(got) ^ set(units)}")
    for name, metric in result["metrics"].items():
        check(isinstance(metric["value"], (int, float)), f"{label}: {name} is not a number")


def main():
    spec = json.loads((h.ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} <= set(h.WORKLOADS),
          "BENCHMARK.json names a workload the harness lacks")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end metrics differ from the harness")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer metrics differ from the harness")

    # Shrunken workloads have no pinned counts.
    binary = shrink(h.WORKLOADS["single_binary"])
    real = shrink(h.WORKLOADS["single_real"])
    result, report = run.measure(binary, 7, 1, 0)
    check_result(result, run.END_TO_END, "untraced binary")
    check(report["environment"]["blas_threads"] == h.BLAS_THREADS, "environment record")
    check(report["pace"]["samples"] > 0 and all(op["paced_s"] > 0 for op in report["ops"]),
          "core speed not sampled")
    check_result(run.measure(binary, 7, 1, 1)[0], run.PER_LAYER,
                 "traced binary")
    check_result(run.measure(real, 7, 1, 1)[0], run.PER_LAYER,
                 "traced real")

    # A corrupted summary count is a failed op.
    real_run_process = h.run_process

    def corrupting(name, *args, **kwargs):
        op = real_run_process(name, *args, **kwargs)
        if name == "perturb":
            op.stdout = re.sub(r"(\d+)/(\d+) runs",
                               lambda m: f"{m[1]}/{int(m[2]) + 1} runs", op.stdout)
        return op

    h.run_process = corrupting
    try:
        result, report = run.measure(binary, 7, 1, 0)
    finally:
        h.run_process = real_run_process
    check(not result["correct"] and result["failed"] == 1, "corrupted count not failed")
    check(result["metrics"]["ok_ops_share"]["value"] < 1.0, "ok_ops_share ignores failure")

    # At the default seed a count off its pin is a failed op.
    pinned = replace(binary, pinned={"perturb": binary.shape.n_targets + 1})
    result, _ = run.measure(pinned, 7, 1, 0)
    check(not result["correct"] and result["failed"] == 1, "pinned count not enforced")

    # Without the program sources the benchmark fails without a result.
    bare = h.RUNS_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(h.HERE, bare / h.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(h.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(spec["command"] + ["--workload", "single_binary", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "a checkout without sources produced a result")
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
