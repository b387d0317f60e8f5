"""pchn benchmark: the CLI pipeline on one workload, end to end or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload loop_binary --seed 1 --seconds 50 --trace 0

--trace 0 repeats the untraced pipeline as a closed loop while another
pass fits in --seconds (at least one pass).  After each subcommand it
times the set-up every CLI call pays, in a fresh interpreter.  It
reports the end-to-end metrics.
--trace 1 runs one untraced and one traced pipeline plus two traced
probes and reports the per-layer metrics, tracing overhead included.

Every subprocess runs on one core whose speed is sampled meanwhile
(pace.py); the times reported are wall times paced to a reference
speed of that core, and the report keeps the raw ones.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The line before it ("perfbench-report ...") records the
machine, the environment, sample counts, summary counts and any failed
op.  Both are also written to .perfbench_runs/<run>/result.json.
"""

import argparse
import json
import os
import sys
import time

import harness as h
from layers import MODULES, Spans, layer_metrics
from pace import CoreSpeed

# The pipeline runs at the CLI's default root seed whatever --seed says:
# on Single100 BinarySign, 3 of the 14 root seeds 0-13 leave targets for
# which stability finds no equilibrium and then relaxes for 1-4 minutes
# per target, so a seeded workload could neither finish in a run's time
# nor repeat within any bound.  --seed is recorded with the result.
PROGRAM_SEED = h.DEFAULT_SEED

RUN_BUDGET_S = 170.0     # every subprocess is killed past this point
SETUP_MIN = 8            # set-up samples per run at the least, after one warm-up

PHASE_METRICS = {"train": "train_s", "perturb": "perturb_s",
                 "stability": "stability_s", "random-init": "random_init_s"}

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    **{name: "s" for name in PHASE_METRICS.values()},
    "peak_rss_mb": "MB",
    "ok_ops_share": "share",
}

PER_LAYER = {
    "network.step_fast_us.p50": "us",
    "network.step_fast_us.p99": "us",
    "network.residual_us.p50": "us",
    "network.residual_us.p99": "us",
    "network.step_slow_us": "us",
    "network.fast_rhs_flat_us": "us",
    "learning.clamp_ms.p50": "ms",
    "learning.clamp_ms.p99": "ms",
    "learning.steps_per_s": "1/s",
    "learning.steps": "count",
    "experiments.relax_s": "s",
    "experiments.relax_unsampled_s": "s",
    "experiments.sample_s": "s",
    "experiments.batch_step_us": "us",
    "experiments.trace_records": "count",
    "experiments.trace_to_csv_s": "s",
    "experiments.csv_mb": "MB",
    "experiments.summary_s": "s",
    "experiments.recovered": "count",
    "stability.analyze_s.p50": "s",
    "stability.analyze_s.max": "s",
    "stability.relax_steps": "count",
    "stability.rhs_evals": "count",
    "stability.jacobian_ms": "ms",
    "stability.eigvals_ms": "ms",
    "stability.stable_found": "count",
    "hopfield.recall_ms": "ms",
    "hopfield.sweeps": "count",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    "fileio.write_s": "s",
    "cli.import_s": "s",
    "cli.resolve_ms": "ms",
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_cpu_s": "s",
}


class Run:
    """The ops of one benchmark run and their pass/fail accounting."""

    def __init__(self, workload, work, seconds, speed: CoreSpeed):
        self.w = workload
        self.work = work
        self.seconds = seconds
        self.speed = speed
        self.t0 = time.monotonic()
        self.deadline = self.t0 + RUN_BUDGET_S
        self.ops = []

    @property
    def failed(self):
        return sum(not op.ok for op in self.ops)

    def paced(self, ops) -> float:
        return sum(self.speed.paced(op.start, op.wall_s) for op in ops)

    def pipeline(self, seed, spans_dir=None, between=None):
        p = h.run_pipeline(self.w, self.work, seed, self.deadline, spans_dir, between)
        self.ops += p.ops
        return p

    def process(self, name, argv, logs=None):
        op = h.run_process(name, argv, self.work, self.deadline - time.monotonic(),
                           logs or self.work)
        self.ops.append(op)
        return op

    def result(self, metrics: dict, units: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": len(self.ops),
                "failed": self.failed,
                "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                            for k, u in units.items()}}


def end_to_end(run: Run, seed) -> tuple:
    probe = [sys.executable, str(h.HERE / "setup_probe.py"),
             str(run.work / "out" / "checkpoint.pchn"), json.dumps(run.w.config)]
    probes = []

    def probes_ok():
        return all(op.ok for op in probes)

    def probe_once(_op=None):
        # One probe after every subcommand spreads them over the run.
        if probes_ok():
            probes.append(run.process(f"setup-{len(probes)}", probe))

    pipelines, passes = [], []
    while True:
        start = time.monotonic()
        p = run.pipeline(seed, between=probe_once)
        passes.append(time.monotonic() - start)
        pipelines.append(p)
        h.drop_traces(run.work)
        if not (p.ok and probes_ok()):
            break
        if time.monotonic() - run.t0 + h.median(passes) > min(run.seconds, RUN_BUDGET_S):
            break
    while all(p.ok for p in pipelines) and len(probes) <= SETUP_MIN and probes_ok():
        probe_once()
    setup = [run.paced([op]) for op in probes[1:] if op.ok]
    phase_s = {phase: [run.paced([p.phase(phase)]) for p in pipelines if p.phase(phase)]
               for phase in run.w.phases}

    metrics = {
        "setup_s": h.median(setup),
        # Per phase, so a slow spell in one phase of one pass drops out.
        "pipeline_s": sum(h.median(v) for v in phase_s.values()),
        **{name: h.median(phase_s[phase]) for phase, name in PHASE_METRICS.items()},
        "peak_rss_mb": h.median([max(op.rss_mb for op in p.ops) for p in pipelines]),
        "ok_ops_share": 1.0 - run.failed / max(len(run.ops), 1),
    }
    samples = {"pipelines": len(pipelines), "setup": len(setup),
               "setup_s": setup, "phase_s": phase_s,
               "pipeline_wall_s": [p.wall_s for p in pipelines],
               "setup_wall_s": [op.wall_s for op in probes[1:] if op.ok],
               "counts": [p.counts for p in pipelines]}
    return metrics, samples


def traced(run: Run, seed) -> tuple:
    """One untraced pipeline, the same pipeline traced, and two traced
    probes: the perturb study without sampling (sample_every = horizon)
    and, where the pipeline has none, hopfield-baseline on the binary
    targets of the same architecture and seed."""
    w = run.w
    spans_dir = run.work / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    plain = run.pipeline(seed)
    h.drop_traces(run.work)
    if not plain.ok:
        return {}, {}
    pipe = run.pipeline(seed, spans_dir)
    ckpt = run.work / "out" / "checkpoint.pchn"
    probe_out = run.work / "probe"
    probes = [("probe-unsampled", "perturb",
               ["--sample_every", repr(w.shape.horizon), "--checkpoint", str(ckpt)])]
    if not w.binary:
        probes.append(("probe-hopfield", "hopfield-baseline",
                       ["--target_kind", "BinarySign"]))
    ok = pipe.ok and all(
        run.process(name, h.cli_argv(w, phase, probe_out, seed, extra,
                                     spans=spans_dir / f"{name}.npz"), spans_dir).ok
        for name, phase, extra in probes)
    h.drop_traces(run.work)
    if not ok:
        return {}, {}
    spans = {phase: Spans(spans_dir / f"{phase}.npz") for phase in w.phases}
    hopfield = (spans["hopfield-baseline"] if w.binary
                else Spans(spans_dir / "probe-hopfield.npz"))
    metrics = layer_metrics(spans, pipe.counts, Spans(spans_dir / "probe-unsampled.npz"),
                            hopfield, round(w.shape.horizon / w.shape.dt))
    metrics["trace.overhead_s"] = run.paced(pipe.ops) - run.paced(plain.ops)
    metrics["trace.overhead_cpu_s"] = pipe.cpu_s - plain.cpu_s
    samples = {"pipeline_s_untraced": run.paced(plain.ops),
               "pipeline_s_traced": run.paced(pipe.ops),
               "pipeline_wall_s_untraced": plain.wall_s, "pipeline_wall_s_traced": pipe.wall_s,
               "cpu_s_untraced": plain.cpu_s, "cpu_s_traced": pipe.cpu_s,
               "counts": pipe.counts}
    return metrics, samples


def measure(w, seed, seconds, trace) -> tuple:
    """Run the benchmark once; returns (result, report)."""
    work = h.RUNS_DIR / f"{w.name}-seed{seed}-trace{trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    with CoreSpeed() as speed:
        run = Run(w, work, seconds, speed)
        if trace:
            metrics, samples = traced(run, PROGRAM_SEED)
            result = run.result(metrics, PER_LAYER)
        else:
            metrics, samples = end_to_end(run, PROGRAM_SEED)
            result = run.result(metrics, END_TO_END)
    kernel = sorted(d for _, d in speed.samples)
    report = {
        "workload": w.name, "seed": seed, "program_seed": PROGRAM_SEED,
        "seconds": seconds, "trace": trace, "environment": h.environment(),
        "pace": {"cpu": speed.cpu, "samples": len(kernel),
                 "kernel_us_p50": 1e6 * h.median(kernel)},
        "samples": samples,
        "ops": [{"name": op.name, "wall_s": op.wall_s, "paced_s": run.paced([op]),
                 "cpu_s": op.cpu_s, "rss_mb": op.rss_mb, "error": op.error}
                for op in run.ops],
    }
    (work / "result.json").write_text(json.dumps({"result": result, "report": report},
                                                 indent=1, sort_keys=True) + "\n")
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(h.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (h.SRC / "pchn" / "__init__.py").is_file():
        print(f"perfbench: no pchn sources at {h.SRC / 'pchn'}; run from a checkout",
              file=sys.stderr)
        return 2
    result, report = measure(h.WORKLOADS[args.workload], args.seed, args.seconds,
                             args.trace)
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
