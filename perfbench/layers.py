"""Per-layer metrics from the span files traced_cli.py writes.

Each metric is named by the pchn module whose public calls it times.
Per-call timings (the _us and _ms percentiles) skip each process's first
WARMUP_CALLS calls of a name; totals and per-target times keep them.
"""

import json

import numpy as np

WARMUP_CALLS = 3

MODULES = ("cli", "network", "learning", "experiments", "stability", "hopfield",
           "checkpoint", "fileio", "numpy", "scipy")


class Spans:
    """The spans of one traced process, in the order they were opened."""

    def __init__(self, path):
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            self.name = data["name"]
            self.parent = data["parent"]
            self.dur = data["end"] - data["start"]
        self.names = meta["names"]
        self.counts = meta["counts"]
        self.run_id = meta["run_id"]

    def _mask(self, *names):
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def calls(self, name, warmup=WARMUP_CALLS):
        return self.dur[self._mask(name)][warmup:]

    def total(self, *names):
        """Time inside any of the named spans, nested ones counted once."""
        mask = self._mask(*names)
        nested = np.zeros_like(mask)
        has_parent = self.parent >= 0
        nested[has_parent] = mask[self.parent[has_parent]]
        return float(self.dur[mask & ~nested].sum())

    def self_times(self) -> dict:
        """Seconds spent in each module's spans outside their child spans."""
        children = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], self.dur[has_parent])
        own = self.dur - children
        out = {}
        for i, name in enumerate(self.names):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + float(own[self.name == i].sum())
        return out


def _pct(values, q, scale):
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def layer_metrics(pipe: dict, counts: dict, unsampled: Spans, hopfield: Spans,
                  study_steps: int) -> dict:
    """Metric values from the traced pipeline (pipe: phase -> Spans), its
    checked summary counts, the perturb study re-run with sample_every =
    horizon, and the traced hopfield-baseline call.  study_steps is the
    number of Euler steps in one relaxation study."""
    train, perturb, stab = pipe["train"], pipe["perturb"], pipe["stability"]
    every = list(pipe.values())

    def calls(name, spans=every, warmup=WARMUP_CALLS):
        return np.concatenate([s.calls(name, warmup) for s in spans])

    m = {}
    for kernel, stats in (("step_fast", (50, 99)), ("residual", (50, 99)),
                          ("step_slow", (50,)), ("fast_rhs_flat", (50,))):
        durations = calls(f"network.{kernel}")
        for q in stats:
            key = f"network.{kernel}_us" + (f".p{q}" if len(stats) > 1 else "")
            m[key] = _pct(durations, q, 1e6)

    clamps = calls("learning.clamp", [train])
    m["learning.clamp_ms.p50"] = _pct(clamps, 50, 1e3)
    m["learning.clamp_ms.p99"] = _pct(clamps, 99, 1e3)
    m["learning.steps"] = counts["train"]
    m["learning.steps_per_s"] = counts["train"] / max(train.total("learning.train"), 1e-9)

    relax = perturb.total("experiments.relaxation_study")
    relax_unsampled = unsampled.total("experiments.relaxation_study")
    m["experiments.relax_s"] = relax
    m["experiments.relax_unsampled_s"] = relax_unsampled
    m["experiments.sample_s"] = relax - relax_unsampled
    m["experiments.batch_step_us"] = relax_unsampled / study_steps * 1e6
    m["experiments.trace_records"] = perturb.counts.get("records", 0)
    m["experiments.trace_to_csv_s"] = perturb.total("experiments.trace_to_csv")
    m["experiments.csv_mb"] = perturb.counts.get("csv_bytes", 0) / 1e6
    m["experiments.summary_s"] = perturb.total("experiments.recovery_summary",
                                               "experiments.distance_tables")
    m["experiments.recovered"] = counts["perturb"]

    analyze = calls("stability.analyze_equilibrium", [stab], warmup=0)
    m["stability.analyze_s.p50"] = _pct(analyze, 50, 1.0)
    m["stability.analyze_s.max"] = float(analyze.max()) if len(analyze) else 0.0
    m["stability.relax_steps"] = stab.counts.get("relax_steps", 0)
    m["stability.rhs_evals"] = len(calls("network.fast_rhs_flat", [stab], warmup=0))
    m["stability.jacobian_ms"] = _pct(calls("stability.jacobian_analytic", [stab]), 50, 1e3)
    m["stability.eigvals_ms"] = _pct(calls("numpy.linalg.eigvals", [stab]), 50, 1e3)
    m["stability.stable_found"] = counts["stability"]

    m["hopfield.recall_ms"] = _pct(calls("hopfield.recall", [hopfield]), 50, 1e3)
    m["hopfield.sweeps"] = hopfield.counts.get("sweeps", 0)

    m["checkpoint.save_ms"] = train.total("checkpoint.save_weights") * 1e3
    loads = calls("checkpoint.load_weights", every, warmup=0)
    m["checkpoint.load_ms"] = _pct(loads, 50, 1e3)
    m["checkpoint.bytes"] = train.counts.get("checkpoint_bytes", 0)
    m["fileio.write_s"] = sum(s.total("fileio.atomic_write_text") for s in every)
    m["cli.import_s"] = _pct(calls("cli.import", every, warmup=0), 50, 1.0)
    m["cli.resolve_ms"] = _pct(calls("cli.resolve_config", every, warmup=0), 50, 1e3)

    own = [s.self_times() for s in every]
    for module in MODULES:
        m[f"{module}.self_s"] = sum(t.get(module, 0.0) for t in own)
    m["trace.spans"] = sum(len(s.dur) for s in every)
    return m
