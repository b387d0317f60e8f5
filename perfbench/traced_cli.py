"""Run one pchn CLI subcommand with spans around the calls into each module.

Usage: python3 perfbench/traced_cli.py <spans.npz> <run id> -- <pchn CLI args>

Nothing under src/pchn changes: the wrappers replace the public functions
and methods on the imported modules.  Spans (name, start, end, parent,
run id) are kept in memory in flat arrays and written to <spans.npz>
when the subcommand returns.  Only the standard library is imported
before the timed `import pchn.cli`.
"""

import array
import json
import os
import sys
import time

perf = time.perf_counter


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counts = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid, t):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(t)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close_to(self, depth, t):
        """End every span opened at or above stack depth `depth`."""
        while len(self.stack) > depth:
            self.end[self.stack.pop()] = t

    def record(self, name, t0, t1):
        self.open(self.name_id(name), t0)
        self.close_to(len(self.stack) - 1, t1)

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name):
        nid = self.name_id(name)
        stack, start, open_, close_to = self.stack, self.start, self.open, self.close_to

        def traced(*args, **kwargs):
            depth = len(stack)
            idx = open_(nid, 0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                start[idx] = t0
                close_to(depth, t1)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        import numpy as np
        meta = {"run_id": self.run_id, "names": self.names, "counts": self.counts}
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 meta=np.array(json.dumps(meta)))


def _counting(tracer, fn, key, amount):
    """fn, adding amount(args, result) to tracer.counts[key] per call."""
    def inner(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count(key, amount(args, result))
        return result
    return inner


def _steps_counting(tracer, fn):
    def inner(net, *args, **kwargs):
        before = net.steps_taken
        try:
            return fn(net, *args, **kwargs)
        finally:
            tracer.count("relax_steps", net.steps_taken - before)
    return inner


def instrument(tracer):
    import numpy
    import scipy.optimize

    import pchn
    from pchn import (checkpoint, cli, experiments, fileio, hopfield, learning,
                      network, stability)

    net_cls = network.Network
    for meth in ("step_fast", "step_slow", "residual", "fast_rhs_flat",
                 "run_fast_to_equilibrium"):
        setattr(net_cls, meth, tracer.wrap(getattr(net_cls, meth), f"network.{meth}"))

    # A clamp has no call of its own inside learning.train: it runs from
    # one clamp_all to the next clamp_all or the closing unclamp_all.
    clamp = tracer.name_id("learning.clamp")
    clamp_all, unclamp_all = net_cls.clamp_all, net_cls.unclamp_all

    def end_clamp(t):
        top = tracer.stack[-1]
        if top >= 0 and tracer.name[top] == clamp:
            tracer.close_to(len(tracer.stack) - 1, t)

    def traced_clamp_all(net, target):
        t = perf()
        end_clamp(t)
        clamp_all(net, target)
        tracer.open(clamp, t)

    def traced_unclamp_all(net):
        end_clamp(perf())
        unclamp_all(net)

    net_cls.clamp_all, net_cls.unclamp_all = traced_clamp_all, traced_unclamp_all

    hooks = {
        "relaxation_study": lambda fn: _counting(tracer, fn, "records", lambda a, r: len(r)),
        "trace_to_csv": lambda fn: _counting(tracer, fn, "csv_bytes", lambda a, r: len(r)),
        "recall": lambda fn: _counting(tracer, fn, "sweeps", lambda a, r: r.sweeps),
        "save_weights": lambda fn: _counting(tracer, fn, "checkpoint_bytes",
                                             lambda a, r: os.path.getsize(a[1])),
        "analyze_equilibrium": lambda fn: _steps_counting(tracer, fn),
    }
    functions = {
        learning: ["train"],
        experiments: ["make_probes", "relaxation_study", "perturbation_study",
                      "random_init_study", "trace_to_csv", "distance_tables",
                      "recovery_summary", "absorption_summary"],
        stability: ["analyze_equilibrium", "jacobian_analytic", "spectrum_to_csv"],
        hopfield: ["hebbian_store", "recall"],
        checkpoint: ["save_weights", "load_weights"],
        fileio: ["atomic_write_text"],
        cli: ["resolve_config"],
    }
    modules = [pchn, checkpoint, cli, experiments, fileio, hopfield, learning,
               network, stability]
    for mod, names in functions.items():
        short = mod.__name__.rsplit(".", 1)[-1]
        for fname in names:
            orig = getattr(mod, fname)
            hook = hooks.get(fname)
            traced = tracer.wrap(hook(orig) if hook else orig, f"{short}.{fname}")
            # rebind every module-level name that refers to it, so calls
            # through `from .x import f` imports are traced too
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, traced)
    numpy.linalg.eigvals = tracer.wrap(numpy.linalg.eigvals, "numpy.linalg.eigvals")
    scipy.optimize.root = tracer.wrap(scipy.optimize.root, "scipy.optimize.root")


def main(argv):
    spans_path, run_id = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: traced_cli.py <spans.npz> <run id> -- <pchn CLI args>")
    tracer = Tracer(run_id)
    t0 = perf()
    import pchn.cli
    tracer.record("cli.import", t0, perf())
    instrument(tracer)
    try:
        return tracer.wrap(pchn.cli.main, "cli.main")(argv[3:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
