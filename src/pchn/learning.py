"""Training loop: clamp a pattern, let fast and slow dynamics run together.

Training presents each stored pattern by clamping every value node to it
for a fixed duration while the weight equations integrate alongside the
state equations (one slow step per fast step, shared dt).  No objective
gradient is ever formed; the weight updates are the local outer-product
rule in network.step_slow.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, ContractViolationError

SEQUENTIAL = "sequential"
SHUFFLED = "shuffled"


@dataclass(frozen=True)
class TrainingSchedule:
    duration_per_target: float = 10.0
    epochs: int = 1
    target_order: str = SEQUENTIAL
    reset_fast_state: bool = True

    def __post_init__(self):
        if not self.duration_per_target > 0.0:
            raise ConstructionError("duration_per_target must be positive")
        if self.epochs < 1:
            raise ConstructionError("epochs must be >= 1")
        if self.target_order not in (SEQUENTIAL, SHUFFLED):
            raise ConstructionError(
                f"target_order must be {SEQUENTIAL!r} or {SHUFFLED!r}")


@dataclass
class ClampRecord:
    epoch: int
    target_id: int
    steps: int
    energy_start: float
    energy_end: float


@dataclass
class TrainingReport:
    records: list = field(default_factory=list)
    wall_seconds: float = 0.0

    def final_mean_energy(self) -> float:
        """Mean end-of-clamp energy over the last epoch."""
        if not self.records:
            return 0.0
        last = max(r.epoch for r in self.records)
        vals = [r.energy_end for r in self.records if r.epoch == last]
        return float(np.mean(vals))

    def to_csv(self) -> str:
        lines = ["epoch,target_id,steps,energy_start,energy_end"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.target_id},{r.steps},"
                         f"{r.energy_start:.10g},{r.energy_end:.10g}")
        return "\n".join(lines) + "\n"


def _patterns_array(targets, total_units):
    pats = getattr(targets, "patterns", targets)
    pats = np.asarray(pats, dtype=float)
    if pats.ndim != 2 or pats.shape[0] < 1:
        raise ConstructionError("targets must be a (N, d) array, N >= 1")
    if pats.shape[1] != total_units:
        raise ConstructionError(
            f"target length {pats.shape[1]} != network units {total_units}")
    return pats


def train(net, targets, schedule: TrainingSchedule, seed=0) -> TrainingReport:
    """Present every target for schedule.duration_per_target seconds per
    epoch, fully clamped, learning on.  Returns per-clamp energy records.

    energy_start is the energy the error nodes would settle to against
    the pre-clamp weights (errors at their algebraic equilibrium for the
    clamped values); energy_end is the actual energy when the clamp
    ends.  Falling energy means the pattern became better predicted.
    """
    if net.weights_frozen:
        raise ContractViolationError("cannot train a frozen network")
    pats = _patterns_array(targets, net.total_units)
    n_targets = pats.shape[0]
    steps_per = max(1, int(round(schedule.duration_per_target / net.hyper.dt)))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    report = TrainingReport()
    t0 = time.perf_counter()
    for epoch in range(schedule.epochs):
        order = np.arange(n_targets)
        if schedule.target_order == SHUFFLED:
            order = rng.permutation(n_targets)
        for tid in order:
            target = pats[tid]
            net.clamp_all(target)
            if schedule.reset_fast_state:
                net.E[:] = 0.0
            energy_start = net.energy((net.V - net.predict(net.V)) / net.hyper.zeta)
            for _ in range(steps_per):
                net.step_fast()
                net.step_slow()
            report.records.append(ClampRecord(epoch, int(tid), steps_per,
                                              energy_start, net.energy()))
    net.unclamp_all()
    report.wall_seconds = time.perf_counter() - t0
    return report


def freeze(net):
    """Stop all learning; step_slow refuses afterwards.  Idempotent."""
    net.weights_frozen = True
    return net


def prediction_mse(net, targets) -> float:
    """Mean squared prediction error over the target set with current
    weights: every unit of every target against its prediction from
    that target.  Network state is not touched."""
    V = _patterns_array(targets, net.total_units).T
    diff = V - net.predict(V)
    return float(np.sum(diff * diff)) / diff.size
