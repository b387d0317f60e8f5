"""Training loop: clamp a pattern, let errors and weights evolve together.

Training presents each stored pattern by clamping every value node to it
for a fixed duration while the weight equations integrate alongside the
state equations.  No objective gradient is ever formed; the weight
updates are the local outer-product rule in network.step_slow.

The clamp is integrated in reduced form, exact for a fully clamped net.
With every value pinned, V and s = sigma(V) stay constant for the whole
clamp, W never feeds back into the errors, and a slow step changes each
unit's prediction r = M s + b only along its own error:

    E_k = (1 - dt*zeta/tau) E_{k-1} + (dt/tau) (V - r_{k-1})
    r_k = r_{k-1} + (dt/gamma) (mask @ s^2 + 1) * E_k

So one clamp of K Euler steps (one fast step, then one slow step, shared
dt) is K steps of this per-unit recurrence on length-T vectors, then one
rank-1 weight update driven by the summed errors.  The recurrence is
linear with coefficients fixed for the clamp, so a clamp is taken in
closed form: repeated squaring of each unit's 2 x 2 step matrix gives
the last errors and the summed errors in O(log K) products.  That runs
only when a bound shows that no step can pass DIVERGENCE_LIMIT; any
other clamp is stepped, and that loop alone names a divergence step.
Both land where the step-by-step path does up to rounding, which the
tests check against step_fast + step_slow.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstructionError, ContractViolationError,
                     IntegrationDivergenceError)
from .network import DIVERGENCE_LIMIT, _past_limit

SEQUENTIAL = "sequential"
SHUFFLED = "shuffled"

# Euler steps per block of a stepped clamp; bounds the error history
# the divergence check reads to BLOCK x T floats
BLOCK = 1024


@dataclass(frozen=True)
class TrainingSchedule:
    duration_per_target: float = 10.0
    epochs: int = 1
    target_order: str = SEQUENTIAL
    reset_fast_state: bool = True

    def __post_init__(self):
        if not 0.0 < self.duration_per_target < math.inf:
            raise ConstructionError("duration_per_target must be positive and finite")
        if operator.index(self.epochs) < 1:
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
    pats = np.asarray(getattr(targets, "patterns", targets), dtype=float)
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
    The net ends unclamped, also when a clamp raises.
    """
    if net.weights_frozen:
        raise ContractViolationError("cannot train a frozen network")
    pats = _patterns_array(targets, net.total_units)
    n_targets = pats.shape[0]
    steps_per = max(1, int(round(schedule.duration_per_target / net.hyper.dt)))
    rng = np.random.default_rng(seed)

    report = TrainingReport()
    try:
        for epoch in range(schedule.epochs):
            order = np.arange(n_targets)
            if schedule.target_order == SHUFFLED:
                order = rng.permutation(n_targets)
            for tid in order:
                target = pats[tid]
                net.clamp_all(target)
                if schedule.reset_fast_state:
                    net.E[:] = 0.0
                residual = net.V - net.predict(net.V)
                energy_start = net.energy(residual / net.hyper.zeta)
                _clamp(net, residual, steps_per)
                report.records.append(ClampRecord(epoch, int(tid), steps_per,
                                                  energy_start, net.energy()))
    finally:
        net.unclamp_all()
    return report


def _clamp(net, residual, steps):
    """Run `steps` Euler steps of fast and slow dynamics on a fully
    clamped net whose prediction residual V - (M s + b) is `residual`.

    Carries u = (dt/tau)(V - r) in place of r, so each step is
    E <- a E + u, then u <- u - d E.  Takes the clamp in closed form
    when _clamp_closed_form's bound allows, else steps it.  Leaves
    net.E, the weights and net.steps_taken where the step-by-step path
    leaves them, also when the errors pass DIVERGENCE_LIMIT: the weights
    then hold the updates of the steps before the first bad one, which
    is the step raised.
    """
    h, T = net.hyper, net.total_units
    s = net.activation.apply(net.V)
    a = np.full(T, 1.0 - h.dt * h.zeta / h.tau)
    u = (h.dt / h.tau) * residual
    d = (h.dt / h.tau) * (h.dt / h.gamma) * (net.mask @ (s * s) + 1.0)
    values_ok = not _past_limit(net.V[None])[0]
    if values_ok and _clamp_closed_form(net, a, u, d, steps):
        return
    total = np.zeros(T)
    history = np.empty((min(steps, BLOCK), T))
    du = np.empty(T)
    mul, add, sub = np.multiply, np.add, np.subtract
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < steps:
            rows = history[:steps - done]
            prev = net.E
            # the hot loop: four in-place ufuncs per step, called with
            # positional outputs, which numpy dispatches fastest
            for e in rows:
                mul(prev, a, e)
                add(e, u, e)
                mul(e, d, du)
                sub(u, du, u)
                prev = e
            n = _first_bad(rows, values_ok)
            total += rows[:n].sum(axis=0)
            net.E[:] = rows[min(n, len(rows) - 1)]
            done += n
            if n < len(rows):
                net.steps_taken += done + 1
                if done:
                    net.step_slow(errors=total)
                raise IntegrationDivergenceError(net.steps_taken)
    net.steps_taken += steps
    net.step_slow(errors=total)


def _clamp_closed_form(net, a, u, d, steps):
    """Take the clamp that _clamp steps in closed form and return True,
    or return False, with nothing changed, when the bound below refuses.

    Unit i's x = (E, u) steps as x_k = A x_{k-1}, A = [[a, 1], [-d a,
    1 - d]], so a clamp of K steps needs only the E rows of A^K x_0 and
    of (A + ... + A^K) x_0, which repeated squaring gives.

    The bound: rounding included, a step of _clamp's loop keeps |x_k| <=
    (1 + eps)^4 B |x_{k-1}| entrywise, B = [[|a|, 1], [|d a|, 1 + |d|]],
    and ||B^k|| <= prod_j max(1, ||B^(2^j)||) for k <= K (row-sum norm).
    Those squarings add only terms >= 0 and round the product down by at
    most (1 - eps)^(6K).  Times the start's size (at least 1, which keeps
    every power and sum below finite) and (1 + 2 eps)^(10K + 1), it must
    stay under DIVERGENCE_LIMIT / 2: then no step of the loop, the one
    path that names a divergence step, could pass the limit.
    """
    n = steps.bit_length()
    A = np.empty((len(a), 2, 2))
    A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1] = a, 1.0, -d * a, 1.0 - d
    bound = np.maximum(np.maximum(np.abs(net.E), np.abs(u)), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        B = np.abs(A)
        B[:, 1, 1] = 1.0 + np.abs(d)
        for j in range(n):
            if j:
                B = B @ B
            bound *= np.maximum(B.sum(2).max(1), 1.0)
        bound *= (1.0 + 2.0 * np.finfo(float).eps) ** (10 * steps + 1)
        if not np.all(bound < DIVERGENCE_LIMIT / 2):
            return False
    # after bit j: Q = A^(2^j), S = A + ... + A^(2^j), and for m the
    # value of the bits of K up to j, x = A^m x_0, total = (A + ... + A^m) x_0
    x = np.stack((net.E, u), 1)[..., None]
    total = np.zeros_like(x)
    Q = S = A
    for j in range(n):
        if j:
            S = S + Q @ S
            Q = Q @ Q
        if steps >> j & 1:
            total += S @ x
            x = Q @ x
    net.E[:] = x[:, 0, 0]
    net.steps_taken += steps
    net.step_slow(errors=total[:, 0, 0])
    return True


def _first_bad(rows, values_ok):
    """Index of the first row that fails the step-by-step path's
    finiteness check, or len(rows) when none does."""
    bad = _past_limit(rows) | (not values_ok)
    return int(np.argmax(bad)) if bad.any() else len(rows)


def freeze(net):
    """Stop all learning; step_slow refuses afterwards.  Idempotent."""
    net.weights_frozen = True
    return net
