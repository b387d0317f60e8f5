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
closed-form pieces: repeated squaring of each unit's 2 x 2 step matrix
gives the last errors and the summed errors in O(log K) products.  The
matrix depends only on the clamped pattern, so train squares every
target's once per call, before its first clamp, and each clamp of a
target reuses that target's squarings.  A piece runs whole only when a
bound shows that none of its steps can pass DIVERGENCE_LIMIT; any other
piece runs as the longest part that one check clears from where it
starts, down to single steps, and a single step past the limit raises
at the step the step-by-step path names.  The result lands where that
path does up to rounding, which the tests check against step_fast +
step_slow.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstructionError, ContractViolationError,
                     IntegrationDivergenceError)
from .network import DIVERGENCE_LIMIT, _past_limit, _steps_of

SEQUENTIAL = "sequential"
SHUFFLED = "shuffled"

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
    The net ends unclamped, also when a clamp raises.  A clamp of more
    than MAX_STEPS steps raises ConstructionError before any weight moves.
    """
    if net.weights_frozen:
        raise ContractViolationError("cannot train a frozen network")
    pats = _patterns_array(targets, net.total_units)
    steps_per = _steps_of("duration_per_target", schedule.duration_per_target,
                          net.hyper.dt)
    rng = np.random.default_rng(seed)

    report = TrainingReport()
    squarings = [_square(net, pattern, steps_per) for pattern in pats]
    try:
        for epoch in range(schedule.epochs):
            order = np.arange(len(pats))
            if schedule.target_order == SHUFFLED:
                order = rng.permutation(len(pats))
            for tid in map(int, order):
                target = pats[tid]
                net.clamp_all(target)
                if schedule.reset_fast_state:
                    net.E[:] = 0.0
                residual = net.V - net.predict(net.V)
                energy_start = net.energy(residual / net.hyper.zeta)
                _clamp(net, residual, steps_per, squarings[tid])
                report.records.append(ClampRecord(epoch, tid, steps_per,
                                                  energy_start, net.energy()))
    finally:
        net.unclamp_all()
    return report


def _square(net, pattern, steps):
    """The squarings of _clamp for clamps of `steps` steps on the (T,)
    values pattern: Q[j] = A^(2^j), S[j] = A + ... + A^(2^j) and the
    (n, T) rows growth[j] = prod_{i<=j} max(1, ||B^(2^i)||), for j < n =
    steps.bit_length().  They depend only on the clamped values, the
    mask and the hyperparameters, so train makes them once per target
    and every array is read-only."""
    h, T = net.hyper, net.total_units
    s = net.activation.apply(pattern)
    a = 1.0 - h.dt * h.zeta / h.tau
    d = (h.dt / h.tau) * (h.dt / h.gamma) * (net.mask @ (s * s) + 1.0)
    A = np.empty((T, 2, 2))
    A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1] = a, 1.0, -d * a, 1.0 - d
    with np.errstate(over="ignore", invalid="ignore"):
        B = np.abs(A)
        B[:, 1, 1] = 1.0 + np.abs(d)
        growth, Q, S = [], [A], [A]
        for j in range(steps.bit_length()):
            if j:
                B = B @ B
                S.append(S[-1] + Q[-1] @ S[-1])
                Q.append(Q[-1] @ Q[-1])
            # the row-sum norm, without the slow axis reductions
            rows = np.maximum(B[:, 0, 0] + B[:, 0, 1], B[:, 1, 0] + B[:, 1, 1])
            g = np.maximum(rows, 1.0)
            growth.append(growth[-1] * g if j else g)
    growth = np.stack(growth)
    for m in (*Q, *S, growth):
        m.flags.writeable = False
    return tuple(Q), tuple(S), growth


def _clamp(net, residual, steps, squarings):
    """Run `steps` Euler steps of fast and slow dynamics on a fully
    clamped net whose prediction residual V - (M s + b) is `residual`,
    with the squarings that _square made for the clamped values.

    Unit i carries x = (E, u), u = (dt/tau)(V - r) in place of r, and a
    step is E <- a E + u, then u <- u - d E: x_k = A x_{k-1}, A = [[a,
    1], [-d a, 1 - d]].  A clamp of K steps needs only the E rows of
    A^K x_0 and of (A + ... + A^K) x_0.  Repeated squaring gives Q_j =
    A^(2^j) and S_j = A + ... + A^(2^j), once per target per train
    call, and the clamp runs as one piece per set bit j of K, from the
    lowest: total += S_j x, then x = Q_j x.

    The bound: rounding included, a step keeps |x_k| <= (1 + eps)^4 B
    |x_{k-1}| entrywise, B = [[|a|, 1], [|d a|, 1 + |d|]], and ||B^k||
    <= prod_{i<=j} max(1, ||B^(2^i)||) for k < 2^(j+1) (row-sum norm).
    Those squarings add only terms >= 0 and round the product down by at
    most (1 - eps)^(6L) for L steps.  Times the start's size (at least 1,
    which keeps every power and sum finite) and (1 + 2 eps)^(10L + 1),
    it must stay under DIVERGENCE_LIMIT / 2: then none of the L steps
    can pass the limit.  When the bound clears the whole clamp from x_0
    the pieces run unchecked.  Otherwise one check per piece of 2^j
    steps takes the bounds of 2, 4, ..., 2^j steps from the x it starts
    at, and the longest that clears, 2^i steps, runs first; the rest of
    the piece waits as pieces of 2^i, 2^(i+1), ..., 2^(j-1) steps, which
    is where halving the piece down to 2^i would leave it.  When none
    clears, a single step runs, and one whose errors pass the limit
    raises there.  So does the first step when a clamped value is past
    it, as the step-by-step check covers the values too.

    Leaves net.E, the weights and net.steps_taken where the step-by-step
    path leaves them, also when it raises: net.E then holds the errors
    of the step raised and the weights the updates of the steps before
    it.
    """
    Q, S, growth = squarings
    h = net.hyper
    x = np.stack((net.E, (h.dt / h.tau) * residual), 1)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        if _past_limit(net.V[None])[0]:
            # the step-by-step check covers the clamped values too
            net.E[:] = (Q[0] @ x)[:, 0, 0]
            net.steps_taken += 1
            raise IntegrationDivergenceError(net.steps_taken)
        checked = not _clears(x, growth[-1:], [steps])[0]
        total = np.zeros_like(x)
        pieces = [j for j in range(len(Q) - 1, -1, -1) if steps >> j & 1]
        done = 0
        while pieces:
            j = pieces.pop()
            if checked and j:
                ok = np.flatnonzero(_clears(x, growth[1:j + 1],
                                            [1 << i for i in range(1, j + 1)]))
                i = int(ok[-1]) + 1 if ok.size else 0
                pieces += range(j - 1, i - 1, -1)
                j = i
            y = Q[j] @ x
            if checked and not j and _past_limit(y[:, 0, 0][None])[0]:
                net.E[:] = y[:, 0, 0]
                net.steps_taken += done + 1
                if done:
                    net.step_slow(errors=total[:, 0, 0])
                raise IntegrationDivergenceError(net.steps_taken)
            total += S[j] @ x
            x = y
            done += 1 << j
    net.E[:] = x[:, 0, 0]
    net.steps_taken += steps
    net.step_slow(errors=total[:, 0, 0])


def _clears(x, growth, steps):
    """Which bounds of _clamp clear from the (T, 2, 1) start x, one per
    row of the (L, T) growth: the product of max(1, ||B^(2^i)||) over
    the squarings i = 0, 1, ... that cover that row's length in the
    sequence steps.  A NaN anywhere refuses."""
    bound = np.maximum(np.maximum(np.abs(x[:, 0, 0]), np.abs(x[:, 1, 0])), 1.0) * growth
    bound *= np.array([(1.0 + 2.0 * np.finfo(float).eps) ** (10 * k + 1)
                       for k in steps])[:, None]
    return (bound < DIVERGENCE_LIMIT / 2).all(1)


def freeze(net):
    """Stop all learning; step_slow refuses afterwards.  Idempotent."""
    net.weights_frozen = True
    return net
