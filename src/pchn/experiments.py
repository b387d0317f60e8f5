"""Recall studies: perturbation recovery, discrimination, random starts.

A study drops a frozen network at a set of initial value states, lets the
fast dynamics run, and records the distance from the state to every
stored target at a fixed sampling interval.  Runs are the columns of one
(2T, runs) array of packed fast states (errors in the first T rows,
values in the last T); they share the weights, so Network.euler, the
integrator behind step_fast, advances every run with the same matrix
products.

Seeding: anything accepting a seed builds its per-run streams as
SeedSequence(seed, spawn_key=(run,)), so independent commands can
regenerate the exact same probes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, ContractViolationError

BINARY = "binary"
REAL = "real"
EUCLIDEAN = "euclidean"
HAMMING = "hamming"

# recall probes: noise std for real targets, bit flips for binary ones
PERTURB_STD = float(np.sqrt(0.5))
FLIP_BITS = 13


def _rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class TargetSet:
    kind: str
    patterns: np.ndarray
    seed: int

    @property
    def n(self) -> int:
        return self.patterns.shape[0]

    @property
    def d(self) -> int:
        return self.patterns.shape[1]


def gen_targets(kind: str, n: int, d: int, seed: int) -> TargetSet:
    """Draw n stored patterns of length d: standard normal entries for
    kind 'real', fair +-1 entries for kind 'binary'."""
    if n < 1 or d < 1:
        raise ConstructionError("need n >= 1 and d >= 1")
    rng = _rng_from(seed)
    if kind == BINARY:
        pats = rng.integers(0, 2, size=(n, d)).astype(float) * 2.0 - 1.0
    elif kind == REAL:
        pats = rng.standard_normal((n, d))
    else:
        raise ConstructionError(f"unknown target kind {kind!r}")
    return TargetSet(kind, pats, int(seed) if np.isscalar(seed) else -1)


def sign_pm1(x):
    """Sign with sign(0) = +1, the convention used for Hamming readouts."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)


def perturb_gaussian(x, sigma: float, seed=0):
    """x plus i.i.d. normal noise with standard deviation sigma."""
    x = np.asarray(x, dtype=float)
    if sigma < 0:
        raise ConstructionError("sigma must be >= 0")
    if sigma == 0:
        return x.copy()
    return x + _rng_from(seed).normal(0.0, sigma, size=x.shape)


def perturb_flip(x, k: int, seed=0):
    """Flip the sign of exactly k distinct positions of the +-1 vector x."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) == 1.0):
        raise ConstructionError("flip perturbation needs a +-1 vector")
    if not 0 <= k <= x.size:
        raise ConstructionError(f"k={k} outside [0, {x.size}]")
    out = x.copy()
    if k:
        idx = _rng_from(seed).choice(x.size, size=k, replace=False)
        out[idx] = -out[idx]
    return out


def distance(a, b, metric: str) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ConstructionError(f"shape mismatch {a.shape} vs {b.shape}")
    if metric == EUCLIDEAN:
        return float(np.linalg.norm(a - b))
    if metric == HAMMING:
        return float(np.sum(sign_pm1(a) != sign_pm1(b)))
    raise ConstructionError(f"unknown metric {metric!r}")


def metric_for(kind: str) -> str:
    return HAMMING if kind == BINARY else EUCLIDEAN


def success_threshold(metric: str, d: int, initial: float = None) -> float:
    """Recovery threshold: Hamming <= 1 bit, or 10% of the initial
    perturbation distance; without an initial distance the real-valued
    threshold falls back to 10% of the expected probe norm."""
    if metric == HAMMING:
        return 1.0
    if initial is not None:
        return 0.1 * initial
    return 0.1 * float(np.sqrt(0.5 * d))


@dataclass
class TraceRecord:
    run_id: int
    t: float
    target_id: int
    distance: float
    metric: str
    flags: str = ""


def make_probes(targets: TargetSet, seed=0, *, sigma: float = PERTURB_STD,
                flip_bits: int = FLIP_BITS):
    """One perturbed copy of each stored pattern, row-aligned with the
    pattern matrix.  Probe r uses SeedSequence(seed, spawn_key=(r,))."""
    root = seed if isinstance(seed, np.random.SeedSequence) else None
    probes = np.empty_like(targets.patterns)
    for r, pat in enumerate(targets.patterns):
        child = (np.random.SeedSequence(entropy=root.entropy, spawn_key=(r,))
                 if root is not None
                 else np.random.SeedSequence(seed, spawn_key=(r,)))
        if targets.kind == BINARY:
            probes[r] = perturb_flip(pat, flip_bits, child)
        else:
            probes[r] = perturb_gaussian(pat, sigma, child)
    return probes


def relaxation_study(net, targets: TargetSet, starts, *, horizon: float = 20.0,
                     sample_every: float = 0.05) -> list:
    """Integrate the frozen fast dynamics from each row of starts and
    record distances to every target at each sample time.

    Runs that go non-finite are closed out with a 'divergent' flag
    carrying their last finite distances; the rest of the batch keeps
    going.  Returns TraceRecords sorted by (run_id, t, target_id).
    """
    if not net.weights_frozen:
        raise ContractViolationError("freeze the network before running studies")
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != net.total_units:
        raise ConstructionError(
            f"starts must be (runs, {net.total_units}), got {starts.shape}")
    n_runs = starts.shape[0]
    metric = metric_for(targets.kind)
    pats = targets.patterns
    dt = net.hyper.dt
    steps = max(1, int(round(horizon / dt)))
    stride = max(1, int(round(sample_every / dt)))

    # packed states as columns: errors in rows :T, values in rows T:
    T = net.total_units
    S = np.zeros((2 * T, n_runs))
    S[T:] = starts.T
    V = S[T:]

    alive = np.ones(n_runs, dtype=bool)
    last_d = np.zeros((pats.shape[0], n_runs))
    records = []

    def sample(t):
        with np.errstate(invalid="ignore"):
            finite = np.all(np.isfinite(V), axis=0) & \
                np.all(np.abs(V) < 1e100, axis=0)
        if metric == HAMMING:
            signs = sign_pm1(V)
            dists = np.stack([np.sum(signs != pat[:, None], axis=0).astype(float)
                              for pat in pats])
        else:
            dists = np.stack([np.linalg.norm(V - pat[:, None], axis=0)
                              for pat in pats])
        for r in range(n_runs):
            if not alive[r]:
                continue
            if not finite[r]:
                for j in range(pats.shape[0]):
                    records.append(TraceRecord(r, t, j, float(last_d[j, r]),
                                               metric, "divergent"))
                alive[r] = False
                S[:, r] = 0.0
                continue
            for j in range(pats.shape[0]):
                records.append(TraceRecord(r, t, j, float(dists[j, r]), metric))
            last_d[:, r] = dists[:, r]

    sample(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            net.euler(S)
            if k % stride == 0 or k == steps:
                sample(k * dt)

    records.sort(key=lambda r: (r.run_id, r.t, r.target_id))
    return records


def perturbation_study(net, targets: TargetSet, *, horizon: float = 20.0,
                       sample_every: float = 0.05, sigma: float = PERTURB_STD,
                       flip_bits: int = FLIP_BITS, seed=0) -> list:
    """Start each run at a perturbed copy of its own target (run r owns
    target r) and watch whether the dynamics pull it back."""
    probes = make_probes(targets, seed, sigma=sigma, flip_bits=flip_bits)
    return relaxation_study(net, targets, probes, horizon=horizon,
                            sample_every=sample_every)


def random_init_study(net, targets: TargetSet, *, n_runs: int = 10,
                      horizon: float = 20.0, sample_every: float = 0.05,
                      seed=0) -> list:
    """Start from fresh draws of the target distribution, unrelated to
    any stored pattern."""
    d = net.total_units
    starts = np.empty((n_runs, d))
    for r in range(n_runs):
        rng = _rng_from(np.random.SeedSequence(seed, spawn_key=(r,)))
        if targets.kind == BINARY:
            starts[r] = rng.integers(0, 2, size=d).astype(float) * 2.0 - 1.0
        else:
            starts[r] = rng.standard_normal(d)
    return relaxation_study(net, targets, starts, horizon=horizon,
                            sample_every=sample_every)


# ---- readouts over a trace ----

def _fmt_distance(rec: TraceRecord) -> str:
    if rec.metric == HAMMING:
        return str(int(rec.distance))
    return f"{rec.distance:.10g}"


def trace_to_csv(records) -> str:
    lines = ["run_id,t,target_id,distance,metric,flags"]
    for r in records:
        lines.append(f"{r.run_id},{r.t:.10g},{r.target_id},"
                     f"{_fmt_distance(r)},{r.metric},{r.flags}")
    return "\n".join(lines) + "\n"


def distance_tables(records):
    """(first, last, flags) distance tables: {run_id: {target_id: d}} at
    each run's first and last recorded time, plus {run_id: flags-seen}."""
    first, last, flagged = {}, {}, {}
    t_min, t_max = {}, {}
    for r in records:
        if r.run_id not in t_min or r.t < t_min[r.run_id]:
            t_min[r.run_id] = r.t
        if r.run_id not in t_max or r.t > t_max[r.run_id]:
            t_max[r.run_id] = r.t
    for r in records:
        if r.t == t_min[r.run_id]:
            first.setdefault(r.run_id, {})[r.target_id] = r.distance
        if r.t == t_max[r.run_id]:
            last.setdefault(r.run_id, {})[r.target_id] = r.distance
        if r.flags:
            flagged[r.run_id] = r.flags
    return first, last, flagged


@dataclass
class StudySummary:
    metric: str
    n_runs: int
    successes: int
    final_correct: dict = field(default_factory=dict)
    initial_correct: dict = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return self.successes / self.n_runs if self.n_runs else 0.0


def recovery_summary(records, metric: str) -> StudySummary:
    """Perturbation-study readout: run r succeeds when its final distance
    to target r is within threshold (<=1 bit, or 10% of initial)."""
    first, last, flagged = distance_tables(records)
    runs = sorted(last)
    summary = StudySummary(metric, len(runs), 0)
    for r in runs:
        d0 = first[r].get(r, np.inf)
        d1 = last[r].get(r, np.inf)
        summary.initial_correct[r] = d0
        summary.final_correct[r] = d1
        if r in flagged:
            continue
        if d1 <= success_threshold(metric, 0, d0 if metric == EUCLIDEAN else None):
            summary.successes += 1
    return summary


def absorption_summary(records, metric: str, d: int) -> StudySummary:
    """Random-init readout: run succeeds when its final distance to ANY
    target is within the absolute recovery threshold."""
    _, last, flagged = distance_tables(records)
    runs = sorted(last)
    summary = StudySummary(metric, len(runs), 0)
    thr = success_threshold(metric, d)
    for r in runs:
        best = min(last[r].values())
        summary.final_correct[r] = best
        if r not in flagged and best <= thr:
            summary.successes += 1
    return summary
