"""Recall studies: perturbation recovery, discrimination, random starts.

A study drops a network at a set of initial value states, lets the fast
dynamics run, and records the distance from the state to every stored
target at a fixed sampling interval.  The fast dynamics never move a
weight, so a net need not be frozen.  Runs are the rows of one
(2, runs, T) batch of fast states, error rows then value rows; they
share the weights, so one Euler kernel, bound once per study (see
Network.kernel), advances every run with the same matrix products.
After the steps that reach a sample, one divergence check ends each
live run that has passed the limit there: it keeps its previous
distances (zeros at sample 0), and its state is zeroed.  Then one
distance call takes that sample's distances from a (targets, runs, T)
difference squared and summed over its last axis: the operations of
np.linalg.norm(..., axis=-1), so one run against one target sums a
distance the same way as a wider batch.  The distances of the runs
still live fill that sample's slice of a Trace: a (runs, samples,
targets) distance array, the index of each run's last sample and a
mask of the runs that diverged.  The CSV writer, the distance tables
and the summaries read those arrays directly; the CSV is built and
written as ASCII bytes.

Seeding: make_probes and the studies take an int or a SeedSequence seed
and build run r's stream with _run_seed, as SeedSequence(seed,
spawn_key=(r,)), so independent commands can regenerate the exact same
probes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError
from .hopfield import _check_pm1
from .network import DIVERGENCE_LIMIT, _natural, _past_limit, _rows, _steps_of

BINARY = "binary"
REAL = "real"
EUCLIDEAN = "euclidean"
HAMMING = "hamming"

# recall probes: noise std for real targets, bit flips for binary ones
PERTURB_STD = float(np.sqrt(0.5))
FLIP_BITS = 13

@dataclass(frozen=True)
class TargetSet:
    """n >= 1 stored patterns of length d >= 1, the rows of the 2-D array
    patterns, of kind 'binary' with entries +-1 exactly or 'real' with
    finite entries within DIVERGENCE_LIMIT; anything else raises
    ConstructionError."""
    kind: str
    patterns: np.ndarray

    def __post_init__(self):
        if self.kind not in (BINARY, REAL):
            raise ConstructionError(f"unknown target kind {self.kind!r}")
        P = self.patterns
        if not (isinstance(P, np.ndarray) and P.ndim == 2 and P.size):
            raise ConstructionError("patterns must be a 2-D array with at least one row "
                                    "and one column")
        if self.kind == BINARY:
            _check_pm1(P, "binary patterns")
        elif _past_limit(np.asarray(P, dtype=float)).any():
            raise ConstructionError("real patterns must have finite entries within "
                                    f"{DIVERGENCE_LIMIT:g}")

    @property
    def n(self) -> int:
        return self.patterns.shape[0]

    @property
    def d(self) -> int:
        return self.patterns.shape[1]


def gen_targets(kind: str, n: int, d: int, seed) -> TargetSet:
    """Draw n stored patterns of length d: standard normal entries for
    kind 'real', fair +-1 entries for kind 'binary'; TargetSet refuses
    any other kind."""
    if _natural("n", n) < 1 or _natural("d", d) < 1:
        raise ConstructionError("need n >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    if kind == BINARY:
        pats = rng.integers(0, 2, size=(n, d)).astype(float) * 2.0 - 1.0
    else:
        pats = rng.standard_normal((n, d))
    return TargetSet(kind, pats)


def sign_pm1(x):
    """Sign with sign(0) = +1, the convention used for Hamming readouts."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)


def perturb_gaussian(x, sigma: float, seed=0):
    """x plus i.i.d. normal noise with standard deviation sigma."""
    x = np.asarray(x, dtype=float)
    if not 0 <= sigma < np.inf:
        raise ConstructionError(f"sigma must be >= 0 and finite, not {sigma}")
    if sigma == 0:
        return x.copy()
    return x + np.random.default_rng(seed).normal(0.0, sigma, size=x.shape)


def perturb_flip(x, k: int, seed=0):
    """Flip the sign of exactly k distinct positions of the +-1 vector x;
    an x that is not a 1-D vector raises ConstructionError."""
    x = _check_pm1(x, "a flipped vector")
    if x.ndim != 1:
        raise ConstructionError(f"a flipped vector must be 1-D, not of shape {x.shape}")
    if _natural("k", k) > x.size:
        raise ConstructionError(f"k={k} outside [0, {x.size}]")
    out = x.copy()
    if k:
        idx = np.random.default_rng(seed).choice(x.size, size=k, replace=False)
        out[idx] = -out[idx]
    return out


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


@dataclass(frozen=True, eq=False)
class Trace:
    """A study's distances from every run to every target over time.

    dist[r, i, j] is run r's distance to target j at time t[i].  Run r
    has samples 0 through end[r]; a run that diverged ends at the sample
    where it went non-finite, which repeats its previous finite distances
    (zeros when the start itself was non-finite).
    """

    metric: str
    t: np.ndarray          # (samples,)
    dist: np.ndarray       # (runs, samples, targets)
    end: np.ndarray        # (runs,) index of each run's last sample
    diverged: np.ndarray   # (runs,) bool

    def __len__(self) -> int:
        """Number of CSV rows: one per (run, sample, target)."""
        return int(np.sum(self.end + 1)) * self.dist.shape[2]


def _run_seed(seed, r):
    """Seed of run r: SeedSequence(seed, spawn_key=(r,)); a SeedSequence
    seed passes its entropy and appends r to its spawn key."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (r,))
    return np.random.SeedSequence(seed, spawn_key=(r,))


def make_probes(targets: TargetSet, seed=0, *, sigma: float = PERTURB_STD,
                flip_bits: int = FLIP_BITS):
    """One perturbed copy of each stored pattern, row-aligned with the
    pattern matrix; probe r draws from _run_seed(seed, r)."""
    probes = np.empty_like(targets.patterns)
    for r, pat in enumerate(targets.patterns):
        child = _run_seed(seed, r)
        if targets.kind == BINARY:
            probes[r] = perturb_flip(pat, flip_bits, child)
        else:
            probes[r] = perturb_gaussian(pat, sigma, child)
    return probes


def _distances(X, P, metric: str, work):
    """(targets, runs) distances between the rows of X (runs, T) and the
    patterns, each repeated for every run in P (targets, runs, T); work
    is a scratch of P's shape.  Euclidean distances run the operations of
    np.linalg.norm(..., axis=-1) on the (targets, runs, T) difference;
    Hamming ones count the entries where X >= 0 and P > 0 differ, the
    mismatches of sign_pm1(X), NaN and zero included, with the +-1
    patterns."""
    if metric == HAMMING:
        return np.add.reduce((X >= 0) != (P > 0), axis=-1)
    diff = np.subtract(X, P, work)
    np.multiply(diff, diff, diff)
    sq = np.add.reduce(diff, axis=-1)
    return np.sqrt(sq, sq)


def relaxation_study(net, targets: TargetSet, starts, *, horizon: float = 20.0,
                     sample_every: float = 0.05) -> Trace:
    """Integrate the fast dynamics from each row of starts and record
    distances to every target at each sample time.  No weight moves, so
    a net need not be frozen.

    A run that goes non-finite (or past DIVERGENCE_LIMIT) ends at that
    sample, flagged as diverged and carrying its last finite distances;
    the rest of the batch keeps going.  Starts or target patterns that
    are not (rows, T) arrays, and a horizon or a sample_every of more
    than MAX_STEPS steps, raise ConstructionError before a step.
    """
    T = net.total_units
    starts = _rows(starts, T, "starts")
    patterns = _rows(targets.patterns, T, "targets")
    n_runs, n_targets = len(starts), len(patterns)
    metric = metric_for(targets.kind)
    dt = net.hyper.dt
    steps = _steps_of("horizon", horizon, dt)
    stride = _steps_of("sample_every", sample_every, dt)
    sampled = np.arange(0, steps + 1, stride)
    if sampled[-1] != steps:
        sampled = np.append(sampled, steps)

    # a (2, runs, T) batch of rows: errors, then values
    S = np.zeros((2, n_runs, T))
    S[1] = starts
    # each pattern repeated for every run: a sample's subtraction then
    # runs over rows of runs x T entries, not over rows of T
    P = np.repeat(patterns[:, None], n_runs, axis=1)
    work = np.empty_like(P)
    trace = Trace(metric, sampled * dt,
                  np.zeros((n_runs, sampled.size, n_targets)),
                  np.full(n_runs, sampled.size - 1), np.zeros(n_runs, dtype=bool))

    step = net.kernel(S).euler
    with np.errstate(over="ignore", invalid="ignore"):
        for i, gap in enumerate(np.diff(sampled, prepend=0).tolist()):
            for _ in range(gap):
                step()
            # a live run past the limit ends at this sample, repeating its
            # previous distances
            bad = _past_limit(S[1]) & ~trace.diverged
            if bad.any():
                trace.dist[bad, i] = trace.dist[bad, i - 1] if i else 0.0
                trace.end[bad], trace.diverged[bad] = i, True
                S[:, bad] = 0.0
            np.copyto(trace.dist[:, i], _distances(S[1], P, metric, work).T,
                      where=~trace.diverged[:, None])
    return trace


def perturbation_study(net, targets: TargetSet, *, horizon: float = 20.0,
                       sample_every: float = 0.05, sigma: float = PERTURB_STD,
                       flip_bits: int = FLIP_BITS, seed=0) -> Trace:
    """Start each run at a perturbed copy of its own target (run r owns
    target r) and watch whether the dynamics pull it back."""
    probes = make_probes(targets, seed, sigma=sigma, flip_bits=flip_bits)
    return relaxation_study(net, targets, probes, horizon=horizon,
                            sample_every=sample_every)


def random_init_study(net, targets: TargetSet, *, n_runs: int = 10,
                      horizon: float = 20.0, sample_every: float = 0.05,
                      seed=0) -> Trace:
    """n_runs >= 0 fresh draws of the target distribution, unrelated to any
    stored pattern: run r starts at gen_targets(kind, 1, d, _run_seed(seed, r))."""
    d = net.total_units
    starts = np.empty((_natural("n_runs", n_runs), d))
    for r in range(n_runs):
        starts[r] = gen_targets(targets.kind, 1, d, _run_seed(seed, r)).patterns
    return relaxation_study(net, targets, starts, horizon=horizon,
                            sample_every=sample_every)


# ---- readouts over a trace ----

def trace_to_csv(trace: Trace) -> bytes:
    """One row per (run, sample, target), in that order, as ASCII bytes:
    %.10g times and real distances, integer Hamming distances, and the
    'divergent' flag on the rows of a diverged run's last sample."""
    n_targets = trace.dist.shape[2]
    fmt = "%d" if trace.metric == HAMMING else "%.10g"
    # every sample's rows with \0 for the run id, formatted once for all
    # runs; a run's rows are then one template converting only distances
    samples = ["".join([f"\0,{t},{j},{fmt},{trace.metric},\n" for j in range(n_targets)])
               for t in ["%.10g" % t for t in trace.t.tolist()]]
    at = np.cumsum([0] + [len(rows) for rows in samples]).tolist()
    body = "".join(samples).encode()
    del samples  # small strings whose memory would stay through the join
    blocks = [b"run_id,t,target_id,distance,metric,flags\n"]
    for r, (end, diverged) in enumerate(zip(trace.end.tolist(), trace.diverged.tolist())):
        last = body[at[end]:at[end + 1]]
        if diverged:
            last = last.replace(b",\n", b",divergent\n")
        template = (body[:at[end]] + last).replace(b"\0", b"%d" % r)
        blocks.append(template % tuple(trace.dist[r, :end + 1].ravel().tolist()))
    return b"".join(blocks)


def distance_tables(trace: Trace):
    """(first, last, diverged): every run's distances to every target at
    its first and at its last sample, each (runs, targets), and the
    (runs,) mask of runs that diverged."""
    last = trace.dist[np.arange(trace.end.size), trace.end]
    return trace.dist[:, 0], last, trace.diverged


@dataclass
class StudySummary:
    metric: str
    n_runs: int
    successes: int


def recovery_summary(trace: Trace) -> StudySummary:
    """Perturbation-study readout: run r succeeds when its final distance
    to target r is within threshold (<=1 bit, or 10% of initial)."""
    first, last, diverged = distance_tables(trace)
    if diverged.size > first.shape[1]:
        raise ConstructionError(f"{diverged.size} runs but only {first.shape[1]} "
                                "targets: run r needs target r")
    own = np.arange(diverged.size)
    d0, d1 = first[own, own], last[own, own]
    thr = success_threshold(trace.metric, 0, d0 if trace.metric == EUCLIDEAN else None)
    return StudySummary(trace.metric, own.size, int(np.sum(~diverged & (d1 <= thr))))


def absorption_summary(trace: Trace, d: int) -> StudySummary:
    """Random-init readout: run succeeds when its final distance to ANY
    target is within the absolute recovery threshold."""
    _, last, diverged = distance_tables(trace)
    absorbed = last.min(axis=1) <= success_threshold(trace.metric, d)
    return StudySummary(trace.metric, diverged.size, int(np.sum(~diverged & absorbed)))
