"""Recurrent predictive-coding network core.

A network is described by the sizes of its populations of value units
and by its edges, (src, dst) pairs of population indices.  Every
population is predicted by exactly one other population (possibly
itself) through prediction weights M and a bias b; errors travel back
along the same edge through correction weights W.

All T units share one packed fast state s of shape (2T,): the errors
E = s[:T], then the values V = s[T:], each in population order, with
population i at slices[i].  The edges are blocks of one global T x T
prediction matrix M (dst rows, src columns), one T x T correction matrix
W (src rows, dst columns) and one length-T bias b.  A fixed 0/1 `mask`
marks the entries of M that belong to an edge; the diagonal of a
self-edge block is excluded, so no unit predicts itself.  The fast
dynamics are then one recurrent system, Euler-integrated with step dt:

    tau * dE/dt = V - (M @ sigma(V) + b) - zeta * E
    tau * dV/dt = -E + sigma'(V) * (W @ E)

and learning is one local outer-product rule restricted to the mask (see
step_slow).  Network.edge_blocks is the one walk from an edge to its
blocks of M, W, b and mask.  Two builders draw the weights:
build_network for any edges, and build_loop for a ring, where a ring of
one is a population that predicts itself.  Network.kernel is the one
Euler step and Network.relax steps it until each run settles or
diverges.  Linearization lives in stability.py, the training loop in
learning.py.

A clamp is a (T,) bool mask that a kernel binds: its rhs writes -0.0
into the masked value derivatives, so the masked values hold their start
values, bit for bit, while E keeps evolving.  Network.relax takes such a
mask for a batch; the net's own mask, clamped, holds only its state s.
"""

import math
import numbers
import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .errors import ConstructionError, ContractViolationError, IntegrationDivergenceError

# state magnitudes beyond this are treated the same as inf/nan
DIVERGENCE_LIMIT = 1e100

# most Euler steps a clamp or a study may take: 5e4 s at the default dt
MAX_STEPS = 10**7


@dataclass(frozen=True)
class Hyperparams:
    """Time constants and integration step.

    tau governs the fast (state) equations, gamma the slow (weight)
    equations; learning slower than inference means tau < gamma.  zeta
    is the leak on the error nodes.
    """

    tau: float = 1.0
    gamma: float = 100.0
    zeta: float = 1.0
    dt: float = 0.005

    def __post_init__(self):
        for name in ("tau", "gamma", "zeta", "dt"):
            if not 0.0 < _real(name, getattr(self, name)) < math.inf:
                raise ConstructionError(f"{name} must be positive and finite")
        if not self.tau < self.gamma:
            raise ConstructionError("need tau < gamma (inference faster than learning)")
        if not self.dt < self.tau / 2.0:
            raise ConstructionError("need dt < tau/2 for a stable Euler step")
        if not self.dt * self.zeta / self.tau < 2.0:
            raise ConstructionError("need dt*zeta/tau < 2 for a stable Euler step "
                                    "of the error leak")


def _real(name, x):
    """x, if it is a real number; anything else raises ConstructionError."""
    if not isinstance(x, numbers.Real):
        raise ConstructionError(f"{name}={x!r} is not a real number")
    return x


def _steps_of(name, duration, dt):
    """The Euler steps of dt nearest to duration, at least one; a duration
    that is not a real number, not positive and finite, or past MAX_STEPS
    steps raises ConstructionError."""
    with np.errstate(over="ignore"):
        x = _real(name, duration) / dt
    # NaN, inf and an overflowed ratio fail the test; MAX_STEPS + 0.5
    # rounds to the even MAX_STEPS
    if not 0.0 < x <= MAX_STEPS + 0.5:
        raise ConstructionError(f"{name}: {duration} is not a positive, finite duration "
                                f"of at most MAX_STEPS = {MAX_STEPS} steps of dt = {dt}")
    return max(1, int(round(x)))


def _natural(name, n):
    """n as an int >= 0; anything else raises ConstructionError."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ConstructionError(f"{name}={n!r} is not an integer") from None
    if n < 0:
        raise ConstructionError(f"{name}={n} is negative")
    return n


def _vector(x, n):
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (n,):
        raise ConstructionError(f"vector length {x.shape} != ({n},)")
    return x


def _rows(x, n, name):
    """x as a float (rows, n) array; any other shape raises ConstructionError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != n:
        raise ConstructionError(f"{name} must be a (rows, {n}) array, not {x.shape}")
    return x


# the step of Network.kernel, bound to one state array s: rhs() fills its
# buffer with the packed derivatives at s; euler(d=rhs()) scales d by dt in
# place and adds it to s
Kernel = namedtuple("Kernel", "rhs euler")


@dataclass
class Relaxation:
    """Per-run outcome of Network.relax: the steps each run took,
    whether it settled under tol or passed the divergence limit at its
    last step, and its derivative sup-norm there."""
    steps: np.ndarray
    converged: np.ndarray
    residual: np.ndarray
    diverged: np.ndarray


class Network:
    """A net of len(sizes) populations, population i holding sizes[i]
    units at slices[i] of E and V, joined by edges: (src, dst) pairs, src
    predicting dst through the edge's blocks of M and b, dst's errors
    returning through its block of W (see edge_blocks).  Every
    population has exactly one incoming edge.  The weights start at zero;
    build_network draws them.  tied marks a net whose W started as M
    transposed, which step_slow keeps and checkpoints record; a net with
    weights_frozen set (learning.freeze) refuses step_slow."""

    def __init__(self, sizes, edges, activation: Activation,
                 hyper: Hyperparams, tied: bool = False):
        sizes = [operator.index(n) for n in sizes]
        if not sizes:
            raise ConstructionError("need at least one population")
        if min(sizes) < 1:
            raise ConstructionError("population size must be >= 1")
        self.edges = [(operator.index(src), operator.index(dst)) for src, dst in edges]
        self.activation = activation
        self.hyper = hyper
        self.tied = tied
        self.weights_frozen = False
        self.steps_taken = 0

        self.slices = []
        at = 0
        for n in sizes:
            self.slices.append(slice(at, at + n))
            at += n
        T = self.total_units = at
        self.s = np.zeros(2 * T)
        self.E, self.V = self.s[:T], self.s[T:]
        self.clamped = np.zeros(T, dtype=bool)
        self.M, self.W, self.b = np.zeros((T, T)), np.zeros((T, T)), np.zeros(T)
        self.mask = np.zeros((T, T))

        has_incoming = [False] * len(sizes)
        for src, dst in self.edges:
            if not (0 <= src < len(sizes) and 0 <= dst < len(sizes)):
                raise ConstructionError(f"edge ({src}, {dst}) has an endpoint out of range")
            if has_incoming[dst]:
                raise ConstructionError(f"population {dst} has more than one incoming edge")
            has_incoming[dst] = True
        for i, ok in enumerate(has_incoming):
            if not ok:
                raise ConstructionError(f"population {i} has no incoming edge")
        for src, dst, _, _, _, mask in self.edge_blocks():
            mask[...] = 1.0
            # the one place that keeps a unit from predicting itself
            if src == dst:
                np.fill_diagonal(mask, 0.0)

    def edge_blocks(self):
        """Per edge, in edge order: src, dst and the views of the edge's
        blocks of M (dst rows, src columns), W (src rows, dst columns),
        b (dst) and mask."""
        for src, dst in self.edges:
            rows, cols = self.slices[dst], self.slices[src]
            yield (src, dst, self.M[rows, cols], self.W[cols, rows], self.b[rows],
                   self.mask[rows, cols])

    # ---- clamps ----

    def clamp_all(self, target):
        self.V[:] = _vector(target, self.total_units)
        self.clamped[:] = True

    def unclamp_all(self):
        self.clamped[:] = False

    # ---- dynamics ----

    def predict(self, V):
        """Predictions M sigma(V) + b of every value unit at the (T,)
        values V."""
        return self.M @ self.activation.apply(V) + self.b

    def kernel(self, s, clamped=None) -> Kernel:
        """rhs and euler bound afresh to the batch s, B states as the rows
        of a C-contiguous (2, B, T) float64 array, E rows then V rows, and
        to a copy of the (T,) bool mask clamped, bound as None when it
        holds no True; any other s or clamped raises ConstructionError.
        rhs writes -0.0 into dV at the clamped entries: euler adds -0.0
        there, which keeps every bit of a clamped value (-0.0, NaN and
        +-inf included), and a sup-norm reads 0 there.  The E and V views
        of s are sliced here, once, and C-contiguous copies of M.T and W.T
        and a (B, T) block of b are taken: the kernel steps the weights of
        its bind, so bind after the last weight write.  sigma(V) and
        sigma'(V) share one (B, T) buffer and the derivatives go to one
        packed buffer laid out like s.  The products are a.dot(Mt, dE) and
        E.dot(Wt, dV), a holding sigma(V): the bound ndarray.dot makes the
        cblas call of np.dot without its Python-level dispatcher, and
        OpenBLAS runs it faster against a C-contiguous transpose than
        against the view M.T; the (B, T) bias adds faster than a broadcast
        of b.  A unit zeta or tau skips its multiply or divide: x * 1.0 and
        x / 1.0 are x in IEEE arithmetic, inf, NaN and -0 included."""
        T, h = self.total_units, self.hyper
        if not (isinstance(s, np.ndarray) and s.dtype == np.float64 and s.ndim == 3
                and s.shape[::2] == (2, T) and s.flags.c_contiguous):
            raise ConstructionError(f"a kernel takes a C-contiguous (2, B, {T}) float64 "
                                    f"batch, not {getattr(s, 'dtype', type(s))} "
                                    f"{np.shape(s)}")
        if clamped is not None:
            if not (isinstance(clamped, np.ndarray) and clamped.dtype == bool
                    and clamped.shape == (T,)):
                what = (f"{clamped.dtype} {clamped.shape}" if isinstance(clamped, np.ndarray)
                        else type(clamped).__name__)
                raise ConstructionError(f"a kernel's clamp is a ({T},) bool array, not {what}")
            clamped = clamped.copy() if clamped.any() else None
        E, V = s
        buf = np.empty_like(s)
        dE, dV = buf
        a, bias = np.empty_like(dV), np.empty_like(dV)
        bias[...] = self.b
        sigma, gain = self.activation.in_place(a)
        zeta = None if h.zeta == 1.0 else h.zeta
        tau = None if h.tau == 1.0 else h.tau
        # a 0-d array multiplies faster than a Python float, to the same bits
        dt = np.array(h.dt)
        # outputs passed positionally, which numpy dispatches fastest
        mul, add, sub = np.multiply, np.add, np.subtract
        Mt, Wt = self.M.T.copy(), self.W.T.copy()

        def rhs():
            # dE = (V - (M @ sigma(V) + b) - zeta * E) / tau
            sigma(V)
            a.dot(Mt, dE)
            add(dE, bias, dE)
            sub(V, dE, dE)
            if zeta is None:
                sub(dE, E, dE)
            else:
                mul(E, zeta, dV)
                sub(dE, dV, dE)
            # dV = (-E + sigma'(V) * (W @ E)) / tau
            E.dot(Wt, dV)
            mul(dV, gain(), dV)
            sub(dV, E, dV)
            if tau is not None:
                np.divide(buf, tau, buf)
            if clamped is not None:
                np.copyto(dV, -0.0, where=clamped)
            return buf

        def euler(d=None):
            if d is None:
                d = rhs()
            mul(d, dt, d)
            add(s, d, s)

        return Kernel(rhs, euler)

    def fast_rhs_flat(self, s):
        """RHS of the fast equations at packed state s, ignoring clamps,
        into a fresh (2T,) array.  Used by linearization and solvers."""
        s = _vector(s, 2 * self.total_units)
        return self.kernel(s.reshape(2, 1, -1)).rhs().reshape(-1)

    def step_fast(self):
        """One Euler step of the fast equations on the net's own state:
        one step of relax; raises IntegrationDivergenceError when the
        step passes the divergence limit."""
        self.run_fast_to_equilibrium(0.0, 1)

    def step_slow(self, errors=None):
        """One Euler step of the weight equations from the current state.

        Local rule: every update is post-synaptic error times pre-synaptic
        activity, restricted to the connection blocks by the mask; W moves
        by the transpose of M's update dM, so a W that equals M transposed
        bit for bit stays so (W_ij + dM_ji is M_ji + dM_ji).  With errors
        given, that length-T vector stands in for E: the sum of the errors
        of K steps at fixed values makes the update of all K steps.  A
        frozen net raises ContractViolationError.
        """
        if self.weights_frozen:
            raise ContractViolationError("weights are frozen")
        e = self.E if errors is None else _vector(errors, self.total_units)
        rate = self.hyper.dt / self.hyper.gamma
        dM = (rate * np.outer(e, self.activation.apply(self.V))) * self.mask
        self.M += dM
        self.W += dM.T
        self.b += rate * e

    def energy(self, errors=None) -> float:
        """Total error energy (zeta/2) * ||E||^2, of the current errors or
        of the given length-T error vector."""
        e = self.E if errors is None else _vector(errors, self.total_units)
        return 0.5 * self.hyper.zeta * float(np.dot(e, e))

    def residual(self) -> float:
        """Sup-norm of the fast-state time derivative under the net's
        clamp, whose values hold their start values and count as 0."""
        d = self.kernel(self.s.reshape(2, 1, -1), self.clamped).rhs()
        return float(self._sup_norm(d)[0])

    @staticmethod
    def _sup_norm(d, a=None):
        """Sup-norm per run of the derivatives d of a (2, B, T) batch of
        rows; a, when given, is the d-shaped buffer for |d|."""
        # a max is exact in any order
        return np.maximum.reduce(np.abs(d, a), (0, 2))

    def relax(self, s, tol: float, max_steps: int, clamp=None) -> "Relaxation":
        """Step the fast equations on B packed states, the rows of the
        C-contiguous (2, B, T) float array s, E rows then V rows, in
        place, run by run until its derivative sup-norm drops under tol,
        until it passes the divergence limit, or until the step budget
        runs out.  clamp, None or a (T,) bool mask, is bound to each kernel
        relax binds, so every run's masked values hold their start values
        and count as 0 in its sup-norm; relax reads no clamp from the net.
        Any other s or clamp, the old (mask, values) pair included, a NaN
        or negative tol, or a max_steps that is not an integer >= 0 raises
        ConstructionError before a step.

        A run that settles or diverges is frozen at that step and dropped
        from the batch, while the others go on; steps_taken advances by
        the steps all runs took.
        The RHS is evaluated once per step: the derivatives behind each
        residual drive the next step.  The kernel is bound to the batch,
        and again only after runs are dropped, which np.compress does
        into a new C-contiguous batch; each run is written back to s
        when it stops.

        A step is skipped or checked in full, as a step of a plain loop
        is.  It is skipped only while two exact shortcuts both rule a stop
        out: the bound of _steps_under_limit, counted from the last full
        check, still clears the step of divergence, and every live run's
        witness, the flat index of its largest |d| at that check, is still
        at least tol, so its sup-norm is too.  A full check finds the runs
        past the limit, counts the bound afresh (none while a run is past
        it, or where the weights give no finite bound or the states near
        the limit), takes the sup-norms, stops the runs that settled or
        diverged and picks the witnesses again.  The residual of a run
        still live is taken once, at the end.
        """
        if not tol >= 0:
            raise ConstructionError(f"tol={tol} is not >= 0")
        max_steps = _natural("max_steps", max_steps)
        kernel, n = self.kernel(s, clamp), s.shape[1]
        out = Relaxation(np.full(n, max_steps), np.zeros(n, dtype=bool),
                         np.zeros(n), np.zeros(n, dtype=bool))
        steps_under_limit = self._steps_under_limit(max_steps)
        X, a, live = s, np.empty_like(s), np.arange(n)
        # unchecked: the steps left that the bound clears of divergence;
        # pick: the flat index into d of each live run's witness, set by
        # the first step's full check
        unchecked, pick = 0, None
        with np.errstate(over="ignore", invalid="ignore"):
            d = kernel.rhs()
            for k in range(1, max_steps + 1):
                if live.size == 0:
                    break
                kernel.euler(d)
                d = kernel.rhs()
                if unchecked and min(map(abs, d.ravel()[pick].tolist())) >= tol:
                    unchecked -= 1
                    continue
                bad = _past_limit(X)
                unchecked = 0 if bad.any() else steps_under_limit(X)
                r = self._sup_norm(d, a)
                done = bad | (r < tol)
                keep = ~done
                pick = _witnesses(a[:, keep])
                if not done.any():
                    continue
                ended = live[done]
                out.steps[ended], out.residual[ended] = k, r[done]
                out.diverged[ended], out.converged[ended] = bad[done], ~bad[done]
                if X is not s:
                    s[:, ended] = X[:, done]
                live = live[keep]
                X, d = np.compress(keep, X, 1), np.compress(keep, d, 1)
                a = a[:, :live.size]
                kernel = self.kernel(X, clamp)
            out.residual[live] = self._sup_norm(d, a)
        if live.size and X is not s:
            s[:, live] = X
        self.steps_taken += int(out.steps.sum())
        return out

    def _steps_under_limit(self, max_steps):
        """steps(X): how many Euler steps, at most max_steps, from the
        (2, B, T) batch X no run can take past DIVERGENCE_LIMIT or to a
        NaN; 0 for every X if the weights give no finite bound.

        With |sigma(v)| <= |v| and |sigma'(v)| <= 1 (see activations),
        the derivatives at a state s of sup-norm S are at most L S + c,
        L = max(1 + zeta + ||M||, 1 + ||W||) / tau and c = ||b|| / tau in
        the row-sum norm, so a step takes S to at most a S + dt c with
        a = 1 + dt L; clamped values hold their start values, which S
        already counts.  After k steps S + q is then at most
        a^k (S + q), q = dt c / (a - 1), and the count is the largest k
        that keeps this under DIVERGENCE_LIMIT / 2.  L, a and c are
        raised by rho for the rounding of the norms and of each step,
        which stays within (T + 10) eps / 2 of the bound; the factor 2
        on the limit covers the rounding of the count.  Every value a
        step computes then stays finite: the largest, before the divide
        by tau, is at most max(tau, 1) (L S + c)."""
        h, T = self.hyper, self.total_units
        half = DIVERGENCE_LIMIT / 2
        rho = (T + 10) * np.finfo(float).eps
        with np.errstate(over="ignore", invalid="ignore"):
            m, w = (np.add.reduce(np.abs(A), 1).max() for A in (self.M, self.W))
            c = (1 + rho) * np.abs(self.b).max() / h.tau
            L = (1 + rho) * max(1 + h.zeta + m, 1 + w) / h.tau
            a = (1 + rho) * (1 + h.dt * L)
            q = float(h.dt * c / (a - 1))
            top = max(h.tau, 1.0) * (L * half + c)
        if not (np.isfinite(m + w + c) and top < np.finfo(float).max / 2):
            return lambda X: 0
        log_a = math.log(a)

        def steps(X):
            S = float(np.abs(X).max()) + q
            if not S < half:
                return 0
            # a zero state without bias stays zero
            return int(min(math.log(half / S) / log_a, max_steps)) if S else max_steps

        return steps

    def run_fast_to_equilibrium(self, tol: float = 1e-6,
                                max_steps: int = 100000) -> Relaxation:
        """relax on the net's own state, as one row, under the net's
        clamp; raises IntegrationDivergenceError at the first step past
        the divergence limit."""
        out = self.relax(self.s.reshape(2, 1, -1), tol, max_steps, self.clamped)
        if out.diverged[0]:
            raise IntegrationDivergenceError(self.steps_taken)
        return out


def _past_limit(s):
    """Per-run mask of the runs of s, the rows of a (B, n) array or of a
    (2, B, T) batch, B >= 0, that hold a magnitude past DIVERGENCE_LIMIT
    or a NaN."""
    # a NaN fails the comparisons too; the whole-array check is the cheap
    # common case, and max and min make it without a temporary array;
    # the ufunc reductions skip the ndarray.max and min wrappers
    if (np.maximum.reduce(s, None, initial=0.0) <= DIVERGENCE_LIMIT
            and np.minimum.reduce(s, None, initial=0.0) >= -DIVERGENCE_LIMIT):
        return np.zeros(s.shape[-2], dtype=bool)
    return ~np.all(np.abs(s) <= DIVERGENCE_LIMIT, axis=1 if s.ndim == 2 else (0, 2))


def _witnesses(a):
    """Flat index, into a C-contiguous (2, B, T) batch, of the largest
    entry of each run of a, the batch's |d|; E entries win ties."""
    B, T = a.shape[1:]
    at = np.arange(B)
    e, v = a[0].argmax(1), a[1].argmax(1)
    return np.where(a[1, at, v] > a[0, at, e], (B + at) * T + v, at * T + e)


def build_network(sizes, edges, activation: Activation, hyper: Hyperparams,
                  *, tie_weights: bool = False,
                  init_scale: float = 0.01, seed=0) -> Network:
    """Network of the given sizes and edges with random weights: each
    edge's M, then its W, drawn in edge order from a normal of standard
    deviation init_scale / sqrt(src size); a tied W is M transposed, the
    entries outside the mask (a self-edge's diagonal) are zero and b
    starts at zero."""
    if not 0.0 <= _real("init_scale", init_scale) < math.inf:
        raise ConstructionError("init_scale must be finite and >= 0")
    net = Network(sizes, edges, activation, hyper, tied=tie_weights)
    rng = np.random.default_rng(seed)
    for _, _, M, W, _, mask in net.edge_blocks():
        std = init_scale / np.sqrt(M.shape[1])
        M[...] = rng.normal(0.0, std, size=M.shape)
        W[...] = M.T if tie_weights else rng.normal(0.0, std, size=W.shape)
        # assigned, not multiplied by the mask, which would leave -0
        M[mask == 0.0] = 0.0
        W[mask.T == 0.0] = 0.0
    return net


def build_loop(sizes, activation: Activation, hyper: Hyperparams,
               *, tie_weights: bool = False,
               init_scale: float = 0.01, seed=0) -> Network:
    """Ring of one or more populations where population i+1 predicts
    population i (cyclically), so predictions flow one way and errors the
    other; a ring of one is a single population predicting itself."""
    L = len(sizes)
    return build_network(sizes, [((i + 1) % L, i) for i in range(L)], activation, hyper,
                         tie_weights=tie_weights, init_scale=init_scale, seed=seed)
