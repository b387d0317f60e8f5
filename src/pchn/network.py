"""Recurrent predictive-coding network core.

A network is a set of value populations joined by directed connections.
Every population is predicted by exactly one other population (possibly
itself) through prediction weights M and a bias b; errors travel back
along the same edge through correction weights W.

All T units share one packed fast state s of shape (2T,): the errors
E = s[:T], then the values V = s[T:], each in population order.  The
connections are blocks of one global T x T prediction matrix M (dst rows,
src columns), one T x T correction matrix W (src rows, dst columns) and
one length-T bias b.  A fixed 0/1 `mask` marks the entries of M that
belong to a connection; the diagonal of a self-edge block is excluded,
so no unit predicts itself.  The fast dynamics are then one recurrent
system, Euler-integrated with step dt:

    tau_e * dE/dt = V - (M @ sigma(V) + b) - zeta * E
    tau_v * dV/dt = -E + sigma'(V) * (W @ E)

and learning is one local outer-product rule restricted to the mask (see
step_slow).  Populations and connections are views into these arrays.
Linearization lives in stability.py, the training loop in learning.py.

Network.euler is the one Euler update, on a packed state (2T,) or on B
states side by side as the columns of a (2T, B) array, and
Network.relax the one loop that steps such states until each settles
(the derivative sup-norm under a tolerance) or diverges.
run_fast_to_equilibrium relaxes the net's own state, the stability
analysis relaxes all its targets as one batch, and the studies step
their runs through euler.

Clamped units have V pinned to their clamp target after every step
while E keeps evolving, which is how training drives weight updates.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .activations import Activation
from .errors import ConstructionError, ContractViolationError, IntegrationDivergenceError

# state magnitudes beyond this are treated the same as inf/nan
DIVERGENCE_LIMIT = 1e100


@dataclass(frozen=True)
class Hyperparams:
    """Time constants and integration step.

    tau governs the fast (state) equations, gamma the slow (weight)
    equations; learning slower than inference means tau < gamma.  zeta
    is the leak on the error nodes.  tau_error and tau_value override
    tau for the error and value equations.
    """

    tau: float = 1.0
    gamma: float = 100.0
    zeta: float = 1.0
    dt: float = 0.005
    tau_error: Optional[float] = None
    tau_value: Optional[float] = None

    def __post_init__(self):
        for name in ("tau", "gamma", "zeta", "dt"):
            if not getattr(self, name) > 0.0:
                raise ConstructionError(f"{name} must be positive")
        for name in ("tau_error", "tau_value"):
            val = getattr(self, name)
            if val is not None and not val > 0.0:
                raise ConstructionError(f"{name} must be positive when given")
        if not self.tau < self.gamma:
            raise ConstructionError("need tau < gamma (inference faster than learning)")
        if not (self.dt < self.tau_e / 2.0 and self.dt < self.tau_v / 2.0):
            raise ConstructionError("need dt < tau_e/2 and dt < tau_v/2 for a stable Euler step")
        if not self.dt * self.zeta / self.tau_e < 2.0:
            raise ConstructionError("need dt*zeta/tau_e < 2 for a stable Euler step "
                                    "of the error leak")

    @property
    def tau_e(self) -> float:
        return self.tau_error if self.tau_error is not None else self.tau

    @property
    def tau_v(self) -> float:
        return self.tau_value if self.tau_value is not None else self.tau


def _in_place(name):
    """Attribute whose assignment writes into the array it holds, so an
    attribute bound to a view of a network's arrays stays that view."""
    def set_(self, x):
        getattr(self, name)[...] = x
    return property(lambda self: getattr(self, name), set_)


def _vector(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ConstructionError(f"vector length {x.shape} != ({n},)")
    return x


class Population:
    """One group of value units plus their error units.  The network it
    joins sets `slice`, its place in E and V, and makes v, eps and the
    clamp views into the network's arrays."""

    v = _in_place("_v")
    eps = _in_place("_eps")

    def __init__(self, size: int):
        if size < 1:
            raise ConstructionError("population size must be >= 1")
        self.size = size

    @property
    def clamped(self) -> bool:
        return bool(self._clamped.all())

    def clamp(self, target):
        self._target[...] = _vector(target, self.size)
        self._clamped[...] = True
        self._v[...] = self._target

    def unclamp(self):
        self._clamped[...] = False


class Connection:
    """Directed edge src -> dst: src predicts dst through M and b,
    dst's errors feed back to src through W.  Inside a network M, W and
    b are views into the global blocks."""

    M = _in_place("_M")
    W = _in_place("_W")
    b = _in_place("_b")

    def __init__(self, src: int, dst: int, M, W, b):
        self.src = src
        self.dst = dst
        self._M = np.asarray(M, dtype=float)
        self._W = np.asarray(W, dtype=float)
        self._b = np.asarray(b, dtype=float)


@dataclass
class EquilibriumResult:
    steps: int
    converged: bool
    residual: float


@dataclass
class Relaxation:
    """Per-column outcome of Network.relax: the steps each column took,
    whether it settled under tol or passed the divergence limit at its
    last step, and its derivative sup-norm there."""
    steps: np.ndarray
    converged: np.ndarray
    residual: np.ndarray
    diverged: np.ndarray


class Network:
    def __init__(self, populations, connections, activation: Activation,
                 hyper: Hyperparams, tied: bool = False):
        if not populations:
            raise ConstructionError("need at least one population")
        self.populations = list(populations)
        self.connections = list(connections)
        self.activation = activation
        self.hyper = hyper
        self.tied = tied
        self.weights_frozen = False
        self.steps_taken = 0
        self._work = {}

        at = 0
        for p in self.populations:
            p.slice = slice(at, at + p.size)
            at += p.size
        T = self.total_units = at
        self.s = np.zeros(2 * T)
        self.E, self.V = self.s[:T], self.s[T:]
        self.clamped = np.zeros(T, dtype=bool)
        self.clamp_target = np.zeros(T)
        self.M, self.W, self.b = np.zeros((T, T)), np.zeros((T, T)), np.zeros(T)
        self.mask = np.zeros((T, T))

        n_pop = len(self.populations)
        has_incoming = [False] * n_pop
        for c in self.connections:
            if not (0 <= c.src < n_pop and 0 <= c.dst < n_pop):
                raise ConstructionError("connection endpoint out of range")
            if has_incoming[c.dst]:
                raise ConstructionError(
                    f"population {c.dst} has more than one incoming connection")
            has_incoming[c.dst] = True
            src, dst = self.populations[c.src], self.populations[c.dst]
            ns, nd = src.size, dst.size
            if c.M.shape != (nd, ns):
                raise ConstructionError(f"M shape {c.M.shape} != ({nd}, {ns})")
            if c.W.shape != (ns, nd):
                raise ConstructionError(f"W shape {c.W.shape} != ({ns}, {nd})")
            if c.b.shape != (nd,):
                raise ConstructionError(f"b shape {c.b.shape} != ({nd},)")
            block = self.mask[dst.slice, src.slice]
            block[...] = 1.0
            if c.src == c.dst:
                np.fill_diagonal(block, 0.0)
            self.M[dst.slice, src.slice] = c.M
            self.W[src.slice, dst.slice] = c.W
            self.b[dst.slice] = c.b
            c._M = self.M[dst.slice, src.slice]
            c._W = self.W[src.slice, dst.slice]
            c._b = self.b[dst.slice]
        for i, ok in enumerate(has_incoming):
            if not ok:
                raise ConstructionError(f"population {i} has no incoming connection")
        for p in self.populations:
            p._eps, p._v = self.E[p.slice], self.V[p.slice]
            p._clamped, p._target = self.clamped[p.slice], self.clamp_target[p.slice]

    # ---- state ----

    def values_vector(self):
        """All value nodes in population order."""
        return self.V.copy()

    def set_values(self, x):
        self.V[:] = _vector(x, self.total_units)

    def fast_state(self):
        """Packed fast state: every eps in population order, then every v."""
        return self.s.copy()

    def set_fast_state(self, s):
        self.s[:] = _vector(s, 2 * self.total_units)

    def clamp_all(self, target):
        self.clamp_target[:] = _vector(target, self.total_units)
        self.clamped[:] = True
        self.V[:] = self.clamp_target

    def unclamp_all(self):
        self.clamped[:] = False

    # ---- dynamics ----

    def predict(self, V):
        """Predictions M sigma(V) + b of every value unit; V is (T,) or
        (T, B) for B runs sharing the weights."""
        b = self.b if V.ndim == 1 else self.b[:, None]
        return self.M @ self.activation.apply(V) + b

    def rhs(self, E, V, out=None):
        """Time derivatives (dE, dV) of the fast equations at errors E and
        values V, each (T,) or (T, B), ignoring clamps.  Pure function of
        the arguments; network state is not touched.  out, when given, is
        three arrays shaped like V: scratch, then the dE and dV returned.
        Either way the operations and their order are the same, so the
        result is the same bit for bit."""
        h, act = self.hyper, self.activation
        a, dE, dV = out if out is not None else [np.empty_like(V) for _ in range(3)]
        # dE = (V - (M @ sigma(V) + b) - zeta * E) / tau_e
        np.matmul(self.M, act.apply(V, out=a), out=dE)
        dE += self.b if V.ndim == 1 else self.b[:, None]
        np.subtract(V, dE, out=dE)
        dE -= np.multiply(E, h.zeta, out=dV)
        dE /= h.tau_e
        # dV = (-E + sigma'(V) * (W @ E)) / tau_v
        np.matmul(self.W, E, out=dV)
        dV *= act.derivative(V, out=a, sigma=a)
        dV -= E
        dV /= h.tau_v
        return dE, dV

    def euler(self, s, derivatives=None):
        """One Euler step of the unclamped fast equations, in place, on a
        packed state s of shape (2T,) or (2T, B).  derivatives, when
        given, is rhs at s, already evaluated; otherwise rhs is evaluated
        into a workspace the net keeps per state shape, so a step
        allocates nothing."""
        T, dt = self.total_units, self.hyper.dt
        E, V = s[:T], s[T:]
        if derivatives is None:
            dE, dV = self.rhs(E, V, out=self._workspace(V.shape))
            dE *= dt
            dV *= dt
        else:
            dE, dV = dt * derivatives[0], dt * derivatives[1]
        E += dE
        V += dV

    def _workspace(self, shape):
        work = self._work.get(shape)
        if work is None:
            work = self._work[shape] = [np.empty(shape) for _ in range(3)]
        return work

    def fast_rhs_flat(self, s):
        """RHS of the fast equations at packed state s, ignoring clamps.
        Used by linearization and solvers."""
        s = _vector(s, 2 * self.total_units)
        return np.concatenate(self.rhs(s[:self.total_units], s[self.total_units:]))

    def step_fast(self, algebraic_errors: bool = False):
        """One Euler step of the fast equations.

        With algebraic_errors=True the error nodes are not integrated;
        they are set to their instantaneous equilibrium (v - mu)/zeta
        before the value update, which turns the value dynamics into
        gradient descent on the energy when weights are tied.
        """
        h = self.hyper
        with np.errstate(over="ignore", invalid="ignore"):
            if algebraic_errors:
                self.E[:] = (self.V - self.predict(self.V)) / h.zeta
                self.V += h.dt * self.rhs(self.E, self.V)[1]
            else:
                self.euler(self.s)
        np.copyto(self.V, self.clamp_target, where=self.clamped)
        self.steps_taken += 1
        self._check_finite()

    def _check_finite(self):
        if _past_limit(self.s)[0]:
            raise IntegrationDivergenceError(self.steps_taken)

    def step_slow(self, errors=None):
        """One Euler step of the weight equations from the current state.

        Local rule: every update is post-synaptic error times pre-synaptic
        activity, restricted to the connection blocks by the mask.  With
        errors given, that length-T vector stands in for E: the sum of the
        errors of K steps at fixed values makes the update of all K steps.
        """
        if self.weights_frozen:
            raise ContractViolationError("weights are frozen")
        e = self.E if errors is None else errors
        rate = self.hyper.dt / self.hyper.gamma
        dM = (rate * np.outer(e, self.activation.apply(self.V))) * self.mask
        self.M += dM
        if self.tied:
            self.W[...] = self.M.T
        else:
            self.W += dM.T
        self.b += rate * e

    def energy(self, errors=None) -> float:
        """Total error energy (zeta/2) * ||E||^2, of the current errors or
        of the given length-T error vector."""
        e = self.E if errors is None else errors
        return 0.5 * self.hyper.zeta * float(np.dot(e, e))

    def residual(self) -> float:
        """Sup-norm of the fast-state time derivative, skipping the value
        equations of clamped units."""
        return float(self._sup_norm(*self.rhs(self.E, self.V)))

    def _sup_norm(self, dE, dV):
        """Sup-norm per column (a scalar for (T,) derivatives), skipping
        the value rows of clamped units."""
        # |dE|, |dV| as the rows of one (B, 2T) array, whose contiguous
        # rows reduce far faster than the columns of a (2T, B) one; a
        # clamped row counts as 0, which never raises the max
        T = self.total_units
        a = np.empty(dE.shape[1:] + (2 * T,))
        np.abs(dE.T, out=a[..., :T])
        np.abs(dV.T, out=a[..., T:])
        a[..., T:][..., self.clamped] = 0.0
        return a.max(axis=-1)

    def relax(self, s, tol: float, max_steps: int) -> "Relaxation":
        """Step the fast equations on a packed state s of shape (2T,) or
        (2T, B), in place, column by column until its derivative sup-norm
        drops under tol, until it passes the divergence limit, or until
        the step budget runs out.

        A column that settles or diverges is frozen at that step and
        dropped from the batch, while the others go on.  Clamps hold
        every column, and steps_taken advances by the steps all columns
        took.  The RHS is evaluated once per step: the derivatives behind
        each residual drive the next step.  A (2T,) state is stepped as
        one vector, so its products are the (T, T) @ (T,) ones of
        step_fast.
        """
        T = self.total_units
        n = 1 if s.ndim == 1 else s.shape[1]
        out = Relaxation(np.full(n, max_steps), np.zeros(n, dtype=bool),
                         np.zeros(n), np.zeros(n, dtype=bool))
        pinned = self.clamped if s.ndim == 1 else self.clamped[:, None]
        target = self.clamp_target if s.ndim == 1 else self.clamp_target[:, None]
        live, X = np.arange(n), s
        with np.errstate(over="ignore", invalid="ignore"):
            d = self.rhs(X[:T], X[T:])
            r = np.atleast_1d(self._sup_norm(*d))
            for k in range(1, max_steps + 1):
                self.euler(X, d)
                np.copyto(X[T:], target, where=pinned)
                bad = _past_limit(X)
                d = self.rhs(X[:T], X[T:])
                r = np.atleast_1d(self._sup_norm(*d))
                done = bad | (r < tol)
                if not done.any():
                    continue
                cols = live[done]
                out.steps[cols], out.residual[cols] = k, r[done]
                out.diverged[cols], out.converged[cols] = bad[done], ~bad[done]
                if X is not s:
                    s[:, cols] = X[:, done]
                live, r = live[~done], r[~done]
                if live.size == 0:
                    break
                X = X[:, ~done]
                d = (d[0][:, ~done], d[1][:, ~done])
        out.residual[live] = r
        if live.size and X is not s:
            s[:, live] = X
        self.steps_taken += int(out.steps.sum())
        return out

    def run_fast_to_equilibrium(self, tol: float = 1e-6,
                                max_steps: int = 100000) -> EquilibriumResult:
        """relax on the net's own state; raises IntegrationDivergenceError
        at the first step past the divergence limit."""
        out = self.relax(self.s, tol, max_steps)
        if out.diverged[0]:
            raise IntegrationDivergenceError(self.steps_taken)
        return EquilibriumResult(int(out.steps[0]), bool(out.converged[0]),
                                 float(out.residual[0]))


def _past_limit(s):
    """Per-column mask of the packed states s, (2T,) or (2T, B), with a
    magnitude past DIVERGENCE_LIMIT or a NaN."""
    # a NaN fails the comparison too; the whole-array check is the cheap
    # common case
    if np.abs(s).max() <= DIVERGENCE_LIMIT:
        return np.zeros(s.shape[1:] or 1, dtype=bool)
    return ~np.atleast_1d(np.all(np.abs(s) <= DIVERGENCE_LIMIT, axis=0))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _init_connection(src, dst, n_src, n_dst, rng, init_scale, tied):
    std = init_scale / np.sqrt(n_src)
    M = rng.normal(0.0, std, size=(n_dst, n_src))
    W = M.T.copy() if tied else rng.normal(0.0, std, size=(n_src, n_dst))
    if src == dst:
        np.fill_diagonal(M, 0.0)
        np.fill_diagonal(W, 0.0)
    return Connection(src, dst, M, W, np.zeros(n_dst))


def build_single_population(n: int, activation: Activation, hyper: Hyperparams,
                            *, tie_weights: bool = False,
                            init_scale: float = 0.01, seed=0) -> Network:
    """Single population predicting itself through a self connection
    (diagonal held at zero so no unit predicts itself)."""
    rng = _as_rng(seed)
    conn = _init_connection(0, 0, n, n, rng, init_scale, tie_weights)
    return Network([Population(n)], [conn], activation, hyper, tied=tie_weights)


def build_loop(sizes, activation: Activation, hyper: Hyperparams,
               *, tie_weights: bool = False,
               init_scale: float = 0.01, seed=0) -> Network:
    """Ring of populations where population i+1 predicts population i
    (cyclically), so predictions flow one way and errors the other."""
    if len(sizes) < 2:
        raise ConstructionError("a loop needs at least two populations")
    rng = _as_rng(seed)
    pops = [Population(int(n)) for n in sizes]
    L = len(pops)
    conns = [_init_connection((i + 1) % L, i, pops[(i + 1) % L].size, pops[i].size,
                              rng, init_scale, tie_weights) for i in range(L)]
    return Network(pops, conns, activation, hyper, tied=tie_weights)
