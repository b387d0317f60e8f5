"""Reference helpers shared by the tests: clamping a single population,
the algebraic-error step, a central-difference Jacobian, MINPACK's root
polish, the mean squared prediction error, the distance between two
single states, a table of distances between states and targets, the
fast equations' textbook products on columns, a recall study that takes
its distances one sample at a time, a count of rhs evaluations, and
Network.relax as a loop that checks every run at every step."""

import numpy as np

from pchn import ConstructionError, IntegrationDivergenceError
from pchn.experiments import EUCLIDEAN, HAMMING, Trace, metric_for, sign_pm1
from pchn.network import DIVERGENCE_LIMIT, Relaxation, _past_limit
from pchn.stability import _check_frozen, _sup, jacobian_analytic


def clamp_population(net, i, target):
    """Pin the values of population i to target; the others stay free."""
    rows = net.slices[i]
    net.clamp_target[rows] = target
    net.clamped[rows] = True
    net.V[rows] = target


def algebraic_step(net):
    """One fast step whose error nodes are not integrated: they are set
    to their instantaneous equilibrium (V - mu)/zeta before the value
    update, which turns the value dynamics into gradient descent on the
    energy when the weights are tied."""
    h = net.hyper
    with np.errstate(over="ignore", invalid="ignore"):
        net.E[:] = (net.V - net.predict(net.V)) / h.zeta
        net.V += h.dt * net.fast_rhs_flat(net.s)[net.total_units:]
    np.copyto(net.V, net.clamp_target, where=net.clamped)
    net.steps_taken += 1
    if not np.all(np.abs(net.s) <= DIVERGENCE_LIMIT):
        raise IntegrationDivergenceError(net.steps_taken)


def jacobian_fd(net, state, h: float = 1e-5):
    """Central-difference Jacobian of the fast RHS at a packed state,
    for cross-checking the analytic one."""
    _check_frozen(net)
    if not 1e-7 <= h <= 1e-3:
        raise ConstructionError("finite-difference h must lie in [1e-7, 1e-3]")
    state = np.asarray(state, dtype=float)
    n = state.size
    net.fast_rhs_flat(state)   # validates the length
    J = np.empty((n, n))
    for j in range(n):
        hi = state.copy()
        lo = state.copy()
        hi[j] += h
        lo[j] -= h
        col = (net.fast_rhs_flat(hi) - net.fast_rhs_flat(lo)) / (2.0 * h)
        if not np.all(np.isfinite(col)):
            raise IntegrationDivergenceError(0, "non-finite RHS during FD probe")
        J[:, j] = col
    return J


def minpack_polish(net, s):
    """Root-polish the full 2T fast RHS from s with MINPACK's hybrj
    dogleg trust region; returns (state, residual), or the starting state
    if the solver wanders somewhere non-finite.  The reference for
    stability's reduced T-dimensional polish."""
    import scipy.optimize
    sol = scipy.optimize.root(net.fast_rhs_flat, s,
                              jac=lambda x: jacobian_analytic(net, x),
                              method="hybr", options={"xtol": 1e-14})
    if not np.all(np.isfinite(sol.x)):
        return s, _sup(net.fast_rhs_flat(s))
    return sol.x, _sup(net.fast_rhs_flat(sol.x))


def prediction_mse(net, targets) -> float:
    """Mean squared prediction error over the (N, T) targets with the
    current weights: every unit of every target against its prediction
    from that target.  Network state is not touched."""
    V = np.asarray(targets, dtype=float)
    diff = V - [net.predict(v) for v in V]
    return float(np.sum(diff * diff)) / diff.size


def distance(a, b, metric: str) -> float:
    """Distance between two states: Euclidean, or Hamming as the count
    of sign mismatches with sign(0) = +1."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ConstructionError(f"shape mismatch {a.shape} vs {b.shape}")
    if metric == EUCLIDEAN:
        return float(np.linalg.norm(a - b))
    if metric == HAMMING:
        return float(np.sum(sign_pm1(a) != sign_pm1(b)))
    raise ConstructionError(f"unknown metric {metric!r}")


def distance_table(V, P, metric: str):
    """(runs, targets) distances between the rows of V (runs, T) and the
    rows of P (targets, T): np.linalg.norm(diff, axis=-1) of a (runs,
    targets, T) difference, or Hamming's count of sign mismatches."""
    if metric == HAMMING:
        return np.sum(sign_pm1(V)[:, None] != P, axis=-1)
    return np.linalg.norm(V[:, None] - P, axis=-1)


def textbook_rhs(net, E, V):
    """(dE, dV) at the C-ordered (T, B) columns E and V, with the
    textbook products M @ sigma(V) and W @ E."""
    h, act = net.hyper, net.activation
    dE = (V - (net.M @ act.apply(V) + net.b[:, None]) - h.zeta * E) / h.tau
    dV = (-E + act.derivative(V) * (net.W @ E)) / h.tau
    return dE, dV


def textbook_euler(net, S):
    """One Euler step of the (2, B, T) rows S, taken with textbook_rhs
    on a C-ordered copy of their columns."""
    dE, dV = textbook_rhs(net, S[0].T.copy(), S[1].T.copy())
    S[0] += net.hyper.dt * dE.T
    S[1] += net.hyper.dt * dV.T


def relaxation_study_sampled(net, targets, starts, *, horizon=20.0, sample_every=0.05,
                             step=None):
    """experiments.relaxation_study with one distance_table call per sample,
    straight after the steps that reach it, each through a kernel bound
    for it to the (2, runs, T) batch of rows, or through step(S) when
    given: the reference for the chunked samples."""
    if step is None:
        def step(S):
            net.kernel(S).euler()
    starts = np.asarray(starts, dtype=float)
    n_runs, T = starts.shape[0], net.total_units
    metric, dt = metric_for(targets.kind), net.hyper.dt
    steps = max(1, int(round(horizon / dt)))
    stride = max(1, int(round(sample_every / dt)))
    sampled = np.arange(0, steps + 1, stride)
    if sampled[-1] != steps:
        sampled = np.append(sampled, steps)
    S = np.zeros((2, n_runs, T))
    S[1] = starts
    trace = Trace(metric, sampled * dt,
                  np.zeros((n_runs, sampled.size, targets.n)),
                  np.full(n_runs, sampled.size - 1), np.zeros(n_runs, dtype=bool))

    def sample(i):
        live = ~trace.diverged
        np.copyto(trace.dist[:, i], distance_table(S[1], targets.patterns, metric),
                  where=live[:, None])
        bad = live & _past_limit(S[1])
        if bad.any():
            trace.dist[bad, i] = trace.dist[bad, i - 1] if i else 0.0
            trace.end[bad] = i
            trace.diverged[bad] = True
            S[:, bad] = 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        sample(0)
        for i in range(1, sampled.size):
            for _ in range(sampled[i] - sampled[i - 1]):
                step(S)
            sample(i)
    return trace


def counting_rhs(net):
    """A list that gains one entry per rhs evaluation of the kernels net
    binds from now on."""
    calls, bind = [], net.kernel

    def kernel(s):
        bound = bind(s)
        return bound._replace(rhs=lambda: calls.append(1) or bound.rhs())

    net.kernel = kernel
    return calls


def relax_per_step(net, s, tol, max_steps):
    """Network.relax with every stop check taken at every step: the
    divergence check of the states and the derivative sup-norms of all
    live runs after each step.  The reference for relax's bound and
    witnesses."""
    kernel, n = net.kernel(s), s.shape[1]
    out = Relaxation(np.full(n, max_steps), np.zeros(n, dtype=bool),
                     np.zeros(n), np.zeros(n, dtype=bool))
    clamped = net.clamped if net.clamped.any() else None
    X, a, live = s, np.empty_like(s), np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        d = kernel.rhs()
        r = net._sup_norm(d, clamped, a)
        for k in range(1, max_steps + 1):
            if live.size == 0:
                break
            kernel.euler(d)
            if clamped is not None:
                np.copyto(X[1], net.clamp_target, where=clamped)
            bad = _past_limit(X)
            d = kernel.rhs()
            r = net._sup_norm(d, clamped, a)
            done = bad | (r < tol)
            if not done.any():
                continue
            ended = live[done]
            out.steps[ended], out.residual[ended] = k, r[done]
            out.diverged[ended], out.converged[ended] = bad[done], ~bad[done]
            if X is not s:
                s[:, ended] = X[:, done]
            keep = ~done
            live, r = live[keep], r[keep]
            X, d = np.compress(keep, X, 1), np.compress(keep, d, 1)
            a = a[:, :live.size]
            kernel = net.kernel(X)
    out.residual[live] = r
    if live.size and X is not s:
        s[:, live] = X
    net.steps_taken += int(out.steps.sum())
    return out
