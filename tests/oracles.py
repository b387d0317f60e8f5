"""Reference helpers shared by the tests: per-edge views of a net's global
weights, clamping a single population, the algebraic-error step, a
central-difference Jacobian, MINPACK's root polish, the mean squared
prediction error, and the distance between two single states."""

import numpy as np

from pchn import ConstructionError, IntegrationDivergenceError
from pchn.experiments import EUCLIDEAN, HAMMING, sign_pm1
from pchn.network import DIVERGENCE_LIMIT
from pchn.stability import _check_frozen, _sup, jacobian_analytic


def edge_blocks(net):
    """(src, dst, M, W, b) of every edge in edge order; M, W and b are
    views of the edge's blocks of the net's global arrays."""
    for src, dst in net.edges:
        rows, cols = net.slices[dst], net.slices[src]
        yield src, dst, net.M[rows, cols], net.W[cols, rows], net.b[rows]


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
        net.V += h.dt * net.rhs(net.s)[net.total_units:]
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
    V = np.asarray(targets, dtype=float).T
    diff = V - net.predict(V)
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
