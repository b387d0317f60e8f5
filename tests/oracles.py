"""Reference helpers shared by the tests: per-edge views of a net's global
weights, clamping a single population, and the algebraic-error step."""

import numpy as np

from pchn import IntegrationDivergenceError
from pchn.network import DIVERGENCE_LIMIT


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
        net.V += h.dt * net.rhs(net.E, net.V)[1]
    np.copyto(net.V, net.clamp_target, where=net.clamped)
    net.steps_taken += 1
    if not np.all(np.abs(net.s) <= DIVERGENCE_LIMIT):
        raise IntegrationDivergenceError(net.steps_taken)
