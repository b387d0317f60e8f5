"""Property tests over random small architectures.

Each example draws a Custom network (1-4 populations of 1-6 units, every
population predicted by one randomly chosen population, possibly itself),
an activation, tied or untied weights, and a random state.  The packed,
masked kernel must agree with the per-connection oracle in test_network,
the analytic Jacobian with central differences, and learning must never
write outside the connection mask.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pchn import Activation, Hyperparams, freeze, jacobian_analytic, jacobian_fd
from pchn.network import Connection, Network, Population

from test_network import rhs_oracle

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def networks(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n = len(sizes)
    srcs = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    activation = draw(st.sampled_from(list(Activation)))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conns = []
    for dst, src in enumerate(srcs):
        M = rng.normal(size=(sizes[dst], sizes[src]))
        W = M.T.copy() if tied else rng.normal(size=(sizes[src], sizes[dst]))
        if src == dst:
            np.fill_diagonal(M, 0.0)
            np.fill_diagonal(W, 0.0)
        conns.append(Connection(src, dst, M, W, rng.normal(size=sizes[dst])))
    net = Network([Population(k) for k in sizes], conns, activation,
                  Hyperparams(), tied=tied)
    T = net.total_units
    # values kept at least 0.1 away from the ReLU kink so central
    # differences with h = 1e-5 never straddle it
    v = rng.normal(size=T)
    net.V[:] = np.sign(v) * (0.1 + np.abs(v))
    net.E[:] = rng.normal(size=T)
    return net


@SETTINGS
@given(networks())
def test_flat_rhs_matches_per_connection_oracle(net):
    dv_o, de_o = rhs_oracle(net)
    dE, dV = net.rhs(net.E, net.V)
    for i, p in enumerate(net.populations):
        np.testing.assert_allclose(dE[p.slice], de_o[i], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dV[p.slice], dv_o[i], rtol=0, atol=1e-12)


@SETTINGS
@given(networks())
def test_jacobian_matches_central_differences(net):
    freeze(net)
    s = net.fast_state()
    J = jacobian_analytic(net, s)
    np.testing.assert_allclose(J, jacobian_fd(net, s, h=1e-5), rtol=0, atol=1e-6)


@SETTINGS
@given(networks())
def test_learning_stays_inside_the_mask(net):
    for _ in range(3):
        net.step_slow()
    assert np.all(net.M[net.mask == 0.0] == 0.0)
    assert np.all(net.W[net.mask.T == 0.0] == 0.0)
    for c in net.connections:
        if c.src == c.dst:
            assert np.all(np.diag(c.M) == 0.0) and np.all(np.diag(c.W) == 0.0)
    if net.tied:
        np.testing.assert_array_equal(net.W, net.M.T)
