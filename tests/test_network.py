"""Core dynamics: construction, fast/slow steps, energy, checkpointing.

The fast-step oracle below rebuilds the two update equations directly
from the edge list with plain loops over the edges' weight blocks, so any
vectorization slip in the library shows up as a mismatch.
"""

import re
import warnings

import numpy as np
import pytest

from pchn import (Activation, ConstructionError, ContractViolationError,
                  Hyperparams, IntegrationDivergenceError, build_loop, freeze)
from pchn.checkpoint import load_weights, save_weights
from pchn import checkpoint, network
from pchn.network import Network, build_network

from oracles import (algebraic_step, clamp_population, counting_rhs, relax_per_step,
                     textbook_rhs)


def _hyper(**kw):
    base = dict(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005)
    base.update(kw)
    return Hyperparams(**base)


def rhs_oracle(net):
    """Straight-line transcription of the two fast equations, one
    population and one edge at a time."""
    zeta, tau = net.hyper.zeta, net.hyper.tau
    v = [net.V[rows] for rows in net.slices]
    eps = [net.E[rows] for rows in net.slices]
    mus = [None] * len(net.slices)
    for src, dst, M, _, b, _ in net.edge_blocks():
        mus[dst] = M @ net.activation.apply(v[src]) + b
    dv, de = [], []
    for i in range(len(net.slices)):
        de.append((v[i] - mus[i] - zeta * eps[i]) / tau)
        corr = np.zeros(v[i].size)
        for src, dst, _, W, _, _ in net.edge_blocks():
            if src == i:
                corr += W @ eps[dst]
        dv.append((-eps[i] + net.activation.derivative(v[i]) * corr) / tau)
    return dv, de


def _plain_net(activation, tau=0.7, zeta=0.9, sizes=(4, 3)):
    """A two-population loop with unit-scale weights and a random bias,
    for the bitwise kernel checks; tau and zeta away from 1 unless
    given.  At sizes (30, 20) the row products against a C-contiguous
    transpose round differently from the C-ordered M @ sigma(V)."""
    net = build_loop(list(sizes), activation, _hyper(zeta=zeta, tau=tau),
                     init_scale=1.0, seed=23)
    net.b[:] = np.random.default_rng(24).normal(size=net.total_units)
    return net


def _plain_rhs(net, x):
    """(dE, dV) at the states x, E then V: a (2, T) state or a (2, B, T)
    batch of rows, as the fast equations' plain numpy expressions.  The
    products are taken on the rows against C-contiguous copies of the
    transposed weights, as the kernel takes them."""
    h, activation = net.hyper, net.activation
    E, V = x
    if activation is Activation.TANH:
        sig, gain = np.tanh(V), 1.0 - np.tanh(V) * np.tanh(V)
    elif activation is Activation.RELU:
        sig, gain = np.maximum(V, 0.0), np.where(V > 0.0, 1.0, 0.0)
    else:
        sig, gain = V, np.ones_like(V)
    dE = (V - (sig @ net.M.T.copy() + net.b) - h.zeta * E) / h.tau
    dV = (-E + gain * (E @ net.W.T.copy())) / h.tau
    return dE, dV


def _rows(s):
    """A copy of the (2T, B) batch s as C-contiguous (2, B, T) rows, E
    rows then V rows, the layout the kernel takes."""
    return s.reshape(2, s.shape[0] // 2, -1).transpose(0, 2, 1).copy()


def _columns(x):
    """The (2T, B) batch of the (2, B, T) rows x."""
    return x.transpose(0, 2, 1).reshape(-1, x.shape[1])


def _plain_step(net, x):
    """x + dt * rhs(x) in plain expressions: the state euler must reach."""
    return x + net.hyper.dt * np.stack(_plain_rhs(net, x))


class TestConstruction:
    def test_single_population_shapes(self):
        net = build_loop([10], Activation.TANH, _hyper(), seed=0)
        assert net.total_units == 10
        assert net.edges == [(0, 0)]
        assert net.slices == [slice(0, 10)]
        assert net.M.shape == (10, 10) and net.W.shape == (10, 10)
        np.testing.assert_array_equal(np.diag(net.M), 0.0)
        np.testing.assert_array_equal(np.diag(net.W), 0.0)

    def test_loop_shapes(self):
        net = build_loop([5, 3, 2], Activation.RELU, _hyper(), seed=1)
        assert net.total_units == 10
        assert set(net.edges) == {(1, 0), (2, 1), (0, 2)}
        assert net.slices == [slice(0, 5), slice(5, 8), slice(8, 10)]
        for src, dst, M, W, b, _ in net.edge_blocks():
            n_src = net.slices[src].stop - net.slices[src].start
            n_dst = net.slices[dst].stop - net.slices[dst].start
            assert M.shape == (n_dst, n_src)
            assert W.shape == (n_src, n_dst)
        # the builder writes nothing outside the edge blocks
        assert np.all(net.M[net.mask == 0.0] == 0.0)
        assert np.all(net.W[net.mask.T == 0.0] == 0.0)

    def test_init_scale_shrinks_with_size(self):
        a = build_loop([100], Activation.TANH, _hyper(), seed=3)
        big = np.abs(a.M).max()
        assert big < 0.01

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("builder", ["network", "loop", "single"])
    def test_bad_init_scale_rejected(self, builder, scale):
        """A non-finite or negative init_scale is refused, not drawn
        into NaN weights or left to numpy's bare "scale < 0"; zero is a
        net of zero weights."""
        build = {"network": lambda **kw: build_network([3, 2], [(1, 0), (0, 1)],
                                                       Activation.TANH, _hyper(), **kw),
                 "loop": lambda **kw: build_loop([3, 2], Activation.TANH, _hyper(), **kw),
                 "single": lambda **kw: build_loop([5], Activation.TANH,
                                                   _hyper(), **kw)}[builder]
        with pytest.raises(ConstructionError, match="init_scale"):
            build(init_scale=scale)
        net = build(init_scale=0.0)
        for x in (net.M, net.W, net.b):
            np.testing.assert_array_equal(x, 0.0)

    def test_tied_weights_start_transposed(self):
        net = build_loop([8], Activation.TANH, _hyper(), tie_weights=True, seed=4)
        np.testing.assert_array_equal(net.W, net.M.T)

    def test_builder_draws_m_then_w_per_edge_in_edge_order(self):
        """The weight stream that checkpoints written by the CLI rest on:
        one generator from the seed, each edge's M, then its W."""
        net = build_loop([5, 3, 2], Activation.TANH, _hyper(), init_scale=0.3, seed=40)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(40)))
        for _, _, M, W, b, _ in net.edge_blocks():
            n_dst, n_src = M.shape
            std = 0.3 / np.sqrt(n_src)
            np.testing.assert_array_equal(M, rng.normal(0.0, std, size=(n_dst, n_src)))
            np.testing.assert_array_equal(W, rng.normal(0.0, std, size=(n_src, n_dst)))
            np.testing.assert_array_equal(b, 0.0)

    def test_weights_start_at_zero(self):
        net = Network([3, 2], [(1, 0), (0, 1)], Activation.TANH, _hyper())
        for x in (net.M, net.W, net.b):
            np.testing.assert_array_equal(x, 0.0)
        np.testing.assert_array_equal(net.mask[:3, 3:], 1.0)
        np.testing.assert_array_equal(net.mask[3:, :3], 1.0)
        np.testing.assert_array_equal(net.mask[:3, :3], 0.0)
        np.testing.assert_array_equal(net.mask[3:, 3:], 0.0)

    def test_every_population_needs_one_incoming(self):
        with pytest.raises(ConstructionError, match="population 0 has no incoming"):
            Network([3, 3], [(0, 1)], Activation.TANH, _hyper())

    def test_two_incoming_rejected(self):
        with pytest.raises(ConstructionError, match="more than one incoming"):
            Network([2], [(0, 0), (0, 0)], Activation.TANH, _hyper())

    @pytest.mark.parametrize("sizes", [[0], [3, 0], []])
    def test_empty_population_rejected(self, sizes):
        edges = [(i, i) for i in range(len(sizes))]
        with pytest.raises(ConstructionError):
            Network(sizes, edges, Activation.TANH, _hyper())

    @pytest.mark.parametrize("edges", [[(0, 0), (2, 1)], [(0, 0), (1, 2)],
                                       [(0, 0), (-1, 1)], [(0, 0), (1, -1)]])
    def test_edge_endpoint_out_of_range_rejected(self, edges):
        with pytest.raises(ConstructionError, match="out of range"):
            Network([2, 3], edges, Activation.TANH, _hyper())

    @pytest.mark.parametrize("sizes, edges", [([2.5], [(0, 0)]), ([2], [(0.0, 0)])])
    def test_non_integer_size_or_endpoint_rejected(self, sizes, edges):
        with pytest.raises(TypeError):
            Network(sizes, edges, Activation.TANH, _hyper())

    @pytest.mark.parametrize("tied", [False, True])
    def test_loop_of_one_is_the_single_population(self, tied):
        """A ring of one is the self edge (0, 0), with the draws of the
        self edge: M, then W (or M transposed), the diagonals assigned
        +0.0, never -0.0."""
        ring = build_loop([7], Activation.TANH, _hyper(), tie_weights=tied, seed=5)
        other = build_network([7], [(0, 0)], Activation.TANH, _hyper(),
                              tie_weights=tied, seed=5)
        assert ring.edges == other.edges == [(0, 0)]
        for name in ("mask", "M", "W", "b"):
            x, y = getattr(ring, name), getattr(other, name)
            assert x.tobytes() == y.tobytes(), name
        rng = np.random.default_rng(5)
        std = 0.01 / np.sqrt(7)
        M = rng.normal(0.0, std, size=(7, 7))
        W = M.T.copy() if tied else rng.normal(0.0, std, size=(7, 7))
        np.fill_diagonal(M, 0.0)
        np.fill_diagonal(W, 0.0)
        assert ring.M.tobytes() == M.tobytes() and ring.W.tobytes() == W.tobytes()
        assert not np.signbit(np.diag(ring.M)).any()
        np.testing.assert_array_equal(ring.mask, 1.0 - np.eye(7))


class TestHyperparams:
    def test_defaults_valid(self):
        h = Hyperparams()
        assert h.tau < h.gamma
        assert h.dt < h.tau / 2

    def test_rejects_nonpositive(self):
        for kw in (dict(tau=0.0), dict(gamma=-1.0), dict(dt=0.0), dict(zeta=0.0)):
            with pytest.raises(ConstructionError):
                _hyper(**kw)

    def test_rejects_slow_faster_than_fast(self):
        with pytest.raises(ConstructionError):
            _hyper(tau=2.0, gamma=1.0)

    def test_rejects_coarse_step(self):
        with pytest.raises(ConstructionError):
            _hyper(tau=0.01, dt=0.009)

    def test_rejects_euler_unstable_steps(self):
        """dt is checked against tau, and the error leak needs
        dt*zeta/tau < 2; every case below diverges under Euler if
        accepted.  tau = 0.5 checks that both scale with tau."""
        for kw in (dict(tau=0.009), dict(zeta=500.0), dict(tau=0.5, zeta=250.0)):
            with pytest.raises(ConstructionError):
                _hyper(**kw)
        _hyper(tau=0.5, zeta=199.0)


class TestFastStep:
    @pytest.mark.parametrize("act", list(Activation))
    def test_matches_oracle_single(self, act):
        rng = np.random.default_rng(5)
        net = build_loop([9], act, _hyper(), seed=5)
        for rows in net.slices:
            net.V[rows] = rng.normal(size=rows.stop - rows.start)
            net.E[rows] = rng.normal(size=rows.stop - rows.start)
        dv_o, de_o = rhs_oracle(net)
        dE, dV = np.split(net.fast_rhs_flat(net.s), 2)
        for i, rows in enumerate(net.slices):
            np.testing.assert_allclose(dV[rows], dv_o[i], atol=1e-12)
            np.testing.assert_allclose(dE[rows], de_o[i], atol=1e-12)

    def test_matches_oracle_loop(self):
        rng = np.random.default_rng(6)
        net = build_loop([6, 4, 3], Activation.TANH, _hyper(), seed=6)
        for rows in net.slices:
            net.V[rows] = rng.normal(size=rows.stop - rows.start)
            net.E[rows] = rng.normal(size=rows.stop - rows.start)
        dv_o, de_o = rhs_oracle(net)
        dE, dV = np.split(net.fast_rhs_flat(net.s), 2)
        for i, rows in enumerate(net.slices):
            np.testing.assert_allclose(dV[rows], dv_o[i], atol=1e-12)
            np.testing.assert_allclose(dE[rows], de_o[i], atol=1e-12)

    def test_euler_step_applies_derivatives(self):
        rng = np.random.default_rng(7)
        net = build_loop([5], Activation.TANH, _hyper(), seed=7)
        net.V[:] = rng.normal(size=5)
        net.E[:] = rng.normal(size=5)
        dv, de = rhs_oracle(net)
        v0 = net.V.copy()
        e0 = net.E.copy()
        net.step_fast()
        dt = net.hyper.dt
        np.testing.assert_allclose(net.V, v0 + dt * dv[0], atol=1e-14)
        np.testing.assert_allclose(net.E, e0 + dt * de[0], atol=1e-14)

    @staticmethod
    def _check_euler_is_plain(net, runs):
        """A (2T,) state, bound as the (2, 1, T) view through which relax
        steps the net's own state, or a (2T, runs) batch bound as its
        (2, runs, T) rows; the plain expressions take their products on
        the same rows, or on the (2, T) state."""
        n = 2 * net.total_units
        shape = (n,) if runs is None else (n, runs)
        s = np.random.default_rng(25).normal(size=shape)
        x = s.reshape(2, 1, -1) if runs is None else _rows(s)
        want = x.copy()
        kernel = net.kernel(x)
        for _ in range(2):
            plain = np.stack(_plain_rhs(net, want))
            if runs is None:
                state = want.reshape(2, -1)
                np.testing.assert_array_equal(net.fast_rhs_flat(state.ravel()),
                                              np.concatenate(_plain_rhs(net, state)))
            np.testing.assert_array_equal(kernel.rhs(), plain)
            want = _plain_step(net, want)
            kernel.euler()
            np.testing.assert_array_equal(x, want)

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("runs", [None, 1, 7])
    def test_euler_is_bitwise_s_plus_dt_rhs(self, activation, runs):
        """rhs, packed, equals the fast equations written as plain
        expressions, and the in-place step s + dt * rhs(s), bit for bit,
        on a (2T,) state and on batches of rows, into a fresh array and
        into a bound kernel's buffer; a second step reuses that kernel."""
        self._check_euler_is_plain(_plain_net(activation), runs)

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("runs", [None, 1, 7])
    def test_euler_is_bitwise_s_plus_dt_rhs_at_the_defaults(self, activation, runs):
        """The same at tau = zeta = 1, where the kernel skips its unit
        multiply and divide."""
        self._check_euler_is_plain(_plain_net(activation, 1.0, 1.0), runs)

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("runs", [None, 1, 7])
    def test_euler_is_bitwise_s_plus_dt_rhs_on_a_wide_net(self, activation, runs):
        """The same on a T = 50 net, wide enough that the row products
        against a C-contiguous transpose round differently from the
        C-ordered M @ sigma(V); one row rounds as a (T,) vector times
        that transpose does."""
        self._check_euler_is_plain(_plain_net(activation, sizes=(30, 20)), runs)

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("sizes, edges", [([30, 20], [(1, 0), (0, 1)]), ([100], [(0, 0)])],
                             ids=["loop50", "single100"])
    def test_rows_round_within_ulps_of_the_textbook_products(self, activation, sizes,
                                                             edges):
        """On a T = 50 loop and a T = 100 net, the kernel's rhs of a batch
        of rows, whose products run against C-contiguous transposes,
        differs from the textbook M @ sigma(V) and W @ E on C-ordered
        columns, but by no more than 4 ulps of the largest entry."""
        net = build_network(sizes, edges, activation, _hyper(zeta=0.9, tau=0.7),
                            init_scale=1.0, seed=23)
        T = net.total_units
        net.b[:] = np.random.default_rng(24).normal(size=T)
        s = np.random.default_rng(25).normal(size=(2 * T, 7))
        got = net.kernel(_rows(s)).rhs()
        dE, dV = textbook_rhs(net, s[:T], s[T:])
        want = np.stack((dE.T, dV.T))
        assert not np.array_equal(got, want)
        np.testing.assert_array_less(np.abs(got - want), 4 * np.spacing(np.abs(want).max()))

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("write", ["step_slow", "load_weights", "b"])
    def test_weight_writes_between_steps_reach_the_next_step(self, activation, write,
                                                             tmp_path):
        """A kernel copies M.T, W.T and b when it is bound.  step_slow,
        load_weights or a write into net.b between two steps of one batch
        shape, each through a kernel bound for it, reaches the next step:
        it stays the plain expression of the current weights."""
        net = _plain_net(activation)
        x = _rows(np.random.default_rng(27).normal(size=(14, 5)))
        net.kernel(x).euler()
        b = net.b.copy()
        if write == "step_slow":
            net.E[:], net.V[:] = 0.3, 0.7
            net.step_slow()
        elif write == "load_weights":
            other = _plain_net(activation)
            other.b[:] = np.random.default_rng(26).normal(size=7)
            save_weights(other, tmp_path / "w.pchn")
            load_weights(net, tmp_path / "w.pchn")
        else:
            net.b[:] -= 0.5
        assert not np.array_equal(net.b, b)
        want = _plain_step(net, x)
        net.kernel(x).euler()
        np.testing.assert_array_equal(x, want)

    @pytest.mark.parametrize("weight", ["M", "W", "b"])
    def test_a_bound_kernel_steps_the_weights_of_its_bind(self, weight):
        """A write to M, W or b after a bind does not reach the kernel
        bound before it, which steps on with the old weights; a kernel
        bound after the write steps with the new ones."""
        net = _plain_net(Activation.TANH)
        x = _rows(np.random.default_rng(35).normal(size=(14, 5)))
        start, before = x.copy(), _plain_step(net, x)
        kernel = net.kernel(x)
        getattr(net, weight)[...] *= 1.5
        after = _plain_step(net, start)
        assert not np.array_equal(before, after)
        kernel.euler()
        np.testing.assert_array_equal(x, before)
        y = start.copy()
        net.kernel(y).euler()
        np.testing.assert_array_equal(y, after)

    def test_fast_rhs_flat_takes_a_strided_state(self):
        """A strided (2T,) state, whose (2, 1, T) view would not be
        C-contiguous, gives the rhs of its contiguous copy."""
        net = _plain_net(Activation.TANH)
        S = np.random.default_rng(37).normal(size=(14, 3))
        np.testing.assert_array_equal(net.fast_rhs_flat(S[:, 1]),
                                      net.fast_rhs_flat(S[:, 1].copy()))

    @pytest.mark.parametrize("layout", ["state", "columns", "two_d_rows"])
    def test_kernel_refuses_any_batch_but_c_rows(self, layout):
        """A packed (2T,) state, a (2T, B) batch of columns and an
        unbatched (2, T) state are each refused when bound."""
        net = _plain_net(Activation.TANH)
        s = np.random.default_rng(36).normal(size=(14, 3))
        s = {"state": s[:, 0].copy(), "columns": s,
             "two_d_rows": s[:, 0].reshape(2, -1)}[layout]
        with pytest.raises(ConstructionError, match="C-contiguous"):
            net.kernel(s)

    def test_clamped_values_pinned(self):
        rng = np.random.default_rng(8)
        net = build_loop([5], Activation.TANH, _hyper(), seed=8)
        target = rng.normal(size=5)
        net.clamp_all(target)
        for _ in range(50):
            net.step_fast()
        np.testing.assert_array_equal(net.V, target)
        # errors keep integrating while values are pinned
        assert np.linalg.norm(net.E) > 0

    def test_algebraic_error_mode(self):
        """With algebraic errors, eps jumps straight to (v - mu)/zeta
        evaluated at the pre-update values."""
        rng = np.random.default_rng(9)
        net = build_loop([5], Activation.TANH, _hyper(zeta=2.0), seed=9)
        net.V[:] = rng.normal(size=5)
        v0 = net.V.copy()
        mu0 = net.predict(v0)
        algebraic_step(net)
        np.testing.assert_allclose(net.E, (v0 - mu0) / 2.0, atol=1e-12)

    def test_divergence_raises_with_step(self):
        net = build_loop([4], Activation.IDENTITY, _hyper(), seed=10)
        net.M[:] = 1e80
        net.W[:] = 1e80
        net.V[:] = 1e80
        with pytest.raises(IntegrationDivergenceError) as exc:
            for _ in range(10):
                net.step_fast()
        assert exc.value.step >= 1


class TestSlowStep:
    def test_learning_increment_arithmetic(self):
        """One slow step must add exactly (dt/gamma) * outer products."""
        net = build_loop([4], Activation.TANH, _hyper(), seed=11)
        rng = np.random.default_rng(11)
        net.V[:] = rng.normal(size=4)
        net.E[:] = rng.normal(size=4)
        M0, W0, b0 = net.M.copy(), net.W.copy(), net.b.copy()
        sig = np.tanh(net.V)
        dM = np.outer(net.E, sig)
        dW = np.outer(sig, net.E)
        np.fill_diagonal(dM, 0.0)
        np.fill_diagonal(dW, 0.0)
        net.step_slow()
        scale = net.hyper.dt / net.hyper.gamma
        np.testing.assert_allclose(net.M, M0 + scale * dM, atol=1e-15)
        np.testing.assert_allclose(net.W, W0 + scale * dW, atol=1e-15)
        np.testing.assert_allclose(net.b, b0 + scale * net.E, atol=1e-15)

    def test_self_connection_diagonal_stays_zero(self):
        net = build_loop([6], Activation.TANH, _hyper(), seed=12)
        rng = np.random.default_rng(12)
        net.V[:] = rng.normal(size=6)
        net.E[:] = rng.normal(size=6)
        for _ in range(7):
            net.step_slow()
        np.testing.assert_array_equal(np.diag(net.M), 0.0)
        np.testing.assert_array_equal(np.diag(net.W), 0.0)

    def test_tied_mode_keeps_transpose(self):
        net = build_loop([5], Activation.TANH, _hyper(), tie_weights=True, seed=13)
        rng = np.random.default_rng(13)
        net.V[:] = rng.normal(size=5)
        net.E[:] = rng.normal(size=5)
        for _ in range(5):
            net.step_slow()
        np.testing.assert_array_equal(net.W, net.M.T)

    def test_frozen_rejects_slow_step(self):
        net = build_loop([3], Activation.TANH, _hyper(), seed=14)
        freeze(net)
        with pytest.raises(ContractViolationError):
            net.step_slow()

    @pytest.mark.parametrize("shape", [(1,), (7,), (4, 1), ()])
    def test_errors_of_another_shape_refused(self, shape):
        """An errors vector that is not (T,) is refused before any
        weight moves; a (1,) one would broadcast into every row of M."""
        net = build_loop([4], Activation.TANH, _hyper(), seed=14)
        net.V[:] = [0.1, -0.2, 0.3, -0.4]
        M, b = net.M.copy(), net.b.copy()
        with pytest.raises(ConstructionError, match=r"vector length"):
            net.step_slow(errors=np.ones(shape))
        assert net.M.tobytes() == M.tobytes() and net.b.tobytes() == b.tobytes()


class TestEnergy:
    def test_value_example(self):
        # E = sum_i (zeta/2) |eps_i|^2; zeta=1, eps=(3,4) -> 12.5
        net = build_loop([2], Activation.IDENTITY, _hyper(), seed=15)
        net.E[:] = [3.0, 4.0]
        assert net.energy() == 12.5

    def test_zeta_scales_energy(self):
        net = build_loop([2], Activation.IDENTITY, _hyper(zeta=3.0), seed=16)
        net.E[:] = [1.0, 1.0]
        assert net.energy() == 3.0

    def test_zero_errors_zero_energy(self):
        net = build_loop([3, 2], Activation.TANH, _hyper(), seed=17)
        assert net.energy() == 0.0

    def test_given_errors(self):
        net = build_loop([2], Activation.IDENTITY, _hyper(zeta=2.0), seed=16)
        assert net.energy(np.array([1.0, 2.0])) == 5.0

    @pytest.mark.parametrize("shape", [(1,), (7,), (4, 1)])
    def test_errors_of_another_shape_refused(self, shape):
        net = build_loop([4], Activation.IDENTITY, _hyper(), seed=16)
        with pytest.raises(ConstructionError, match=r"vector length"):
            net.energy(np.ones(shape))


class TestEquilibrium:
    def test_relaxation_reaches_small_residual(self):
        net = build_loop([10], Activation.TANH, _hyper(), seed=18)
        rng = np.random.default_rng(18)
        net.V[:] = rng.normal(size=10)
        res = net.run_fast_to_equilibrium(1e-9, 200000)
        assert res.converged[0]
        assert res.residual[0] < 1e-9
        # at equilibrium both derivative sets vanish
        dv, de = rhs_oracle(net)
        for arr in dv + de:
            np.testing.assert_allclose(arr, 0.0, atol=1e-8)

    def test_zero_step_budget_reports_current_residual(self):
        net = build_loop([6], Activation.TANH, _hyper(), seed=19)
        rng = np.random.default_rng(19)
        net.V[:] = rng.normal(size=6)
        res = net.run_fast_to_equilibrium(1e-12, 0)
        assert not res.converged[0]
        assert res.steps[0] == 0
        assert res.residual[0] > 0

    @pytest.mark.parametrize("max_steps", [-1, -5])
    def test_negative_step_budget_refused(self, max_steps):
        """A negative budget is refused before a step: it would report
        negative step counts and move steps_taken backwards."""
        net = build_loop([3], Activation.TANH, _hyper(), seed=19)
        s = np.zeros((2, 3, 3))
        s[1] = np.random.default_rng(19).normal(size=(3, 3))
        before = s.copy()
        with pytest.raises(ConstructionError, match="max_steps=.* is negative"):
            net.relax(s, 1e-12, max_steps)
        assert s.tobytes() == before.tobytes()
        assert net.steps_taken == 0

    @pytest.mark.parametrize("tol, max_steps, message", [
        (np.nan, 5, "tol=nan is not >= 0"), (-1e-8, 5, "tol=-1e-08 is not >= 0"),
        (1e-12, 2.5, "max_steps=2.5 is not an integer"),
        (1e-12, "5", "max_steps='5' is not an integer")])
    def test_bad_tol_or_step_budget_refused(self, tol, max_steps, message):
        """A NaN tol, under which no run would ever settle, a negative
        tol and a budget that is not an integer are refused before a
        step, not run to the end of the budget or left to range."""
        net = build_loop([3], Activation.TANH, _hyper(), seed=19)
        s = np.zeros((2, 3, 3))
        s[1] = np.random.default_rng(19).normal(size=(3, 3))
        before = s.copy()
        with pytest.raises(ConstructionError, match=re.escape(message)):
            net.relax(s, tol, max_steps)
        assert s.tobytes() == before.tobytes()
        assert net.steps_taken == 0

    def test_zero_tol_and_integer_budget_types_accepted(self):
        """tol = 0, which settles no run early, is a valid tolerance, and
        a numpy integer is a valid budget."""
        net = build_loop([3], Activation.TANH, _hyper(), seed=19)
        s = np.zeros((2, 2, 3))
        s[1] = np.random.default_rng(19).normal(size=(2, 3))
        res = net.relax(s, 0.0, np.int64(7))
        assert res.steps.tolist() == [7, 7]
        assert not res.converged.any()

    def test_empty_batch_relaxes_to_an_empty_result(self):
        net = build_loop([4, 3], Activation.TANH, _hyper(), seed=19)
        res = net.relax(np.zeros((2, 0, 7)), 1e-6, 100)
        for field in (res.steps, res.converged, res.residual, res.diverged):
            assert field.shape == (0,)
        assert net.steps_taken == 0

    @pytest.mark.parametrize("activation", list(Activation))
    def test_relax_is_bitwise_plain_steps_at_the_defaults(self, activation):
        """relax at tau = zeta = 1, where the kernel skips its unit
        multiply and divide, reaches the state of plain-expression steps
        taken on the rows and reports the sup-norm of the plain rhs
        there, bit for bit."""
        net = _plain_net(activation, 1.0, 1.0)
        s = np.random.default_rng(28).normal(size=(14, 5))
        want = _rows(s)
        for _ in range(30):
            want = _plain_step(net, want)
        x = _rows(s)
        res = net.relax(x, 0.0, 30)
        np.testing.assert_array_equal(res.steps, 30)
        assert x.tobytes() == want.tobytes()
        plain = np.abs(np.stack(_plain_rhs(net, want))).max(axis=(0, 2))
        assert res.residual.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("activation", list(Activation))
    def test_relax_keeps_the_rounding_of_an_f_ordered_batch(self, activation):
        """On a T = 50 net, where the row products against a C-contiguous
        transpose round differently from C- or F-ordered columns, relax on
        the rows of the F-ordered batch S[:, cols] reaches the state of
        plain-expression steps taken on those rows, and the plain
        sup-norm there, bit for bit."""
        net = _plain_net(activation, sizes=(30, 20))
        S = np.random.default_rng(29).normal(size=(100, 9))
        s = S[:, [0, 2, 3, 5, 6, 7, 8]]
        assert s.flags.f_contiguous and not s.flags.c_contiguous
        want = _rows(s)
        for _ in range(30):
            want = _plain_step(net, want)
        x = _rows(s)
        res = net.relax(x, 0.0, 30)
        np.testing.assert_array_equal(res.steps, 30)
        assert x.tobytes() == want.tobytes()
        plain = np.abs(np.stack(_plain_rhs(net, want))).max(axis=(0, 2))
        assert res.residual.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("activation, budget", [(Activation.IDENTITY, 615),
                                                    (Activation.RELU, 617),
                                                    (Activation.TANH, 660)])
    def test_relax_stops_each_column_of_an_f_ordered_batch_at_its_own_step(
            self, activation, budget):
        """The rows of an F-ordered batch S[:, cols] on a T = 50 net with
        population 0 clamped: two runs settle, at different steps, one
        diverges and two run out of steps.  Each run ends, bit for bit,
        at the state of plain-expression steps of the rows still live,
        and reports the plain sup-norm there.  BLAS may round a row
        differently at another batch height, so the plain batch drops
        each run when it stops, as relax does; each step adds the
        derivatives taken before that step's drop."""
        net = build_loop([30, 20], activation, _hyper(dt=0.05), init_scale=0.1, seed=31)
        net.b[:] = np.random.default_rng(32).normal(size=50)
        rng = np.random.default_rng(33)
        clamp_population(net, 0, rng.normal(size=30))
        T, tol, dt, free = net.total_units, 1e-6, net.hyper.dt, ~net.clamped
        S = np.zeros((2 * T, 7))
        S[:, [0, 2, 3, 5]] = rng.normal(size=(2 * T, 4)) * [0.1, 0.3, 1.0, 3.0]
        # population 1's values are driven past -1e100 by its errors
        S[T + 30:, 6], S[30:T, 6] = -0.99e100, 0.9e100
        s = S[:, [0, 2, 3, 5, 6]]
        assert s.flags.f_contiguous and not s.flags.c_contiguous

        x, live = _rows(s), np.arange(5)
        stop, residual = np.full(5, budget), np.zeros(5)
        converged, diverged = np.zeros(5, dtype=bool), np.zeros(5, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.stack(_plain_rhs(net, x))
            for k in range(1, budget + 1):
                x[:, live] += dt * d
                x[1][:, net.clamped] = net.clamp_target[net.clamped]
                d = np.stack(_plain_rhs(net, x[:, live]))
                a = np.abs(d)
                r = np.concatenate((a[0], a[1][:, free]), axis=1).max(axis=1)
                bad = ~np.all(np.abs(x[:, live]) <= 1e100, axis=(0, 2))
                done = bad | (r < tol)
                stop[live[done]], residual[live] = k, r
                converged[live[done]], diverged[live[done]] = ~bad[done], bad[done]
                live, d = live[~done], d[:, ~done]
        assert len(set(stop[converged])) == 2 and diverged.sum() == 1
        assert np.sum(stop == budget) == 2

        rows = _rows(s)
        res = net.relax(rows, tol, budget, (net.clamped, net.clamp_target))
        np.testing.assert_array_equal(res.steps, stop)
        np.testing.assert_array_equal(res.converged, converged)
        np.testing.assert_array_equal(res.diverged, diverged)
        assert rows.tobytes() == x.tobytes()
        assert res.residual.tobytes() == residual.tobytes()

    def test_relax_reads_no_clamp_from_the_net(self):
        """relax steps only the clamp it is handed: on a net with
        population 0 clamped, a batch relaxed without clamp ends bit for
        bit where the same relax ends on the net unclamped, with the same
        stop steps, flags and residuals, and its population 0 values
        leave the net's clamp."""
        net = build_loop([4, 3], Activation.TANH, _hyper(), init_scale=1.0, seed=38)
        start = np.random.default_rng(38).normal(size=(2, 3, 7))
        target = np.linspace(-0.5, 0.5, 4)
        clamp_population(net, 0, target)
        got, want = start.copy(), start.copy()
        res = net.relax(got, 1e-6, 400)
        net.unclamp_all()
        expected = net.relax(want, 1e-6, 400)
        assert got.tobytes() == want.tobytes()
        for field in ("steps", "converged", "diverged", "residual"):
            assert getattr(res, field).tobytes() == getattr(expected, field).tobytes()
        assert not np.any(got[1][:, :4] == target)

    @pytest.mark.parametrize("batch", ["columns", "f_slice", "wrong_t", "float32", "list"])
    def test_relax_refuses_any_batch_but_c_rows(self, batch):
        """relax takes only a C-contiguous (2, B, T) float64 batch with the
        net's T: an old (2T, B) batch of columns, a non-contiguous
        S[:, cols] slice of rows, rows of another T, float32 rows and a
        nested list are refused before any state or steps_taken
        changes."""
        net = build_loop([4, 3], Activation.TANH, _hyper(), seed=19)
        net.V[:] = 0.5
        S = np.random.default_rng(34).normal(size=(2, 4, 7))
        s = {"columns": _columns(S), "f_slice": S[:, [0, 2]],
             "wrong_t": np.zeros((2, 3, 8)), "float32": S.astype(np.float32),
             "list": S.tolist()}[batch]
        before, state = np.array(s, copy=True), net.s.copy()
        with pytest.raises(ConstructionError, match="C-contiguous"):
            net.relax(s, 1e-6, 100)
        np.testing.assert_array_equal(np.asarray(s), before)
        np.testing.assert_array_equal(net.s, state)
        assert net.steps_taken == 0

    def test_one_rhs_per_step_on_the_step_fast_path(self):
        """Each step reuses the derivatives its residual was read from:
        one RHS evaluation per step, with the same states, step count
        and residual as step_fast followed by residual()."""
        def make():
            net = build_loop([4, 3], Activation.TANH, _hyper(), init_scale=1.0, seed=21)
            net.V[:] = np.random.default_rng(21).normal(size=7)
            clamp_population(net, 0, np.linspace(-0.5, 0.5, 4))
            return net

        ref = make()
        for k in range(1, 10001):
            ref.step_fast()
            r = ref.residual()
            if r < 1e-6:
                break
        net = make()
        calls = []
        bound = net.kernel

        def counting_kernel(s):
            kernel = bound(s)
            return kernel._replace(rhs=lambda *args: calls.append(1) or kernel.rhs(*args))

        net.kernel = counting_kernel
        res = net.run_fast_to_equilibrium(1e-6, 10000)
        assert res.converged[0] and (res.steps[0], res.residual[0]) == (k, r)
        assert net.steps_taken == ref.steps_taken == k
        np.testing.assert_array_equal(net.s, ref.s)
        assert len(calls) == k + 1

    @pytest.mark.parametrize("activation", list(Activation))
    def test_relax_holds_a_zero_batch_of_a_net_without_bias(self, activation):
        """Zero states of a net whose bias is zero are a fixed point, which
        the divergence bound clears for the whole budget: every run
        stays at zero for all its steps, as in the loop that checks
        every step, and the bound's arithmetic raises no warning."""
        net = build_loop([4, 3], activation, _hyper(), init_scale=1.0, seed=35)
        got, want = np.zeros((2, 3, 7)), np.zeros((2, 3, 7))
        res, expected = net.relax(got, 0.0, 50), relax_per_step(net, want, 0.0, 50)
        assert not got.any() and got.tobytes() == want.tobytes()
        for field in ("steps", "converged", "diverged", "residual"):
            assert getattr(res, field).tobytes() == getattr(expected, field).tobytes()

    def test_relax_picks_the_witnesses_again_where_one_drops_under_tol(self, monkeypatch):
        """A run's witness, its largest derivative at the last full check,
        drops under tol while its sup-norm does not: relax checks the
        run in full at that step, goes on and picks its witness again,
        and ends where the loop that checks every step ends, bit for
        bit.  On one free unit started at E = 0, V = 1 the witness of
        step 1 is dE = V - E, which passes zero while dV = -E does not."""
        net = Network([1], [(0, 0)], Activation.IDENTITY, _hyper())
        start, tol = np.zeros((2, 1, 1)), 1e-2
        start[1] = 1.0
        x = _plain_step(net, start)
        witness = np.argmax(np.abs(np.stack(_plain_rhs(net, x))).ravel())
        for k in range(2, 10000):
            x = _plain_step(net, x)
            d = np.abs(np.stack(_plain_rhs(net, x))).ravel()
            if d[witness] < tol:
                break
        assert witness == 0 and d.max() >= tol

        calls, picks, pick = counting_rhs(net), [], network._witnesses
        monkeypatch.setattr(network, "_witnesses",
                            lambda a: picks.append(len(calls) - 1) or pick(a))
        got, want = start.copy(), start.copy()
        res = net.relax(got, tol, 10000)
        expected = relax_per_step(net, want, tol, 10000)
        assert picks[:2] == [1, k] and res.converged[0] and res.steps[0] > k
        assert got.tobytes() == want.tobytes()
        for field in ("steps", "converged", "diverged", "residual"):
            assert getattr(res, field).tobytes() == getattr(expected, field).tobytes()

    def test_residual_ignores_clamped_value_rows(self):
        net = build_loop([6], Activation.TANH, _hyper(), seed=20)
        rng = np.random.default_rng(20)
        target = rng.normal(size=6)
        net.clamp_all(target)
        res = net.run_fast_to_equilibrium(1e-10, 100000)
        assert res.converged[0]
        # value equations are held off balance by the clamp, while the
        # error equations settle to eps = (v - mu)/zeta
        mu = net.predict(net.V)
        np.testing.assert_allclose(net.E, (target - mu) / net.hyper.zeta, atol=1e-8)


class TestRestrictedEnergyDescent:
    def test_energy_non_increasing_in_tied_algebraic_mode(self):
        """With tied weights, algebraic errors, and frozen weights, each
        fast step must not raise the energy (up to integrator slack)."""
        rng = np.random.default_rng(21)
        for trial in range(20):
            net = build_loop(
                [12], Activation.TANH, _hyper(dt=0.002),
                tie_weights=True, seed=100 + trial)
            freeze(net)
            net.V[:] = rng.normal(size=12)
            algebraic_step(net)
            prev = net.energy()
            for _ in range(1000):
                algebraic_step(net)
                cur = net.energy()
                assert cur <= prev + 1e-9
                prev = cur


class TestStateHelpers:
    def test_clamp_all_refuses_a_target_of_the_wrong_length(self):
        net = build_loop([3, 3], Activation.TANH, _hyper(), seed=24)
        with pytest.raises(ConstructionError, match=r"vector length \(7,\) != \(6,\)"):
            net.clamp_all(np.arange(7.0))
        assert not net.clamped.any()
        np.testing.assert_array_equal(net.s, 0.0)

    def test_clamp_all_then_unclamp(self):
        net = build_loop([3, 3], Activation.TANH, _hyper(), seed=24)
        x = np.arange(6.0)
        net.clamp_all(x)
        assert net.clamped.all()
        net.unclamp_all()
        assert not net.clamped.any()
        np.testing.assert_array_equal(net.V, x)


class TestPastLimit:
    """network._past_limit on its two forms, (B, n) rows and (2, B, T)
    batches, against a per-run loop over plain floats."""

    LIMIT = network.DIVERGENCE_LIMIT
    PAST = [np.nan, np.inf, -np.inf, np.nextafter(LIMIT, np.inf),
            -np.nextafter(LIMIT, np.inf)]

    @classmethod
    def _per_run(cls, runs):
        return [not all(abs(x) <= cls.LIMIT for x in run.ravel().tolist())
                for run in runs]

    def _check(self, s, want):
        runs = s if s.ndim == 2 else s.transpose(1, 0, 2)
        got = network._past_limit(s)
        assert got.dtype == bool and got.shape == (len(runs),)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, self._per_run(runs))

    def test_rows(self):
        for x in self.PAST:
            s = np.zeros((4, 6))
            s[0, 0], s[1, 5], s[3, 2] = self.LIMIT, -self.LIMIT, self.LIMIT
            s[2, 3] = x
            self._check(s, [False, False, True, False])

    @pytest.mark.parametrize("half", [0, 1])
    def test_batch_error_and_value_rows(self, half):
        """A bad entry in run 1's E row (half 0) or V row (half 1) marks
        run 1 alone; entries of exactly +-DIVERGENCE_LIMIT mark nothing."""
        for x in self.PAST:
            s = np.zeros((2, 3, 5))
            s[0, 0, 1], s[1, 2, 4], s[1 - half, 1, 0] = self.LIMIT, -self.LIMIT, -self.LIMIT
            s[half, 1, 3] = x
            self._check(s, [False, True, False])

    def test_no_runs(self):
        self._check(np.empty((0, 6)), [])
        self._check(np.empty((2, 0, 5)), [])

    def test_whole_array_and_per_run_paths_agree(self):
        """Entries of exactly +-DIVERGENCE_LIMIT take the whole-array
        path and mark no run; one entry past the limit sends the same
        entries through the per-run path, which marks only its run."""
        s = np.random.default_rng(26).uniform(-1.0, 1.0, (2, 4, 7)) * self.LIMIT
        s[0, 0, 0], s[1, 3, 6] = self.LIMIT, -self.LIMIT
        self._check(s, [False] * 4)
        s[1, 2, 1] = np.nextafter(self.LIMIT, np.inf)
        self._check(s, [False, False, True, False])
        rows = np.ascontiguousarray(s[1])
        self._check(rows, [False, False, True, False])
        rows[2, 1] = self.LIMIT
        self._check(rows, [False] * 4)


class TestStepsOf:
    """network._steps_of, the one rounding of a duration to Euler steps
    that train, relaxation_study and the CLI share."""

    CAP = network.MAX_STEPS

    @pytest.mark.parametrize("duration, dt, steps", [
        (1.0, 0.25, 4), (1e-9, 0.005, 1), (1.1, 0.25, 4), (0.9, 0.25, 4),
        ((network.MAX_STEPS + 0.5) * 0.25, 0.25, network.MAX_STEPS)])
    def test_nearest_step_count_at_least_one(self, duration, dt, steps):
        assert network._steps_of("d", duration, dt) == steps

    @pytest.mark.parametrize("duration", [0.0, -1.0, np.nan, np.inf, -np.inf,
                                          (network.MAX_STEPS + 0.75) * 0.25,
                                          1e307, np.float64(1e307)])
    def test_refused_with_construction_error(self, duration):
        """At dt = 0.25 a ratio past MAX_STEPS + 0.5 rounds past the cap;
        1e307 / 0.005 overflows to inf, without a warning or a bare
        OverflowError."""
        dt = 0.005 if duration == 1e307 else 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstructionError, match=f"d: .* at most MAX_STEPS = {self.CAP}"):
                network._steps_of("d", duration, dt)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = build_loop([5, 4, 3], Activation.TANH, _hyper(), seed=25)
        rng = np.random.default_rng(25)
        for _, _, M, W, b, _ in net.edge_blocks():
            M += rng.normal(size=M.shape) * 0.1
            W += rng.normal(size=W.shape) * 0.1
            b += rng.normal(size=b.shape) * 0.1
        path = tmp_path / "net.pchn"
        save_weights(net, str(path))
        other = build_loop([5, 4, 3], Activation.TANH, _hyper(), seed=99)
        load_weights(other, str(path))
        for a, b in zip(net.edge_blocks(), other.edge_blocks()):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)

    def test_row_template_formats_as_the_per_value_format(self):
        """save_weights formats a row with one %-template; it must print
        what "{:.17g}" prints per value: -0, subnormals, the extremes
        and values that need all 17 digits."""
        info = np.finfo(float)
        tiny = info.smallest_subnormal
        row = np.array([-0.0, 0.0, tiny, -tiny, 3 * tiny, np.nextafter(info.tiny, 0.0),
                        info.tiny, info.max, -info.max, 0.1, 1 / 3, -2 / 3, 1e16 + 2,
                        np.nextafter(1.0, 2.0), 1e300 / 7])
        assert checkpoint._fmt_row(row) == " ".join(f"{x:.17g}" for x in row)
        assert checkpoint._fmt_row(row).split()[:4] == ["-0", "0", "4.9406564584124654e-324",
                                                        "-4.9406564584124654e-324"]

    def test_same_weights_same_bytes(self, tmp_path):
        net = build_loop([6], Activation.TANH, _hyper(), seed=26)
        p1, p2 = tmp_path / "a.pchn", tmp_path / "b.pchn"
        save_weights(net, str(p1))
        save_weights(net, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_architecture_mismatch_rejected(self, tmp_path):
        net = build_loop([6], Activation.TANH, _hyper(), seed=27)
        path = tmp_path / "net.pchn"
        save_weights(net, str(path))
        other = build_loop([7], Activation.TANH, _hyper(), seed=27)
        with pytest.raises(ConstructionError):
            load_weights(other, str(path))

    def test_bad_magic_rejected(self, tmp_path):
        net = build_loop([3], Activation.TANH, _hyper(), seed=28)
        path = tmp_path / "bad.pchn"
        path.write_text("NOPE v9\n")
        with pytest.raises(ConstructionError):
            load_weights(net, str(path))

    def test_trailing_garbage_rejected(self, tmp_path):
        net = build_loop([3], Activation.TANH, _hyper(), seed=29)
        path = tmp_path / "net.pchn"
        save_weights(net, str(path))
        path.write_text(path.read_text() + "1.0 2.0\n")
        with pytest.raises(ConstructionError):
            load_weights(net, str(path))

    def _saved_loop(self, tmp_path):
        net = build_loop([5, 4, 3], Activation.TANH, _hyper(), seed=30)
        path = tmp_path / "net.pchn"
        save_weights(net, str(path))
        other = build_loop([5, 4, 3], Activation.TANH, _hyper(), seed=31)
        return path, other, self._weights(other)

    @staticmethod
    def _weights(net):
        return [(M.copy(), W.copy(), b.copy()) for _, _, M, W, b, _ in net.edge_blocks()]

    def _assert_untouched(self, net, before):
        for (_, _, M, W, b, _), (M0, W0, b0) in zip(net.edge_blocks(), before):
            np.testing.assert_array_equal(M, M0)
            np.testing.assert_array_equal(W, W0)
            np.testing.assert_array_equal(b, b0)

    def test_late_header_mismatch_loads_nothing(self, tmp_path):
        path, other, before = self._saved_loop(tmp_path)
        text = path.read_text()
        assert "conn 2 1 4 3\n" in text
        path.write_text(text.replace("conn 2 1 4 3\n", "conn 2 0 4 3\n"))
        with pytest.raises(ConstructionError):
            load_weights(other, str(path))
        self._assert_untouched(other, before)

    def test_non_finite_weight_rejected(self, tmp_path):
        path, other, before = self._saved_loop(tmp_path)
        lines = path.read_text().splitlines()
        row = lines[-1].split()          # b of the last connection
        row[1] = "nan"
        lines[-1] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConstructionError):
            load_weights(other, str(path))
        self._assert_untouched(other, before)

    @pytest.mark.parametrize("damage", ["token", "bytes", "directory"])
    def test_unreadable_file_loads_nothing(self, tmp_path, damage):
        """A weight that is not a number, bytes that do not decode and a
        path that is a directory are each a ConstructionError, raised
        before any weight is written."""
        path, other, before = self._saved_loop(tmp_path)
        if damage == "directory":
            path = tmp_path / "dir.pchn"
            path.mkdir()
        else:
            lines = path.read_bytes().splitlines()
            row = lines[-1].split()          # b of the last connection
            row[1] = b"0.5x" if damage == "token" else b"\xff"
            lines[-1] = b" ".join(row)
            path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ConstructionError):
            load_weights(other, str(path))
        self._assert_untouched(other, before)

    @pytest.mark.parametrize("row", [1, 101], ids=["M", "W"])
    def test_weight_outside_the_mask_loads_nothing(self, tmp_path, row):
        """A Single100 checkpoint with M[0, 0] or W[0, 0], the first row
        of its block after the conn line, edited to 0.5 would let a unit
        predict itself: it is refused before any weight is written."""
        net = build_loop([100], Activation.RELU, _hyper(), seed=34)
        path = tmp_path / "net.pchn"
        save_weights(net, str(path))
        lines = path.read_text().splitlines()
        at = lines.index("conn 0 0 100 100") + row
        cells = lines[at].split()
        assert float(cells[0]) == 0.0
        cells[0] = "0.5"
        lines[at] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        other = build_loop([100], Activation.RELU, _hyper(), seed=35)
        before = self._weights(other)
        with pytest.raises(ConstructionError, match="outside the edge mask"):
            load_weights(other, str(path))
        self._assert_untouched(other, before)

    @pytest.mark.parametrize("edit", ["truncated", "not_conn"])
    def test_broken_block_loads_nothing(self, tmp_path, edit):
        """A checkpoint cut short inside its last edge's bias, or whose
        block starts with a word other than conn, is refused before any
        weight is written."""
        path, other, before = self._saved_loop(tmp_path)
        lines = path.read_text().splitlines()
        if edit == "truncated":
            lines[-1] = lines[-1].rsplit(" ", 1)[0]
            match = "truncated checkpoint"
        else:
            at = lines.index("conn 2 1 4 3")
            lines[at] = lines[at].replace("conn", "edge")
            match = "expected conn header, got 'edge'"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConstructionError, match=match):
            load_weights(other, str(path))
        self._assert_untouched(other, before)

    def test_header_records_activation_and_tying(self, tmp_path):
        net = build_loop([5, 4, 3], Activation.TANH, _hyper(), tie_weights=True, seed=32)
        path = tmp_path / "net.pchn"
        save_weights(net, str(path))
        assert path.read_text().splitlines()[:3] == [
            "PCHN v2", "activation tanh tied true", "conn 1 0 5 4"]

    @pytest.mark.parametrize("activation, tied", [(Activation.RELU, False),
                                                  (Activation.TANH, True)])
    def test_kind_mismatch_loads_nothing(self, tmp_path, activation, tied):
        """A tanh, untied checkpoint is refused by a relu net and by a
        tied net, before any weight is written."""
        path, _, _ = self._saved_loop(tmp_path)
        other = build_loop([5, 4, 3], activation, _hyper(), tie_weights=tied, seed=31)
        before = self._weights(other)
        with pytest.raises(ConstructionError, match="activation tanh tied false"):
            load_weights(other, str(path))
        self._assert_untouched(other, before)

    def test_tied_checkpoint_that_breaks_the_tie_loads_nothing(self, tmp_path):
        """A tied checkpoint with one W entry moved by 0.5, here in the
        second edge, is refused by a tied net before any weight is
        written: a tied net's W is M transposed."""
        net = build_loop([5, 4, 3], Activation.TANH, _hyper(), tie_weights=True, seed=32)
        path = tmp_path / "net.pchn"
        save_weights(net, str(path))
        lines = path.read_text().splitlines()
        at = lines.index("conn 2 1 4 3") + 1 + 4   # the first row of its W
        cells = lines[at].split()
        cells[1] = repr(float(cells[1]) + 0.5)
        lines[at] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        other = build_loop([5, 4, 3], Activation.TANH, _hyper(), tie_weights=True, seed=33)
        before = self._weights(other)
        with pytest.raises(ConstructionError, match="edge 1 has a W that is not M transposed"):
            load_weights(other, str(path))
        self._assert_untouched(other, before)

    @pytest.mark.parametrize("tied", [False, True])
    def test_v1_file_loads_into_a_tied_net_only_when_tied(self, tmp_path, tied):
        """A PCHN v1 header says nothing of tying: a tied net takes such
        a file only if each W is its M transposed."""
        path = tmp_path / "old.pchn"
        W = ["0 -0.25", "0.5 0"] if tied else ["0 0.125", "1.5 0"]
        path.write_text("\n".join(["PCHN v1", "conn 0 0 2 2", "0 0.5", "-0.25 0", *W,
                                   "0.75 -2"]) + "\n")
        net = build_loop([2], Activation.RELU, _hyper(), tie_weights=True,
                         seed=33)
        if tied:
            load_weights(net, str(path))
            np.testing.assert_array_equal(net.W, net.M.T)
        else:
            before = self._weights(net)
            with pytest.raises(ConstructionError, match="not M transposed"):
                load_weights(net, str(path))
            self._assert_untouched(net, before)

    def test_v1_file_still_loads(self, tmp_path):
        """A checkpoint in the format before the activation line: the
        header carries no activation, so any net of the architecture
        takes it."""
        path = tmp_path / "old.pchn"
        path.write_text("PCHN v1\n"
                        "conn 0 0 2 2\n"
                        "0 0.5\n"
                        "-0.25 0\n"
                        "0 0.125\n"
                        "1.5 0\n"
                        "0.75 -2\n")
        net = build_loop([2], Activation.RELU, _hyper(), seed=33)
        load_weights(net, str(path))
        np.testing.assert_array_equal(net.M, [[0.0, 0.5], [-0.25, 0.0]])
        np.testing.assert_array_equal(net.W, [[0.0, 0.125], [1.5, 0.0]])
        np.testing.assert_array_equal(net.b, [0.75, -2.0])
        resaved = tmp_path / "new.pchn"
        save_weights(net, str(resaved))
        assert resaved.read_text().splitlines()[1] == "activation relu tied false"
        assert resaved.read_text().splitlines()[2:] == path.read_text().splitlines()[1:]
