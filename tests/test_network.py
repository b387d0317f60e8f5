"""Core dynamics: construction, fast/slow steps, energy, checkpointing.

The fast-step oracle below rebuilds the two update equations directly
from the connection lists with plain loops, so any vectorization slip in
the library shows up as a mismatch.
"""

import numpy as np
import pytest

from pchn import (Activation, ConstructionError, ContractViolationError,
                  Hyperparams, IntegrationDivergenceError, build_loop,
                  build_single_population, freeze)
from pchn.checkpoint import load_weights, save_weights
from pchn.network import Connection, Network, Population


def _hyper(**kw):
    base = dict(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005)
    base.update(kw)
    return Hyperparams(**base)


def rhs_oracle(net):
    """Straight-line transcription of the two fast equations."""
    zeta, tau_e, tau_v = net.hyper.zeta, net.hyper.tau_e, net.hyper.tau_v
    mus = [None] * len(net.populations)
    for c in net.connections:
        src = net.populations[c.src]
        mus[c.dst] = c.M @ net.activation.apply(src.v) + c.b
    dv, de = [], []
    for i, p in enumerate(net.populations):
        de.append((p.v - mus[i] - zeta * p.eps) / tau_e)
        corr = np.zeros(p.size)
        for c in net.connections:
            if c.src == i:
                corr += c.W @ net.populations[c.dst].eps
        dv.append((-p.eps + net.activation.derivative(p.v) * corr) / tau_v)
    return dv, de


class TestConstruction:
    def test_single_population_shapes(self):
        net = build_single_population(10, Activation.TANH, _hyper(), seed=0)
        assert net.total_units == 10
        assert len(net.connections) == 1
        c = net.connections[0]
        assert c.src == 0 and c.dst == 0
        assert c.M.shape == (10, 10) and c.W.shape == (10, 10)
        np.testing.assert_array_equal(np.diag(c.M), 0.0)
        np.testing.assert_array_equal(np.diag(c.W), 0.0)

    def test_loop_shapes(self):
        net = build_loop([5, 3, 2], Activation.RELU, _hyper(), seed=1)
        assert net.total_units == 10
        pairs = {(c.src, c.dst) for c in net.connections}
        assert pairs == {(1, 0), (2, 1), (0, 2)}
        for c in net.connections:
            n_src = net.populations[c.src].size
            n_dst = net.populations[c.dst].size
            assert c.M.shape == (n_dst, n_src)
            assert c.W.shape == (n_src, n_dst)

    def test_init_scale_shrinks_with_size(self):
        a = build_single_population(100, Activation.TANH, _hyper(), seed=3)
        big = np.abs(a.connections[0].M).max()
        assert big < 0.01

    def test_tied_weights_start_transposed(self):
        net = build_single_population(8, Activation.TANH, _hyper(),
                                      tie_weights=True, seed=4)
        c = net.connections[0]
        np.testing.assert_array_equal(c.W, c.M.T)

    def test_every_population_needs_one_incoming(self):
        pops = [Population(3), Population(3)]
        conns = [Connection(0, 1, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3))]
        with pytest.raises(ConstructionError):
            Network(pops, conns, Activation.TANH, _hyper())

    def test_two_incoming_rejected(self):
        pops = [Population(2)]
        mk = lambda: Connection(0, 0, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ConstructionError):
            Network(pops, [mk(), mk()], Activation.TANH, _hyper())

    def test_shape_mismatch_rejected(self):
        pops = [Population(3)]
        conns = [Connection(0, 0, np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(3))]
        with pytest.raises(ConstructionError):
            Network(pops, conns, Activation.TANH, _hyper())

    def test_loop_needs_two_populations(self):
        with pytest.raises(ConstructionError):
            build_loop([7], Activation.TANH, _hyper(), seed=0)


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

    def test_rejects_euler_unstable_split_constants(self):
        """dt is checked against the effective tau_e and tau_v, and the
        error leak needs dt*zeta/tau_e < 2; both cases below diverge
        under Euler if accepted."""
        for kw in (dict(tau_error=0.001), dict(tau_value=0.001), dict(zeta=500.0)):
            with pytest.raises(ConstructionError):
                _hyper(**kw)

    def test_split_time_constants(self):
        h = Hyperparams(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005,
                        tau_error=0.5, tau_value=2.0)
        assert h.tau_e == 0.5
        assert h.tau_v == 2.0
        assert _hyper().tau_e == 1.0


class TestFastStep:
    @pytest.mark.parametrize("act", list(Activation))
    def test_matches_oracle_single(self, act):
        rng = np.random.default_rng(5)
        net = build_single_population(9, act, _hyper(), seed=5)
        for p in net.populations:
            p.v = rng.normal(size=p.size)
            p.eps = rng.normal(size=p.size)
        dv_o, de_o = rhs_oracle(net)
        dE, dV = net.rhs(net.E.copy(), net.V.copy())
        for i, p in enumerate(net.populations):
            np.testing.assert_allclose(dV[p.slice], dv_o[i], atol=1e-12)
            np.testing.assert_allclose(dE[p.slice], de_o[i], atol=1e-12)

    def test_matches_oracle_loop(self):
        rng = np.random.default_rng(6)
        net = build_loop([6, 4, 3], Activation.TANH, _hyper(), seed=6)
        for p in net.populations:
            p.v = rng.normal(size=p.size)
            p.eps = rng.normal(size=p.size)
        dv_o, de_o = rhs_oracle(net)
        dE, dV = net.rhs(net.E.copy(), net.V.copy())
        for i, p in enumerate(net.populations):
            np.testing.assert_allclose(dV[p.slice], dv_o[i], atol=1e-12)
            np.testing.assert_allclose(dE[p.slice], de_o[i], atol=1e-12)

    def test_euler_step_applies_derivatives(self):
        rng = np.random.default_rng(7)
        net = build_single_population(5, Activation.TANH, _hyper(), seed=7)
        for p in net.populations:
            p.v = rng.normal(size=p.size)
            p.eps = rng.normal(size=p.size)
        dv, de = rhs_oracle(net)
        v0 = net.populations[0].v.copy()
        e0 = net.populations[0].eps.copy()
        net.step_fast()
        dt = net.hyper.dt
        np.testing.assert_allclose(net.populations[0].v, v0 + dt * dv[0],
                                   atol=1e-14)
        np.testing.assert_allclose(net.populations[0].eps, e0 + dt * de[0],
                                   atol=1e-14)

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("runs", [None, 1, 7])
    def test_euler_is_bitwise_s_plus_dt_rhs(self, activation, runs):
        """rhs into given arrays equals the fast equations written as
        plain expressions, and the in-place step s + dt * rhs(s), bit
        for bit, on a (2T,) state and on (2T, B) batches; a second step
        reuses the workspace."""
        hyper = _hyper(zeta=0.9, tau_error=0.7, tau_value=1.3)
        net = build_loop([4, 3], activation, hyper, init_scale=1.0, seed=23)
        net.b[:] = np.random.default_rng(24).normal(size=7)
        T, h = 7, net.hyper
        shape = (2 * T,) if runs is None else (2 * T, runs)
        s = np.random.default_rng(25).normal(size=shape)
        b = net.b if runs is None else net.b[:, None]
        for _ in range(2):
            E, V = s[:T], s[T:]
            if activation is Activation.TANH:
                sig, gain = np.tanh(V), 1.0 - np.tanh(V) * np.tanh(V)
            elif activation is Activation.RELU:
                sig, gain = np.maximum(V, 0.0), np.where(V > 0.0, 1.0, 0.0)
            else:
                sig, gain = V, np.ones_like(V)
            dE = (V - (net.M @ sig + b) - h.zeta * E) / h.tau_e
            dV = (-E + gain * (net.W @ E)) / h.tau_v
            got = net.rhs(E, V, out=[np.empty_like(V) for _ in range(3)])
            np.testing.assert_array_equal(got[0], dE)
            np.testing.assert_array_equal(got[1], dV)
            want = np.concatenate((E + h.dt * dE, V + h.dt * dV))
            net.euler(s)
            np.testing.assert_array_equal(s, want)

    def test_clamped_values_pinned(self):
        rng = np.random.default_rng(8)
        net = build_single_population(5, Activation.TANH, _hyper(), seed=8)
        target = rng.normal(size=5)
        net.populations[0].clamp(target)
        for _ in range(50):
            net.step_fast()
        np.testing.assert_array_equal(net.populations[0].v, target)
        # errors keep integrating while values are pinned
        assert np.linalg.norm(net.populations[0].eps) > 0

    def test_algebraic_error_mode(self):
        """With algebraic errors, eps jumps straight to (v - mu)/zeta
        evaluated at the pre-update values."""
        rng = np.random.default_rng(9)
        net = build_single_population(5, Activation.TANH, _hyper(zeta=2.0), seed=9)
        net.populations[0].v = rng.normal(size=5)
        v0 = net.populations[0].v.copy()
        mu0 = net.predict(v0)
        net.step_fast(algebraic_errors=True)
        np.testing.assert_allclose(net.populations[0].eps, (v0 - mu0) / 2.0,
                                   atol=1e-12)

    def test_divergence_raises_with_step(self):
        net = build_single_population(4, Activation.IDENTITY, _hyper(), seed=10)
        net.connections[0].M[:] = 1e80
        net.connections[0].W[:] = 1e80
        net.set_values(np.full(4, 1e80))
        with pytest.raises(IntegrationDivergenceError) as exc:
            for _ in range(10):
                net.step_fast()
        assert exc.value.step >= 1


class TestSlowStep:
    def test_learning_increment_arithmetic(self):
        """One slow step must add exactly (dt/gamma) * outer products."""
        net = build_single_population(4, Activation.TANH, _hyper(), seed=11)
        rng = np.random.default_rng(11)
        p = net.populations[0]
        p.v = rng.normal(size=4)
        p.eps = rng.normal(size=4)
        c = net.connections[0]
        M0, W0, b0 = c.M.copy(), c.W.copy(), c.b.copy()
        sig = np.tanh(p.v)
        dM = np.outer(p.eps, sig)
        dW = np.outer(sig, p.eps)
        np.fill_diagonal(dM, 0.0)
        np.fill_diagonal(dW, 0.0)
        net.step_slow()
        scale = net.hyper.dt / net.hyper.gamma
        np.testing.assert_allclose(c.M, M0 + scale * dM, atol=1e-15)
        np.testing.assert_allclose(c.W, W0 + scale * dW, atol=1e-15)
        np.testing.assert_allclose(c.b, b0 + scale * p.eps, atol=1e-15)

    def test_self_connection_diagonal_stays_zero(self):
        net = build_single_population(6, Activation.TANH, _hyper(), seed=12)
        rng = np.random.default_rng(12)
        net.populations[0].v = rng.normal(size=6)
        net.populations[0].eps = rng.normal(size=6)
        for _ in range(7):
            net.step_slow()
        np.testing.assert_array_equal(np.diag(net.connections[0].M), 0.0)
        np.testing.assert_array_equal(np.diag(net.connections[0].W), 0.0)

    def test_tied_mode_keeps_transpose(self):
        net = build_single_population(5, Activation.TANH, _hyper(),
                                      tie_weights=True, seed=13)
        rng = np.random.default_rng(13)
        net.populations[0].v = rng.normal(size=5)
        net.populations[0].eps = rng.normal(size=5)
        for _ in range(5):
            net.step_slow()
        c = net.connections[0]
        np.testing.assert_array_equal(c.W, c.M.T)

    def test_frozen_rejects_slow_step(self):
        net = build_single_population(3, Activation.TANH, _hyper(), seed=14)
        freeze(net)
        with pytest.raises(ContractViolationError):
            net.step_slow()


class TestEnergy:
    def test_value_example(self):
        # E = sum_i (zeta/2) |eps_i|^2; zeta=1, eps=(3,4) -> 12.5
        net = build_single_population(2, Activation.IDENTITY, _hyper(), seed=15)
        net.populations[0].eps = np.array([3.0, 4.0])
        assert net.energy() == 12.5

    def test_zeta_scales_energy(self):
        net = build_single_population(2, Activation.IDENTITY, _hyper(zeta=3.0),
                                      seed=16)
        net.populations[0].eps = np.array([1.0, 1.0])
        assert net.energy() == 3.0

    def test_zero_errors_zero_energy(self):
        net = build_loop([3, 2], Activation.TANH, _hyper(), seed=17)
        assert net.energy() == 0.0


class TestEquilibrium:
    def test_relaxation_reaches_small_residual(self):
        net = build_single_population(10, Activation.TANH, _hyper(), seed=18)
        rng = np.random.default_rng(18)
        net.set_values(rng.normal(size=10))
        res = net.run_fast_to_equilibrium(1e-9, 200000)
        assert res.converged
        assert res.residual < 1e-9
        # at equilibrium both derivative sets vanish
        dv, de = rhs_oracle(net)
        for arr in dv + de:
            np.testing.assert_allclose(arr, 0.0, atol=1e-8)

    def test_zero_step_budget_reports_current_residual(self):
        net = build_single_population(6, Activation.TANH, _hyper(), seed=19)
        rng = np.random.default_rng(19)
        net.set_values(rng.normal(size=6))
        res = net.run_fast_to_equilibrium(1e-12, 0)
        assert not res.converged
        assert res.steps == 0
        assert res.residual > 0

    def test_one_rhs_per_step_on_the_step_fast_path(self):
        """Each step reuses the derivatives its residual was read from:
        one RHS evaluation per step, with the same states, step count
        and residual as step_fast followed by residual()."""
        def make():
            net = build_loop([4, 3], Activation.TANH, _hyper(), init_scale=1.0, seed=21)
            net.set_values(np.random.default_rng(21).normal(size=7))
            net.populations[0].clamp(np.linspace(-0.5, 0.5, 4))
            return net

        ref = make()
        for k in range(1, 10001):
            ref.step_fast()
            r = ref.residual()
            if r < 1e-6:
                break
        net = make()
        calls = []
        rhs = net.rhs
        net.rhs = lambda E, V: calls.append(1) or rhs(E, V)
        res = net.run_fast_to_equilibrium(1e-6, 10000)
        assert res.converged and (res.steps, res.residual) == (k, r)
        assert net.steps_taken == ref.steps_taken == k
        np.testing.assert_array_equal(net.s, ref.s)
        assert len(calls) == k + 1

    def test_residual_ignores_clamped_value_rows(self):
        net = build_single_population(6, Activation.TANH, _hyper(), seed=20)
        rng = np.random.default_rng(20)
        target = rng.normal(size=6)
        net.populations[0].clamp(target)
        res = net.run_fast_to_equilibrium(1e-10, 100000)
        assert res.converged
        # value equations are held off balance by the clamp, while the
        # error equations settle to eps = (v - mu)/zeta
        mu = net.predict(net.V)
        np.testing.assert_allclose(net.populations[0].eps,
                                   (target - mu) / net.hyper.zeta, atol=1e-8)


class TestRestrictedEnergyDescent:
    def test_energy_non_increasing_in_tied_algebraic_mode(self):
        """With tied weights, algebraic errors, and frozen weights, each
        fast step must not raise the energy (up to integrator slack)."""
        rng = np.random.default_rng(21)
        for trial in range(20):
            net = build_single_population(
                12, Activation.TANH, _hyper(dt=0.002),
                tie_weights=True, seed=100 + trial)
            freeze(net)
            net.set_values(rng.normal(size=12))
            net.step_fast(algebraic_errors=True)
            prev = net.energy()
            for _ in range(1000):
                net.step_fast(algebraic_errors=True)
                cur = net.energy()
                assert cur <= prev + 1e-9
                prev = cur


class TestStateHelpers:
    def test_values_vector_round_trip(self):
        net = build_loop([4, 3, 2], Activation.TANH, _hyper(), seed=22)
        rng = np.random.default_rng(22)
        x = rng.normal(size=9)
        net.set_values(x)
        np.testing.assert_array_equal(net.values_vector(), x)

    def test_fast_state_round_trip(self):
        net = build_loop([4, 3], Activation.TANH, _hyper(), seed=23)
        rng = np.random.default_rng(23)
        s = rng.normal(size=2 * 7)
        net.set_fast_state(s)
        np.testing.assert_array_equal(net.fast_state(), s)

    def test_clamp_all_then_unclamp(self):
        net = build_loop([3, 3], Activation.TANH, _hyper(), seed=24)
        x = np.arange(6.0)
        net.clamp_all(x)
        assert all(p.clamped for p in net.populations)
        net.unclamp_all()
        assert not any(p.clamped for p in net.populations)
        np.testing.assert_array_equal(net.values_vector(), x)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = build_loop([5, 4, 3], Activation.TANH, _hyper(), seed=25)
        rng = np.random.default_rng(25)
        for c in net.connections:
            c.M += rng.normal(size=c.M.shape) * 0.1
            c.W += rng.normal(size=c.W.shape) * 0.1
            c.b += rng.normal(size=c.b.shape) * 0.1
        path = tmp_path / "net.pchn"
        save_weights(net, str(path))
        other = build_loop([5, 4, 3], Activation.TANH, _hyper(), seed=99)
        load_weights(other, str(path))
        for a, b in zip(net.connections, other.connections):
            np.testing.assert_array_equal(a.M, b.M)
            np.testing.assert_array_equal(a.W, b.W)
            np.testing.assert_array_equal(a.b, b.b)

    def test_same_weights_same_bytes(self, tmp_path):
        net = build_single_population(6, Activation.TANH, _hyper(), seed=26)
        p1, p2 = tmp_path / "a.pchn", tmp_path / "b.pchn"
        save_weights(net, str(p1))
        save_weights(net, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_architecture_mismatch_rejected(self, tmp_path):
        net = build_single_population(6, Activation.TANH, _hyper(), seed=27)
        path = tmp_path / "net.pchn"
        save_weights(net, str(path))
        other = build_single_population(7, Activation.TANH, _hyper(), seed=27)
        with pytest.raises(ConstructionError):
            load_weights(other, str(path))

    def test_bad_magic_rejected(self, tmp_path):
        net = build_single_population(3, Activation.TANH, _hyper(), seed=28)
        path = tmp_path / "bad.pchn"
        path.write_text("NOPE v9\n")
        with pytest.raises(ConstructionError):
            load_weights(net, str(path))

    def test_trailing_garbage_rejected(self, tmp_path):
        net = build_single_population(3, Activation.TANH, _hyper(), seed=29)
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
        before = [(c.M.copy(), c.W.copy(), c.b.copy()) for c in other.connections]
        return path, other, before

    def _assert_untouched(self, net, before):
        for c, (M, W, b) in zip(net.connections, before):
            np.testing.assert_array_equal(c.M, M)
            np.testing.assert_array_equal(c.W, W)
            np.testing.assert_array_equal(c.b, b)

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
        before = [(c.M.copy(), c.W.copy(), c.b.copy()) for c in other.connections]
        with pytest.raises(ConstructionError, match="activation tanh tied false"):
            load_weights(other, str(path))
        self._assert_untouched(other, before)

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
        net = build_single_population(2, Activation.RELU, _hyper(), seed=33)
        load_weights(net, str(path))
        np.testing.assert_array_equal(net.M, [[0.0, 0.5], [-0.25, 0.0]])
        np.testing.assert_array_equal(net.W, [[0.0, 0.125], [1.5, 0.0]])
        np.testing.assert_array_equal(net.b, [0.75, -2.0])
        resaved = tmp_path / "new.pchn"
        save_weights(net, str(resaved))
        assert resaved.read_text().splitlines()[1] == "activation relu tied false"
        assert resaved.read_text().splitlines()[2:] == path.read_text().splitlines()[1:]
