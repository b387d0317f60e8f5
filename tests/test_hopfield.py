"""Classical Hopfield reference: storage, recall, and energy bookkeeping."""

import itertools
import re

import numpy as np
import pytest

from pchn import ConstructionError
from pchn.hopfield import (HopfieldNet, async_sweep, hebbian_store, hn_energy,
                           interaction_energy, recall)


def _pm1(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)


class TestHebbianStore:
    def test_single_pattern_outer_product(self):
        x = np.array([[1.0, -1.0, 1.0]])
        net = hebbian_store(x)
        expect = np.outer(x[0], x[0])
        np.fill_diagonal(expect, 0.0)
        np.testing.assert_array_equal(net.W, expect)
        np.testing.assert_array_equal(net.b, 0.0)

    def test_two_patterns_sum(self):
        x = np.array([[1.0, 1.0, -1.0, -1.0],
                      [1.0, -1.0, 1.0, -1.0]])
        net = hebbian_store(x)
        expect = x.T @ x
        np.fill_diagonal(expect, 0.0)
        np.testing.assert_array_equal(net.W, expect)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(5)
        net = hebbian_store(_pm1(rng, (7, 40)))
        np.testing.assert_array_equal(net.W, net.W.T)
        np.testing.assert_array_equal(np.diag(net.W), 0.0)

    def test_rejects_non_pm1(self):
        with pytest.raises(ValueError):
            hebbian_store(np.array([[1.0, 0.5, -1.0]]))

    def test_rejects_a_single_pattern_that_is_not_a_stack(self):
        with pytest.raises(ConstructionError, match=r"patterns must be a \(N, d\) array"):
            hebbian_store(np.array([1.0, -1.0, 1.0]))


class TestAsyncSweep:
    def test_two_unit_example(self):
        # W couples the units ferromagnetically; from (-1, 1) the first
        # visited unit flips to match the other
        net = HopfieldNet(W=np.array([[0.0, 1.0], [1.0, 0.0]]), b=np.zeros(2))
        v = np.array([-1.0, 1.0])
        out = async_sweep(net, v, order=[0, 1])
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_zero_field_keeps_previous_value(self):
        net = HopfieldNet(W=np.zeros((2, 2)), b=np.zeros(2))
        v = np.array([1.0, -1.0])
        out = async_sweep(net, v, order=[0, 1])
        np.testing.assert_array_equal(out, v)

    @pytest.mark.parametrize("shape", [(8,), (11,), (1, 10)])
    def test_state_of_another_length_refused(self, shape):
        """A state that is not a vector of the net's length is refused
        before any update, not left to numpy's matmul error or to a
        broadcast."""
        net = hebbian_store(_pm1(np.random.default_rng(67), (3, 10)))
        v, match = np.ones(shape), re.escape(f"vector length {shape} != (10,)")
        with pytest.raises(ConstructionError, match=match):
            async_sweep(net, v, order=[0])
        with pytest.raises(ConstructionError, match=match):
            recall(net, v)
        with pytest.raises(ConstructionError, match=match):
            recall(net, v, max_sweeps=0)

    @pytest.mark.parametrize("order", [[-1], [6], [0, 6], [1.0], [True], [[0, 1]], 3, ["a"]],
                             ids=["negative", "past d", "past d last", "float", "bool",
                                  "2-d", "scalar", "text"])
    def test_order_of_anything_but_neurons_refused(self, order):
        """An order that holds anything but integers in [0, d) is refused
        before any update, not wrapped round to neuron d - 1 or left to a
        bare IndexError."""
        net = hebbian_store(_pm1(np.random.default_rng(68), (2, 6)))
        with pytest.raises(ConstructionError,
                           match=re.escape("order must hold integers in [0, 6) only")):
            async_sweep(net, np.ones(6), order)

    def test_empty_order_updates_nothing(self):
        net = hebbian_store(_pm1(np.random.default_rng(69), (2, 6)))
        v = _pm1(np.random.default_rng(70), 6)
        np.testing.assert_array_equal(async_sweep(net, v, []), v)

    def test_energy_never_increases_along_updates(self):
        """Every single-neuron update must keep hn_energy non-increasing;
        checked exhaustively along full recalls at d=100."""
        rng = np.random.default_rng(19)
        x = _pm1(rng, (10, 100))
        net = hebbian_store(x)
        for k in range(10):
            v = x[k].copy()
            flip = rng.choice(100, size=13, replace=False)
            v[flip] *= -1
            e_prev = hn_energy(net, v)
            for _ in range(50):
                order = rng.permutation(100)
                changed = False
                for i in order:
                    h = net.W[i] @ v + net.b[i]
                    new = 1.0 if h > 0 else (-1.0 if h < 0 else v[i])
                    if new != v[i]:
                        v[i] = new
                        changed = True
                    e = hn_energy(net, v)
                    assert e <= e_prev + 1e-9
                    e_prev = e
                if not changed:
                    break


class TestEnergies:
    def test_quadratic_interaction_equals_hn_energy_up_to_constant(self):
        """The two energy forms differ by the constant N*d/2 on sign
        vectors; checked on all 2^d states for small d."""
        rng = np.random.default_rng(23)
        for d in (4, 6, 8, 10):
            x = _pm1(rng, (3, d))
            net = hebbian_store(x)
            states = np.array(list(itertools.product([-1.0, 1.0], repeat=d)))
            gaps = [hn_energy(net, v) - interaction_energy(x, v) for v in states]
            np.testing.assert_allclose(gaps, gaps[0], atol=1e-9)

    def test_interaction_energy_value(self):
        x = np.array([[1.0, 1.0], [1.0, -1.0]])
        v = np.array([1.0, 1.0])
        # overlaps are 2 and 0
        assert interaction_energy(x, v) == -2.0

    @pytest.mark.parametrize("v, match", [
        (np.full(10, 0.5), "state must have entries +-1 exactly"),
        (np.ones(8), "vector length (8,) != (10,)"),
        (np.ones((1, 10)), "vector length (1, 10) != (10,)")],
        ids=["not pm1", "short", "2-d"])
    def test_energies_refuse_a_state_that_is_not_a_pm1_vector_of_the_net(self, v, match):
        """Both energy forms refuse a state that is not a +-1 vector of the
        net's length: a half-valued state has no energy of its own, and a
        short one is not left to numpy's matmul error."""
        x = np.ones((3, 10))
        net = hebbian_store(x)
        with pytest.raises(ConstructionError, match=re.escape(match)):
            hn_energy(net, v)
        with pytest.raises(ConstructionError, match=re.escape(match)):
            interaction_energy(x, v)

    @pytest.mark.parametrize("patterns, match", [
        (np.full((3, 10), 0.5), "patterns must have entries +-1 exactly"),
        (np.ones(10), "patterns must be a (N, d) array"),
        (np.ones((2, 3, 10)), "patterns must be a (N, d) array")],
        ids=["not pm1", "1-d", "3-d"])
    def test_interaction_energy_refuses_patterns_that_are_not_a_pm1_stack(self, patterns,
                                                                          match):
        with pytest.raises(ConstructionError, match=re.escape(match)):
            interaction_energy(patterns, np.ones(10))

    def test_hn_energy_value(self):
        net = HopfieldNet(W=np.array([[0.0, 2.0], [2.0, 0.0]]),
                          b=np.array([1.0, 0.0]))
        v = np.array([1.0, -1.0])
        # -0.5 * (v W v) - b.v = -0.5 * (-4) - 1 = 1
        assert hn_energy(net, v) == 1.0


class TestRecall:
    def test_stored_patterns_are_fixed_points(self):
        rng = np.random.default_rng(31)
        x = _pm1(rng, (10, 100))
        net = hebbian_store(x)
        for k in range(10):
            res = recall(net, x[k], seed=k)
            assert res.converged
            assert res.sweeps == 1
            np.testing.assert_array_equal(res.v, x[k])

    def test_recovers_flipped_probes_below_capacity(self):
        """N=10 patterns in d=100 sits under the ~0.138 d capacity, so
        13-bit corruptions should almost always come back exactly."""
        n_exact = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            x = _pm1(rng, (10, 100))
            net = hebbian_store(x)
            k = int(rng.integers(10))
            v = x[k].copy()
            flip = rng.choice(100, size=13, replace=False)
            v[flip] *= -1
            res = recall(net, v, seed=seed)
            assert res.converged
            n_exact += bool(np.array_equal(res.v, x[k]))
        assert n_exact >= 18

    def test_recall_invariant_to_weight_rescaling(self):
        """Sign dynamics only read the sign of the field, so scaling W
        by a positive constant cannot change the trajectory."""
        rng = np.random.default_rng(37)
        x = _pm1(rng, (5, 60))
        net = hebbian_store(x)
        scaled = HopfieldNet(W=3.7 * net.W, b=net.b.copy())
        v0 = x[2].copy()
        v0[:9] *= -1
        a = recall(net, v0, seed=9)
        b = recall(scaled, v0, seed=9)
        np.testing.assert_array_equal(a.v, b.v)
        assert a.sweeps == b.sweeps

    def test_single_pattern_full_recovery(self):
        rng = np.random.default_rng(41)
        x = _pm1(rng, (1, 50))
        net = hebbian_store(x)
        v = x[0].copy()
        v[:10] *= -1
        res = recall(net, v, seed=0)
        np.testing.assert_array_equal(res.v, x[0])

    def test_budget_that_runs_out_reports_not_converged(self):
        """A probe that the first sweep changes, recalled with one sweep,
        ends unconverged after that sweep, at the state it reached."""
        rng = np.random.default_rng(47)
        x = _pm1(rng, (3, 40))
        net = hebbian_store(x)
        v0 = x[0].copy()
        v0[:12] *= -1
        after_one = async_sweep(net, v0, np.random.default_rng(5).permutation(40))
        assert not np.array_equal(after_one, v0)
        res = recall(net, v0, max_sweeps=1, seed=5)
        assert (res.sweeps, res.converged) == (1, False)
        np.testing.assert_array_equal(res.v, after_one)

    @pytest.mark.parametrize("max_sweeps, match", [
        (-3, "max_sweeps=-3 is negative"),
        (2.5, "max_sweeps=2.5 is not an integer"),
        ("5", "max_sweeps='5' is not an integer")], ids=["negative", "float", "text"])
    def test_refuses_a_budget_that_is_not_a_count(self, max_sweeps, match):
        """The budget is an integer >= 0, as the CLI's counts are; a
        negative one would otherwise come back as sweeps=-3,
        converged=False."""
        net = hebbian_store(_pm1(np.random.default_rng(53), (2, 20)))
        with pytest.raises(ConstructionError, match=match):
            recall(net, np.ones(20), max_sweeps=max_sweeps)

    def test_zero_budget_returns_the_probe(self):
        net = hebbian_store(_pm1(np.random.default_rng(59), (2, 20)))
        v0 = _pm1(np.random.default_rng(61), 20)
        res = recall(net, v0, max_sweeps=0)
        assert (res.sweeps, res.converged) == (0, False)
        np.testing.assert_array_equal(res.v, v0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(43)
        x = _pm1(rng, (8, 80))
        net = hebbian_store(x)
        v0 = _pm1(rng, 80)
        a = recall(net, v0, seed=17)
        b = recall(net, v0, seed=17)
        np.testing.assert_array_equal(a.v, b.v)
        assert a.sweeps == b.sweeps
