"""Activation functions and their derivatives."""

import numpy as np
import pytest

from pchn.activations import Activation


class TestApply:
    def test_identity_passes_through(self):
        x = np.array([-2.0, 0.0, 3.5])
        np.testing.assert_array_equal(Activation.IDENTITY.apply(x), x)

    def test_relu_clips_negatives(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(Activation.RELU.apply(x),
                                      [0.0, 0.0, 0.0, 0.5, 2.0])

    def test_tanh_matches_numpy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        np.testing.assert_allclose(Activation.TANH.apply(x), np.tanh(x), rtol=1e-15)

    def test_from_name(self):
        assert Activation.from_name("tanh") is Activation.TANH
        assert Activation.from_name("ReLU") is Activation.RELU
        assert Activation.from_name("identity") is Activation.IDENTITY
        with pytest.raises(ValueError):
            Activation.from_name("sigmoid")


class TestBounds:
    @pytest.mark.parametrize("act", list(Activation))
    def test_no_member_grows_its_input_or_has_a_slope_past_one(self, act):
        """|sigma(x)| <= |x| and |sigma'(x)| <= 1, which Network.relax's
        divergence bound relies on, on a dense grid, near the origin and
        at the extremes."""
        grid = np.linspace(-20.0, 20.0, 400001)
        x = np.concatenate((grid, grid * 1e-8, [1e300, -1e300, 0.0, -0.0, 5e-324]))
        assert np.all(np.abs(act.apply(x)) <= np.abs(x))
        assert np.all(np.abs(act.derivative(x)) <= 1.0)


class TestDerivatives:
    """Each derivative must match a central finite difference away from
    kinks, and take the documented one-sided value at them."""

    @pytest.mark.parametrize("act", list(Activation))
    def test_first_derivative_matches_fd(self, act):
        rng = np.random.default_rng(7)
        # keep points away from the ReLU kink at 0
        x = rng.normal(size=200)
        x = x[np.abs(x) > 1e-3]
        h = 1e-5
        fd = (act.apply(x + h) - act.apply(x - h)) / (2 * h)
        np.testing.assert_allclose(act.derivative(x), fd, atol=1e-6)

    @pytest.mark.parametrize("act", list(Activation))
    def test_second_derivative_matches_fd(self, act):
        rng = np.random.default_rng(11)
        x = rng.normal(size=200)
        x = x[np.abs(x) > 1e-3]
        h = 1e-4
        fd = (act.apply(x + h) - 2 * act.apply(x) + act.apply(x - h)) / h**2
        np.testing.assert_allclose(act.second_derivative(x), fd, atol=1e-5)

    @pytest.mark.parametrize("act", list(Activation))
    def test_gain_turns_sigma_into_the_derivative(self, act):
        """in_place's gain, run on sigma(x), leaves sigma'(x) in the
        buffer, bit for bit what derivative gives, non-finite and signed
        zero inputs included."""
        x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -0.5, 2.0, -1e300])
        out = np.empty_like(x)
        sigma, gain = act.in_place(out)
        assert sigma(x) is out
        assert gain() is out
        assert out.tobytes() == act.derivative(x).tobytes()

    def test_relu_derivative_at_zero_is_zero(self):
        assert Activation.RELU.derivative(np.array([0.0]))[0] == 0.0

    def test_tanh_second_derivative_closed_form(self):
        x = np.linspace(-3, 3, 101)
        t = np.tanh(x)
        np.testing.assert_allclose(Activation.TANH.second_derivative(x),
                                   -2 * t * (1 - t**2), rtol=1e-13)

    def test_identity_derivatives_constant(self):
        x = np.array([-5.0, 0.0, 5.0])
        np.testing.assert_array_equal(Activation.IDENTITY.derivative(x), 1.0)
        np.testing.assert_array_equal(Activation.IDENTITY.second_derivative(x), 0.0)
