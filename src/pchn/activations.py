"""Pointwise activation functions and their derivatives.

Each member knows its first and second derivative so downstream code
(integration, Jacobians) never hand-rolls them.  ReLU's derivative at
exactly 0 is defined as 0; Jacobian code is expected to refuse states
that sit on the kink, see stability.jacobian_analytic.

Every member keeps |sigma(x)| <= |x| and |sigma'(x)| <= 1, for which
Network.relax's divergence bound holds; a member that breaks either,
softplus for one (softplus(0) = log 2), needs that bound revised.
"""

from enum import Enum

import numpy as np


class Activation(Enum):
    IDENTITY = "identity"
    RELU = "relu"
    TANH = "tanh"

    @classmethod
    def from_name(cls, name: str) -> "Activation":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown activation {name!r}") from None

    def in_place(self, out):
        """(sigma, gain), the integrator's form of the activation: sigma(x)
        writes sigma(x) into out; gain(), with out holding sigma(x), turns
        it into sigma'(x) in place.  Both return out."""
        if self is Activation.RELU:
            # convention: derivative at the kink itself is 0, as the sign
            # of max(x, 0) has it
            # a 0-d zero is compared faster than the Python float 0.0
            zero = np.array(0.0)
            return (lambda x: np.maximum(x, zero, out=out)), (lambda: np.sign(out, out))
        if self is Activation.TANH:
            return ((lambda x: np.tanh(x, out)),
                    (lambda: np.subtract(1.0, np.multiply(out, out, out), out)))
        return (lambda x: np.copyto(out, x) or out), (lambda: out.fill(1.0) or out)

    def apply(self, x):
        """sigma(x)."""
        x = np.asarray(x, dtype=float)
        return self.in_place(np.empty_like(x))[0](x)

    def derivative(self, x):
        """sigma'(x)."""
        x = np.asarray(x, dtype=float)
        sigma, gain = self.in_place(np.empty_like(x))
        sigma(x)
        return gain()

    def second_derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self is not Activation.TANH:
            return np.zeros_like(x)
        t = np.tanh(x)
        return -2.0 * t * (1.0 - t * t)
