"""Pointwise activation functions and their derivatives.

Each member knows its first and second derivative so downstream code
(integration, Jacobians) never hand-rolls them.  ReLU's derivative at
exactly 0 is defined as 0; Jacobian code is expected to refuse states
that sit on the kink, see stability.jacobian_analytic.
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

    def apply(self, x, out=None):
        """sigma(x), written into out when given."""
        if self is Activation.RELU:
            return np.maximum(x, 0.0, out=out)
        if self is Activation.TANH:
            return np.tanh(x, out)
        if out is None:
            return np.asarray(x, dtype=float)
        np.copyto(out, x)
        return out

    def derivative(self, x, out=None, sigma=None):
        """sigma'(x), written into out when given.  relu and tanh reuse
        sigma, when given, as sigma(x); out may be sigma itself."""
        if out is None:
            x = np.asarray(x, dtype=float)
            out = np.empty_like(x)
        if self is Activation.IDENTITY:
            out.fill(1.0)
        elif self is Activation.RELU:
            # convention: derivative at the kink itself is 0, as the sign
            # of max(x, 0) has it
            np.sign(self.apply(x) if sigma is None else sigma, out)
        else:
            t = np.tanh(x) if sigma is None else sigma
            np.multiply(t, t, out)
            np.subtract(1.0, out, out)
        return out

    def second_derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self is not Activation.TANH:
            return np.zeros_like(x)
        t = np.tanh(x)
        return -2.0 * t * (1.0 - t * t)
