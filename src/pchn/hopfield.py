"""Classical binary Hopfield network, used as the recall oracle.

Outer-product (Hebbian) storage, asynchronous sign updates, and the two
textbook energy forms.  Kept deliberately simple and integer-exact on
+-1 states so energy monotonicity can be asserted without tolerances.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError
from .network import _natural, _vector


@dataclass
class HopfieldNet:
    W: np.ndarray
    b: np.ndarray


@dataclass
class RecallResult:
    v: np.ndarray
    sweeps: int
    converged: bool


def _check_pm1(x, what):
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) == 1.0):
        raise ConstructionError(f"{what} must have entries +-1 exactly")
    return x


def _patterns(X):
    X = _check_pm1(X, "patterns")
    if X.ndim != 2:
        raise ConstructionError("patterns must be a (N, d) array")
    return X


def hebbian_store(patterns) -> HopfieldNet:
    """Sum of outer products with the diagonal zeroed; zero bias."""
    X = _patterns(patterns)
    W = X.T @ X
    np.fill_diagonal(W, 0.0)
    return HopfieldNet(W, np.zeros(X.shape[1]))


def async_sweep(net: HopfieldNet, v, order):
    """Update the listed neurons one at a time, in order, each seeing the
    latest state.  A zero local field keeps the previous value.  A state
    that is not a +-1 vector of the net's length, or an order that holds
    anything but integers in [0, d), raises ConstructionError before any
    update."""
    v = _vector(_check_pm1(v, "state"), net.b.size).copy()
    order = np.asarray(order)
    if order.ndim != 1 or order.size and not (np.issubdtype(order.dtype, np.integer)
                                              and 0 <= order.min() <= order.max() < v.size):
        raise ConstructionError(f"order must hold integers in [0, {v.size}) only")
    for i in order.tolist():
        h = float(net.W[i] @ v + net.b[i])
        if h > 0.0:
            v[i] = 1.0
        elif h < 0.0:
            v[i] = -1.0
    return v


def hn_energy(net: HopfieldNet, v) -> float:
    """-(1/2) v W v - b v of a +-1 state v of the net's length; any other
    v raises ConstructionError."""
    v = _vector(_check_pm1(v, "state"), net.b.size)
    return float(-0.5 * v @ net.W @ v - net.b @ v)


def interaction_energy(patterns, v) -> float:
    """Pattern-overlap form: -(1/2) sum_n (x_n . v)^2 of a +-1 (N, d)
    stack and a +-1 state of length d, or ConstructionError.  It matches
    hn_energy of the stored net up to the constant N*d/2."""
    X = _patterns(patterns)
    overlaps = X @ _vector(_check_pm1(v, "state"), X.shape[1])
    return float(-0.5 * np.dot(overlaps, overlaps))


def recall(net: HopfieldNet, v0, max_sweeps: int = 50, seed=0) -> RecallResult:
    """Sweep all neurons in a fresh random order until a full sweep
    changes nothing or the budget of max_sweeps >= 0 sweeps runs out."""
    max_sweeps = _natural("max_sweeps", max_sweeps)
    rng = np.random.default_rng(seed)
    v = _vector(_check_pm1(v0, "state"), net.b.size).copy()
    for k in range(1, max_sweeps + 1):
        nxt = async_sweep(net, v, rng.permutation(net.b.size))
        if np.array_equal(nxt, v):
            return RecallResult(nxt, k, True)
        v = nxt
    return RecallResult(v, max_sweeps, False)
