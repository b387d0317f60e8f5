"""Linear stability analysis at equilibria of the fast dynamics.

The state is a packed fast state (all errors E, then all values V); its
RHS is network.fast_rhs_flat.  The analytic Jacobian is four dense
T x T blocks built from the global M and W (entries outside the
connection mask are zero there), including the second-derivative term
that enters through sigma'(v) multiplying the correction current.
A tanh spectrum comes from a dense general eigensolver on that 2T x 2T
matrix.  For relu off its kink and the identity, sigma'' = 0 zeroes its
(2, 2) block, and _eigenvalues reduces the spectrum to one T x T
eigenproblem, equal to the 2T x 2T one up to round-off.

Because trained networks carry modes with |Re(lambda)| down to 1e-4,
driving the derivative residual to a tight tolerance by simulation alone
would take thousands of simulated seconds; analyze_equilibrium therefore
interleaves relaxation stretches with Newton root polishing of the
reduced T-dimensional system and checks the 2T residual against tol.

analyze_equilibrium takes an (n, T) stack of targets, and all of them
relax together: their states are the rows of one (2, n, T) array, E
rows then V rows, stepped by Network.relax in one loop of rounds.  Each
round relaxes the targets still unresolved, for max_steps and then for
geometrically growing chunks, and decides each of them: diverged,
settled by the flow, out of rounds, or probed with Newton, which reports
a stable root or leaves the target to the next round.  Each row stops at
its own first step under the tolerance, so a target sees the same steps
as it would alone; only the rounding of the batched matrix products
differs.  np.compress hands relax the C-contiguous batch of the targets
left.  Newton probes, Jacobians and eigenvalues stay per target.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .activations import Activation
from .errors import (ConstructionError, IntegrationDivergenceError,
                     NonDifferentiableStateError, NotAnEquilibriumError)
from .network import _rows, _vector

KINK_MARGIN = 1e-8


def jacobian_analytic(net, state):
    """Exact Jacobian of the unclamped fast dynamics at the given packed
    state.  ReLU states within 1e-8 of a kink are refused since the
    derivative is not defined there."""
    T = net.total_units
    state = _vector(state, 2 * T)
    E, V = state[:T], state[T:]
    h, act = net.hyper, net.activation
    if act is Activation.RELU and np.any(np.abs(V) < KINK_MARGIN):
        raise NonDifferentiableStateError(
            f"a value lies within {KINK_MARGIN} of the ReLU kink")
    gain = act.derivative(V)
    d = np.arange(T)
    # blocks [[dE/dE, dE/dV], [dV/dE, dV/dV]], accumulated onto zeros
    J = np.zeros((2 * T, 2 * T))
    J[d, d] += -h.zeta / h.tau
    J[d, T + d] += 1.0 / h.tau
    J[:T, T:] -= (net.M * gain) / h.tau
    J[T + d, d] += -1.0 / h.tau
    J[T:, :T] += (gain[:, None] * net.W) / h.tau
    J[T + d, T + d] += act.second_derivative(V) * (net.W @ E) / h.tau
    return J


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    max_real_part: float
    count_at_minus_half_tau: int
    count_near_minus_one: int
    near_zero: list
    all_stable: bool
    residual: float = float("nan")
    distance_to_target: float = float("nan")
    state: Optional[np.ndarray] = None


def classify_spectrum(eigs, tau: float, residual: float = float("nan"),
                      distance_to_target: float = float("nan")) -> SpectrumReport:
    """Sort and bucket an eigenvalue list.

    The -1/(2 tau) bucket counts eigenvalues whose real part is within
    1% of -1/(2 tau).  The bulk of the spectrum is complex pairs whose
    real part sits exactly there while the imaginary parts spread, so
    counting by the full complex distance would register nothing; the
    decay-rate reading is the one the multiplicity claim is about.
    """
    eigs = np.asarray(eigs, dtype=complex)
    rows = [_row(z) for z in eigs.tolist()]

    def printed(i):
        re, im = rows[i].split(",")
        return -float(re), -float(im), rows[i]

    # by the printed re, then the printed im, descending, as spectrum_to_csv
    # writes them (the row breaks a 0 / -0 tie): a file depends only on its
    # multiset of rows, whatever order round-off left the eigenvalues in
    eigs = eigs[sorted(range(eigs.size), key=printed)]
    half = 1.0 / (2.0 * tau)
    count_half = int(np.sum(np.abs(eigs.real + half) / half < 0.01))
    count_m1 = int(np.sum(np.abs(eigs + 1.0) < 0.1))
    near_zero = [complex(z) for z in eigs[np.abs(eigs.real) < 0.1]]
    return SpectrumReport(
        eigenvalues=eigs,
        max_real_part=float(np.max(eigs.real)),
        count_at_minus_half_tau=count_half,
        count_near_minus_one=count_m1,
        near_zero=near_zero,
        all_stable=bool(np.max(eigs.real) < 0.0),
        residual=residual,
        distance_to_target=distance_to_target,
    )


def _sup(x) -> float:
    return float(np.max(np.abs(x)))


@np.errstate(over="ignore", invalid="ignore")
def _newton_polish(net, s, tol):
    """Root-polish the fast RHS from s; returns (state, residual).

    dE = 0 at an equilibrium, so there E = (V - M sigma(V) - b) / zeta and
    V solves the T-dimensional G(V) = dV(E, V) = 0, whose Jacobian is the
    Schur complement D - C A^-1 B of the 2T one [[A, B], [C, D]], A being
    -(zeta/tau) I.  The Newton steps on G are undamped: across a ReLU kink
    a damped step cycles.  Under tol, the first step that does not lower
    the 2T residual is the last.  An iterate gone non-finite returns s.
    """
    T, h = net.total_units, net.hyper

    def settle(V):
        x = np.concatenate([(V - net.predict(V)) / h.zeta, V])
        d = net.fast_rhs_flat(x)
        return x, d, _sup(d)

    x, d, r = settle(s[T:])
    for _ in range(50):
        J = jacobian_analytic(net, x)
        J = J[T:, T:] + (h.tau / h.zeta) * J[T:, :T] @ J[:T, T:]
        G = d[T:]
        try:
            step = np.linalg.solve(J, G)
        except np.linalg.LinAlgError:  # singular J: the least-squares step
            step = np.linalg.lstsq(J, G, rcond=None)[0]
        x1, d1, r1 = settle(x[T:] - step)
        if not np.all(np.isfinite(x1)):
            return s, _sup(net.fast_rhs_flat(s))
        if r < tol and not r1 < r:
            # round-off: this last step still corrects the slow modes
            return (x1, r1) if r1 < tol else (x, r)
        x, d, r = x1, d1, r1
    return x, r


def _eigenvalues(net, s):
    """The 2T eigenvalues of the Jacobian at the packed state s.

    With G = diag sigma'(V), tau J = [[-zeta I, I - M G], [G W - I, H]],
    H = diag(sigma''(V) * (W @ E)).  tanh has sigma'' != 0 and takes the
    dense 2T x 2T eigensolver.  For relu and the identity H = 0, and the
    Schur complement of the (1, 1) block turns det(mu I - tau J) into
    det((mu^2 + zeta mu) I - K), K = (G W - I)(I - M G): lambda = mu / tau
    for both roots of mu^2 + zeta mu = kappa, for each eigenvalue kappa of
    K = tau^2 J21 J12.  The principal root keeps Re(zeta + sqrt) >= zeta
    > 0, so mu1 is not zero and mu2 = -kappa / mu1 cancels nothing.
    """
    J = jacobian_analytic(net, s)
    if net.activation is Activation.TANH:
        return np.linalg.eigvals(J)
    T, h = net.total_units, net.hyper
    kappa = np.linalg.eigvals(h.tau ** 2 * J[T:, :T] @ J[:T, T:]).astype(complex)
    mu1 = -0.5 * (h.zeta + np.sqrt(h.zeta ** 2 + 4.0 * kappa))
    return np.concatenate([mu1, -kappa / mu1]) / h.tau


def _report(net, s, residual, target) -> SpectrumReport:
    """The report of the equilibrium s, whose residual is residual; its
    eigenvalues come from _eigenvalues.  Raises NonDifferentiableStateError
    at a ReLU kink, before any eigensolve."""
    eigs = _eigenvalues(net, s)
    dist = float(np.linalg.norm(s[net.total_units:] - target))
    rep = classify_spectrum(eigs, net.hyper.tau, float(residual), dist)
    rep.state = s
    return rep


def _probe(net, s, tol, target):
    """Newton probe from s: the report of a root under tol whose spectrum
    is stable, else None.  A probe that lands on an unstable root while
    the flow is still moving found a saddle the trajectory passes near,
    not the equilibrium it is heading to."""
    try:
        s_probe, res_probe = _newton_polish(net, s, tol)
    except NonDifferentiableStateError:
        # solver trial point grazed a ReLU kink; drop the probe
        return None
    if not res_probe < tol:
        return None
    rep = _report(net, s_probe, res_probe, target)
    return rep if rep.all_stable else None


def analyze_equilibrium(net, targets, tol: float = 1e-8, *,
                        max_steps: int = 4000):
    """Place the values at each target, relax to the nearby equilibrium,
    and classify the spectrum of the Jacobian there.

    targets is an (n, T) stack of patterns, n >= 0.  Every target relaxes
    as one row of a (2, n, T) batch through Network.relax; the net's
    own fast state s is not touched.  The result is a list holding, per
    target, its report or the error that ended it: NotAnEquilibriumError,
    IntegrationDivergenceError (at the count of that target's relaxation
    steps) or NonDifferentiableStateError.  Each report's state is its
    equilibrium.

    The equilibrium the dynamics settle into need not be close to the
    requested target (untrained networks drift far away); callers that
    care should look at distance_to_target on the report.  The dynamics
    analyzed are the unclamped ones; no weight moves, so a net need not be
    frozen.
    """
    if not tol > 0:
        raise ConstructionError("tol must be positive")
    targets = _rows(targets, net.total_units, "targets")
    n, T = targets.shape
    S = np.zeros((2, n, T))
    S[1] = targets
    out, taken = [None] * n, np.zeros(n, dtype=int)
    pending, steps = np.arange(n), max_steps
    # rounds relax for max_steps, then for max(1, max_steps) * 2^i steps,
    # i = 0..7; the simulated flow stays authoritative, so a stalled probe
    # is dropped and its target relaxes on, batched with the others
    for i in range(9):
        relaxed = net.relax(S, tol, steps)
        taken[pending] += relaxed.steps
        for j, k in enumerate(pending):
            s, r = S[:, j].flatten(), relaxed.residual[j]
            try:
                if relaxed.diverged[j]:
                    out[k] = IntegrationDivergenceError(int(taken[k]))
                elif r < tol:
                    out[k] = _report(net, s, r, targets[k])
                elif i == 8:
                    out[k] = NotAnEquilibriumError(float(r))
                else:
                    out[k] = _probe(net, s, tol, targets[k])
            except NonDifferentiableStateError as e:
                out[k] = e
        keep = np.array([out[k] is None for k in pending], dtype=bool)
        S, pending = np.compress(keep, S, 1), pending[keep]
        if not pending.size:
            break
        steps = max(1, max_steps) * 2 ** i
    return out


def _row(z) -> str:
    """The eigenvalue z as a spectrum_to_csv row."""
    return f"{z.real:.10g},{z.imag:.10g}"


def spectrum_to_csv(report: SpectrumReport) -> str:
    lines = ["re,im"] + [_row(z) for z in report.eigenvalues.tolist()]
    lines.append(
        f"# summary max_real_part={report.max_real_part:.10g} "
        f"count_at_minus_half_tau={report.count_at_minus_half_tau} "
        f"count_near_minus_one={report.count_near_minus_one} "
        f"near_zero={len(report.near_zero)} "
        f"all_stable={report.all_stable} "
        f"residual={report.residual:.10g} "
        f"distance_to_target={report.distance_to_target:.10g}")
    return "\n".join(lines) + "\n"
