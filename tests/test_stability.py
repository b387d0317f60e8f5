"""Jacobian assembly, spectrum classification, equilibrium analysis."""

import numpy as np
import pytest

from pchn import (Activation, ConstructionError, Hyperparams,
                  IntegrationDivergenceError, NonDifferentiableStateError,
                  NotAnEquilibriumError, TrainingSchedule, build_loop, freeze,
                  gen_targets, train)
from pchn import stability
from pchn.stability import (SpectrumReport, _newton_polish, _probe,
                            analyze_equilibrium, classify_spectrum,
                            jacobian_analytic, spectrum_to_csv)

from oracles import clamp_population, jacobian_fd, minpack_polish


def _hyper(**kw):
    base = dict(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005)
    base.update(kw)
    return Hyperparams(**base)


def _random_state(net, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=2 * net.total_units)


class TestJacobianAnalytic:
    def test_single_linear_unit_block_matrix(self):
        """One identity unit with zero weights: d(eps)/dt = v - eps,
        dv/dt = -eps, so the Jacobian is [[-1, 1], [-1, 0]]."""
        net = build_loop([1], Activation.IDENTITY, _hyper(), seed=0)
        freeze(net)
        J = jacobian_analytic(net, np.array([0.3, -0.7]))
        np.testing.assert_allclose(J, [[-1.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_state_of_the_wrong_length_refused(self):
        net = freeze(build_loop([3], Activation.TANH, _hyper(), seed=0))
        with pytest.raises(ConstructionError, match=r"state length \(7,\) != \(6,\)"):
            jacobian_analytic(net, np.zeros(7))

    def test_time_constants_scale_rows(self):
        h = Hyperparams(tau=0.5, gamma=100.0, zeta=1.0, dt=0.005)
        net = build_loop([1], Activation.IDENTITY, h, seed=0)
        freeze(net)
        J = jacobian_analytic(net, np.array([0.0, 0.0]))
        np.testing.assert_allclose(J, [[-2.0, 2.0], [-2.0, 0.0]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_fd_tanh(self, seed):
        """Acceptance-grade agreement: entrywise < 1e-5 at h=1e-5."""
        net = build_loop([7], Activation.TANH, _hyper(), seed=seed)
        freeze(net)
        s = _random_state(net, 100 + seed)
        J = jacobian_analytic(net, s)
        Jfd = jacobian_fd(net, s, h=1e-5)
        assert np.max(np.abs(J - Jfd)) < 1e-5

    def test_matches_fd_identity_exactly(self):
        """The identity RHS is affine, so central differences are exact
        to rounding."""
        net = build_loop([4, 3], Activation.IDENTITY, _hyper(), seed=3)
        freeze(net)
        s = _random_state(net, 33)
        J = jacobian_analytic(net, s)
        Jfd = jacobian_fd(net, s, h=1e-5)
        assert np.max(np.abs(J - Jfd)) < 1e-10

    def test_matches_fd_loop_tanh(self):
        net = build_loop([5, 4, 3], Activation.TANH, _hyper(), seed=4)
        freeze(net)
        s = _random_state(net, 44)
        assert np.max(np.abs(jacobian_analytic(net, s)
                             - jacobian_fd(net, s, h=1e-5))) < 1e-5

    def test_directional_derivative(self):
        """J w must match the directional difference quotient of the RHS."""
        net = build_loop([8], Activation.TANH, _hyper(), seed=5)
        freeze(net)
        rng = np.random.default_rng(55)
        s = rng.normal(size=16)
        w = rng.normal(size=16)
        w /= np.linalg.norm(w)
        h = 1e-6
        fd = (net.fast_rhs_flat(s + h * w) - net.fast_rhs_flat(s - h * w)) / (2 * h)
        np.testing.assert_allclose(jacobian_analytic(net, s) @ w, fd, atol=1e-6)

    def test_relu_kink_rejected(self):
        net = build_loop([3], Activation.RELU, _hyper(), seed=6)
        freeze(net)
        s = np.array([0.1, 0.2, 0.3, 0.5, 0.0, 0.4])  # one value at the kink
        with pytest.raises(NonDifferentiableStateError):
            jacobian_analytic(net, s)

    def test_requires_frozen_weights(self):
        net = build_loop([3], Activation.TANH, _hyper(), seed=7)
        with pytest.raises(RuntimeError):
            jacobian_analytic(net, np.zeros(6))

    def test_fd_step_bounds(self):
        net = build_loop([3], Activation.TANH, _hyper(), seed=8)
        freeze(net)
        with pytest.raises(ValueError):
            jacobian_fd(net, np.zeros(6), h=1e-2)


class TestClassifySpectrum:
    def test_counts_and_sorting(self):
        tau = 1.0
        eigs = [-0.5 + 0.8j, -0.5 - 0.8j,   # bulk pair: real part at -1/(2 tau)
                -1.0 + 0.0j,                 # slow-mode partner near -1
                -0.005 + 0.0j,               # near-marginal survivor
                -2.0 + 0.0j]
        rep = classify_spectrum(eigs, tau)
        assert rep.count_at_minus_half_tau == 2
        assert rep.count_near_minus_one == 1
        assert [complex(z) for z in rep.near_zero] == [-0.005 + 0j]
        assert rep.all_stable
        assert rep.max_real_part == -0.005
        # sorted by descending real part
        reals = [z.real for z in rep.eigenvalues]
        assert reals == sorted(reals, reverse=True)

    def test_half_tau_bucket_reads_decay_rate(self):
        """Bulk eigenvalues sit at Re = -1/(2 tau) with large imaginary
        spread; the bucket must count them regardless of Im."""
        rep = classify_spectrum([-0.5 + 3.0j, -0.5 - 3.0j], 1.0)
        assert rep.count_at_minus_half_tau == 2

    def test_half_tau_bucket_scales_with_tau(self):
        rep = classify_spectrum([-5.0 + 1.0j], 0.1)
        assert rep.count_at_minus_half_tau == 1
        assert classify_spectrum([-5.0], 1.0).count_at_minus_half_tau == 0

    def test_unstable_flag(self):
        rep = classify_spectrum([0.02, -1.0], 1.0)
        assert not rep.all_stable
        assert rep.max_real_part == 0.02
        assert [complex(z) for z in rep.near_zero] == [0.02 + 0j]

    def test_conjugate_pairs_survive_sorting(self):
        rng = np.random.default_rng(9)
        net = build_loop([6], Activation.TANH, _hyper(), seed=9)
        freeze(net)
        J = jacobian_analytic(net, _random_state(net, 90))
        eigs = np.linalg.eigvals(J)
        rep = classify_spectrum(eigs, 1.0)
        assert len(rep.eigenvalues) == 12
        # every eigenvalue's conjugate is present (real matrix)
        for z in rep.eigenvalues:
            assert np.min(np.abs(rep.eigenvalues - np.conj(z))) < 1e-9


class TestSpectrumCsv:
    def test_layout(self):
        rep = classify_spectrum([-0.5 + 0.8j, -0.5 - 0.8j, -1.0], 1.0,
                                residual=1e-9, distance_to_target=0.25)
        text = spectrum_to_csv(rep)
        lines = text.strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("# summary max_real_part=")
        assert "count_at_minus_half_tau=2" in lines[-1]
        assert "all_stable=True" in lines[-1]


class TestAnalyzeEquilibrium:
    def test_small_net_reaches_machine_residual(self):
        net = build_loop([10], Activation.TANH, _hyper(), seed=10)
        freeze(net)
        rng = np.random.default_rng(101)
        [rep] = analyze_equilibrium(net, rng.normal(size=(1, 10)), tol=1e-10)
        assert rep.residual < 1e-10
        assert len(rep.eigenvalues) == 2 * net.total_units

    def test_report_carries_distance_to_target(self):
        net = build_loop([10], Activation.TANH, _hyper(), seed=11)
        freeze(net)
        rng = np.random.default_rng(111)
        target = rng.normal(size=10)
        [rep] = analyze_equilibrium(net, target[None], tol=1e-10)
        d = np.linalg.norm(rep.state[10:] - target)
        np.testing.assert_allclose(rep.distance_to_target, d, atol=1e-12)

    def test_unreachable_tolerance_raises_with_residual(self):
        """A target that misses the tolerance, Newton probes included,
        gets, in its place in the list, the NotAnEquilibriumError carrying
        its residual.  tol = 1e-300 admits only an exact root, which the
        probes reach on a small-weight net; unit-scale weights and a
        random bias keep them off it."""
        net = build_loop([6], Activation.TANH, _hyper(), seed=12,
                         init_scale=1.0)
        net.b[:] = np.random.default_rng(0).normal(size=6)
        freeze(net)
        rng = np.random.default_rng(121)
        [err] = analyze_equilibrium(net, rng.normal(size=(1, 6)), tol=1e-300,
                                    max_steps=5)
        assert isinstance(err, NotAnEquilibriumError)
        assert err.residual > 0

    def test_stable_equilibrium_attracts_nearby_states(self):
        """all_stable must predict actual attraction: a small kick decays
        back toward the equilibrium under simulation."""
        net = build_loop([8], Activation.TANH, _hyper(), seed=13)
        freeze(net)
        rng = np.random.default_rng(131)
        [rep] = analyze_equilibrium(net, rng.normal(size=(1, 8)), tol=1e-10)
        assert rep.all_stable
        s_star = rep.state
        kick = rng.normal(size=s_star.size)
        kick *= 1e-3 / np.linalg.norm(kick)
        net.s[:] = s_star + kick
        d0 = 1e-3
        for _ in range(int(round(5.0 / net.hyper.dt))):
            net.step_fast()
        d1 = np.linalg.norm(net.s - s_star)
        assert d1 < 0.5 * d0

    def test_single_pattern_refused(self):
        net = freeze(build_loop([4], Activation.TANH, _hyper(), seed=14))
        with pytest.raises(ConstructionError):
            analyze_equilibrium(net, np.zeros(4))

    @pytest.mark.parametrize("clamp", ["all", "population"])
    def test_clamped_net_analyzed_as_unclamped(self, clamp):
        """The net's clamps hold only its own state: on a trained,
        frozen net whose units are all clamped, or one population of a
        loop's, every outcome is bit for bit the one the same net gives
        unclamped, and the clamp arrays stay as they were."""
        targets = gen_targets("binary", 3, 8, seed=16)
        if clamp == "all":
            net = build_loop([8], Activation.TANH, _hyper(), seed=16)
        else:
            net = build_loop([5, 3], Activation.TANH, _hyper(), seed=16)
        train(net, targets, TrainingSchedule(duration_per_target=5.0, epochs=4), seed=17)
        freeze(net)
        probes = np.vstack([targets.patterns, 0.5 * targets.patterns[:1]])
        free = analyze_equilibrium(net, probes, tol=1e-10)
        if clamp == "all":
            net.clamp_all(targets.patterns[0])
        else:
            clamp_population(net, 1, [0.5, -0.5, 0.25])
        mask, values = net.clamped.copy(), net.clamp_target.copy()
        got = analyze_equilibrium(net, probes, tol=1e-10)
        np.testing.assert_array_equal(net.clamped, mask)
        assert net.clamp_target.tobytes() == values.tobytes()
        assert any(isinstance(rep, SpectrumReport) for rep in got)
        for rep, want in zip(got, free):
            assert type(rep) is type(want)
            if isinstance(rep, SpectrumReport):
                assert rep.state.tobytes() == want.state.tobytes()
                assert rep.eigenvalues.tobytes() == want.eigenvalues.tobytes()
                assert spectrum_to_csv(rep) == spectrum_to_csv(want)
            else:
                assert str(rep) == str(want)

    def test_rounds_relax_the_targets_left_on_a_doubling_budget(self, monkeypatch):
        """With a tol no flow reaches and every Newton root refused, each
        target takes all nine rounds: a relaxation of max_steps, then of
        max_steps, 2 max_steps, ..., 128 max_steps, all targets in one
        batch, and ends with the NotAnEquilibriumError carrying the
        residual of its last relaxation."""
        net = build_loop([6], Activation.TANH, _hyper(), seed=12,
                         init_scale=1.0)
        net.b[:] = np.random.default_rng(0).normal(size=6)
        freeze(net)
        monkeypatch.setattr(stability, "_probe", lambda *a: None)
        calls, last = [], []
        relax = net.relax

        def spy(s, tol, max_steps):
            calls.append((s.shape[1], max_steps))
            out = relax(s, tol, max_steps)
            last[:] = out.residual
            return out

        monkeypatch.setattr(net, "relax", spy)
        targets = np.random.default_rng(122).normal(size=(3, 6))
        got = analyze_equilibrium(net, targets, tol=1e-300, max_steps=5)
        assert calls == [(3, 5)] + [(3, 5 * 2 ** i) for i in range(8)]
        assert [type(err) for err in got] == [NotAnEquilibriumError] * 3
        assert [err.residual for err in got] == last

    @pytest.mark.parametrize("max_steps", [-1, -3])
    def test_negative_step_budget_refused(self, max_steps):
        net = freeze(build_loop([4], Activation.TANH, _hyper(), seed=14))
        with pytest.raises(ConstructionError, match="max_steps=.* is negative"):
            analyze_equilibrium(net, np.zeros((1, 4)), max_steps=max_steps)

    @pytest.mark.parametrize("n", [0, 1])
    def test_step_budget_that_is_not_an_integer_refused(self, n):
        """relax refuses the budget in the first round, before a step,
        also when there is no target to relax."""
        net = freeze(build_loop([4], Activation.TANH, _hyper(), seed=14))
        with pytest.raises(ConstructionError, match="max_steps=2.5 is not an integer"):
            analyze_equilibrium(net, np.zeros((n, 4)), max_steps=2.5)
        assert net.steps_taken == 0

    def test_kink_reached_by_the_flow_is_the_outcome(self, monkeypatch):
        """A relu ring with zero weights relaxes every value to 0, the
        kink.  The first round's Newton probe steps onto it and is
        dropped; the flow then settles there, and the report of the
        settled state raises NonDifferentiableStateError, which becomes
        the target's outcome."""
        net = freeze(build_loop([4], Activation.RELU, _hyper(), init_scale=0.0))
        probes, reports = [], []
        probe, report = stability._probe, stability._report

        def spy_probe(*args):
            probes.append(probe(*args))
            return probes[-1]

        def spy_report(net, s, residual, target):
            reports.append(residual)
            return report(net, s, residual, target)

        monkeypatch.setattr(stability, "_probe", spy_probe)
        monkeypatch.setattr(stability, "_report", spy_report)
        [got] = analyze_equilibrium(net, np.array([[1.0, -2.0, 0.5, 3.0]]))
        assert isinstance(got, NonDifferentiableStateError)
        assert probes == [None]
        assert len(reports) == 1 and reports[0] < 1e-8

    def test_zero_step_budget_still_resolves(self):
        """max_steps = 0 relaxes for no step in the first round and for
        1, 2, 4, ... steps after; the probes still find the equilibrium."""
        net = freeze(build_loop([10], Activation.TANH, _hyper(), seed=10))
        targets = np.random.default_rng(101).normal(size=(1, 10))
        [rep] = analyze_equilibrium(net, targets, tol=1e-10, max_steps=0)
        assert rep.residual < 1e-10

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
    def test_tol_that_is_not_positive_refused(self, tol):
        net = freeze(build_loop([4], Activation.TANH, _hyper(), seed=14))
        with pytest.raises(ConstructionError, match="tol must be positive"):
            analyze_equilibrium(net, np.zeros((1, 4)), tol, max_steps=10)

    def test_empty_stack_gives_empty_list(self):
        net = freeze(build_loop([3, 2], Activation.TANH, _hyper(), seed=15))
        assert analyze_equilibrium(net, np.zeros((0, 5))) == []

    def test_one_diverging_target_fails_alone(self):
        """ReLU units with strong mutual excitation and opposite
        correction weights: every unit above zero grows about e-fold
        every 0.03 s, while below zero the units are linear, damped and
        settle at v = b = -1.  In one batch the diverging target gets its
        IntegrationDivergenceError and the others the reports they get
        when analyzed one at a time."""
        net = build_loop([4], Activation.RELU, _hyper(), seed=0)
        M = np.full((4, 4), 10.0)
        np.fill_diagonal(M, 0.0)
        net.M[:], net.W[:] = M, -M
        net.b[:] = -1.0
        freeze(net)
        targets = np.array([np.full(4, -2.0), np.full(4, 5.0),
                            np.linspace(-1.5, -0.5, 4)])
        got = analyze_equilibrium(net, targets, tol=1e-10)
        assert isinstance(got[1], IntegrationDivergenceError)
        [alone] = analyze_equilibrium(net, targets[1:2], tol=1e-10)
        assert isinstance(alone, IntegrationDivergenceError)
        for k in (0, 2):
            [alone] = analyze_equilibrium(net, targets[k:k + 1], tol=1e-10)
            assert got[k].all_stable and alone.all_stable
            np.testing.assert_allclose(got[k].state, alone.state, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got[k].state[4:], -1.0, atol=1e-10)
            np.testing.assert_allclose(got[k].eigenvalues, alone.eigenvalues,
                                       rtol=0, atol=1e-12)
            assert got[k].distance_to_target == pytest.approx(
                np.linalg.norm(targets[k] + 1.0), abs=1e-9)


def _polish_net(name):
    """A frozen net and its (n, T) targets: a trained relu single
    population, a trained tanh loop, or an identity net with a bias."""
    if name == "relu_single":
        targets = gen_targets("real", 3, 20, seed=1)
        net = build_loop([20], Activation.RELU, _hyper(zeta=0.25), seed=2)
        train(net, targets, TrainingSchedule(duration_per_target=5.0, epochs=16), seed=3)
        return freeze(net), targets.patterns
    if name == "tanh_loop":
        targets = gen_targets("binary", 3, 18, seed=4)
        net = build_loop([8, 6, 4], Activation.TANH, _hyper(), seed=5)
        train(net, targets, TrainingSchedule(duration_per_target=2.0, epochs=16), seed=6)
        return freeze(net), targets.patterns
    net = build_loop([10], Activation.IDENTITY, _hyper(), seed=7, init_scale=0.5)
    net.b[:] = np.random.default_rng(9).normal(size=10)
    return freeze(net), np.random.default_rng(8).normal(size=(3, 10))


class TestNewtonPolish:
    @pytest.mark.parametrize("name", ["relu_single", "tanh_loop", "identity"])
    def test_reaches_the_minpack_root(self, name):
        """From each target relaxed for 200 steps, the reduced polish
        lands on the root MINPACK's hybrj polish of the full 2T system
        finds, to 1e-12 relative, with its 2T residual under tol.  Every
        start MINPACK polishes under tol is checked, and at least two
        per net are."""
        net, targets = _polish_net(name)
        tol, T = 1e-8, net.total_units
        S = np.zeros((2, len(targets), T))
        S[1] = targets
        net.relax(S, tol, 200)
        checked = 0
        for s in S.transpose(1, 0, 2).reshape(len(targets), 2 * T):
            want, want_res = minpack_polish(net, s)
            if not want_res < tol:
                continue
            got, res = _newton_polish(net, s, tol)
            assert res < tol
            assert res == np.max(np.abs(net.fast_rhs_flat(got)))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            checked += 1
        assert checked >= 2

    def test_relu_kink_drops_the_probe(self):
        """A value on the ReLU kink refuses the reduced Jacobian, so the
        polish raises and the probe is dropped."""
        net = freeze(build_loop([3], Activation.RELU, _hyper(), seed=6))
        s = np.array([0.1, 0.2, 0.3, 0.5, 0.0, 0.4])
        with pytest.raises(NonDifferentiableStateError):
            _newton_polish(net, s, 1e-8)
        assert _probe(net, s, 1e-8, np.zeros(3)) is None

    @pytest.mark.filterwarnings("error")
    def test_non_finite_iterate_returns_the_start(self, monkeypatch):
        """A Newton step that sends the iterate to infinity ends the
        polish at its start state and that state's residual, and the
        overflow on the way warns no more than a relax step does."""
        net = freeze(build_loop([3], Activation.TANH, _hyper(), seed=6))
        s = np.array([0.1, 0.2, 0.3, 0.5, -0.4, 0.4])
        monkeypatch.setattr(np.linalg, "solve", lambda J, G: np.full_like(G, np.inf))
        x, res = _newton_polish(net, s, 1e-8)
        assert x is s
        assert res == np.max(np.abs(net.fast_rhs_flat(s)))

    def test_singular_jacobian_takes_a_least_squares_step(self):
        """Two identity units that predict each other with unit weights
        have a line of equilibria, v0 - v1 = b0, and a reduced Jacobian
        -(I - M)^2 that is exactly singular, so it has no Newton step;
        the least-squares step still reaches that line."""
        net = build_loop([2], Activation.IDENTITY, _hyper(), seed=0)
        net.M[:] = net.W[:] = [[0.0, 1.0], [1.0, 0.0]]
        net.b[:] = [0.5, -0.5]
        freeze(net)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(-(np.eye(2) - net.M) @ (np.eye(2) - net.M), np.ones(2))
        x, res = _newton_polish(net, np.array([0.0, 0.0, 1.0, 0.0]), 1e-10)
        assert res < 1e-10
        assert x[2] - x[3] == pytest.approx(0.5, abs=1e-10)
