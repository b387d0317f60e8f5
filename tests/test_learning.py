"""Clamped training loop: local updates, energy bookkeeping, determinism.

train_oracle below is the step-by-step training loop, one step_fast and
one step_slow per Euler step of every clamp.  train integrates a clamp
in reduced form and must land where the oracle does.
"""

from unittest import mock

import numpy as np
import pytest

from pchn import (Activation, ContractViolationError, Hyperparams,
                  IntegrationDivergenceError, TrainingSchedule,
                  build_single_population, build_loop, freeze, gen_targets,
                  train)
from pchn import learning
from pchn.cli import SEED_TRAIN, child_seed, main, resolve_config
from pchn.learning import SEQUENTIAL, SHUFFLED, ClampRecord, TrainingReport

from oracles import prediction_mse


def _hyper(**kw):
    base = dict(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005)
    base.update(kw)
    return Hyperparams(**base)


def train_oracle(net, targets, schedule, seed=0):
    """train with every clamp integrated step by step: the same order,
    records and energies, one step_fast then one step_slow per step."""
    pats = np.asarray(getattr(targets, "patterns", targets), dtype=float)
    steps = max(1, int(round(schedule.duration_per_target / net.hyper.dt)))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    report = TrainingReport()
    for epoch in range(schedule.epochs):
        order = np.arange(len(pats))
        if schedule.target_order == SHUFFLED:
            order = rng.permutation(len(pats))
        for tid in order:
            net.clamp_all(pats[tid])
            if schedule.reset_fast_state:
                net.E[:] = 0.0
            energy_start = net.energy((net.V - net.predict(net.V)) / net.hyper.zeta)
            for _ in range(steps):
                net.step_fast()
                net.step_slow()
            report.records.append(ClampRecord(epoch, int(tid), steps,
                                              energy_start, net.energy()))
    net.unclamp_all()
    return report


def assert_close_to_largest(actual, expected, rel=1e-12, floor=0.0):
    """Every entry within rel of the largest entry of expected, or of
    floor when that is larger."""
    scale = max(float(np.max(np.abs(expected), initial=0.0)), floor)
    np.testing.assert_allclose(actual, expected, rtol=0, atol=rel * scale)


def assert_trained_alike(net, ref, rel=1e-12):
    """Weights within rel of their largest entry.  The errors follow
    V - (M s + b), a difference of terms the size of the clamped values,
    so they are compared on the scale of the largest value too."""
    for x in ("M", "W", "b"):
        assert_close_to_largest(getattr(net, x), getattr(ref, x), rel)
    assert_close_to_largest(net.E, ref.E, rel, floor=float(np.max(np.abs(ref.V))))


def spy_step_loop():
    """Spy on the step loop of the clamps: learning._first_bad runs once
    per block of stepped Euler steps and never in the closed form."""
    return mock.patch.object(learning, "_first_bad", wraps=learning._first_bad)


class TestSchedule:
    def test_defaults(self):
        s = TrainingSchedule()
        assert s.duration_per_target > 0
        assert s.epochs >= 1
        assert s.target_order == SEQUENTIAL

    def test_rejects_bad_values(self):
        for duration in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                TrainingSchedule(duration_per_target=duration)
        with pytest.raises(ValueError):
            TrainingSchedule(epochs=0)
        # a fractional or float epoch count is refused as Network refuses
        # a float size, not when train reaches range(epochs)
        for epochs in (1.5, 2.0):
            with pytest.raises(TypeError):
                TrainingSchedule(epochs=epochs)
        with pytest.raises(ValueError):
            TrainingSchedule(target_order="backwards")


class TestTrain:
    def test_energy_drops_over_epochs(self):
        """Training must make the stored patterns better predicted: the
        mean end-of-clamp energy falls every epoch and ends well under
        the first epoch's."""
        targets = gen_targets("binary", 5, 40, seed=1)
        net = build_single_population(40, Activation.TANH, _hyper(), seed=1)
        report = train(net, targets.patterns,
                       TrainingSchedule(duration_per_target=2.0, epochs=5), seed=2)
        means = [np.mean([r.energy_end for r in report.records if r.epoch == ep])
                 for ep in range(5)]
        assert all(b < a for a, b in zip(means, means[1:]))
        assert means[-1] < 0.5 * means[0]

    def test_prediction_error_falls(self):
        targets = gen_targets("real", 5, 30, seed=3)
        net = build_single_population(30, Activation.RELU, _hyper(), seed=3)
        before = prediction_mse(net, targets.patterns)
        train(net, targets.patterns,
              TrainingSchedule(duration_per_target=5.0, epochs=4), seed=4)
        after = prediction_mse(net, targets.patterns)
        assert after < 0.5 * before

    def test_record_layout(self):
        targets = gen_targets("binary", 3, 20, seed=5)
        net = build_single_population(20, Activation.TANH, _hyper(), seed=5)
        report = train(net, targets.patterns,
                       TrainingSchedule(duration_per_target=0.5, epochs=2), seed=6)
        assert len(report.records) == 6
        assert [r.epoch for r in report.records] == [0, 0, 0, 1, 1, 1]
        assert all(r.steps == 100 for r in report.records)
        csv = report.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "epoch,target_id,steps,energy_start,energy_end"
        assert len(lines) == 7

    def test_energy_start_reflects_current_prediction_quality(self):
        """After enough training the clamp-onset energy of a pattern must
        be far below what the untrained network scored."""
        targets = gen_targets("binary", 4, 30, seed=7)
        net = build_single_population(30, Activation.TANH, _hyper(), seed=7)
        rep = train(net, targets.patterns,
                    TrainingSchedule(duration_per_target=3.0, epochs=6), seed=8)
        starts0 = [r.energy_start for r in rep.records if r.epoch == 0]
        starts5 = [r.energy_start for r in rep.records if r.epoch == 5]
        assert np.mean(starts5) < 0.2 * np.mean(starts0)

    def test_deterministic_given_seed(self):
        targets = gen_targets("real", 4, 25, seed=9)
        a = build_single_population(25, Activation.RELU, _hyper(), seed=10)
        b = build_single_population(25, Activation.RELU, _hyper(), seed=10)
        schedule = TrainingSchedule(duration_per_target=0.5, epochs=2,
                                    target_order=SHUFFLED)
        ra = train(a, targets.patterns, schedule, seed=11)
        rb = train(b, targets.patterns, schedule, seed=11)
        assert ra.to_csv() == rb.to_csv()
        for (_, _, Ma, Wa, ba, _), (_, _, Mb, Wb, bb, _) in zip(a.edge_blocks(),
                                                              b.edge_blocks()):
            np.testing.assert_array_equal(Ma, Mb)
            np.testing.assert_array_equal(Wa, Wb)
            np.testing.assert_array_equal(ba, bb)

    def test_shuffled_order_differs_from_sequential(self):
        targets = gen_targets("real", 6, 25, seed=12)
        a = build_single_population(25, Activation.RELU, _hyper(), seed=13)
        b = build_single_population(25, Activation.RELU, _hyper(), seed=13)
        ra = train(a, targets.patterns,
                   TrainingSchedule(duration_per_target=0.2, epochs=1,
                                    target_order=SHUFFLED), seed=14)
        rb = train(b, targets.patterns,
                   TrainingSchedule(duration_per_target=0.2, epochs=1,
                                    target_order=SEQUENTIAL), seed=14)
        assert [r.target_id for r in ra.records] != [r.target_id for r in rb.records]

    def test_frozen_network_rejected(self):
        targets = gen_targets("binary", 2, 10, seed=15)
        net = build_single_population(10, Activation.TANH, _hyper(), seed=15)
        freeze(net)
        with pytest.raises(ContractViolationError):
            train(net, targets.patterns, TrainingSchedule(), seed=0)

    def test_freeze_idempotent(self):
        net = build_single_population(5, Activation.TANH, _hyper(), seed=16)
        freeze(net)
        freeze(net)
        assert net.weights_frozen

    def test_loop_architecture_trains(self):
        targets = gen_targets("binary", 3, 12, seed=17)
        net = build_loop([5, 4, 3], Activation.TANH, _hyper(), seed=17)
        before = prediction_mse(net, targets.patterns)
        train(net, targets.patterns,
              TrainingSchedule(duration_per_target=5.0, epochs=8), seed=18)
        assert prediction_mse(net, targets.patterns) < 0.5 * before

    def test_dimension_mismatch_rejected(self):
        targets = gen_targets("binary", 2, 11, seed=19)
        net = build_single_population(10, Activation.TANH, _hyper(), seed=19)
        with pytest.raises(ValueError):
            train(net, targets.patterns, TrainingSchedule(), seed=0)

    def test_divergence_leaves_the_net_unclamped(self):
        """A train that raises leaves the net unclamped, as one that
        returns does, so analyze_equilibrium can take it."""
        rng = np.random.default_rng(24)
        pats = rng.normal(size=(2, 10))
        pats[1] *= 3e3
        net = build_single_population(10, Activation.IDENTITY, _hyper(), seed=24)
        with pytest.raises(IntegrationDivergenceError):
            train(net, pats, TrainingSchedule(duration_per_target=1.0), seed=25)
        assert not net.clamped.any()

    def test_zero_initial_error_keeps_weights_still(self):
        """A network whose prediction already matches the clamp exactly
        generates no error signal, so the weights must not move."""
        net = build_single_population(6, Activation.IDENTITY, _hyper(), seed=20)
        net.M[:] = 0.0
        net.W[:] = 0.0
        net.b[:] = 0.0
        target = np.zeros((1, 6))
        train(net, target, TrainingSchedule(duration_per_target=0.5, epochs=1),
              seed=21)
        np.testing.assert_array_equal(net.M, 0.0)
        np.testing.assert_array_equal(net.W, 0.0)
        np.testing.assert_array_equal(net.b, 0.0)


class TestReducedClamp:
    """train against the step-by-step oracle on configurations the
    property test in test_properties does not reach."""

    @pytest.mark.parametrize("steps", [1, 2, 3, 8, 144, 1000, 1024, 1025])
    @pytest.mark.parametrize("reset", [True, False])
    @pytest.mark.parametrize("loop", [False, True])
    def test_closed_form_matches_oracle(self, steps, reset, loop):
        """Clamps of K steps at and around powers of two and at the CLI's
        clamp lengths (144 steps for binary targets, 1,000 for real
        ones) take the closed form and land where the oracle does, from
        errors reset to 0 or carried over from a random start."""
        targets = gen_targets("real", 2, 12, seed=27)
        if loop:
            net, ref = (build_loop([5, 4, 3], Activation.TANH, _hyper(), seed=28)
                        for _ in range(2))
        else:
            net, ref = (build_single_population(12, Activation.RELU, _hyper(), seed=28)
                        for _ in range(2))
        net.E[:] = ref.E[:] = np.random.default_rng(29).normal(size=12)
        schedule = TrainingSchedule(duration_per_target=steps * 0.005,
                                    reset_fast_state=reset)
        with spy_step_loop() as stepped:
            rep = train(net, targets.patterns, schedule, seed=30)
        ref_rep = train_oracle(ref, targets.patterns, schedule, seed=30)
        assert not stepped.called
        assert rep.to_csv() == ref_rep.to_csv()
        assert net.steps_taken == ref.steps_taken == 2 * steps
        assert_trained_alike(net, ref)

    def test_bound_refuses_a_clamp_that_does_not_diverge(self):
        """Errors preset to 1e98 decay under a stable step matrix
        (|eigenvalue|^2 = a < 1), but the bound on 100 steps, about 7e6
        times the start's size, is past DIVERGENCE_LIMIT / 2: every
        clamp is stepped, none raises, and each lands where the oracle
        does."""
        targets = gen_targets("real", 2, 6, seed=31)
        net, ref = (build_single_population(6, Activation.IDENTITY, _hyper(), seed=31)
                    for _ in range(2))
        net.E[:] = ref.E[:] = 1e98
        schedule = TrainingSchedule(duration_per_target=0.5, reset_fast_state=False)
        with spy_step_loop() as stepped:
            rep = train(net, targets.patterns, schedule, seed=32)
        ref_rep = train_oracle(ref, targets.patterns, schedule, seed=32)
        assert stepped.call_count == 2
        assert 1e95 < np.abs(ref.E).max() < 1e98
        assert rep.to_csv() == ref_rep.to_csv()
        assert net.steps_taken == ref.steps_taken == 200
        assert_trained_alike(net, ref)

    @pytest.mark.parametrize("block", [1024, 7])
    def test_matches_oracle_across_blocks(self, block):
        """The step loop: errors preset near 1e98 keep every clamp out of
        the closed form.  1,200 steps per clamp crosses the 1,024-step
        block, and a block of 7 puts many boundaries and a short last
        block in every clamp."""
        targets = gen_targets("real", 3, 12, seed=22)
        net, ref = (build_loop([5, 4, 3], Activation.RELU, _hyper(),
                               tie_weights=True, seed=22) for _ in range(2))
        net.E[:] = ref.E[:] = 1e98 * np.linspace(-1.0, 1.0, 12)
        schedule = TrainingSchedule(duration_per_target=6.0, epochs=2,
                                    target_order=SHUFFLED, reset_fast_state=False)
        with mock.patch.object(learning, "BLOCK", block), spy_step_loop() as stepped:
            rep = train(net, targets.patterns, schedule, seed=23)
        ref_rep = train_oracle(ref, targets.patterns, schedule, seed=23)
        assert stepped.call_count == 6 * -(-1200 // block)
        assert rep.to_csv() == ref_rep.to_csv()
        assert net.steps_taken == ref.steps_taken == 6 * 1200
        assert_trained_alike(net, ref)

    @pytest.mark.parametrize("block", [1024, 16])
    def test_divergence_reports_the_oracle_step(self, block):
        """A pattern scaled by 3e3 makes sum(s^2) so large that each
        learning step overshoots: the errors grow about 20-fold per
        step and pass DIVERGENCE_LIMIT in the middle of the second
        clamp.  The error names the same step as the oracle, and the
        weights hold the updates of the steps before it."""
        rng = np.random.default_rng(24)
        pats = rng.normal(size=(2, 10))
        pats[1] *= 3e3
        schedule = TrainingSchedule(duration_per_target=1.0, epochs=1)
        net, ref = (build_single_population(10, Activation.IDENTITY, _hyper(), seed=24)
                    for _ in range(2))
        with mock.patch.object(learning, "BLOCK", block):
            with pytest.raises(IntegrationDivergenceError) as got:
                train(net, pats, schedule, seed=25)
        with pytest.raises(IntegrationDivergenceError) as want:
            train_oracle(ref, pats, schedule, seed=25)
        assert 200 < want.value.step < 400
        assert got.value.step == want.value.step == net.steps_taken == ref.steps_taken
        for x in ("M", "W", "b"):
            assert_close_to_largest(getattr(net, x), getattr(ref, x), rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, 1e101])
    def test_target_past_the_limit_fails_at_the_first_step(self, bad):
        """The step-by-step check covers the clamped values too, so a
        target entry past DIVERGENCE_LIMIT fails the first step even
        while the errors are still under it."""
        pats = np.array([[1.0, bad, 0.5]])
        net, ref = (build_single_population(3, Activation.TANH, _hyper(), seed=26)
                    for _ in range(2))
        before = net.M.copy()
        with pytest.raises(IntegrationDivergenceError) as got:
            train(net, pats, TrainingSchedule(duration_per_target=0.5), seed=0)
        with pytest.raises(IntegrationDivergenceError) as want:
            train_oracle(ref, pats, TrainingSchedule(duration_per_target=0.5), seed=0)
        assert got.value.step == want.value.step == 1
        np.testing.assert_array_equal(net.M, before)

    def test_first_bad_row_of_either_sign(self):
        rows = np.zeros((5, 3))
        assert learning._first_bad(rows, True) == 5
        assert learning._first_bad(rows, False) == 0
        rows[3, 1] = -2e100
        assert learning._first_bad(rows, True) == 3
        rows[2, 0] = np.nan
        assert learning._first_bad(rows, True) == 2

    def test_cli_reports_divergence_and_removes_stale_checkpoint(self, tmp_path, capsys):
        """With dt = 0.4 and gamma = 1.01 a relu Single100 net on real
        targets diverges in its first clamp.  cli train prints the
        oracle's step and deletes the checkpoint and train.csv of an
        earlier run, which the new config.echo does not describe."""
        flags = {"target_kind": "RealGaussian", "dt": "0.4", "gamma": "1.01",
                 "duration_per_target": "100", "epochs": "1", "n_targets": "2"}
        cfg = resolve_config({}, flags)
        ref = cfg.build_network()
        with pytest.raises(IntegrationDivergenceError) as want:
            train_oracle(ref, cfg.targets(), cfg.schedule,
                         seed=child_seed(cfg.seed, SEED_TRAIN))
        stale = tmp_path / "checkpoint.pchn"
        stale.write_text("stale\n")
        stale_csv = tmp_path / "train.csv"
        stale_csv.write_text("stale\n")
        argv = ["train", "--out", str(tmp_path)]
        for key, val in flags.items():
            argv += [f"--{key}", val]
        assert main(argv) == 1
        assert not stale.exists()
        assert not stale_csv.exists()
        err = capsys.readouterr().err
        assert f"training diverged at step {want.value.step}\n" in err
        assert 0 < want.value.step < 250
