"""Clamped training loop: local updates, energy bookkeeping, determinism.

train_oracle below is the step-by-step training loop, one step_fast and
one step_slow per Euler step of every clamp.  train integrates a clamp
in reduced form and must land where the oracle does.
"""

import contextlib
import hashlib
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from pchn import (Activation, ConstructionError, ContractViolationError, Hyperparams,
                  IntegrationDivergenceError, TrainingSchedule,
                  build_loop, freeze, gen_targets, train)
from pchn import learning
from pchn.checkpoint import load_weights, save_weights
from pchn.cli import SEED_TRAIN, child_seed, main, resolve_config
from pchn.learning import (SEQUENTIAL, SHUFFLED, ClampRecord, TrainingReport,
                           _clears)
from pchn.network import MAX_STEPS, _past_limit

from oracles import prediction_mse, row_features, training_limit


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


class PieceSpy:
    """Spy on the pieces of the clamps.  checks lists the (steps,
    cleared) of every bound that learning._clears decides: one per clamp
    on the whole clamp, then, only when that is refused, those of 2, 4,
    ..., 2^j steps for each piece of 2^j >= 2 steps before it runs.
    calls counts the calls of _clears, and piece_starts keeps the bytes
    of the start x of each piece's call.  limit_checks counts the calls
    of learning._past_limit: one per train call on its targets, and one
    per single step of a refused clamp."""

    def __init__(self):
        self.checks, self.calls, self.piece_starts = [], 0, []
        self.limit_checks = 0

    def clears(self, x, growth, steps):
        cleared = _clears(x, growth, steps)
        self.calls += 1
        if list(steps) == [2 << i for i in range(len(steps))]:
            self.piece_starts.append(x.tobytes())
        self.checks += zip(steps, map(bool, cleared))
        return cleared

    def past_limit(self, s):
        self.limit_checks += 1
        return _past_limit(s)

    def single_steps(self):
        """The single steps of the one train call spied on."""
        return self.limit_checks - 1


@contextlib.contextmanager
def spy_pieces():
    spy = PieceSpy()
    with mock.patch.object(learning, "_clears", spy.clears), \
            mock.patch.object(learning, "_past_limit", spy.past_limit):
        yield spy


class TestSchedule:
    def test_defaults(self):
        s = TrainingSchedule()
        assert s.duration_per_target > 0
        assert s.epochs >= 1
        assert s.target_order == SEQUENTIAL

    def test_rejects_bad_values(self):
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
        net = build_loop([40], Activation.TANH, _hyper(), seed=1)
        report = train(net, targets.patterns,
                       TrainingSchedule(duration_per_target=2.0, epochs=5), seed=2)
        means = [np.mean([r.energy_end for r in report.records if r.epoch == ep])
                 for ep in range(5)]
        assert all(b < a for a, b in zip(means, means[1:]))
        assert means[-1] < 0.5 * means[0]

    def test_prediction_error_falls(self):
        targets = gen_targets("real", 5, 30, seed=3)
        net = build_loop([30], Activation.RELU, _hyper(), seed=3)
        before = prediction_mse(net, targets.patterns)
        train(net, targets.patterns,
              TrainingSchedule(duration_per_target=5.0, epochs=4), seed=4)
        after = prediction_mse(net, targets.patterns)
        assert after < 0.5 * before

    def test_record_layout(self):
        targets = gen_targets("binary", 3, 20, seed=5)
        net = build_loop([20], Activation.TANH, _hyper(), seed=5)
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
        net = build_loop([30], Activation.TANH, _hyper(), seed=7)
        rep = train(net, targets.patterns,
                    TrainingSchedule(duration_per_target=3.0, epochs=6), seed=8)
        starts0 = [r.energy_start for r in rep.records if r.epoch == 0]
        starts5 = [r.energy_start for r in rep.records if r.epoch == 5]
        assert np.mean(starts5) < 0.2 * np.mean(starts0)

    def test_deterministic_given_seed(self):
        targets = gen_targets("real", 4, 25, seed=9)
        a = build_loop([25], Activation.RELU, _hyper(), seed=10)
        b = build_loop([25], Activation.RELU, _hyper(), seed=10)
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
        a = build_loop([25], Activation.RELU, _hyper(), seed=13)
        b = build_loop([25], Activation.RELU, _hyper(), seed=13)
        ra = train(a, targets.patterns,
                   TrainingSchedule(duration_per_target=0.2, epochs=1,
                                    target_order=SHUFFLED), seed=14)
        rb = train(b, targets.patterns,
                   TrainingSchedule(duration_per_target=0.2, epochs=1,
                                    target_order=SEQUENTIAL), seed=14)
        assert [r.target_id for r in ra.records] != [r.target_id for r in rb.records]

    def test_frozen_network_rejected(self):
        targets = gen_targets("binary", 2, 10, seed=15)
        net = build_loop([10], Activation.TANH, _hyper(), seed=15)
        freeze(net)
        with pytest.raises(ContractViolationError):
            train(net, targets.patterns, TrainingSchedule(), seed=0)

    def test_tied_net_stays_tied(self, tmp_path):
        """W moves by the transpose of M's update, so a tied loop trained
        with shuffled epochs, each clamp starting from the errors the one
        before it left, keeps W equal to M transposed bit for bit, and its
        checkpoint loads into a tied net."""
        targets = gen_targets("binary", 3, 12, seed=18)
        net = build_loop([5, 4, 3], Activation.TANH, _hyper(), tie_weights=True, seed=18)
        start = net.M.copy()
        train(net, targets.patterns,
              TrainingSchedule(duration_per_target=0.5, epochs=3, target_order=SHUFFLED,
                               reset_fast_state=False), seed=19)
        assert not np.array_equal(net.M, start)
        assert net.W.tobytes() == net.M.T.tobytes()
        save_weights(net, tmp_path / "checkpoint.pchn")
        other = build_loop([5, 4, 3], Activation.TANH, _hyper(), tie_weights=True, seed=20)
        load_weights(other, tmp_path / "checkpoint.pchn")
        assert other.M.tobytes() == net.M.tobytes()
        assert other.W.tobytes() == net.W.tobytes()

    def test_freeze_idempotent(self):
        net = build_loop([5], Activation.TANH, _hyper(), seed=16)
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
        net = build_loop([10], Activation.TANH, _hyper(), seed=19)
        with pytest.raises(ValueError):
            train(net, targets.patterns, TrainingSchedule(), seed=0)

    @pytest.mark.parametrize("duration", [(MAX_STEPS + 1) * 0.005, 1e307])
    def test_clamp_past_the_step_cap_refused(self, duration):
        """A clamp of MAX_STEPS + 1 steps of dt, or of 1e307 s (whose ratio
        to dt overflows), is refused before any weight or state moves."""
        net = build_loop([6], Activation.TANH, _hyper(), seed=19)
        assert net.hyper.dt == 0.005
        before = [x.copy() for x in (net.M, net.W, net.b, net.s)]
        schedule = TrainingSchedule(duration_per_target=duration)
        with pytest.raises(ConstructionError, match="duration_per_target: .* at most "
                                                    f"MAX_STEPS = {MAX_STEPS} steps"):
            train(net, gen_targets("binary", 2, 6, seed=19).patterns, schedule)
        for x, y in zip((net.M, net.W, net.b, net.s), before):
            assert x.tobytes() == y.tobytes()
        assert net.steps_taken == 0 and not net.clamped.any()

    @pytest.mark.parametrize("duration", [0.0, -1.0, np.inf, np.nan])
    def test_clamp_duration_not_positive_and_finite_refused(self, duration):
        """A clamp duration of zero, below zero, inf or NaN is refused by
        train before any weight moves; the schedule leaves the check to
        it."""
        net = build_loop([6], Activation.TANH, _hyper(), seed=19)
        before = [x.copy() for x in (net.M, net.W, net.b)]
        schedule = TrainingSchedule(duration_per_target=duration)
        with pytest.raises(ConstructionError, match="duration_per_target: .* is not a "
                                                    "positive, finite duration"):
            train(net, gen_targets("binary", 2, 6, seed=19).patterns, schedule)
        for x, y in zip((net.M, net.W, net.b), before):
            assert x.tobytes() == y.tobytes()
        assert net.steps_taken == 0

    @pytest.mark.parametrize("duration", ["1.0", None], ids=["str", "None"])
    def test_clamp_duration_that_is_not_a_real_number_refused(self, duration):
        """A clamp duration that is not a number is refused by train with
        ConstructionError naming it, before any weight moves."""
        net = build_loop([6], Activation.TANH, _hyper(), seed=19)
        before = [x.copy() for x in (net.M, net.W, net.b)]
        schedule = TrainingSchedule(duration_per_target=duration)
        with pytest.raises(ConstructionError,
                           match=rf"duration_per_target={duration!r} is not a real number"):
            train(net, gen_targets("binary", 2, 6, seed=19).patterns, schedule)
        for x, y in zip((net.M, net.W, net.b), before):
            assert x.tobytes() == y.tobytes()
        assert net.steps_taken == 0

    def test_clamp_of_exactly_the_step_cap_trains(self):
        net = build_loop([6], Activation.TANH, _hyper(), seed=19)
        schedule = TrainingSchedule(duration_per_target=MAX_STEPS * net.hyper.dt)
        report = train(net, gen_targets("binary", 2, 6, seed=19).patterns, schedule)
        assert [r.steps for r in report.records] == [MAX_STEPS] * 2
        assert net.steps_taken == 2 * MAX_STEPS

    @pytest.mark.parametrize("shape", [(12,), (0, 12)])
    def test_targets_that_are_not_a_stack_rejected(self, shape):
        """A single (T,) pattern and an empty stack are refused before
        any clamp."""
        net = build_loop([12], Activation.TANH, _hyper(), seed=19)
        with pytest.raises(ValueError, match=r"targets must be a \(rows, 12\) array"):
            train(net, np.ones(shape), TrainingSchedule(), seed=0)
        assert net.steps_taken == 0

    def test_divergence_leaves_the_net_unclamped(self):
        """A train that raises leaves the net unclamped, as one that
        returns does."""
        rng = np.random.default_rng(24)
        pats = rng.normal(size=(2, 10))
        pats[1] *= 3e3
        net = build_loop([10], Activation.IDENTITY, _hyper(), seed=24)
        with pytest.raises(IntegrationDivergenceError):
            train(net, pats, TrainingSchedule(duration_per_target=1.0), seed=25)
        assert not net.clamped.any()

    def test_zero_initial_error_keeps_weights_still(self):
        """A network whose prediction already matches the clamp exactly
        generates no error signal, so the weights must not move."""
        net = build_loop([6], Activation.IDENTITY, _hyper(), seed=20)
        net.M[:] = 0.0
        net.W[:] = 0.0
        net.b[:] = 0.0
        target = np.zeros((1, 6))
        train(net, target, TrainingSchedule(duration_per_target=0.5, epochs=1),
              seed=21)
        np.testing.assert_array_equal(net.M, 0.0)
        np.testing.assert_array_equal(net.W, 0.0)
        np.testing.assert_array_equal(net.b, 0.0)


def train_tanh_loop():
    """sha256 of everything a tanh loop net with zeta = 0.25 leaves after
    training: its weights, errors, step count and train.csv text."""
    targets = gen_targets("real", 3, 12, seed=43)
    net = build_loop([5, 4, 3], Activation.TANH, _hyper(zeta=0.25), seed=44)
    rep = train(net, targets.patterns,
                TrainingSchedule(duration_per_target=1.0, epochs=2,
                                 target_order=SHUFFLED), seed=45)
    digest = hashlib.sha256()
    for x in (net.M, net.W, net.b, net.E):
        digest.update(x.tobytes())
    digest.update(f"{net.steps_taken}\n{rep.to_csv()}".encode())
    return digest.hexdigest()


class TestReport:
    def test_final_mean_energy_of_no_records_is_zero(self):
        assert TrainingReport().final_mean_energy() == 0.0


class TestSquarings:
    """train squares each target's step matrix once per call, before
    its first clamp, and every clamp of that target reuses them."""

    def test_made_once_per_target(self):
        """Over 3 targets x 4 shuffled epochs, _square runs 3 times, not
        12, and the net trains bit for bit as one whose clamps each
        square afresh.  The shuffled epochs put the targets at other
        positions, so squarings reused by position would differ."""
        targets = gen_targets("real", 3, 12, seed=40)
        net, ref = (build_loop([12], Activation.RELU, _hyper(), seed=41)
                    for _ in range(2))
        schedule = TrainingSchedule(duration_per_target=1.0, epochs=4,
                                    target_order=SHUFFLED, reset_fast_state=False)
        with mock.patch.object(learning, "_square", wraps=learning._square) as spy:
            rep = train(net, targets.patterns, schedule, seed=42)
        assert spy.call_count == 3
        ids = [r.target_id for r in rep.records]
        assert len({tuple(ids[k:k + 3]) for k in (0, 3, 6, 9)}) > 1

        clamp = learning._clamp

        def fresh(net, residual, steps, squarings):
            return clamp(net, residual, steps, learning._square(net, net.V, steps))

        with mock.patch.object(learning, "_clamp", fresh):
            ref_rep = train(ref, targets.patterns, schedule, seed=42)
        assert rep.to_csv() == ref_rep.to_csv()
        assert net.steps_taken == ref.steps_taken == 12 * 200
        for x in ("M", "W", "b", "E"):
            assert np.array_equal(getattr(net, x), getattr(ref, x))

    def test_squarings_are_read_only(self):
        """Every array that train keeps for a target's later clamps
        refuses an in-place write."""
        net = build_loop([6], Activation.TANH, _hyper(), seed=46)
        net.clamp_all(np.linspace(-1.0, 1.0, 6))
        Q, S, growth = learning._square(net, net.V, 1000)
        assert len(Q) == len(S) == len(growth) == 10
        for m in (*Q, *S, growth):
            with pytest.raises(ValueError):
                m[0] *= 2.0

    @pytest.mark.parametrize("first", ["returns", "raises"])
    def test_no_state_outlives_train(self, first):
        """After a relu, zeta = 1 net of the same T trained, returning or
        raising IntegrationDivergenceError, a tanh loop net with another
        zeta and mask trains bit for bit as it does alone, in a new
        interpreter."""
        rng = np.random.default_rng(24)
        pats = rng.normal(size=(2, 12))
        net = build_loop([12], Activation.RELU, _hyper(), seed=24)
        schedule = TrainingSchedule(duration_per_target=1.0, epochs=2)
        if first == "raises":
            pats[1] *= 3e3
            with pytest.raises(IntegrationDivergenceError):
                train(net, pats, schedule, seed=25)
        else:
            train(net, pats, schedule, seed=25)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        alone = subprocess.run(
            [sys.executable, "-c",
             "from test_learning import train_tanh_loop; print(train_tanh_loop())"],
            env=env, capture_output=True, text=True, check=True).stdout.strip()
        assert train_tanh_loop() == alone


class TestReducedClamp:
    """train against the step-by-step oracle on configurations the
    property test in test_properties does not reach."""

    @pytest.mark.parametrize("steps", [1, 2, 3, 8, 144, 1000, 1024, 1025])
    @pytest.mark.parametrize("reset", [True, False])
    @pytest.mark.parametrize("loop", [False, True])
    def test_closed_form_matches_oracle(self, steps, reset, loop):
        """Clamps of K steps at and around powers of two and at the CLI's
        clamp lengths (144 steps for binary targets, 1,000 for real
        ones) clear the bound whole, never split, and land where the
        oracle does, from errors reset to 0 or carried over from a
        random start."""
        targets = gen_targets("real", 2, 12, seed=27)
        if loop:
            net, ref = (build_loop([5, 4, 3], Activation.TANH, _hyper(), seed=28)
                        for _ in range(2))
        else:
            net, ref = (build_loop([12], Activation.RELU, _hyper(), seed=28)
                        for _ in range(2))
        net.E[:] = ref.E[:] = np.random.default_rng(29).normal(size=12)
        schedule = TrainingSchedule(duration_per_target=steps * 0.005,
                                    reset_fast_state=reset)
        with spy_pieces() as spy:
            rep = train(net, targets.patterns, schedule, seed=30)
        ref_rep = train_oracle(ref, targets.patterns, schedule, seed=30)
        assert spy.checks == [(steps, True)] * 2
        assert spy.single_steps() == 0
        assert rep.to_csv() == ref_rep.to_csv()
        assert net.steps_taken == ref.steps_taken == 2 * steps
        assert_trained_alike(net, ref)

    def test_bound_refuses_a_clamp_that_does_not_diverge(self):
        """Errors preset to 1e98 decay under a stable step matrix
        (|eigenvalue|^2 = a < 1), but the bound on 100 steps, about 7e6
        times the start's size, is past DIVERGENCE_LIMIT / 2.  Every
        clamp splits: from about 1e98 pieces of 8 steps or more are
        refused and those of 4 clear, so it takes no single step.  Each
        piece runs the 4 steps, the longest the bound clears, after one
        check: 25 checks per clamp after its whole one.  None raises,
        and each lands where the oracle does."""
        targets = gen_targets("real", 2, 6, seed=31)
        net, ref = (build_loop([6], Activation.IDENTITY, _hyper(), seed=31)
                    for _ in range(2))
        net.E[:] = ref.E[:] = 1e98
        schedule = TrainingSchedule(duration_per_target=0.5, reset_fast_state=False)
        with spy_pieces() as spy:
            rep = train(net, targets.patterns, schedule, seed=32)
        ref_rep = train_oracle(ref, targets.patterns, schedule, seed=32)
        assert [c for c in spy.checks if c[0] == 100] == [(100, False)] * 2
        assert (8, False) in spy.checks and (4, True) in spy.checks
        assert spy.calls == 2 * (1 + 100 // 4)
        assert spy.single_steps() == 0
        assert 1e95 < np.abs(ref.E).max() < 1e98
        assert rep.to_csv() == ref_rep.to_csv()
        assert net.steps_taken == ref.steps_taken == 200
        assert_trained_alike(net, ref)

    @pytest.mark.parametrize("scale", [1e98, 1e99])
    def test_matches_oracle_in_pieces(self, scale):
        """Errors preset near the limit keep every clamp of 1,200 steps
        from clearing whole.  From 1e98 the pieces split into pieces of
        two or more steps; from 1e99, where two steps are refused, they
        reach single steps.  Neither raises, and both land where the
        oracle does, over shuffled clamps that carry their errors
        over.  Each piece takes one bound check from the x it starts
        at, never a second from the same x."""
        targets = gen_targets("real", 3, 12, seed=22)
        net, ref = (build_loop([5, 4, 3], Activation.RELU, _hyper(),
                               tie_weights=True, seed=22) for _ in range(2))
        net.E[:] = ref.E[:] = scale * np.linspace(-1.0, 1.0, 12)
        schedule = TrainingSchedule(duration_per_target=6.0, epochs=2,
                                    target_order=SHUFFLED, reset_fast_state=False)
        with spy_pieces() as spy:
            rep = train(net, targets.patterns, schedule, seed=23)
        ref_rep = train_oracle(ref, targets.patterns, schedule, seed=23)
        assert (1200, False) in spy.checks
        assert (spy.single_steps() > 0) == (scale == 1e99)
        assert len(set(spy.piece_starts)) == len(spy.piece_starts) > 0
        assert rep.to_csv() == ref_rep.to_csv()
        assert net.steps_taken == ref.steps_taken == 6 * 1200
        assert_trained_alike(net, ref)

    @pytest.mark.parametrize("steps", [200, 255, 256])
    def test_divergence_reports_the_oracle_step(self, steps):
        """A pattern scaled by 3e3 makes sum(s^2) so large that each
        learning step overshoots: the errors grow about 20-fold per
        step and pass DIVERGENCE_LIMIT in the middle of the second
        clamp.  That clamp splits down to single steps, whatever set
        bits its length has.  The error names the same step as the
        oracle, and the weights hold the updates of the steps before
        it."""
        rng = np.random.default_rng(24)
        pats = rng.normal(size=(2, 10))
        pats[1] *= 3e3
        schedule = TrainingSchedule(duration_per_target=steps * 0.005, epochs=1)
        net, ref = (build_loop([10], Activation.IDENTITY, _hyper(), seed=24)
                    for _ in range(2))
        with spy_pieces() as spy, pytest.raises(IntegrationDivergenceError) as got:
            train(net, pats, schedule, seed=25)
        with pytest.raises(IntegrationDivergenceError) as want:
            train_oracle(ref, pats, schedule, seed=25)
        assert spy.checks[0] == (steps, True)
        assert spy.single_steps() > 0
        assert steps < want.value.step < 2 * steps
        assert got.value.step == want.value.step == net.steps_taken == ref.steps_taken
        for x in ("M", "W", "b"):
            assert_close_to_largest(getattr(net, x), getattr(ref, x), rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, 1e101])
    def test_target_past_the_limit_is_refused(self, bad):
        """The step-by-step check covers the clamped values too, so the
        oracle fails the first step of a target with an entry past
        DIVERGENCE_LIMIT even while the errors are still under it.
        train refuses that target before it clamps or steps."""
        pats = np.array([[1.0, bad, 0.5]])
        net, ref = (build_loop([3], Activation.TANH, _hyper(), seed=26)
                    for _ in range(2))
        before = net.M.copy()
        with pytest.raises(ConstructionError, match="of finite entries within 1e"):
            train(net, pats, TrainingSchedule(duration_per_target=0.5), seed=0)
        with pytest.raises(IntegrationDivergenceError) as want:
            train_oracle(ref, pats, TrainingSchedule(duration_per_target=0.5), seed=0)
        assert want.value.step == 1
        assert net.steps_taken == 0
        np.testing.assert_array_equal(net.M, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e101])
    def test_bad_target_after_a_good_one_moves_no_weight(self, bad):
        """A target past the limit is refused before the targets ahead
        of it are clamped: the step-by-step path would have applied the
        first clamp's 100 steps of updates before failing at step 101.
        The weights, the state and steps_taken stay as they were."""
        pats = gen_targets("real", 2, 6, seed=34).patterns
        pats[1, 3] = bad
        net, ref = (build_loop([6], Activation.TANH, _hyper(), seed=34)
                    for _ in range(2))
        net.E[:] = np.linspace(-1.0, 1.0, 6)
        before = {x: getattr(net, x).copy() for x in ("M", "W", "b", "E", "V")}
        schedule = TrainingSchedule(duration_per_target=0.5)
        with spy_pieces() as spy, pytest.raises(ConstructionError):
            train(net, pats, schedule, seed=0)
        with pytest.raises(IntegrationDivergenceError) as want:
            train_oracle(ref, pats, schedule, seed=0)
        assert want.value.step == 101
        assert not np.array_equal(ref.M, before["M"])
        assert spy.calls == 0 and net.steps_taken == 0
        assert not net.clamped.any()
        for x, x0 in before.items():
            np.testing.assert_array_equal(getattr(net, x), x0)

    @pytest.mark.parametrize("where", ["E", "b"])
    def test_nan_start_fails_at_the_first_step(self, where):
        """A NaN in the carried errors, or in a bias and so in the
        residual, is refused by every bound (a NaN never compares
        under it), so the clamp splits down to a single step, which
        fails at step 1 as the oracle's does, with the weights
        untouched."""
        targets = gen_targets("real", 1, 6, seed=33)
        net, ref = (build_loop([6], Activation.TANH, _hyper(), seed=33)
                    for _ in range(2))
        for x in (net, ref):
            getattr(x, where)[2] = np.nan
        before = [x.copy() for x in (net.M, net.W, net.b)]
        schedule = TrainingSchedule(duration_per_target=0.5, reset_fast_state=False)
        with spy_pieces() as spy, pytest.raises(IntegrationDivergenceError) as got:
            train(net, targets.patterns, schedule, seed=0)
        with pytest.raises(IntegrationDivergenceError) as want:
            train_oracle(ref, targets.patterns, schedule, seed=0)
        assert spy.checks[0] == (100, False)
        assert got.value.step == want.value.step == net.steps_taken == 1
        for x, x0 in zip((net.M, net.W, net.b), before):
            np.testing.assert_array_equal(x, x0)

    def test_long_clamp_refused_whole_runs_in_pieces(self):
        """A clamp that does not diverge can still fail the bound whole:
        with dt = 0.1 and gamma = 1.01, B's powers outgrow the limit
        within 1,000 steps while A's decay.  Each clamp then runs in
        pieces that clear from where they start, with no single step,
        and lands where the oracle does."""
        hyper = _hyper(dt=0.1, gamma=1.01)
        targets = gen_targets("binary", 2, 12, seed=27)
        net, ref = (build_loop([12], Activation.TANH, hyper, seed=28)
                    for _ in range(2))
        schedule = TrainingSchedule(duration_per_target=100.0)
        with spy_pieces() as spy:
            train(net, targets.patterns, schedule, seed=1)
        train_oracle(ref, targets.patterns, schedule, seed=1)
        assert [c for c in spy.checks if c[0] == 1000] == [(1000, False)] * 2
        assert spy.single_steps() == 0
        assert net.steps_taken == ref.steps_taken == 2000
        assert_trained_alike(net, ref)

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


class TestTrainingLimit:
    """Training drives every clamp residual to 0, and each update of row
    i of [M | b] is a multiple of a clamped pattern's features, so the
    weights end at the least-squares fit nearest the start that
    oracles.training_limit computes, whatever the order of the clamps
    and whether the errors are reset.  The limit is that fit only when
    every row's features have rank N: of three binary targets drawn at
    seed 3 for a (6, 4) loop, two share their 4-unit predictor part, and
    training stays 0.28-0.69 away from the fit after 256 to 1,024
    epochs.  256 epochs of 2.0 s clamps at gamma = 2 bring every case
    below within 1e-14 of the limit; 64 leave the shuffled relu runs at
    2.6e-10 and 4.0e-10."""

    @pytest.mark.parametrize("order, reset", [(SEQUENTIAL, True), (SHUFFLED, False)])
    @pytest.mark.parametrize("kind", ["binary", "real"])
    @pytest.mark.parametrize("sizes, activation", [([12], Activation.RELU),
                                                   ([12], Activation.TANH),
                                                   ([6, 4], Activation.TANH)])
    def test_weights_reach_the_least_squares_limit(self, sizes, activation, kind,
                                                   order, reset):
        pats = gen_targets(kind, 3, sum(sizes), seed=0).patterns
        net = build_loop(sizes, activation, _hyper(gamma=2.0), seed=0)
        assert all(np.linalg.matrix_rank(phi) == 3 for phi in row_features(net, pats))
        M, W, b = training_limit(net, pats)
        train(net, pats, TrainingSchedule(duration_per_target=2.0, epochs=256,
                                          target_order=order, reset_fast_state=reset),
              seed=1)
        for got, want in ((net.M, M), (net.W, W), (net.b, b)):
            assert_close_to_largest(got, want, rel=1e-10)
