"""Target generation, perturbations, distance traces, and summaries."""

import numpy as np
import pytest

from pchn import (Activation, Hyperparams, build_loop, build_single_population,
                  freeze, gen_targets)
from pchn.experiments import (EUCLIDEAN, HAMMING, TraceRecord,
                              absorption_summary, distance, distance_tables,
                              make_probes, metric_for, perturb_flip,
                              perturb_gaussian, perturbation_study,
                              random_init_study, recovery_summary,
                              relaxation_study, sign_pm1, success_threshold,
                              trace_to_csv)


class TestTargets:
    def test_binary_entries_are_pm1(self):
        ts = gen_targets("binary", 10, 100, seed=3)
        assert ts.patterns.shape == (10, 100)
        assert np.all(np.abs(ts.patterns) == 1.0)

    def test_binary_roughly_balanced(self):
        ts = gen_targets("binary", 50, 200, seed=5)
        # mean of +-1 draws concentrates near 0
        assert abs(ts.patterns.mean()) < 0.05

    def test_real_moments(self):
        ts = gen_targets("real", 100, 100, seed=7)
        assert abs(ts.patterns.mean()) < 0.02
        np.testing.assert_allclose(ts.patterns.std(), 1.0, atol=0.02)

    def test_deterministic(self):
        a = gen_targets("real", 4, 30, seed=11)
        b = gen_targets("real", 4, 30, seed=11)
        np.testing.assert_array_equal(a.patterns, b.patterns)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_targets("ternary", 2, 10, seed=0)


class TestPerturbations:
    def test_flip_changes_exactly_k_bits(self):
        rng = np.random.default_rng(13)
        x = np.where(rng.random(100) < 0.5, -1.0, 1.0)
        for k in (0, 1, 13, 100):
            y = perturb_flip(x, k, seed=4)
            assert int(np.sum(x != y)) == k
            assert np.all(np.abs(y) == 1.0)

    def test_flip_rejects_bad_input(self):
        x = np.ones(10)
        with pytest.raises(ValueError):
            perturb_flip(np.array([1.0, 0.5]), 1, seed=0)
        with pytest.raises(ValueError):
            perturb_flip(x, 11, seed=0)

    def test_gaussian_zero_sigma_is_identity(self):
        x = np.linspace(-1, 1, 20)
        np.testing.assert_array_equal(perturb_gaussian(x, 0.0, seed=3), x)

    def test_gaussian_noise_scale(self):
        x = np.zeros(20000)
        y = perturb_gaussian(x, 0.5, seed=9)
        np.testing.assert_allclose(y.std(), 0.5, atol=0.02)

    def test_deterministic(self):
        x = np.ones(64)
        np.testing.assert_array_equal(perturb_flip(x, 5, seed=2),
                                      perturb_flip(x, 5, seed=2))


class TestDistances:
    def test_euclidean_3_4_5(self):
        a = np.array([0.0, 0.0])
        b = np.array([3.0, 4.0])
        assert distance(a, b, EUCLIDEAN) == 5.0

    def test_hamming_counts_mismatches(self):
        a = np.array([1.0, -1.0, 1.0, 1.0])
        b = np.array([1.0, 1.0, -1.0, 1.0])
        assert distance(a, b, HAMMING) == 2.0

    def test_hamming_signs_real_input(self):
        # hamming on real vectors compares signs
        a = np.array([0.3, -0.2])
        b = np.array([1.0, 1.0])
        assert distance(a, b, HAMMING) == 1.0

    def test_metric_for_kind(self):
        assert metric_for("binary") == HAMMING
        assert metric_for("real") == EUCLIDEAN

    def test_sign_pm1_never_zero(self):
        out = sign_pm1(np.array([-1.5, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [-1.0, 1.0, 1.0])

    def test_success_threshold(self):
        assert success_threshold(HAMMING, 100) == 1.0
        assert success_threshold(EUCLIDEAN, 100, initial=8.0) == pytest.approx(0.8)
        # absolute fallback: 10% of the expected probe displacement
        assert success_threshold(EUCLIDEAN, 100) == pytest.approx(
            0.1 * np.sqrt(0.5 * 100))


def _tiny_net(seed=0):
    hyper = Hyperparams(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005)
    net = build_single_population(12, Activation.TANH, hyper, seed=seed)
    freeze(net)
    return net


class TestRelaxationStudy:
    def test_trace_shape_and_order(self):
        net = _tiny_net()
        ts = gen_targets("binary", 3, 12, seed=21)
        starts = ts.patterns.copy()
        recs = relaxation_study(net, ts, starts, horizon=0.5, sample_every=0.1)
        # samples at t = 0, 0.1, ..., 0.5 for 3 runs x 3 targets
        assert len(recs) == 3 * 6 * 3
        keys = [(r.run_id, r.t, r.target_id) for r in recs]
        assert keys == sorted(keys)
        assert all(r.metric == HAMMING for r in recs)

    def test_start_at_target_reports_zero_distance(self):
        net = _tiny_net()
        ts = gen_targets("binary", 2, 12, seed=22)
        recs = relaxation_study(net, ts, ts.patterns, horizon=0.2, sample_every=0.1)
        t0 = [r for r in recs if r.t == 0.0 and r.run_id == r.target_id]
        assert all(r.distance == 0.0 for r in t0)

    def test_divergent_run_is_flagged_not_fatal(self):
        # linear units with huge weights blow past the finite cutoff in
        # a couple of steps; both runs must be closed out, not raised
        hyper = Hyperparams(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005)
        net = build_single_population(12, Activation.IDENTITY, hyper, seed=0)
        net.connections[0].M[:] = 1e60
        net.connections[0].W[:] = 1e60
        freeze(net)
        ts = gen_targets("real", 2, 12, seed=23)
        recs = relaxation_study(net, ts, ts.patterns * 1e30, horizon=0.2,
                                sample_every=0.1)
        flags = {r.run_id for r in recs if "divergent" in r.flags}
        assert flags == {0, 1}

    def test_columns_follow_step_fast(self):
        """Each batch column is the trajectory step_fast integrates from
        the same start: the study and the single-run step share one
        Euler update, so distances agree to rounding."""
        hyper = Hyperparams(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005)
        net = freeze(build_loop([5, 4, 3], Activation.TANH, hyper,
                                init_scale=1.5, seed=8))
        ts = gen_targets("real", 2, 12, seed=28)
        starts = make_probes(ts, 52)
        recs = relaxation_study(net, ts, starts, horizon=2.0, sample_every=0.1)
        stride = int(round(0.1 / hyper.dt))
        for r, start in enumerate(starts):
            got = np.array([x.distance for x in recs if x.run_id == r])
            net.set_fast_state(np.concatenate((np.zeros(12), start)))
            want = []
            for k in range(int(round(2.0 / hyper.dt)) + 1):
                if k % stride == 0:
                    want += [np.linalg.norm(net.values_vector() - pat)
                             for pat in ts.patterns]
                net.step_fast()
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_deterministic_csv(self):
        net = _tiny_net(3)
        ts = gen_targets("real", 3, 12, seed=24)
        probes = make_probes(ts, 50)
        a = trace_to_csv(relaxation_study(net, ts, probes, horizon=0.3,
                                          sample_every=0.1))
        b = trace_to_csv(relaxation_study(net, ts, probes, horizon=0.3,
                                          sample_every=0.1))
        assert a == b
        assert a.splitlines()[0] == "run_id,t,target_id,distance,metric,flags"


class TestStudiesAndSummaries:
    def test_perturbation_study_runs_own_target(self):
        net = _tiny_net(5)
        ts = gen_targets("binary", 3, 12, seed=25)
        recs = perturbation_study(net, ts, horizon=0.3, sample_every=0.1,
                                  flip_bits=2, seed=31)
        first, last, flagged = distance_tables(recs)
        assert set(first) == {0, 1, 2}
        for r in range(3):
            assert first[r][r] == 2.0

    def test_random_init_study_size(self):
        net = _tiny_net(6)
        ts = gen_targets("real", 2, 12, seed=26)
        recs = random_init_study(net, ts, n_runs=4, horizon=0.2,
                                 sample_every=0.1, seed=33)
        assert {r.run_id for r in recs} == {0, 1, 2, 3}

    def test_recovery_summary_counts_threshold(self):
        net = _tiny_net(7)
        ts = gen_targets("binary", 2, 12, seed=27)
        recs = perturbation_study(net, ts, horizon=0.2, sample_every=0.1,
                                  flip_bits=0, seed=35)
        summ = recovery_summary(recs, HAMMING)
        # zero perturbation starts at the target; untrained drift over
        # 0.2 s cannot flip sign of a +-1 start
        assert summ.n_runs == 2
        assert summ.successes == 2

    def test_absorption_summary_flags_never_succeed(self):
        """A flagged (divergent) run cannot count as absorbed no matter
        how small its last recorded distance was."""
        recs = [TraceRecord(0, 0.0, 0, 5.0, EUCLIDEAN),
                TraceRecord(0, 1.0, 0, 0.0, EUCLIDEAN, "divergent"),
                TraceRecord(1, 0.0, 0, 5.0, EUCLIDEAN),
                TraceRecord(1, 1.0, 0, 0.0, EUCLIDEAN)]
        summ = absorption_summary(recs, EUCLIDEAN, 12)
        assert summ.n_runs == 2
        assert summ.successes == 1


class TestProbes:
    def test_binary_probes_flip_fixed_bits(self):
        ts = gen_targets("binary", 4, 40, seed=29)
        probes = make_probes(ts, 60, flip_bits=7)
        for r in range(4):
            assert int(np.sum(probes[r] != ts.patterns[r])) == 7

    def test_real_probes_gaussian(self):
        ts = gen_targets("real", 4, 1000, seed=30)
        probes = make_probes(ts, 61)
        deltas = probes - ts.patterns
        np.testing.assert_allclose(deltas.std(), np.sqrt(0.5), atol=0.05)

    def test_probe_runs_differ(self):
        ts = gen_targets("binary", 2, 40, seed=31)
        probes = make_probes(ts, 62, flip_bits=7)
        flipped0 = np.flatnonzero(probes[0] != ts.patterns[0])
        flipped1 = np.flatnonzero(probes[1] != ts.patterns[1])
        assert not np.array_equal(flipped0, flipped1)
