"""Target generation, perturbations, distance traces, and summaries."""

import copy
import hashlib
import re
from functools import partial
from unittest import mock

import numpy as np
import pytest

from pchn import (Activation, ConstructionError, Hyperparams, TrainingSchedule,
                  build_loop, freeze, gen_targets, train)
from pchn import experiments
from pchn.experiments import (EUCLIDEAN, HAMMING, SAMPLE_CHUNK, Trace, _chunk_distances,
                              absorption_summary, distance_tables,
                              make_probes, metric_for, perturb_flip,
                              perturb_gaussian, perturbation_study,
                              random_init_study, recovery_summary,
                              relaxation_study, sign_pm1, success_threshold,
                              trace_to_csv)
from pchn.network import MAX_STEPS

from oracles import distance, distance_table, relaxation_study_sampled, textbook_euler


class TestTargets:
    def test_binary_entries_are_pm1(self):
        ts = gen_targets("binary", 10, 100, seed=3)
        assert ts.patterns.shape == (10, 100) == (ts.n, ts.d)
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

    @pytest.mark.parametrize("kind", ["Binary", "ternary", "", None])
    def test_target_set_refuses_an_unknown_kind(self, kind):
        """A TargetSet of a kind other than 'binary' or 'real' is refused
        when it is made, not studied as real targets."""
        patterns = gen_targets("binary", 2, 6, seed=0).patterns
        with pytest.raises(ConstructionError, match="unknown target kind"):
            experiments.TargetSet(kind, patterns)

    @pytest.mark.parametrize("patterns", [
        np.zeros((0, 6)), np.zeros((2, 0)), np.ones(6), np.ones((1, 2, 3)), [[1.0, -1.0]]],
        ids=["no rows", "no columns", "1-d", "3-d", "list"])
    def test_target_set_refuses_patterns_that_are_not_a_stack(self, patterns):
        """Patterns that are not a 2-D array with at least one row and one
        column are refused when the set is made, not left to a bare
        ValueError in a study's summary."""
        with pytest.raises(ConstructionError,
                           match="patterns must be a 2-D array with at least one row"):
            experiments.TargetSet("binary", patterns)

    @pytest.mark.parametrize("n, d, message", [
        (0, 10, "need n >= 1 and d >= 1"), (2, 0, "need n >= 1 and d >= 1"),
        (2.5, 4, "n=2.5 is not an integer"), (2, 4.0, "d=4.0 is not an integer")],
        ids=["0-10", "2-0", "float n", "float d"])
    def test_rejects_an_empty_shape(self, n, d, message):
        """An empty shape, and a size that is not an integer, are refused
        before numpy draws anything."""
        with pytest.raises(ConstructionError, match=re.escape(message)):
            gen_targets("binary", n, d, seed=0)


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
        with pytest.raises(ConstructionError, match=re.escape("k=2.5 is not an integer")):
            perturb_flip(np.ones(6), 2.5, seed=0)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 6), ()])
    def test_flip_refuses_x_that_is_not_a_vector(self, shape):
        """A stack of rows would have whole rows flipped, and a scalar
        would fail inside numpy: both are refused before any draw."""
        with mock.patch.object(np.random, "default_rng") as rng:
            with pytest.raises(ConstructionError, match=re.escape(f"not of shape {shape}")):
                perturb_flip(np.ones(shape), 1, seed=11)
        rng.assert_not_called()

    def test_gaussian_zero_sigma_is_identity(self):
        x = np.linspace(-1, 1, 20)
        np.testing.assert_array_equal(perturb_gaussian(x, 0.0, seed=3), x)

    def test_gaussian_rejects_negative_sigma(self):
        with pytest.raises(ConstructionError, match="sigma must be >= 0"):
            perturb_gaussian(np.zeros(4), -0.5, seed=0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_gaussian_rejects_sigma_that_is_not_finite(self, sigma):
        with pytest.raises(ConstructionError, match="sigma must be >= 0 and finite"):
            perturb_gaussian(np.zeros(3), sigma, seed=0)

    def test_real_probes_inherit_the_sigma_check(self):
        ts = gen_targets("real", 2, 3, seed=0)
        with pytest.raises(ConstructionError, match="sigma must be >= 0 and finite"):
            make_probes(ts, 0, sigma=np.nan)

    def test_gaussian_noise_scale(self):
        x = np.zeros(20000)
        y = perturb_gaussian(x, 0.5, seed=9)
        np.testing.assert_allclose(y.std(), 0.5, atol=0.02)

    def test_deterministic(self):
        x = np.ones(64)
        np.testing.assert_array_equal(perturb_flip(x, 5, seed=2),
                                      perturb_flip(x, 5, seed=2))


def _table(V, P, metric, work=None):
    """_chunk_distances as a (runs, targets) table between the rows of V
    (runs, T) and of P (targets, T); work, when given, is its (targets,
    >= runs, T) scratch."""
    if work is None:
        work = np.empty((len(P),) + V.shape)
    return _chunk_distances(V, P, metric, work).T


def _one_distance(a, b, metric):
    """_chunk_distances between one state a and one target b."""
    return _table(np.array(a)[None], np.array(b)[None], metric)[0, 0]


class TestDistances:
    def test_euclidean_3_4_5(self):
        assert _one_distance([0.0, 0.0], [3.0, 4.0], EUCLIDEAN) == 5.0

    def test_hamming_counts_mismatches(self):
        a = [1.0, -1.0, 1.0, 1.0]
        b = [1.0, 1.0, -1.0, 1.0]
        assert _one_distance(a, b, HAMMING) == 2.0

    def test_hamming_signs_real_input(self):
        # hamming on real vectors compares signs, with sign(0) = +1
        assert _one_distance([0.3, -0.2, 0.0], [1.0, 1.0, 1.0], HAMMING) == 1.0

    def test_table_matches_pairwise_oracle(self):
        """Entry (r, j) is run r's distance to target j."""
        rng = np.random.default_rng(3)
        V = rng.normal(size=(4, 12))
        P = np.sign(rng.normal(size=(3, 12)))
        for metric in (EUCLIDEAN, HAMMING):
            got = _table(V, P, metric)
            assert got.shape == (4, 3)
            want = [[distance(V[r], P[j], metric) for j in range(3)]
                    for r in range(4)]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
            np.testing.assert_array_equal(got, distance_table(V, P, metric))

    def test_euclidean_is_bitwise_linalg_norm(self):
        """The Euclidean table runs the operations of np.linalg.norm, so
        it has its bits, also into the front of a wider reused work
        buffer, as a study's last chunk uses it."""
        rng = np.random.default_rng(4)
        P = rng.normal(size=(10, 100))
        work = np.empty((10, SAMPLE_CHUNK * 7, 100))
        for _ in range(2):
            V = rng.normal(size=(7, 100))
            want = np.linalg.norm(V[:, None] - P, axis=-1)
            np.testing.assert_array_equal(_table(V, P, EUCLIDEAN), want)
            np.testing.assert_array_equal(_table(V, P, EUCLIDEAN, work), want)

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
    net = build_loop([12], Activation.TANH, hyper, seed=seed)
    freeze(net)
    return net


class TestRelaxationStudy:
    def test_trace_shape_and_order(self):
        net = _tiny_net()
        ts = gen_targets("binary", 3, 12, seed=21)
        starts = ts.patterns.copy()
        trace = relaxation_study(net, ts, starts, horizon=0.5, sample_every=0.1)
        # samples at t = 0, 0.1, ..., 0.5 for 3 runs x 3 targets
        assert len(trace) == 3 * 6 * 3
        assert trace.dist.shape == (3, 6, 3)
        np.testing.assert_array_equal(trace.end, 5)
        rows = [line.split(",") for line in trace_to_csv(trace).decode().splitlines()[1:]]
        keys = [(int(r[0]), float(r[1]), int(r[2])) for r in rows]
        assert len(keys) == len(trace)
        assert keys == sorted(keys)
        assert trace.metric == HAMMING
        assert all(r[4] == HAMMING for r in rows)

    def test_start_at_target_reports_zero_distance(self):
        net = _tiny_net()
        ts = gen_targets("binary", 2, 12, seed=22)
        trace = relaxation_study(net, ts, ts.patterns, horizon=0.2, sample_every=0.1)
        assert trace.t[0] == 0.0
        np.testing.assert_array_equal(np.diagonal(trace.dist[:, 0]), 0.0)

    def test_divergent_run_is_flagged_not_fatal(self):
        # linear units with huge weights blow past the finite cutoff in
        # a couple of steps; both runs must be closed out, not raised
        hyper = Hyperparams(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005)
        net = build_loop([12], Activation.IDENTITY, hyper, seed=0)
        net.M[:] = 1e60
        net.W[:] = 1e60
        freeze(net)
        ts = gen_targets("real", 2, 12, seed=23)
        trace = relaxation_study(net, ts, ts.patterns * 1e30, horizon=0.2,
                                 sample_every=0.1)
        assert set(np.flatnonzero(trace.diverged)) == {0, 1}
        flagged = {int(line.split(",")[0])
                   for line in trace_to_csv(trace).decode().splitlines()[1:]
                   if "divergent" in line.split(",")[5]}
        assert flagged == {0, 1}

    def test_unfrozen_net_gives_the_frozen_trace(self):
        """A study moves no weight, so a trained net left unfrozen gives
        the trace of its frozen copy bit for bit, and keeps its weights."""
        hyper = Hyperparams(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005)
        ts = gen_targets("binary", 2, 12, seed=24)
        net = build_loop([12], Activation.TANH, hyper, seed=0)
        train(net, ts, TrainingSchedule(duration_per_target=1.0, epochs=2), seed=25)
        frozen = freeze(copy.deepcopy(net))
        weights = [A.tobytes() for A in (net.M, net.W, net.b)]
        starts = make_probes(ts, seed=26, flip_bits=3)
        got = relaxation_study(net, ts, starts, horizon=0.5, sample_every=0.1)
        want = relaxation_study(frozen, ts, starts, horizon=0.5, sample_every=0.1)
        assert [A.tobytes() for A in (net.M, net.W, net.b)] == weights
        for name in ("dist", "end", "diverged"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert trace_to_csv(got) == trace_to_csv(want)

    @pytest.mark.parametrize("shape", [(2, 13), (12,)])
    def test_rejects_starts_of_the_wrong_width(self, shape):
        """Starts must be (runs, T) rows: rows one unit too wide, and a
        single (T,) state, which would broadcast into T runs, are
        refused."""
        net = _tiny_net()
        ts = gen_targets("binary", 2, 12, seed=24)
        with pytest.raises(ConstructionError, match=r"starts must be a \(rows, 12\) array"):
            relaxation_study(net, ts, np.ones(shape), horizon=0.1)

    @pytest.mark.parametrize("kind", ["binary", "real"])
    def test_rejects_targets_of_the_wrong_width(self, kind, monkeypatch):
        """Targets one unit too wide are refused before a step, not at
        the first sample flush; random-init starts, drawn at the net's
        width, do not catch them."""
        net = _tiny_net()
        monkeypatch.setattr(net, "kernel", lambda s: pytest.fail("the study stepped"))
        ts = gen_targets(kind, 3, 13, seed=24)
        with pytest.raises(ConstructionError, match=r"targets must be a \(rows, 12\) array"):
            random_init_study(net, ts, n_runs=2, horizon=0.1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0, 0.0, "1.0", None])
    @pytest.mark.parametrize("name", ["horizon", "sample_every"])
    def test_rejects_bad_horizon_and_sample_every(self, name, bad):
        """A horizon or sampling interval that is not positive and finite
        is refused before any step, not run for one step or sampled at
        every step; one that is not a number, not left to a bare
        TypeError."""
        net = _tiny_net()
        ts = gen_targets("binary", 2, 12, seed=25)
        with pytest.raises(ConstructionError, match=name):
            relaxation_study(net, ts, ts.patterns, **{name: bad})

    @pytest.mark.parametrize("name, past_cap", [
        ("horizon", {"horizon": 1e300}),
        ("horizon", {"horizon": 1e307}),
        ("sample_every", {"horizon": 0.1, "sample_every": (MAX_STEPS + 1) * 0.005})])
    def test_rejects_a_horizon_or_sample_every_past_the_step_cap(self, name, past_cap):
        """A horizon of 1e300, one of 1e307 (whose ratio to dt overflows)
        and samples MAX_STEPS + 1 steps of dt apart are refused before any
        step, not left to np.arange or run for hours."""
        net = _tiny_net()
        assert net.hyper.dt == 0.005
        ts = gen_targets("binary", 2, 12, seed=25)
        with pytest.raises(ConstructionError, match=f"{name}: .* at most MAX_STEPS"):
            relaxation_study(net, ts, ts.patterns, **past_cap)

    def test_columns_follow_step_fast(self):
        """Each batch column is the trajectory step_fast integrates from
        the same start: the study and the single-run step share one
        Euler update, so distances agree to rounding."""
        hyper = Hyperparams(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005)
        net = freeze(build_loop([5, 4, 3], Activation.TANH, hyper,
                                init_scale=1.5, seed=8))
        ts = gen_targets("real", 2, 12, seed=28)
        starts = make_probes(ts, 52)
        trace = relaxation_study(net, ts, starts, horizon=2.0, sample_every=0.1)
        stride = int(round(0.1 / hyper.dt))
        for r, start in enumerate(starts):
            got = trace.dist[r, :trace.end[r] + 1].ravel()
            net.E[:], net.V[:] = 0.0, start
            want = []
            for k in range(int(round(2.0 / hyper.dt)) + 1):
                if k % stride == 0:
                    want += [np.linalg.norm(net.V - pat) for pat in ts.patterns]
                net.step_fast()
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("activation", list(Activation))
    def test_rows_agree_with_textbook_columns_on_a_wide_net(self, activation):
        """A T = 100 study, whose row products round differently from the
        textbook M @ sigma(V) on C-ordered columns, agrees with a study
        stepped on such columns to 1e-12 relative on every distance."""
        net = build_loop([100], activation, Hyperparams(dt=0.01), init_scale=1.0, seed=51)
        net.b[:] = np.random.default_rng(51).normal(size=100)
        freeze(net)
        ts = gen_targets("real", 10, 100, seed=51)
        starts = make_probes(ts, 51)
        got = relaxation_study(net, ts, starts, horizon=2.0, sample_every=0.05)
        want = relaxation_study_sampled(net, ts, starts, horizon=2.0, sample_every=0.05,
                                        step=partial(textbook_euler, net))
        assert not (got.diverged.any() or np.array_equal(got.dist, want.dist))
        np.testing.assert_array_equal(got.end, want.end)
        np.testing.assert_allclose(got.dist, want.dist, rtol=1e-12, atol=0)

    def test_deterministic_csv(self):
        net = _tiny_net(3)
        ts = gen_targets("real", 3, 12, seed=24)
        probes = make_probes(ts, 50)
        a = trace_to_csv(relaxation_study(net, ts, probes, horizon=0.3,
                                          sample_every=0.1))
        b = trace_to_csv(relaxation_study(net, ts, probes, horizon=0.3,
                                          sample_every=0.1))
        assert a == b
        assert a.decode().splitlines()[0] == "run_id,t,target_id,distance,metric,flags"


def _unstable_linear_net():
    """Identity units whose uniform off-diagonal prediction weights and
    opposite correction weights make the fast dynamics grow about
    e-fold every 0.02 s: a start scaled to 1e95 crosses the divergence
    limit within 0.3 s, while a unit-scale start stays finite."""
    hyper = Hyperparams(tau=1.0, gamma=100.0, zeta=1.0, dt=0.005)
    net = build_loop([12], Activation.IDENTITY, hyper, seed=0)
    M = np.full((12, 12), 50.0 / 11.0)
    np.fill_diagonal(M, 0.0)
    net.M[:] = M
    net.W[:] = -M
    return freeze(net)


class TestPinnedBytes:
    """trace_to_csv bytes pinned by sha256 for mixed batches: one run
    diverges mid-study while another keeps going (plus, for the real
    study, a start that is already past the divergence limit).  The
    horizon is not a multiple of the sampling interval, so the last
    sample is off the grid."""

    @staticmethod
    def _check(trace, digest):
        text = trace_to_csv(trace)
        assert len(trace) == text.count(b"\n") - 1
        assert hashlib.sha256(text).hexdigest() == digest

    def test_real_study(self):
        ts = gen_targets("real", 3, 12, seed=40)
        starts = np.stack([ts.patterns[0] * 1e95, ts.patterns[1],
                           np.full(12, 2e100)])
        trace = relaxation_study(_unstable_linear_net(), ts, starts,
                                 horizon=0.33, sample_every=0.1)
        self._check(trace, "eeb2a9b702b5b195efe5518f5569db56"
                           "e57bfaa0a2f7a15282150dd053a2b2f4")

    def test_binary_study(self):
        ts = gen_targets("binary", 2, 12, seed=41)
        starts = np.stack([ts.patterns[0] * 1e96, ts.patterns[1]])
        trace = relaxation_study(_unstable_linear_net(), ts, starts,
                                 horizon=0.33, sample_every=0.1)
        self._check(trace, "dc5431fba0944296e95c2e6e71588724"
                           "1a9f9b9e9718e6d9df97fb98ca7b9b96")

    @staticmethod
    def _moving_net(activation, seed):
        """Twelve units with unit-scale weights and a random bias: the
        states move far from their starts within a short study."""
        net = build_loop([12], activation, Hyperparams(dt=0.01),
                         init_scale=1.0, seed=seed)
        net.b[:] = np.random.default_rng(seed).normal(size=12)
        return freeze(net)

    def test_relu_study(self):
        """Runs that start on the kink (exact zeros of either sign) and on
        either side of it."""
        ts = gen_targets("real", 3, 12, seed=42)
        p = ts.patterns
        starts = np.stack([p[0], np.where(p[1] > 0.0, p[1], 0.0),
                           np.where(p[2] > 0.0, -0.0, -np.abs(p[2]))])
        trace = relaxation_study(self._moving_net(Activation.RELU, 42), ts, starts,
                                 horizon=2.03, sample_every=0.1)
        self._check(trace, "16db4ea4ccb38cc5eb2bc3693485bddc"
                           "7c285c93b20545d68dbba3ead841fce0")

    def test_tanh_study(self):
        ts = gen_targets("real", 3, 12, seed=43)
        starts = make_probes(ts, seed=43)
        trace = relaxation_study(self._moving_net(Activation.TANH, 43), ts, starts,
                                 horizon=2.03, sample_every=0.1)
        self._check(trace, "78c2b2cba31a44bde58be5b6fc09f15f"
                           "005aaf1dbd15a8b86c492966003a2988")


class TestChunkedSamples:
    """relaxation_study takes its distances SAMPLE_CHUNK samples at a
    time; its Trace and CSV are bitwise those of the oracle that takes
    them one sample at a time."""

    @staticmethod
    def _check(net, ts, starts, horizon, sample_every):
        got = relaxation_study(net, ts, starts, horizon=horizon, sample_every=sample_every)
        want = relaxation_study_sampled(net, ts, starts, horizon=horizon,
                                        sample_every=sample_every)
        for name in ("t", "dist", "end", "diverged"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert trace_to_csv(got) == trace_to_csv(want)
        return got

    @pytest.mark.parametrize("kind", ["real", "binary"])
    @pytest.mark.parametrize("activation", list(Activation))
    def test_moving_runs(self, activation, kind):
        """204 samples, not a multiple of the chunk, of runs that move far
        from their starts; identity units may diverge on the way."""
        ts = gen_targets(kind, 3, 12, seed=44)
        net = TestPinnedBytes._moving_net(activation, 44)
        trace = self._check(net, ts, make_probes(ts, 44, flip_bits=3), 2.03, 0.01)
        assert trace.t.size == 204 and trace.t.size % SAMPLE_CHUNK
        assert np.any(trace.dist[:, -1] != trace.dist[:, 0])

    @pytest.mark.parametrize("kind", ["real", "binary"])
    def test_divergence_in_the_middle_of_a_chunk(self, kind):
        """Run 0 passes the divergence limit mid-chunk, run 2 starts past
        it, run 1 stays finite to the end."""
        ts = gen_targets(kind, 3, 12, seed=45)
        p = ts.patterns
        starts = np.stack([p[0] * 1e95, p[1], np.full(12, 2e100)])
        trace = self._check(_unstable_linear_net(), ts, starts, 0.5, 0.005)
        np.testing.assert_array_equal(trace.diverged, [True, False, True])
        assert trace.end[0] % SAMPLE_CHUNK not in (0, SAMPLE_CHUNK - 1)
        assert trace.end[1] == trace.t.size - 1 and trace.end[2] == 0

    def test_zero_runs(self):
        ts = gen_targets("real", 2, 12, seed=46)
        self._check(_tiny_net(7), ts, np.empty((0, 12)), 0.3, 0.005)

    def test_sample_every_past_the_horizon(self):
        ts = gen_targets("binary", 2, 12, seed=47)
        trace = self._check(_tiny_net(8), ts, make_probes(ts, 47, flip_bits=3), 0.3, 0.5)
        np.testing.assert_array_equal(trace.t, [0.0, 0.3])

    def test_one_run_against_one_target(self):
        """A (1, samples, T) difference, summed over T as every wider
        chunk's is."""
        ts = gen_targets("real", 1, 12, seed=48)
        net = TestPinnedBytes._moving_net(Activation.TANH, 48)
        self._check(net, ts, make_probes(ts, 48), 2.03, 0.01)


    @pytest.mark.parametrize("last_chunk", [1, 15])
    @pytest.mark.parametrize("n_targets", [1, 2, 3])
    @pytest.mark.parametrize("runs", [1, 2, 3])
    def test_distances_of_every_batch_shape(self, runs, n_targets, last_chunk):
        """1 to 3 runs against 1 to 3 targets on a T = 100 net, whose final
        chunk holds 1 sample or 15.  A single run's final sample is a
        one-row chunk, which must sum over T as the oracle's one sample
        does."""
        net = build_loop([100], Activation.TANH, Hyperparams(dt=0.01),
                         init_scale=1.0, seed=49)
        net.b[:] = np.random.default_rng(49).normal(size=100)
        freeze(net)
        ts = gen_targets("real", n_targets, 100, seed=49)
        starts = np.random.default_rng(50).normal(size=(runs, 100))
        samples = 2 * SAMPLE_CHUNK + last_chunk
        trace = self._check(net, ts, starts, (samples - 1) * 0.01, 0.01)
        assert trace.t.size == samples and not trace.diverged.any()


class TestStudiesAndSummaries:
    def test_perturbation_study_runs_own_target(self):
        net = _tiny_net(5)
        ts = gen_targets("binary", 3, 12, seed=25)
        trace = perturbation_study(net, ts, horizon=0.3, sample_every=0.1,
                                   flip_bits=2, seed=31)
        first, last, diverged = distance_tables(trace)
        assert first.shape == last.shape == (3, 3)
        assert diverged.shape == (3,)
        for r in range(3):
            assert first[r, r] == 2.0

    def test_random_init_study_size(self):
        net = _tiny_net(6)
        ts = gen_targets("real", 2, 12, seed=26)
        trace = random_init_study(net, ts, n_runs=4, horizon=0.2,
                                  sample_every=0.1, seed=33)
        rows = trace_to_csv(trace).decode().splitlines()[1:]
        assert {int(row.split(",")[0]) for row in rows} == {0, 1, 2, 3}
        assert trace.dist.shape[0] == 4
        # a study without runs is an empty trace: a header-only CSV,
        # empty tables and 0/0 summaries
        trace = random_init_study(net, ts, n_runs=0, horizon=0.2,
                                  sample_every=0.1, seed=33)
        assert len(trace) == 0
        assert trace_to_csv(trace) == b"run_id,t,target_id,distance,metric,flags\n"
        first, last, diverged = distance_tables(trace)
        assert first.shape == last.shape == (0, 2)
        assert diverged.shape == (0,)
        for summ in (absorption_summary(trace, 12), recovery_summary(trace)):
            assert (summ.n_runs, summ.successes) == (0, 0)

    @pytest.mark.parametrize("n_runs, match", [(-1, "n_runs=-1 is negative"),
                                               (2.5, "n_runs=2.5 is not an integer")],
                             ids=["negative", "float"])
    def test_random_init_refuses_a_run_count_that_is_not_a_count(self, n_runs, match):
        """A run count that is not an integer >= 0 is refused before any
        start is drawn, not left to numpy's bare ValueError."""
        net = _tiny_net(6)
        ts = gen_targets("real", 2, 12, seed=26)
        with mock.patch.object(experiments, "gen_targets") as draw, \
                pytest.raises(ConstructionError, match=match):
            random_init_study(net, ts, n_runs=n_runs, horizon=0.2, seed=33)
        assert draw.call_count == 0

    def test_random_init_takes_a_seed_sequence(self):
        """random_init_study seeds its runs as make_probes does: a
        SeedSequence seed's spawn key is part of every run's stream, and
        a bare int seed is the SeedSequence of that int."""
        net = _tiny_net(6)
        ts = gen_targets("real", 2, 12, seed=26)
        seq = np.random.SeedSequence

        def csv(seed):
            return trace_to_csv(random_init_study(net, ts, n_runs=3, horizon=0.2,
                                                  sample_every=0.1, seed=seed))

        assert csv(seq(5)) == csv(5)
        assert csv(seq(5, spawn_key=(1,))) != csv(seq(5, spawn_key=(2,)))

    def test_recovery_summary_counts_threshold(self):
        net = _tiny_net(7)
        ts = gen_targets("binary", 2, 12, seed=27)
        trace = perturbation_study(net, ts, horizon=0.2, sample_every=0.1,
                                   flip_bits=0, seed=35)
        summ = recovery_summary(trace)
        assert summ.metric == HAMMING
        # zero perturbation starts at the target; untrained drift over
        # 0.2 s cannot flip sign of a +-1 start
        assert summ.n_runs == 2
        assert summ.successes == 2

    def test_recovery_summary_refuses_more_runs_than_targets(self):
        trace = Trace(HAMMING, np.zeros(1), np.zeros((4, 1, 3)),
                      end=np.zeros(4, dtype=int), diverged=np.zeros(4, dtype=bool))
        with pytest.raises(ConstructionError, match="4 runs.* 3 targets"):
            recovery_summary(trace)

    def test_absorption_summary_flags_never_succeed(self):
        """A flagged (divergent) run cannot count as absorbed no matter
        how small its last recorded distance was."""
        trace = Trace(EUCLIDEAN, np.array([0.0, 1.0]),
                      np.array([[[5.0], [0.0]], [[5.0], [0.0]]]),
                      end=np.array([1, 1]), diverged=np.array([True, False]))
        summ = absorption_summary(trace, 12)
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

    def test_seed_sequence_spawn_key_selects_the_probes(self):
        """A SeedSequence seed's spawn key is part of every probe's
        stream, and a bare int seed is the SeedSequence of that int."""
        ts = gen_targets("binary", 3, 40, seed=32)
        seq = np.random.SeedSequence
        a = make_probes(ts, seq(5, spawn_key=(1,)), flip_bits=7)
        b = make_probes(ts, seq(5, spawn_key=(2,)), flip_bits=7)
        for r in range(3):
            assert not np.array_equal(a[r], b[r])
        np.testing.assert_array_equal(make_probes(ts, seq(5), flip_bits=7),
                                      make_probes(ts, 5, flip_bits=7))
