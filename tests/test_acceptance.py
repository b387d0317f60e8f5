"""End-to-end behavioral battery for the trained-memory pipeline.

One test per headline property: recovery from perturbations (binary and
real-valued, both architectures), discrimination between stored patterns,
equilibrium spectra, Jacobian correctness, rejection of random starts,
the classical Hopfield oracle, CLI byte-determinism, training throughput,
and restricted energy descent.  Operating points (schedules and seeds)
are pinned so every run reproduces the same numbers.
"""

import time

import numpy as np
import pytest

from pchn import (Activation, Hyperparams, NotAnEquilibriumError,
                  TrainingSchedule, analyze_equilibrium, build_loop, freeze,
                  gen_targets, hebbian_store, jacobian_analytic, make_probes,
                  perturb_flip, perturb_gaussian, perturbation_study,
                  random_init_study, recall, relaxation_study, train)
from pchn.cli import main
from pchn.experiments import (EUCLIDEAN, HAMMING, absorption_summary,
                              distance_tables, recovery_summary)

from oracles import algebraic_step, jacobian_fd

# pinned operating points: targets seed / weights seed / train seed,
# clamp schedule, and study horizon for each configuration
BIN_SINGLE = dict(tseed=606, wseed=7, sseed=5, epochs=16, dur=0.72, horizon=20.0,
                  pseed=11)
BIN_LOOP = dict(tseed=101, wseed=7, sseed=5, epochs=16, dur=2.0, horizon=20.0,
                pseed=11)
REAL_SINGLE = dict(tseed=303, wseed=7, sseed=5, epochs=16, dur=5.0, zeta=0.25,
                   horizon=360.0, pseed=15)
REAL_LOOP = dict(tseed=909, wseed=7, sseed=5, epochs=16, dur=10.0, zeta=0.25,
                 horizon=360.0, pseed=15)

# 20 seeds at which the Hebbian oracle stores 10 clean fixed points
HOPFIELD_SEEDS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                  11, 12, 14, 15, 16, 18, 19, 20, 21, 24]


def _trained(kind, arch, cfg, activation):
    hyper = Hyperparams(zeta=cfg.get("zeta", 1.0), gamma=cfg.get("gamma", 100.0))
    targets = gen_targets(kind, 10, 100, seed=cfg["tseed"])
    sizes = [100] if arch == "single" else [50, 30, 20]
    net = build_loop(sizes, activation, hyper, seed=cfg["wseed"])
    t0 = time.monotonic()
    train(net, targets,
          TrainingSchedule(duration_per_target=cfg["dur"], epochs=cfg["epochs"]),
          seed=cfg["sseed"])
    wall = time.monotonic() - t0
    freeze(net)
    return net, targets, wall


@pytest.fixture(scope="module")
def binary_single():
    return _trained("binary", "single", BIN_SINGLE, Activation.TANH)


@pytest.fixture(scope="module")
def binary_loop():
    return _trained("binary", "loop", BIN_LOOP, Activation.TANH)


@pytest.fixture(scope="module")
def real_single():
    return _trained("real", "single", REAL_SINGLE, Activation.TANH)


@pytest.fixture(scope="module")
def real_loop():
    return _trained("real", "loop", REAL_LOOP, Activation.TANH)


class TestBinaryRecovery:
    def test_both_architectures_recover_13bit_probes(self, binary_single,
                                                     binary_loop):
        """>= 9/10 flipped probes return to Hamming <= 1 within the study
        horizon, for the single population and the loop; the whole thing
        (training included) stays under two minutes."""
        elapsed = binary_single[2] + binary_loop[2]
        for label, (net, targets, _) in (("single", binary_single),
                                         ("loop", binary_loop)):
            cfg = BIN_SINGLE if label == "single" else BIN_LOOP
            t0 = time.monotonic()
            trace = perturbation_study(net, targets, seed=cfg["pseed"],
                                       horizon=cfg["horizon"], sample_every=1.0)
            elapsed += time.monotonic() - t0
            assert trace.metric == HAMMING
            summary = recovery_summary(trace)
            # classical oracle on the identical probes, for the record
            hop = hebbian_store(targets.patterns)
            probes = make_probes(targets, cfg["pseed"])
            oracle = sum(np.array_equal(recall(hop, p).v, t)
                         for p, t in zip(probes, targets.patterns))
            print(f"binary {label}: recovered {summary.successes}/10 "
                  f"(hebbian oracle {oracle}/10 exact)")
            assert summary.successes >= 9
        print(f"binary recovery wall time {elapsed:.1f}s")
        assert elapsed < 120.0

    def test_random_starts_not_absorbed_binary(self, binary_single, binary_loop):
        for label, (net, targets, _) in (("single", binary_single),
                                         ("loop", binary_loop)):
            ri = random_init_study(net, targets, seed=23, horizon=20.0,
                                   sample_every=20.0)
            assert ri.metric == HAMMING
            ab = absorption_summary(ri, 100)
            print(f"binary {label}: {ab.successes}/10 random starts absorbed")
            assert ab.successes == 0


class TestRealRecovery:
    def _ratios(self, net, targets, horizon, pseed):
        trace = perturbation_study(net, targets, seed=pseed, horizon=horizon,
                                   sample_every=horizon)
        first, last, diverged = distance_tables(trace)
        assert not diverged.any()
        return sorted(last[r, r] / first[r, r] for r in range(10))

    def test_gaussian_probes_return_to_targets(self, real_single, real_loop):
        """Final distance <= 10% of initial for at least 8/10 runs, and
        no run worse than 30%."""
        for label, (net, targets, _), cfg in (
                ("single", real_single, REAL_SINGLE),
                ("loop", real_loop, REAL_LOOP)):
            ratios = self._ratios(net, targets, cfg["horizon"], cfg["pseed"])
            n10 = sum(1 for x in ratios if x <= 0.10)
            print(f"real {label}: {n10}/10 within 10%, worst {ratios[-1]:.3f}")
            assert n10 >= 8
            assert ratios[-1] <= 0.30

    def test_random_starts_not_absorbed_real(self, real_single, real_loop):
        for label, (net, targets, _), cfg in (
                ("single", real_single, REAL_SINGLE),
                ("loop", real_loop, REAL_LOOP)):
            ri = random_init_study(net, targets, seed=23, horizon=cfg["horizon"],
                                   sample_every=cfg["horizon"])
            assert ri.metric == EUCLIDEAN
            ab = absorption_summary(ri, 100)
            print(f"real {label}: {ab.successes}/10 random starts absorbed")
            assert ab.successes == 0


class TestDiscrimination:
    def test_runs_settle_on_their_own_target_only(self, real_single):
        """10 noisy copies of the first target: every non-matching target
        stays >= 5x further away than the matching one."""
        net, targets, _ = real_single
        t1 = targets.patterns[0]
        starts = np.stack([perturb_gaussian(t1, float(np.sqrt(0.5)), seed=50 + k)
                           for k in range(10)])
        trace = relaxation_study(net, targets, starts,
                                 horizon=REAL_SINGLE["horizon"],
                                 sample_every=REAL_SINGLE["horizon"])
        _, last, diverged = distance_tables(trace)
        assert not diverged.any()
        worst = np.inf
        for r in range(10):
            own = last[r, 0]
            others = [last[r, j] for j in range(1, 10)]
            worst = min(worst, min(others) / own)
            assert all(d >= 5.0 * own for d in others)
        print(f"discrimination: non-matching/matching ratio >= {worst:.1f}x "
              "in 10/10 runs")


class TestEquilibriumSpectra:
    def test_binary_single_spectra(self, binary_single):
        """At each stored binary pattern's equilibrium: all eigenvalues in
        the left half plane, the bulk within 1% of -1/(2 tau), at least
        one mode within 0.1 of -1, and at least one slow mode with |Re|
        in [1e-4, 1e-2]."""
        net, targets, _ = binary_single
        for tid in range(10):
            [rep] = analyze_equilibrium(net, targets.patterns[tid:tid + 1], tol=1e-8)
            res = np.abs(np.real(rep.eigenvalues))
            slow = np.sum((res >= 1e-4) & (res <= 1e-2))
            print(f"binary single t{tid}: max Re {rep.max_real_part:+.4f}, "
                  f"{rep.count_at_minus_half_tau}/200 at -1/(2tau), "
                  f"{rep.count_near_minus_one} near -1, {slow} slow modes")
            assert rep.all_stable
            assert rep.count_at_minus_half_tau > 100
            assert rep.count_near_minus_one >= 1
            assert slow >= 1
            assert rep.max_real_part < 0.0

    def test_spectrum_report_other_configs(self, real_single, binary_loop,
                                           real_loop):
        """Same readout for the other three configurations, reported."""
        for label, (net, targets, _) in (("real single", real_single),
                                         ("binary loop", binary_loop),
                                         ("real loop", real_loop)):
            for tid in range(10):
                [rep] = analyze_equilibrium(net, targets.patterns[tid:tid + 1],
                                            tol=1e-6)
                if isinstance(rep, NotAnEquilibriumError):
                    print(f"{label} t{tid}: no equilibrium "
                          f"(residual {rep.residual:.2e})")
                    continue
                res = np.abs(np.real(rep.eigenvalues))
                slow = np.sum((res >= 1e-4) & (res <= 1e-2))
                print(f"{label} t{tid}: stable={rep.all_stable} "
                      f"{rep.count_at_minus_half_tau}/{res.size} at -1/(2tau), "
                      f"{rep.count_near_minus_one} near -1, {slow} slow modes")


class TestJacobian:
    def test_matches_central_differences_tanh(self):
        net = build_loop([100], Activation.TANH, Hyperparams(), seed=3)
        freeze(net)
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            s = rng.normal(size=2 * net.total_units)
            diff = np.max(np.abs(jacobian_analytic(net, s) -
                                 jacobian_fd(net, s, h=1e-5)))
            worst = max(worst, diff)
        print(f"jacobian (tanh): worst entrywise gap {worst:.2e}")
        assert worst < 1e-5

    def test_exact_for_identity_activation(self):
        net = build_loop([30], Activation.IDENTITY, Hyperparams(), seed=3)
        freeze(net)
        rng = np.random.default_rng(5)
        s = rng.normal(size=2 * net.total_units)
        diff = np.max(np.abs(jacobian_analytic(net, s) -
                             jacobian_fd(net, s, h=1e-5)))
        print(f"jacobian (identity): worst entrywise gap {diff:.2e}")
        assert diff < 1e-10


class TestHopfieldOracle:
    def test_energy_never_increases_during_recall(self):
        """Exhaustive per-update energy log across full d=100 recalls."""
        from pchn.hopfield import hn_energy
        rng = np.random.default_rng(19)
        x = np.where(rng.random((10, 100)) < 0.5, -1.0, 1.0)
        net = hebbian_store(x)
        checked = 0
        for k in range(10):
            v = perturb_flip(x[k], 13, seed=k)
            e_prev = hn_energy(net, v)
            for _ in range(50):
                changed = False
                for i in rng.permutation(100):
                    h = net.W[i] @ v + net.b[i]
                    new = 1.0 if h > 0 else (-1.0 if h < 0 else v[i])
                    if new != v[i]:
                        v[i] = new
                        changed = True
                    e = hn_energy(net, v)
                    assert e <= e_prev + 1e-12
                    e_prev = e
                    checked += 1
                if not changed:
                    break
        print(f"oracle energy: non-increasing across {checked} updates")

    def test_energy_forms_agree_up_to_constant(self):
        """Quadratic-interaction energy and the Hebbian-network energy
        differ by a state-independent constant on every state, d <= 10."""
        from itertools import product
        from pchn.hopfield import hn_energy, interaction_energy
        rng = np.random.default_rng(31)
        for d in range(2, 11):
            x = np.where(rng.random((3, d)) < 0.5, -1.0, 1.0)
            net = hebbian_store(x)
            gaps = []
            for bits in product((-1.0, 1.0), repeat=d):
                v = np.array(bits)
                gaps.append(hn_energy(net, v) - interaction_energy(x, v))
            assert np.ptp(gaps) < 1e-9
        print("oracle energy forms: agree up to a constant for d=2..10")

    def test_fixed_points_and_recall_over_20_seeds(self):
        worst = 10
        for seed in HOPFIELD_SEEDS:
            x = gen_targets("binary", 10, 100, seed=seed).patterns
            net = hebbian_store(x)
            for k in range(10):
                assert np.array_equal(recall(net, x[k], max_sweeps=1).v, x[k])
            exact = sum(
                np.array_equal(
                    recall(net, perturb_flip(x[k], 13, seed=1000 * seed + k)).v,
                    x[k])
                for k in range(10))
            worst = min(worst, exact)
            assert exact >= 9
        print(f"oracle recall: all patterns fixed, worst seed {worst}/10 exact")


class TestCliDeterminism:
    def test_train_perturb_bytes_reproduce(self, tmp_path):
        args = ["--seed", "4", "--n_targets", "10"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--out", str(out)] + args) == 0
            assert main(["perturb", "--out", str(out)] + args) == 0
            outs.append(out)
        for fname in ("checkpoint.pchn", "train.csv", "perturb.csv"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, fname
        print("cli determinism: checkpoint and CSV bytes identical")


class TestTrainingThroughput:
    @pytest.mark.parametrize("n_targets", [10, 13])
    def test_train_under_60s(self, tmp_path, n_targets):
        t0 = time.monotonic()
        rc = main(["train", "--out", str(tmp_path / "run"),
                   "--n_targets", str(n_targets), "--seed", "0"])
        wall = time.monotonic() - t0
        print(f"train {n_targets} targets: {wall:.1f}s")
        assert rc == 0
        assert wall < 60.0


class TestRestrictedEnergyDescent:
    def test_tied_algebraic_energy_non_increasing(self):
        """Frozen tied weights + algebraic errors: 1000 steps from 20
        random states never raise the energy by more than 1e-9."""
        rng = np.random.default_rng(21)
        for trial in range(20):
            net = build_loop(
                [12], Activation.TANH, Hyperparams(dt=0.002),
                tie_weights=True, seed=200 + trial)
            freeze(net)
            net.V[:] = rng.normal(size=12)
            algebraic_step(net)
            prev = net.energy()
            for _ in range(1000):
                algebraic_step(net)
                cur = net.energy()
                assert cur <= prev + 1e-9
                prev = cur
        print("restricted energy descent: 20 x 1000 steps non-increasing")
