"""Property tests over random small architectures.

Each example draws a Custom network (1-4 populations of 1-6 units, every
population predicted by one randomly chosen population, possibly itself),
an activation, tied or untied weights, and a random state.  The packed,
masked kernel must agree with the per-edge oracle in test_network,
the analytic Jacobian with central differences, learning must never
write outside the connection mask, training must land where the
step-by-step oracle in test_learning lands, and a checkpoint must
survive a save -> load -> save round trip byte for byte and be
refused, with nothing written, by a net of another activation or tying.
A last property covers the CLI config: resolving the echo of a resolved
config gives the same values and echoes the same text.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pchn import (Activation, ConstructionError, Hyperparams,
                  IntegrationDivergenceError, TrainingSchedule, freeze,
                  jacobian_analytic, load_weights,
                  save_weights, train)
from pchn.cli import parse_config_text, resolve_config
from pchn.learning import SEQUENTIAL, SHUFFLED
from pchn.network import Network

from oracles import clamp_population, counting_rhs, jacobian_fd, relax_per_step
from test_learning import assert_trained_alike, train_oracle
from test_network import _rows, rhs_oracle

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def networks(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n = len(sizes)
    srcs = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    activation = draw(st.sampled_from(list(Activation)))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = Network(sizes, [(src, dst) for dst, src in enumerate(srcs)], activation,
                  Hyperparams(), tied=tied)
    for src, dst, M, W, b, _ in net.edge_blocks():
        M[...] = rng.normal(size=M.shape)
        W[...] = M.T if tied else rng.normal(size=W.shape)
        if src == dst:
            np.fill_diagonal(M, 0.0)
            np.fill_diagonal(W, 0.0)
        b[...] = rng.normal(size=b.shape)
    T = net.total_units
    # values kept at least 0.1 away from the ReLU kink so central
    # differences with h = 1e-5 never straddle it
    v = rng.normal(size=T)
    net.V[:] = np.sign(v) * (0.1 + np.abs(v))
    net.E[:] = rng.normal(size=T)
    return net


@SETTINGS
@given(networks())
def test_flat_rhs_matches_per_connection_oracle(net):
    dv_o, de_o = rhs_oracle(net)
    dE, dV = np.split(net.fast_rhs_flat(net.s), 2)
    for i, rows in enumerate(net.slices):
        np.testing.assert_allclose(dE[rows], de_o[i], rtol=0, atol=1e-12)
        np.testing.assert_allclose(dV[rows], dv_o[i], rtol=0, atol=1e-12)


@SETTINGS
@given(networks())
def test_jacobian_matches_central_differences(net):
    freeze(net)
    s = net.s.copy()
    J = jacobian_analytic(net, s)
    np.testing.assert_allclose(J, jacobian_fd(net, s, h=1e-5), rtol=0, atol=1e-6)


@SETTINGS
@given(networks())
def test_learning_stays_inside_the_mask(net):
    for _ in range(3):
        net.step_slow()
    assert np.all(net.M[net.mask == 0.0] == 0.0)
    assert np.all(net.W[net.mask.T == 0.0] == 0.0)
    for src, dst, M, W, _, _ in net.edge_blocks():
        if src == dst:
            assert np.all(np.diag(M) == 0.0) and np.all(np.diag(W) == 0.0)
    if net.tied:
        np.testing.assert_array_equal(net.W, net.M.T)


def _rebuilt(net, scale=1.0, activation=None, tied=None, hyper=None):
    """A new network of net's architecture whose weights are net's times
    scale; activation, tying and hyperparameters are net's unless given."""
    sizes = [rows.stop - rows.start for rows in net.slices]
    other = Network(sizes, net.edges, activation or net.activation, hyper or net.hyper,
                    tied=net.tied if tied is None else tied)
    for (_, _, M, W, b, _), (_, _, M0, W0, b0, _) in zip(other.edge_blocks(),
                                                          net.edge_blocks()):
        M[...], W[...], b[...] = scale * M0, scale * W0, scale * b0
    return other


# derandomized: a step count compares residuals against tol, and a fixed
# example set cannot turn flaky on a residual that sits on it
@settings(max_examples=60, deadline=None, derandomize=True)
@given(networks(), st.data())
def test_batched_relaxation_matches_one_state_at_a_time(net, data):
    """Each run of a batched relax, of the rows of a batch in start order
    and of a permuted copy, settles, diverges or runs out of steps as
    the same start does alone through run_fast_to_equilibrium: same
    flag, same step count, a state within 1e-10 relative.  The
    weight scales and the step dt = 0.05 give all three outcomes.  Only
    linear units get the large scale: saturating units there can turn
    chaotic, where no two roundings of the same product stay close."""
    scales = [0.1, 0.5, 1.0] + [20.0] * (net.activation is Activation.IDENTITY)
    net = _rebuilt(net, scale=data.draw(st.sampled_from(scales)),
                   hyper=Hyperparams(dt=0.05))
    T = net.total_units
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    runs = data.draw(st.integers(1, 5))
    starts = rng.normal(size=(2 * T, runs)) * data.draw(st.sampled_from([0.1, 1.0, 3.0]))
    if data.draw(st.booleans()):
        clamp_population(net, 0, rng.normal(size=net.slices[0].stop))
        # every run starts on the clamp's values, as clamp_all sets them
        starts[T:][net.clamped] = net.V[net.clamped, None]
    tol, budget = 1e-6, data.draw(st.sampled_from([3000, 50, 0]))
    # the batch as (2, runs, T) rows, and a copy permuted as stability's
    # np.take(S, cols, 1) is; at[j] is run j's row
    perm = rng.permutation(runs)
    batches = [(_rows(starts), np.arange(runs)), (_rows(starts[:, perm]), np.argsort(perm))]
    results = []
    for S, _ in batches:
        before = net.steps_taken
        results.append(net.relax(S, tol, budget, net.clamped))
        assert net.steps_taken - before == results[-1].steps.sum()
    for j in range(runs):
        net.s[:] = starts[:, j]
        before = net.steps_taken
        try:
            alone = net.run_fast_to_equilibrium(tol, budget)
        except IntegrationDivergenceError as e:
            for (_, at), got in zip(batches, results):
                assert got.diverged[at[j]] and e.step - before == got.steps[at[j]]
            continue
        for (S, at), got in zip(batches, results):
            i = at[j]
            assert not got.diverged[i]
            assert (got.converged[i], got.steps[i]) == (alone.converged[0], alone.steps[0])
            assert np.linalg.norm(S[:, i].ravel() - net.s) <= 1e-10 * np.linalg.norm(net.s)
            np.testing.assert_allclose(got.residual[i], alone.residual[0], rtol=1e-6)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(networks(), st.data())
def test_relax_matches_the_per_step_loop_bit_for_bit(net, data):
    """relax, with its divergence bound and its witnesses, ends every run
    where the loop that checks every run at every step ends it: the same
    states, stop steps, flags, residuals and steps_taken, bit for bit,
    from the same number of rhs evaluations, where the loop copies each
    run's clamped values back to their start after every step and relax
    holds them.  The draws cover clamps, with one clamped -0.0, tol
    from 0 to 1e-3, starts up to 1e99, where the bound runs out and
    every step is checked, zero starts without bias, which no step
    moves, non-finite weights, where the bound gives nothing, and budgets
    that cross its rechecks."""
    hyper = Hyperparams(tau=data.draw(st.sampled_from([1.0, 0.7])),
                        zeta=data.draw(st.sampled_from([1.0, 1.3, 0.25])),
                        dt=data.draw(st.sampled_from([0.1, 0.05, 0.005])))
    net = _rebuilt(net, scale=data.draw(st.sampled_from([0.1, 1.0, 20.0])), hyper=hyper)
    T = net.total_units
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        target = rng.normal(size=net.slices[0].stop) * data.draw(st.sampled_from([1.0, 1e40]))
        target[0] = -0.0
        clamp_population(net, 0, target)
    if data.draw(st.booleans()):
        net.b[:] = 0.0
    if data.draw(st.booleans()):
        weights = data.draw(st.sampled_from([net.M, net.W, net.b]))
        weights.flat[rng.integers(weights.size)] = data.draw(
            st.sampled_from([np.inf, -np.inf, np.nan]))
    runs = data.draw(st.integers(1, 5))
    scale = np.array(data.draw(st.lists(st.sampled_from([1.0, 1e-6, 10.0, 1e40, 1e98, 1e99, 0.0]),
                                        min_size=runs, max_size=runs)))
    starts = np.ascontiguousarray(rng.normal(size=(2, runs, T)) * scale[:, None])
    # every run starts on the clamp's values, as clamp_all sets them
    starts[1][:, net.clamped] = net.V[net.clamped]
    tol = data.draw(st.sampled_from([1e-3, 1e-4, 1e-6, 1e-9, 1e-12, 0.0]))
    budget = data.draw(st.sampled_from([600, 300, 150, 0, 1, 2]) | st.integers(0, 600))
    calls = counting_rhs(net)
    got, want = starts.copy(), starts.copy()
    before = net.steps_taken
    expected = relax_per_step(net, want, tol, budget, net.clamped)
    taken, evaluated = net.steps_taken - before, len(calls)
    res = net.relax(got, tol, budget, net.clamped)
    assert got.tobytes() == want.tobytes()
    for field in ("steps", "converged", "diverged", "residual"):
        assert getattr(res, field).tobytes() == getattr(expected, field).tobytes(), field
    assert net.steps_taken - before - taken == taken
    assert len(calls) - evaluated == evaluated


# derandomized: the CSV check compares energies at 10 significant
# digits, and a fixed example set cannot turn flaky on a value that
# happens to sit on a rounding boundary
@settings(max_examples=60, deadline=None, derandomize=True)
@given(networks(), st.data())
def test_train_matches_step_by_step_oracle(net, data):
    T = net.total_units
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    targets = rng.normal(size=(data.draw(st.integers(1, 3)), T))
    schedule = TrainingSchedule(
        duration_per_target=net.hyper.dt * data.draw(st.integers(1, 60)),
        epochs=data.draw(st.integers(2, 3)),
        target_order=data.draw(st.sampled_from([SEQUENTIAL, SHUFFLED])),
        reset_fast_state=data.draw(st.booleans()))
    seed = data.draw(st.integers(0, 2**16))
    # errors that start near the limit keep a clamp from clearing the
    # bound whole; from about 1e99 pieces of two steps are refused, so it
    # splits down to single steps
    net.E *= data.draw(st.sampled_from([1.0, 1e98, 1e99]))
    ref = _rebuilt(net)
    ref.s[:] = net.s
    report = train(net, targets, schedule, seed=seed)
    expected = train_oracle(ref, targets, schedule, seed=seed)
    assert report.to_csv() == expected.to_csv()
    assert net.steps_taken == ref.steps_taken
    assert_trained_alike(net, ref)
    assert np.all(net.M[net.mask == 0.0] == 0.0)
    assert np.all(net.W[net.mask.T == 0.0] == 0.0)
    if net.tied:
        np.testing.assert_array_equal(net.W, net.M.T)


@SETTINGS
@given(networks(), st.integers(-300, 300))
def test_checkpoint_round_trip_is_byte_identical(net, exponent):
    scale = 10.0 ** exponent
    for _, _, M, W, b, _ in net.edge_blocks():
        M[...], W[...], b[...] = M * scale, W * scale, b * scale
    fresh = _rebuilt(net, 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.pchn"), os.path.join(tmp, "b.pchn")
        save_weights(net, first)
        load_weights(fresh, first)
        save_weights(fresh, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    np.testing.assert_array_equal(fresh.M, net.M)
    np.testing.assert_array_equal(fresh.W, net.W)
    np.testing.assert_array_equal(fresh.b, net.b)


@SETTINGS
@given(networks(), st.data())
def test_checkpoint_of_another_kind_loads_nothing(net, data):
    activation = data.draw(st.sampled_from(list(Activation)))
    tied = data.draw(st.booleans())
    if (activation, tied) == (net.activation, net.tied):
        tied = not tied
    other = _rebuilt(net, -1.0, activation, tied)
    before = (other.M.copy(), other.W.copy(), other.b.copy())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.pchn")
        save_weights(net, path)
        with pytest.raises(ConstructionError):
            load_weights(other, path)
    for x, old in zip((other.M, other.W, other.b), before):
        np.testing.assert_array_equal(x, old)


def _number(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def config_overrides(draw):
    """Valid command-line overrides: a random subset of the config keys,
    each with a value resolve_config accepts."""
    arch = draw(st.sampled_from(["Single100", "Loop50_30_20", "Custom"]))
    out = {"architecture": arch}
    total = 100
    if arch == "Custom":
        sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
        out["sizes"] = ",".join(map(str, sizes))
        total = sum(sizes)
    # always set: the default of 13 flipped bits does not fit every Custom size
    out["flip_bits"] = str(draw(st.integers(0, total)))
    optional = {
        "target_kind": st.sampled_from(["BinarySign", "RealGaussian"]),
        "activation": st.sampled_from([a.value for a in Activation]),
        "tie_weights": st.sampled_from(["true", "false", "1", "no"]),
        "n_targets": st.integers(1, 50).map(str),
        "gamma": _number(2.0, 1e4),
        "zeta": _number(0.01, 10.0),
        "dt": _number(1e-4, 0.01),
        "init_scale": _number(1e-6, 10.0),
        "duration_per_target": _number(0.01, 100.0),
        "epochs": st.integers(1, 100).map(str),
        "target_order": st.sampled_from(["sequential", "shuffled"]),
        "reset_fast_state": st.sampled_from(["true", "false"]),
        "horizon": _number(0.01, 1000.0),
        "sample_every": _number(0.001, 10.0),
        "perturb_sigma": _number(0.0, 5.0),
        "n_random_runs": st.integers(0, 100).map(str),
        "stability_tol": _number(1e-14, 1e-2),
        "seed": st.integers(0, 2**32 - 1).map(str),
        "output_dir": st.text("abcxyz019_-./", min_size=1, max_size=20),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            out[key] = draw(values)
    return out


@SETTINGS
@given(config_overrides())
def test_config_echo_round_trip(overrides):
    cfg = resolve_config({}, overrides)
    again = resolve_config(parse_config_text(cfg.echo_text()), {})
    assert again.echo_text() == cfg.echo_text()
    assert again.raw == cfg.raw
