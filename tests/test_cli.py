"""End-to-end command-line runs in temporary directories."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pchn import (IntegrationDivergenceError, NonDifferentiableStateError,
                  NotAnEquilibriumError, analyze_equilibrium, freeze,
                  load_weights)
from pchn import cli
from pchn.cli import MAX_STEPS, ConfigError, _corresponds, main, resolve_config

# small custom network keeps every subcommand well under a second
FAST = ["--architecture", "Custom", "--sizes", "12", "--n_targets", "3",
        "--duration_per_target", "0.5", "--epochs", "2",
        "--horizon", "1.0", "--flip_bits", "2", "--sample_every", "0.25"]

# config.echo at the defaults of each named architecture and target
# kind, output_dir left out
DEFAULT_ECHO = {
    ("Single100", "BinarySign"): """\
architecture = Single100
target_kind = BinarySign
activation = tanh
tie_weights = false
n_targets = 10
tau = 1.0
gamma = 100.0
zeta = 1.0
dt = 0.005
init_scale = 0.01
duration_per_target = 0.72
epochs = 16
target_order = sequential
reset_fast_state = true
horizon = 20.0
sample_every = 0.05
perturb_sigma = 0.7071067811865476
flip_bits = 13
n_random_runs = 10
stability_tol = 1e-08
seed = 0
""",
    ("Single100", "RealGaussian"): """\
architecture = Single100
target_kind = RealGaussian
activation = relu
tie_weights = false
n_targets = 10
tau = 1.0
gamma = 100.0
zeta = 1.0
dt = 0.005
init_scale = 0.01
duration_per_target = 5.0
epochs = 16
target_order = sequential
reset_fast_state = true
horizon = 360.0
sample_every = 0.05
perturb_sigma = 0.7071067811865476
flip_bits = 13
n_random_runs = 10
stability_tol = 1e-08
seed = 0
""",
    ("Loop50_30_20", "BinarySign"): """\
architecture = Loop50_30_20
target_kind = BinarySign
activation = tanh
tie_weights = false
n_targets = 10
tau = 1.0
gamma = 100.0
zeta = 1.0
dt = 0.005
init_scale = 0.01
duration_per_target = 0.72
epochs = 16
target_order = sequential
reset_fast_state = true
horizon = 20.0
sample_every = 0.05
perturb_sigma = 0.7071067811865476
flip_bits = 13
n_random_runs = 10
stability_tol = 1e-08
seed = 0
""",
    ("Loop50_30_20", "RealGaussian"): """\
architecture = Loop50_30_20
target_kind = RealGaussian
activation = relu
tie_weights = false
n_targets = 10
tau = 1.0
gamma = 100.0
zeta = 1.0
dt = 0.005
init_scale = 0.01
duration_per_target = 5.0
epochs = 16
target_order = sequential
reset_fast_state = true
horizon = 360.0
sample_every = 0.05
perturb_sigma = 0.7071067811865476
flip_bits = 13
n_random_runs = 10
stability_tol = 1e-08
seed = 0
""",
}


def _train(out, extra=(), seed="0"):
    rc = main(["train", "--out", str(out), "--seed", seed] + FAST + list(extra))
    assert rc == 0
    return out


class TestTrain:
    def test_writes_checkpoint_report_and_echo(self, tmp_path, capsys):
        _train(tmp_path / "run")
        for name in ("checkpoint.pchn", "train.csv", "config.echo"):
            assert (tmp_path / "run" / name).exists()
        out = capsys.readouterr().out
        assert "final_mean_energy=" in out

    def test_deterministic_bytes(self, tmp_path, capsys):
        a = _train(tmp_path / "a", seed="5")
        b = _train(tmp_path / "b", seed="5")
        for name in ("checkpoint.pchn", "train.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_weights(self, tmp_path, capsys):
        a = _train(tmp_path / "a", seed="5")
        b = _train(tmp_path / "b", seed="6")
        assert (a / "checkpoint.pchn").read_bytes() != (b / "checkpoint.pchn").read_bytes()

    def test_echo_round_trip_reproduces_outputs(self, tmp_path, capsys):
        a = _train(tmp_path / "a", seed="9")
        echo = a / "config.echo"
        rc = main(["train", "--config", str(echo), "--out", str(tmp_path / "b")])
        assert rc == 0
        assert (a / "checkpoint.pchn").read_bytes() == \
            (tmp_path / "b" / "checkpoint.pchn").read_bytes()
        # the echo of the echo is itself, modulo the output directory
        ea = echo.read_text().replace(str(tmp_path / "a"), "X")
        eb = (tmp_path / "b" / "config.echo").read_text().replace(
            str(tmp_path / "b"), "X")
        assert ea == eb

    def test_invalid_hyper_rejected_before_running(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "x"), "--tau", "5.0",
                   "--gamma", "2.0"] + FAST)
        assert rc == 2
        assert not (tmp_path / "x" / "checkpoint.pchn").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("does_not_exist = 3\n")
        rc = main(["train", "--config", str(cfgfile), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_config_comments_and_blank_lines_skipped(self, tmp_path, capsys):
        """Comment-only, blank and whitespace-only lines are skipped, and
        a trailing comment is cut from its value."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# a run\n\n   \t\nseed = 3  # the root seed\n# seed = 4\n")
        out = tmp_path / "x"
        assert main(["hopfield-baseline", "--config", str(cfgfile), "--out", str(out)]
                    + FAST) == 0
        assert "seed = 3\n" in (out / "config.echo").read_text()

    def test_config_key_set_twice_rejected(self, tmp_path, capsys):
        """A key set twice in a config file exits with code 2, naming
        both lines, before anything is written; a flag still overrides
        a key the file sets once."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = 3\n# seed = 4\nseed = 4\n")
        out = tmp_path / "x"
        assert main(["hopfield-baseline", "--config", str(cfgfile), "--out", str(out)]
                    + FAST) == 2
        assert capsys.readouterr().err == \
            "error: line 3: key 'seed' is already set on line 1\n"
        assert not out.exists()
        cfgfile.write_text("seed = 3\n")
        assert main(["hopfield-baseline", "--config", str(cfgfile), "--out", str(out),
                     "--seed", "4"] + FAST) == 0
        assert "seed = 4\n" in (out / "config.echo").read_text()

    def test_config_line_without_equals_rejected(self, tmp_path, capsys):
        """A line that is not key = value exits with code 2, naming the
        line, before anything is written."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = 3\n\nepochs 2\n")
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfgfile), "--out", str(out)] + FAST) == 2
        assert ("error: line 3: expected key = value, got 'epochs 2'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_rejected_before_anything_is_written(self, tmp_path,
                                                                   capsys, kind):
        """A config path that is missing, a directory, or a file that is
        not UTF-8 is a config error: exit code 2 and nothing written."""
        cfgfile = tmp_path / "in" / "run.cfg"
        if kind == "directory":
            cfgfile.mkdir(parents=True)
        elif kind == "not_utf8":
            cfgfile.parent.mkdir()
            cfgfile.write_bytes(b"seed = 1\xff\n")
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfgfile), "--out", str(out)] + FAST) == 2
        assert "error: cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    def test_output_dir_that_is_a_file_rejected(self, tmp_path, capsys):
        """--out naming an existing file is a config error: exit code 2,
        and the file and its directory are left as they were."""
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["train", "--out", str(out)] + FAST) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert out.read_text() == "not a directory\n"
        assert os.listdir(tmp_path) == ["taken"]

    @pytest.mark.parametrize("flag, value", [("--out", "a#1"), ("--sizes", "12\n#"),
                                             ("--activation", "tanh\r"),
                                             ("--target_order", "sequen\u2028tial"),
                                             ("--out", "a "), ("--epochs", " 2")])
    def test_value_the_echo_cannot_carry_rejected(self, tmp_path, capsys, flag, value):
        """config.echo would not read back such a value as written, so
        it is refused before anything runs or is written."""
        argv = ["train", "--out", str(tmp_path / "x")] + FAST + [flag, value]
        if flag == "--out":
            argv[2] = str(tmp_path / value)
        assert main(argv) == 2
        assert "config.echo cannot carry" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, flag, value", [
        ("perturb", "--horizon", "inf"), ("perturb", "--sample_every", "inf"),
        ("perturb", "--sample_every", "nan"), ("train", "--duration_per_target", "inf"),
        ("perturb", "--perturb_sigma", "nan"), ("stability", "--stability_tol", "nan"),
        ("train", "--init_scale", "nan"), ("train", "--init_scale", "inf"),
        ("train", "--gamma", "inf"), ("hopfield-baseline", "--perturb_sigma", "inf"),
        ("train", "--seed", "-1")])
    def test_bad_number_rejected_before_anything_is_written(self, tmp_path, capsys,
                                                            command, flag, value):
        """A non-finite or out-of-range number is refused with exit code
        2, naming its key, before config.echo or any output exists."""
        argv = [command, "--out", str(tmp_path / "x")] + FAST + [flag, value]
        assert main(argv) == 2
        assert f"error: {flag[2:]}: " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, key", [("perturb", "horizon"),
                                              ("train", "duration_per_target"),
                                              ("random-init", "sample_every")])
    def test_step_count_past_the_cap_rejected(self, tmp_path, capsys, command, key):
        """A finite duration of more than MAX_STEPS Euler steps at dt is
        refused with exit code 2 before anything is written; one of
        exactly MAX_STEPS steps resolves, and so does one that the library
        rounds to MAX_STEPS steps."""
        argv = [command, "--out", str(tmp_path / "x")] + FAST + [f"--{key}", "1e300"]
        assert main(argv) == 2
        assert f"error: {key}: 1e300 is more than {MAX_STEPS} steps" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        at_cap = {"dt": "0.25", key: repr(MAX_STEPS * 0.25)}
        assert getattr(resolve_config({}, at_cap), key) == MAX_STEPS * 0.25
        rounds_to_cap = dict(at_cap, **{key: repr(MAX_STEPS * 0.25 + 0.1)})
        assert getattr(resolve_config({}, rounds_to_cap), key) == MAX_STEPS * 0.25 + 0.1
        with pytest.raises(ConfigError, match=f"{key}: .* is more than"):
            resolve_config({}, dict(at_cap, **{key: repr(MAX_STEPS * 0.25 * 1.01)}))

    @pytest.mark.parametrize("flags, message", [
        (["--tie_weights", "maybe"], "tie_weights: expected a boolean, got 'maybe'"),
        (["--architecture", "Foo"], "architecture: unknown value 'Foo'"),
        (["--out", ""], "output_dir: must be nonempty"),
        (["--architecture", "Custom", "--sizes", "3,x"],
         "sizes: architecture Custom needs comma-separated positive integers"),
        (["--flip_bits", "13"], "flip_bits must lie in [0, 12]"),
        (["--architecture", "Loop50_30_20"], "sizes: architecture Loop50_30_20 has sizes "
                                             "50,30,20; sizes is for Custom only")])
    def test_bad_value_rejected_before_anything_is_written(self, tmp_path, capsys,
                                                           monkeypatch, flags, message):
        """A value its key does not take exits with code 2 and an error
        line naming it, before anything is written; --out "" would
        otherwise write into the working directory, and FAST's --sizes 12
        beside a named architecture would run that net and drop sizes
        from the echo."""
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--out", "x"] + FAST + flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not list(tmp_path.iterdir())

    def test_pairing_override_warns(self, tmp_path, capsys):
        _train(tmp_path / "run", extra=["--activation", "relu"])
        err = capsys.readouterr().err
        assert "warning" in err.lower()


class TestConfigTable:
    """The default echo of each named architecture and target kind, as
    the config table must keep it: key order, default text and the
    defaults that depend on the target kind."""

    @pytest.mark.parametrize("architecture, target_kind", DEFAULT_ECHO)
    def test_default_echo(self, architecture, target_kind):
        cfg = resolve_config({}, {"architecture": architecture, "target_kind": target_kind})
        lines = cfg.echo_text().splitlines(keepends=True)
        assert lines[-1].startswith("output_dir = ")
        assert "".join(lines[:-1]) == DEFAULT_ECHO[architecture, target_kind]

    def test_seed_and_out_flags_set_the_config_keys(self, tmp_path, capsys):
        """--seed and --out set the seed and output_dir keys, exactly as
        a config file that sets them does."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"seed = 7\noutput_dir = {tmp_path / 'a'}\n")
        assert main(["hopfield-baseline", "--config", str(cfgfile)] + FAST) == 0
        assert main(["hopfield-baseline", "--seed", "7", "--out", str(tmp_path / "b")]
                    + FAST) == 0
        a, b = ((tmp_path / d / "config.echo").read_text().replace(str(tmp_path / d), "X")
                for d in "ab")
        assert a == b
        assert "seed = 7\noutput_dir = X\n" in a
        assert (tmp_path / "a" / "baseline.csv").read_bytes() == \
            (tmp_path / "b" / "baseline.csv").read_bytes()


class TestPerturb:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        out = _train(tmp_path / "run")
        rc = main(["perturb", "--out", str(out)] + FAST)
        assert rc == 0
        text = (out / "perturb.csv").read_text()
        assert text.splitlines()[0] == "run_id,t,target_id,distance,metric,flags"
        assert "runs recovered" in capsys.readouterr().out

    def test_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        rc = main(["perturb", "--out", str(tmp_path / "empty")] + FAST)
        assert rc == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_corrupt_checkpoint_fails_cleanly(self, tmp_path, capsys):
        """A checkpoint weight that is not a number ends the run with
        exit code 1 and one error line, before perturb.csv is written."""
        out = _train(tmp_path / "run")
        path = out / "checkpoint.pchn"
        text = path.read_text()
        bad = text.split()[-1] + "x"     # the last bias entry
        path.write_text(text.rstrip("\n") + "x\n")
        capsys.readouterr()
        assert main(["perturb", "--out", str(out)] + FAST) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(bad) in err
        assert not (out / "perturb.csv").exists()

    def test_deterministic(self, tmp_path, capsys):
        out = _train(tmp_path / "run")
        main(["perturb", "--out", str(out)] + FAST)
        first = (out / "perturb.csv").read_bytes()
        main(["perturb", "--out", str(out)] + FAST)
        assert (out / "perturb.csv").read_bytes() == first

    def test_zero_perturbation_stays_put(self, tmp_path, capsys):
        out = _train(tmp_path / "run")
        rc = main(["perturb", "--out", str(out), "--architecture", "Custom",
                   "--sizes", "12", "--n_targets", "3", "--flip_bits", "0",
                   "--duration_per_target", "0.5", "--epochs", "2",
                   "--horizon", "0.5", "--sample_every", "0.25"])
        assert rc == 0
        rows = (out / "perturb.csv").read_text().strip().splitlines()[1:]
        # initial distance to the own target is 0 for every run
        t0 = [r for r in rows if r.split(",")[1] == "0"]
        own = [r for r in t0 if r.split(",")[0] == r.split(",")[2]]
        assert own and all(r.split(",")[3] == "0" for r in own)


class TestStability:
    def test_writes_spectra(self, tmp_path, capsys):
        out = _train(tmp_path / "run")
        rc = main(["stability", "--out", str(out), "--stability_tol", "1e-7"]
                  + FAST)
        assert rc == 0
        txt = capsys.readouterr().out
        assert "stability:" in txt
        spectra = list(out.glob("spectrum_t*.csv"))
        assert spectra
        body = spectra[0].read_text()
        assert body.splitlines()[0] == "re,im"
        assert "# summary" in body

    def test_batch_prints_what_a_per_target_loop_prints(self, tmp_path, capsys):
        """cmd_stability relaxes all targets in one batch.  Its stdout
        equals, line for line, what analyze_equilibrium called on a
        stack of one target at a time gives, each target's correspondence
        note read from that target's own equilibrium."""
        out = _train(tmp_path / "run")
        capsys.readouterr()
        assert main(["stability", "--out", str(out), "--stability_tol", "1e-7"]
                     + FAST) == 0
        got = capsys.readouterr().out.splitlines()
        flags = {k[2:]: v for k, v in zip(FAST[::2], FAST[1::2])}
        cfg = resolve_config({}, dict(flags, stability_tol="1e-7"))
        net = cfg.build_network()
        load_weights(net, str(out / "checkpoint.pchn"))
        freeze(net)
        targets = cfg.targets()
        want, n_found, n_stable = [], 0, 0
        for k, target in enumerate(targets.patterns):
            head = f"stability: target {k}"
            [rep] = analyze_equilibrium(net, target[None], tol=cfg.stability_tol)
            if isinstance(rep, NotAnEquilibriumError):
                want.append(f"{head} no equilibrium found (residual {rep.residual:g})")
                continue
            if isinstance(rep, IntegrationDivergenceError):
                want.append(f"{head} no equilibrium found (diverged)")
                continue
            if isinstance(rep, NonDifferentiableStateError):
                want.append(f"{head} equilibrium sits on an activation kink; "
                            "spectrum undefined")
                continue
            n_found += 1
            n_stable += rep.all_stable
            ok = _corresponds(cfg, rep, target)
            note = "" if ok else " (equilibrium does not correspond to the target)"
            want.append(f"{head} stable={rep.all_stable} "
                        f"max_re={rep.max_real_part:.3e} "
                        f"at_half_tau={rep.count_at_minus_half_tau}/24 "
                        f"near_minus_one={rep.count_near_minus_one} "
                        f"near_zero={len(rep.near_zero)} "
                        f"dist={rep.distance_to_target:.3g}{note}")
        want.append(f"stability: {n_stable}/{n_found} found equilibria stable "
                    f"({targets.n - n_found} not found)")
        assert got == want
        # both kinds of note occur, so a note read from the wrong
        # equilibrium shows
        assert sum("does not correspond" in line for line in got) == 2

    def test_reports_each_outcome_without_a_spectrum(self, tmp_path, capsys, monkeypatch):
        """A target whose residual stays over tol, one whose equilibrium
        sits on a ReLU kink and one that diverges each get their line
        and no spectrum file, from outcomes a stubbed
        analyze_equilibrium supplies."""
        out = _train(tmp_path / "run")
        outcomes = [NotAnEquilibriumError(2.5e-5),
                    NonDifferentiableStateError("a value lies within 1e-08 of the ReLU kink"),
                    IntegrationDivergenceError(7)]
        monkeypatch.setattr(cli, "analyze_equilibrium", lambda net, targets, tol: outcomes)
        capsys.readouterr()
        assert main(["stability", "--out", str(out)] + FAST) == 0
        assert capsys.readouterr().out.splitlines() == [
            "stability: target 0 no equilibrium found (residual 2.5e-05)",
            "stability: target 1 equilibrium sits on an activation kink; spectrum undefined",
            "stability: target 2 no equilibrium found (diverged)",
            "stability: 0/0 found equilibria stable (3 not found)"]
        assert not list(out.glob("spectrum_t*.csv"))

    def test_target_without_equilibrium_leaves_no_stale_spectrum(self, tmp_path, capsys):
        """A target that finds no equilibrium drops the spectrum an
        earlier run wrote for it into the same directory, so the
        directory agrees with stdout and config.echo.  The relu net of
        init_scale 0.5 finds all three; at 5 every target diverges."""
        out = tmp_path / "run"
        flags = ["--out", str(out), "--architecture", "Custom", "--sizes", "12",
                 "--n_targets", "3", "--flip_bits", "2", "--target_kind", "RealGaussian",
                 "--epochs", "1", "--duration_per_target", "0.05"]
        for scale, found in (("0.5", 3), ("5", 0)):
            for command in ("train", "stability"):
                assert main([command, "--init_scale", scale] + flags) == 0
            txt = capsys.readouterr().out
            assert f"{found}/{found} found equilibria stable ({3 - found} not found)" in txt
            assert len(list(out.glob("spectrum_t*.csv"))) == found


    def test_rerun_with_fewer_targets_leaves_no_stale_spectrum(self, tmp_path, capsys):
        """A rerun of stability with fewer targets drops the spectra of
        the targets it no longer has, and only files named exactly
        spectrum_t<integer>.csv."""
        out = tmp_path / "run"
        flags = ["--out", str(out), "--architecture", "Custom", "--sizes", "12",
                 "--flip_bits", "2", "--target_kind", "RealGaussian", "--epochs", "1",
                 "--duration_per_target", "0.05", "--init_scale", "0.5"]
        for command in ("train", "stability"):
            assert main([command, "--n_targets", "3"] + flags) == 0
        assert "3/3 found equilibria stable (0 not found)" in capsys.readouterr().out
        others = ["spectrum_t2.csv.bak", "spectrum_tx.csv", "spectrum_t.csv", "notes.txt"]
        for name in others:
            (out / name).write_text("kept\n")
        assert main(["stability", "--n_targets", "2"] + flags) == 0
        assert "2/2 found equilibria stable (0 not found)" in capsys.readouterr().out
        assert sorted(p.name for p in out.glob("spectrum_t*.csv")) == [
            "spectrum_t.csv", "spectrum_t0.csv", "spectrum_t1.csv", "spectrum_tx.csv"]
        assert all((out / name).read_text() == "kept\n" for name in others)
        assert "n_targets = 2\n" in (out / "config.echo").read_text()

class TestImport:
    # run first in a fresh interpreter: from then on importing scipy fails
    NO_SCIPY = ("import sys\n"
                "class NoScipy:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name.split('.')[0] == 'scipy':\n"
                "            raise ImportError(f'{name} is blocked')\n"
                "sys.meta_path.insert(0, NoScipy())\n")

    def _run(self, code, *args):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        return subprocess.run([sys.executable, "-c", self.NO_SCIPY + code, *args],
                              env=env, capture_output=True, text=True, check=True)

    def test_cli_import_leaves_scipy_unloaded(self, tmp_path):
        """No subcommand needs scipy: train and stability, whose Newton
        polish runs on this config, succeed where scipy cannot load, and
        never load it."""
        res = self._run("import pchn.cli; print('scipy' in sys.modules)")
        assert res.stdout.strip() == "False"
        res = self._run("from pchn.cli import main\n"
                        "for command in ('train', 'stability'):\n"
                        "    assert main([command] + sys.argv[1:]) == 0, command\n"
                        "print('scipy' in sys.modules)",
                        "--out", str(tmp_path / "run"), *FAST)
        assert res.stdout.splitlines()[-1] == "False"
        assert "3/3 found equilibria stable" in res.stdout


class TestBenchmarkSurface:
    """perfbench reaches into pchn by name: traced_cli.py wraps Network
    methods and module functions, setup_probe.py builds a net from a
    config and loads a checkpoint into it.  Each runs here in a fresh
    interpreter, so a rename that would break the benchmark fails in
    seconds."""

    PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")

    def _run(self, code, *args):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        res = subprocess.run([sys.executable, "-c", code, self.PERFBENCH, *args],
                             env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr

    def test_traced_cli_instruments_every_name(self):
        self._run("import sys; sys.path.insert(0, sys.argv[1]); "
                  "from traced_cli import Tracer, instrument; instrument(Tracer('t'))")

    def test_setup_probe_loads_a_checkpoint(self, tmp_path):
        out = _train(tmp_path / "run")
        overrides = json.dumps({k[2:]: v for k, v in zip(FAST[::2], FAST[1::2])})
        self._run("import sys; sys.path.insert(0, sys.argv[1]); "
                  "import setup_probe; sys.exit(setup_probe.main(sys.argv[2:]))",
                  str(out / "checkpoint.pchn"), overrides)


class TestRandomInit:
    def test_writes_trace(self, tmp_path, capsys):
        out = _train(tmp_path / "run")
        rc = main(["random-init", "--out", str(out), "--n_random_runs", "4"]
                  + FAST)
        assert rc == 0
        rows = (out / "random.csv").read_text().strip().splitlines()
        assert len({r.split(",")[0] for r in rows[1:]}) == 4

    def test_zero_runs_header_only(self, tmp_path, capsys):
        out = _train(tmp_path / "run")
        rc = main(["random-init", "--out", str(out), "--n_random_runs", "0"]
                  + FAST)
        assert rc == 0
        assert (out / "random.csv").read_text() == \
            "run_id,t,target_id,distance,metric,flags\n"


class TestHopfieldBaseline:
    def test_binary_baseline(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["hopfield-baseline", "--out", str(out)] + FAST)
        assert rc == 0
        rows = (out / "baseline.csv").read_text().strip().splitlines()
        assert rows[0] == "run_id,target_id,hamming_initial,hamming_final,recovered"
        assert len(rows) == 4
        assert "hopfield-baseline:" in capsys.readouterr().out

    def test_real_targets_unsupported(self, tmp_path, capsys):
        rc = main(["hopfield-baseline", "--out", str(tmp_path / "x"),
                   "--target_kind", "RealGaussian"] + FAST)
        assert rc == 1
        assert "BinarySign" in capsys.readouterr().err

    def test_same_probes_as_perturb(self, tmp_path, capsys):
        """The baseline corrupts the same bits the perturbation study
        does for the same seed, so the two comparisons are aligned."""
        out = _train(tmp_path / "run", seed="3")
        main(["perturb", "--out", str(out), "--seed", "3"] + FAST)
        main(["hopfield-baseline", "--out", str(out), "--seed", "3"] + FAST)
        perturb = (out / "perturb.csv").read_text().strip().splitlines()[1:]
        base = (out / "baseline.csv").read_text().strip().splitlines()[1:]
        # initial hamming distances agree row by row
        init = {}
        for row in perturb:
            run, t, tid, dist = row.split(",")[:4]
            if t == "0" and run == tid:
                init[int(run)] = dist
        for row in base:
            run, tid, h0 = row.split(",")[:3]
            assert init[int(run)] == h0


# the files each study subcommand writes, as glob patterns
STUDY_OUTPUTS = {"perturb": ["perturb.csv"], "stability": ["spectrum_t*.csv"],
                 "random-init": ["random.csv"], "hopfield-baseline": ["baseline.csv"]}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """An output directory that holds a full good pipeline's outputs."""
    out = tmp_path_factory.mktemp("pipeline") / "run"
    for command in ("train", *STUDY_OUTPUTS):
        assert main([command, "--out", str(out)] + FAST) == 0
    return out


class TestFailedRerun:
    @pytest.mark.parametrize("command", STUDY_OUTPUTS)
    def test_leaves_none_of_its_outputs(self, pipeline, tmp_path, capsys, command):
        """A rerun that fails, on a checkpoint with a corrupted token or
        on real targets for hopfield-baseline, exits with code 1 and one
        error line.  It leaves none of its own files beside the
        config.echo that now describes it, and every other file keeps
        its bytes."""
        out = tmp_path / "run"
        out.mkdir()
        for path in pipeline.iterdir():
            (out / path.name).write_bytes(path.read_bytes())
        mine = {p.name for pattern in STUDY_OUTPUTS[command] for p in out.glob(pattern)}
        assert mine
        if command == "hopfield-baseline":
            change = ["--target_kind", "RealGaussian"]
        else:
            change = ["--seed", "5"]
            path = out / "checkpoint.pchn"
            path.write_text(path.read_text().rstrip("\n") + "x\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main([command, "--out", str(out)] + FAST + change) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if command == "hopfield-baseline":
            assert err == "error: hopfield-baseline requires target_kind = BinarySign\n"
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(after) == set(before) - mine
        flag, value = change
        assert f"{flag[2:]} = {value}\n" in after.pop("config.echo").decode()
        assert all(after[name] == before[name] for name in after)
