"""Command-line front end.

Subcommands: train, perturb, stability, random-init, hopfield-baseline.
Configuration is a flat key=value text file, in which a key may be set
once; every key can also be set on the command line as --key value
(output_dir as --out), which overrides the file.  The effective
configuration is echoed to output_dir/config.echo, and re-running any
subcommand from the echoed file reproduces the outputs byte for byte.
Before a subcommand runs, main removes from output_dir every file that
subcommand writes (COMMANDS names them), so a run leaves beside its
config.echo only what it wrote, and a failed run none of its files.

Every key is declared once, in the ordered table CONFIG: its default
text and the parser that turns the text into the RunConfig attribute of
the same name.  That table gives the keys a config file may set, the
command-line flags, the attributes and the order of the echo.  Beside
it, KIND_DEFAULTS holds the three defaults that depend on the target
kind, and ARCHITECTURES the population sizes of each architecture.  A
number must be finite and in range, and a clamp, a study or its sample
gap may take at most MAX_STEPS Euler steps; a bad value exits with code
2 before anything is written.  A refusal once the subcommand runs exits
with code 1 and one error line.

All randomness flows from the single root seed.  Child seeds are drawn
as SeedSequence(seed, spawn_key=(purpose,)).generate_state(1)[0] with a
fixed purpose index per consumer (targets, weights, training order,
probes, random starts, recall order), so every artifact is reproducible
across machines from (config, seed) alone.
"""

import argparse
import math
import os
import re
import sys
import time

import numpy as np

from .activations import Activation
from .checkpoint import load_weights, save_weights
from .errors import (ConstructionError, IntegrationDivergenceError,
                     NonDifferentiableStateError, NotAnEquilibriumError)
from .experiments import (FLIP_BITS, HAMMING, PERTURB_STD, absorption_summary,
                          distance_tables, gen_targets, make_probes,
                          perturbation_study, random_init_study,
                          recovery_summary, sign_pm1, success_threshold,
                          trace_to_csv)
from .fileio import atomic_write_text
from .hopfield import hebbian_store, recall
from .learning import SEQUENTIAL, TrainingSchedule, train
from .network import MAX_STEPS, Hyperparams, _steps_of, build_loop
from .stability import analyze_equilibrium, spectrum_to_csv

BINARY_KIND = "BinarySign"
REAL_KIND = "RealGaussian"

# rng purpose indices for child-seed derivation
SEED_TARGETS = 0
SEED_WEIGHTS = 1
SEED_TRAIN = 2
SEED_PROBES = 3
SEED_RANDOM = 4
SEED_RECALL = 5

# None: the sizes come from the sizes key
ARCHITECTURES = {"Single100": (100,), "Loop50_30_20": (50, 30, 20), "Custom": None}

# Training schedules that put the trained network in the regime the
# studies expect: short repeated clamp passes leave the stored patterns
# just inside the fold where each has a stable equilibrium with a
# near-marginal mode, while long single passes saturate the units and
# push that mode far from zero.
KIND_DEFAULTS = {
    BINARY_KIND: {"activation": "tanh", "duration_per_target": "0.72", "horizon": "20.0"},
    REAL_KIND: {"activation": "relu", "duration_per_target": "5.0", "horizon": "360.0"},
}


class ConfigError(ValueError):
    """Bad key, unparseable value, or broken cross-field invariant."""


def _number(cast, need, ok):
    """Parser of the text of a finite int or float for which ok holds."""
    def parse(text):
        try:
            x = cast(text)
            # a NaN fails both comparisons
            if abs(x) < math.inf and ok(x):
                return x
        except ValueError:
            pass
        raise ValueError(f"expected {need}, got {text!r}")
    return parse


_positive = _number(float, "a positive number", lambda x: x > 0)
_count = _number(int, "a positive integer", lambda n: n > 0)
_natural = _number(int, "a nonnegative integer", lambda n: n >= 0)
_nonnegative = _number(float, "a nonnegative number", lambda x: x >= 0)


def _one_of(*names):
    def parse(text):
        if text not in names:
            raise ValueError(f"unknown value {text!r} (expected {', '.join(names)})")
        return text
    return parse


def _bool(text):
    low = text.lower()
    if low in ("true", "1", "yes", "false", "0", "no"):
        return low in ("true", "1", "yes")
    raise ValueError(f"expected a boolean, got {text!r}")


def _nonempty(text):
    if not text:
        raise ValueError("must be nonempty")
    return text


# Every key in echo order: its default text (None: from KIND_DEFAULTS)
# and the parser of its text into the RunConfig attribute of that name.
CONFIG = {
    "architecture": ("Single100", _one_of(*ARCHITECTURES)),
    "sizes": ("", str),  # for Custom only; refused with any other architecture
    "target_kind": (BINARY_KIND, _one_of(*KIND_DEFAULTS)),
    "activation": (None, Activation.from_name),
    "tie_weights": ("false", _bool),
    "n_targets": ("10", _count),
    "tau": (repr(Hyperparams.tau), _positive),
    "gamma": (repr(Hyperparams.gamma), _positive),
    "zeta": (repr(Hyperparams.zeta), _positive),
    "dt": (repr(Hyperparams.dt), _positive),
    "init_scale": ("0.01", _positive),
    "duration_per_target": (None, _positive),
    "epochs": ("16", _count),
    "target_order": (SEQUENTIAL, str),
    "reset_fast_state": ("true", _bool),
    "horizon": (None, _positive),
    "sample_every": ("0.05", _positive),
    "perturb_sigma": (repr(PERTURB_STD), _nonnegative),
    "flip_bits": (str(FLIP_BITS), _natural),
    "n_random_runs": ("10", _natural),
    "stability_tol": ("1e-08", _positive),
    "seed": ("0", _natural),
    "output_dir": ("out", _nonempty),
}


def child_seed(root: int, purpose: int) -> int:
    return int(np.random.SeedSequence(root, spawn_key=(purpose,)).generate_state(1)[0])


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment; blank lines skipped;
    a key set twice is refused."""
    out, where = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line "
                              f"{where[key]}")
        out[key], where[key] = val.strip(), lineno
    return out


def _custom_sizes(text):
    try:
        return [_count(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError("sizes: architecture Custom needs comma-separated positive "
                          f"integers, e.g. sizes = 50,30,20; got {text!r}") from None


class RunConfig:
    """Everything a subcommand needs, resolved from defaults + file + flags:
    one attribute per CONFIG key, with sizes as a list, plus hyper and
    schedule."""

    def __init__(self, raw: dict):
        self.raw = dict(raw)
        for key, (_, parse) in CONFIG.items():
            val = raw[key]
            try:
                # config.echo writes values verbatim, one per line, and
                # parse_config_text cuts a line at '#' and strips the value
                if "#" in val or val != val.strip() or len(val.splitlines()) > 1:
                    raise ValueError(f"value {val!r} holds '#', a line break or outer "
                                     "whitespace, which config.echo cannot carry")
                setattr(self, key, parse(val))
            except ValueError as e:
                raise ConfigError(f"{key}: {e}") from None
        named = ARCHITECTURES[self.architecture]
        if named and self.sizes:
            raise ConfigError(f"sizes: architecture {self.architecture} has sizes "
                              f"{','.join(map(str, named))}; sizes is for Custom only")
        self.sizes = list(named or _custom_sizes(self.sizes))
        self.binary = self.target_kind == BINARY_KIND
        paired = KIND_DEFAULTS[self.target_kind]["activation"]
        self.pairing_warning = (None if self.activation.value == paired else
                                f"warning: {self.target_kind} targets usually pair with "
                                f"{paired}, got {self.activation.value}")
        try:
            self.hyper = Hyperparams(self.tau, self.gamma, self.zeta, self.dt)
            self.schedule = TrainingSchedule(self.duration_per_target, self.epochs,
                                             self.target_order, self.reset_fast_state)
        except ConstructionError as e:
            raise ConfigError(str(e)) from None
        for key in ("duration_per_target", "horizon", "sample_every"):
            try:
                _steps_of(key, getattr(self, key), self.dt)
            except ConstructionError:
                raise ConfigError(f"{key}: {self.raw[key]} is more than {MAX_STEPS} steps "
                                  f"of dt = {self.raw['dt']}") from None
        if self.flip_bits > self.total_units:
            raise ConfigError(f"flip_bits must lie in [0, {self.total_units}]")

    @property
    def total_units(self):
        return sum(self.sizes)

    def path(self, name):
        return os.path.join(self.output_dir, name)

    def build_network(self):
        return build_loop(self.sizes, self.activation, self.hyper,
                          tie_weights=self.tie_weights, init_scale=self.init_scale,
                          seed=child_seed(self.seed, SEED_WEIGHTS))

    def targets(self):
        return gen_targets("binary" if self.binary else "real", self.n_targets,
                           self.total_units, seed=child_seed(self.seed, SEED_TARGETS))

    def echo_text(self) -> str:
        return "".join(f"{key} = {self.raw[key]}\n" for key in CONFIG
                       if key != "sizes" or self.architecture == "Custom")


def resolve_config(file_values: dict, overrides: dict) -> RunConfig:
    """Layer defaults, then the config file, then command-line flags.

    The defaults that depend on the target kind are filled in last, so
    the echo is fully concrete.
    """
    raw = {key: text for key, (text, _) in CONFIG.items() if text is not None}
    raw.update(file_values)
    raw.update(overrides)
    # an unknown kind adds nothing; RunConfig refuses it before it
    # reads a key left unset
    for key, text in KIND_DEFAULTS.get(raw["target_kind"], {}).items():
        raw.setdefault(key, text)
    return RunConfig(raw)


def _load_trained(cfg, args):
    path = cfg.path("checkpoint.pchn") if args.checkpoint is None else args.checkpoint
    net = cfg.build_network()
    load_weights(net, path)
    return net


def _corresponds(cfg, rep, target) -> bool:
    # a found equilibrium only counts for a target if it sits in the
    # same basin-scale neighborhood: 10% of the bits for sign patterns,
    # a quarter of the target norm for real ones
    if cfg.binary:
        ham = int(np.sum(sign_pm1(rep.state[cfg.total_units:]) != target))
        return ham <= cfg.total_units // 10
    return rep.distance_to_target <= 0.25 * float(np.linalg.norm(target))


def cmd_train(cfg: RunConfig, args) -> int:
    net = cfg.build_network()
    targets = cfg.targets()
    t0 = time.perf_counter()
    report = train(net, targets.patterns, cfg.schedule,
                   seed=child_seed(cfg.seed, SEED_TRAIN))
    wall = time.perf_counter() - t0
    save_weights(net, cfg.path("checkpoint.pchn"))
    atomic_write_text(cfg.path("train.csv"), report.to_csv())
    print(f"train: {cfg.architecture} {cfg.target_kind} n_targets={cfg.n_targets} "
          f"epochs={cfg.schedule.epochs} final_mean_energy={report.final_mean_energy():.6g} "
          f"wall={wall:.2f}s")
    return 0


def cmd_perturb(cfg: RunConfig, args) -> int:
    net = _load_trained(cfg, args)
    targets = cfg.targets()
    trace = perturbation_study(net, targets, horizon=cfg.horizon,
                               sample_every=cfg.sample_every,
                               sigma=cfg.perturb_sigma, flip_bits=cfg.flip_bits,
                               seed=child_seed(cfg.seed, SEED_PROBES))
    atomic_write_text(cfg.path("perturb.csv"), trace_to_csv(trace))
    summ = recovery_summary(trace)
    first, last, diverged = distance_tables(trace)
    for r in range(summ.n_runs):
        extra = " [divergent]" if diverged[r] else ""
        print(f"perturb: run {r} target {r} initial {first[r, r]:g} "
              f"final {last[r, r]:g} ({trace.metric}){extra}")
    print(f"perturb: {summ.successes}/{summ.n_runs} runs recovered their target")
    return 0


def cmd_stability(cfg: RunConfig, args) -> int:
    net = _load_trained(cfg, args)
    targets = cfg.targets()
    T = cfg.total_units
    n_stable = n_found = 0
    outcomes = analyze_equilibrium(net, targets.patterns, tol=cfg.stability_tol)
    for k, rep in enumerate(outcomes):
        if isinstance(rep, NotAnEquilibriumError):
            print(f"stability: target {k} no equilibrium found "
                  f"(residual {rep.residual:g})")
            continue
        if isinstance(rep, IntegrationDivergenceError):
            print(f"stability: target {k} no equilibrium found (diverged)")
            continue
        if isinstance(rep, NonDifferentiableStateError):
            print(f"stability: target {k} equilibrium sits on an activation "
                  f"kink; spectrum undefined")
            continue
        ok = _corresponds(cfg, rep, targets.patterns[k])
        atomic_write_text(cfg.path(f"spectrum_t{k}.csv"), spectrum_to_csv(rep))
        n_found += 1
        n_stable += bool(rep.all_stable)
        note = "" if ok else " (equilibrium does not correspond to the target)"
        print(f"stability: target {k} stable={rep.all_stable} "
              f"max_re={rep.max_real_part:.3e} "
              f"at_half_tau={rep.count_at_minus_half_tau}/{2 * T} "
              f"near_minus_one={rep.count_near_minus_one} "
              f"near_zero={len(rep.near_zero)} dist={rep.distance_to_target:.3g}{note}")
    print(f"stability: {n_stable}/{n_found} found equilibria stable "
          f"({targets.n - n_found} not found)")
    return 0


def cmd_random_init(cfg: RunConfig, args) -> int:
    net = _load_trained(cfg, args)
    targets = cfg.targets()
    trace = random_init_study(net, targets, n_runs=cfg.n_random_runs,
                              horizon=cfg.horizon, sample_every=cfg.sample_every,
                              seed=child_seed(cfg.seed, SEED_RANDOM))
    atomic_write_text(cfg.path("random.csv"), trace_to_csv(trace))
    summ = absorption_summary(trace, cfg.total_units)
    print(f"random-init: {summ.successes}/{summ.n_runs} runs ended within "
          f"the success threshold of a target")
    return 0


def cmd_hopfield_baseline(cfg: RunConfig, args) -> int:
    if not cfg.binary:
        raise ConstructionError("hopfield-baseline requires target_kind = BinarySign")
    targets = cfg.targets()
    hn = hebbian_store(targets.patterns)
    probes = make_probes(targets, child_seed(cfg.seed, SEED_PROBES),
                         sigma=cfg.perturb_sigma, flip_bits=cfg.flip_bits)
    lines = ["run_id,target_id,hamming_initial,hamming_final,recovered"]
    n_ok = 0
    recall_root = child_seed(cfg.seed, SEED_RECALL)
    threshold = success_threshold(HAMMING, cfg.total_units)
    for r, t in enumerate(targets.patterns):
        h0 = int(np.sum(probes[r] != t))
        res = recall(hn, probes[r], seed=child_seed(recall_root, r))
        h1 = int(np.sum(res.v != t))
        ok = int(h1 <= threshold)
        n_ok += ok
        lines.append(f"{r},{r},{h0},{h1},{ok}")
    atomic_write_text(cfg.path("baseline.csv"), "\n".join(lines) + "\n")
    print(f"hopfield-baseline: {n_ok}/{targets.n} probes recovered "
          f"(Hamming <= {threshold:g})")
    return 0


# Each subcommand's function and the names of the files it writes into
# output_dir, which main removes before the subcommand runs
COMMANDS = {"train": (cmd_train, r"checkpoint\.pchn|train\.csv"),
            "perturb": (cmd_perturb, r"perturb\.csv"),
            "stability": (cmd_stability, r"spectrum_t[0-9]+\.csv"),
            "random-init": (cmd_random_init, r"random\.csv"),
            "hopfield-baseline": (cmd_hopfield_baseline, r"baseline\.csv")}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pchn",
        description="Train and probe predictive-coding associative memories.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value file")
        if name in ("perturb", "stability", "random-init"):
            p.add_argument("--checkpoint",
                           help="trained weights (default: <out>/checkpoint.pchn)")
        for key in CONFIG:
            p.add_argument("--out" if key == "output_dir" else f"--{key}", dest=key,
                           metavar="VALUE")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = {}
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    file_values = parse_config_text(fh.read())
            except (OSError, UnicodeError) as e:
                raise ConfigError(f"cannot read config file {args.config}: {e}") from None
        flags = {k: v for k, v in vars(args).items() if k in CONFIG and v is not None}
        cfg = resolve_config(file_values, flags)
        os.makedirs(cfg.output_dir, exist_ok=True)
    except (ConfigError, OSError) as e:  # an output_dir that cannot be made
        print(f"error: {e}", file=sys.stderr)
        return 2
    if cfg.pairing_warning:
        print(cfg.pairing_warning, file=sys.stderr)
    atomic_write_text(cfg.path("config.echo"), cfg.echo_text())
    command, outputs = COMMANDS[args.command]
    # config.echo now describes this run: outputs an earlier run left
    # would not be this run's
    for name in os.listdir(cfg.output_dir):
        if re.fullmatch(outputs, name):
            os.remove(cfg.path(name))
    try:
        return command(cfg, args)
    except (ConstructionError, IntegrationDivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
