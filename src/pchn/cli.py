"""Command-line front end.

Subcommands: train, perturb, stability, random-init, hopfield-baseline.
Configuration is a flat key=value text file; every key can also be set
on the command line as --key value.  The effective configuration is
echoed to output_dir/config.echo, and re-running any subcommand from
the echoed file reproduces the outputs byte for byte.

All randomness flows from the single root seed.  Child seeds are drawn
as SeedSequence(seed, spawn_key=(purpose,)).generate_state(1)[0] with a
fixed purpose index per consumer (targets, weights, training order,
probes, random starts, recall order), so every artifact is reproducible
across machines from (config, seed) alone.
"""

import argparse
import os
import sys
import time

import numpy as np

from .activations import Activation
from .checkpoint import load_weights, save_weights
from .errors import (ConstructionError, IntegrationDivergenceError,
                     NonDifferentiableStateError, NotAnEquilibriumError)
from .experiments import (FLIP_BITS, PERTURB_STD, absorption_summary,
                          distance_tables, gen_targets, make_probes,
                          perturbation_study, random_init_study,
                          recovery_summary, sign_pm1, trace_to_csv)
from .fileio import atomic_write_text
from .hopfield import hebbian_store, recall
from .learning import (SEQUENTIAL, SHUFFLED, TrainingSchedule, freeze, train)
from .network import Hyperparams, build_loop, build_single_population
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

# Training schedules that put the trained network in the regime the
# studies expect: short repeated clamp passes leave the stored patterns
# just inside the fold where each has a stable equilibrium with a
# near-marginal mode, while long single passes saturate the units and
# push that mode far from zero.
BINARY_EPOCHS = 16
BINARY_DURATION = 0.72
REAL_EPOCHS = 16
REAL_DURATION = 5.0
BINARY_HORIZON = 20.0
REAL_HORIZON = 360.0

# Keys in canonical echo order.  None marks "resolved per target kind".
CONFIG_DEFAULTS = [
    ("architecture", "Single100"),
    ("sizes", ""),
    ("target_kind", BINARY_KIND),
    ("activation", None),
    ("tie_weights", "false"),
    ("n_targets", "10"),
    ("tau", None),
    ("gamma", None),
    ("zeta", None),
    ("dt", None),
    ("init_scale", "0.01"),
    ("duration_per_target", None),
    ("epochs", None),
    ("target_order", SEQUENTIAL),
    ("reset_fast_state", "true"),
    ("horizon", None),
    ("sample_every", "0.05"),
    ("perturb_sigma", repr(PERTURB_STD)),
    ("flip_bits", str(FLIP_BITS)),
    ("n_random_runs", "10"),
    ("stability_tol", "1e-08"),
    ("seed", "0"),
    ("output_dir", "out"),
]
CONFIG_KEYS = [k for k, _ in CONFIG_DEFAULTS]


class ConfigError(ValueError):
    """Bad key, unparseable value, or broken cross-field invariant."""


def child_seed(root: int, purpose: int) -> int:
    return int(np.random.SeedSequence(root, spawn_key=(purpose,)).generate_state(1)[0])


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment; blank lines skipped."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = val.strip()
    return out


def _as_bool(key, s):
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {s!r}")


def _as_float(key, s):
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {s!r}") from None


def _as_int(key, s):
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {s!r}") from None


class RunConfig:
    """Everything a subcommand needs, resolved from defaults + file + flags."""

    def __init__(self, raw: dict):
        for key, val in raw.items():
            # config.echo writes values verbatim, one per line, and
            # parse_config_text cuts a line at '#' and strips the value
            if "#" in val or val != val.strip() or len(val.splitlines()) > 1:
                raise ConfigError(f"{key}: value {val!r} holds '#', a line break or "
                                  "outer whitespace, which config.echo cannot carry")
        self.raw = dict(raw)
        arch = raw["architecture"]
        if arch == "Single100":
            self.sizes = [100]
        elif arch == "Loop50_30_20":
            self.sizes = [50, 30, 20]
        elif arch == "Custom":
            if not raw["sizes"]:
                raise ConfigError("architecture Custom requires sizes, e.g. sizes = 50,30,20")
            try:
                self.sizes = [int(tok) for tok in raw["sizes"].split(",")]
            except ValueError:
                raise ConfigError(f"sizes: expected comma-separated integers, got {raw['sizes']!r}") from None
            if any(n <= 0 for n in self.sizes):
                raise ConfigError("sizes: all population sizes must be positive")
        else:
            raise ConfigError(f"architecture: unknown value {arch!r} "
                              "(expected Single100, Loop50_30_20, or Custom)")
        self.architecture = arch
        if raw["target_kind"] not in (BINARY_KIND, REAL_KIND):
            raise ConfigError(f"target_kind: unknown value {raw['target_kind']!r} "
                              f"(expected {BINARY_KIND} or {REAL_KIND})")
        self.target_kind = raw["target_kind"]
        self.binary = self.target_kind == BINARY_KIND
        try:
            self.activation = Activation.from_name(raw["activation"])
        except ValueError as e:
            raise ConfigError(str(e)) from None
        paired = Activation.TANH if self.binary else Activation.RELU
        self.pairing_warning = None
        if self.activation is not paired:
            self.pairing_warning = (f"warning: {self.target_kind} targets usually pair with "
                                    f"{paired.value}, got {self.activation.value}")
        self.tie_weights = _as_bool("tie_weights", raw["tie_weights"])
        self.n_targets = _as_int("n_targets", raw["n_targets"])
        if self.n_targets <= 0:
            raise ConfigError("n_targets must be positive")
        try:
            self.hyper = Hyperparams(tau=_as_float("tau", raw["tau"]),
                                     gamma=_as_float("gamma", raw["gamma"]),
                                     zeta=_as_float("zeta", raw["zeta"]),
                                     dt=_as_float("dt", raw["dt"]))
        except ConstructionError as e:
            raise ConfigError(str(e)) from None
        self.init_scale = _as_float("init_scale", raw["init_scale"])
        if self.init_scale <= 0:
            raise ConfigError("init_scale must be positive")
        if raw["target_order"] not in (SEQUENTIAL, SHUFFLED):
            raise ConfigError(f"target_order: expected {SEQUENTIAL} or {SHUFFLED}, "
                              f"got {raw['target_order']!r}")
        try:
            self.schedule = TrainingSchedule(
                duration_per_target=_as_float("duration_per_target", raw["duration_per_target"]),
                epochs=_as_int("epochs", raw["epochs"]),
                target_order=raw["target_order"],
                reset_fast_state=_as_bool("reset_fast_state", raw["reset_fast_state"]))
        except ConstructionError as e:
            raise ConfigError(str(e)) from None
        self.horizon = _as_float("horizon", raw["horizon"])
        self.sample_every = _as_float("sample_every", raw["sample_every"])
        if self.horizon <= 0 or self.sample_every <= 0:
            raise ConfigError("horizon and sample_every must be positive")
        self.perturb_sigma = _as_float("perturb_sigma", raw["perturb_sigma"])
        if self.perturb_sigma < 0:
            raise ConfigError("perturb_sigma must be nonnegative")
        self.flip_bits = _as_int("flip_bits", raw["flip_bits"])
        if not 0 <= self.flip_bits <= self.total_units:
            raise ConfigError(f"flip_bits must lie in [0, {self.total_units}]")
        self.n_random_runs = _as_int("n_random_runs", raw["n_random_runs"])
        if self.n_random_runs < 0:
            raise ConfigError("n_random_runs must be nonnegative")
        self.stability_tol = _as_float("stability_tol", raw["stability_tol"])
        if self.stability_tol <= 0:
            raise ConfigError("stability_tol must be positive")
        self.seed = _as_int("seed", raw["seed"])
        self.output_dir = raw["output_dir"]
        if not self.output_dir:
            raise ConfigError("output_dir must be nonempty")

    @property
    def total_units(self):
        return sum(self.sizes)

    def build_network(self):
        seed = child_seed(self.seed, SEED_WEIGHTS)
        if len(self.sizes) == 1:
            return build_single_population(self.sizes[0], self.activation, self.hyper,
                                           tie_weights=self.tie_weights,
                                           init_scale=self.init_scale, seed=seed)
        return build_loop(self.sizes, self.activation, self.hyper,
                          tie_weights=self.tie_weights,
                          init_scale=self.init_scale, seed=seed)

    def targets(self):
        kind = "binary" if self.binary else "real"
        return gen_targets(kind, self.n_targets, self.total_units,
                           seed=child_seed(self.seed, SEED_TARGETS))

    def echo_text(self) -> str:
        lines = []
        for key in CONFIG_KEYS:
            if key == "sizes" and self.architecture != "Custom":
                continue
            lines.append(f"{key} = {self.raw[key]}")
        return "\n".join(lines) + "\n"


def resolve_config(file_values: dict, overrides: dict) -> RunConfig:
    """Layer defaults, then the config file, then command-line flags.

    Keys whose default depends on the target kind (activation, schedule,
    horizon, hyper) are filled in last so the echo is fully concrete.
    """
    raw = {k: v for k, v in CONFIG_DEFAULTS if v is not None}
    raw.update(file_values)
    raw.update(overrides)
    binary = raw.get("target_kind", BINARY_KIND) == BINARY_KIND
    kind_defaults = {
        "activation": "tanh" if binary else "relu",
        "tau": repr(Hyperparams().tau),
        "gamma": repr(Hyperparams().gamma),
        "zeta": repr(Hyperparams().zeta),
        "dt": repr(Hyperparams().dt),
        "duration_per_target": repr(BINARY_DURATION if binary else REAL_DURATION),
        "epochs": str(BINARY_EPOCHS if binary else REAL_EPOCHS),
        "horizon": repr(BINARY_HORIZON if binary else REAL_HORIZON),
    }
    for key, val in kind_defaults.items():
        raw.setdefault(key, val)
    return RunConfig(raw)


def _write_echo(cfg: RunConfig):
    os.makedirs(cfg.output_dir, exist_ok=True)
    atomic_write_text(os.path.join(cfg.output_dir, "config.echo"), cfg.echo_text())


def _checkpoint_path(cfg, args):
    if args.checkpoint is not None:
        return args.checkpoint
    return os.path.join(cfg.output_dir, "checkpoint.pchn")


def _load_trained(cfg, args):
    path = _checkpoint_path(cfg, args)
    if not os.path.exists(path):
        raise ConstructionError(f"checkpoint not found: {path}")
    net = cfg.build_network()
    load_weights(net, path)
    freeze(net)
    return net


def _corresponds(cfg, values, target) -> bool:
    # a found equilibrium only counts for a target if it sits in the
    # same basin-scale neighborhood: 10% of the bits for sign patterns,
    # a quarter of the target norm for real ones
    if cfg.binary:
        ham = int(np.sum(sign_pm1(values) != target))
        return ham <= cfg.total_units // 10
    return float(np.linalg.norm(values - target)) <= 0.25 * float(np.linalg.norm(target))


def cmd_train(cfg: RunConfig) -> int:
    net = cfg.build_network()
    targets = cfg.targets()
    t0 = time.perf_counter()
    try:
        report = train(net, targets.patterns, cfg.schedule,
                       seed=child_seed(cfg.seed, SEED_TRAIN))
    except IntegrationDivergenceError as e:
        # config.echo now describes this failed run: drop the outputs
        # an earlier run left beside it
        for name in ("checkpoint.pchn", "train.csv"):
            path = os.path.join(cfg.output_dir, name)
            if os.path.exists(path):
                os.remove(path)
        print(f"error: training diverged at step {e.step}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0
    freeze(net)
    save_weights(net, os.path.join(cfg.output_dir, "checkpoint.pchn"))
    atomic_write_text(os.path.join(cfg.output_dir, "train.csv"), report.to_csv())
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
    atomic_write_text(os.path.join(cfg.output_dir, "perturb.csv"),
                      trace_to_csv(trace))
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
    n_stable = 0
    n_found = 0
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
        ok = _corresponds(cfg, rep.state[T:], targets.patterns[k])
        atomic_write_text(os.path.join(cfg.output_dir, f"spectrum_t{k}.csv"),
                          spectrum_to_csv(rep))
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
    atomic_write_text(os.path.join(cfg.output_dir, "random.csv"),
                      trace_to_csv(trace))
    summ = absorption_summary(trace, cfg.total_units)
    print(f"random-init: {summ.successes}/{summ.n_runs} runs ended within "
          f"the success threshold of a target")
    return 0


def cmd_hopfield_baseline(cfg: RunConfig) -> int:
    if not cfg.binary:
        print("error: hopfield-baseline requires target_kind = BinarySign",
              file=sys.stderr)
        return 1
    targets = cfg.targets()
    hn = hebbian_store(targets.patterns)
    probes = make_probes(targets, child_seed(cfg.seed, SEED_PROBES),
                         sigma=cfg.perturb_sigma, flip_bits=cfg.flip_bits)
    lines = ["run_id,target_id,hamming_initial,hamming_final,recovered"]
    n_ok = 0
    recall_root = child_seed(cfg.seed, SEED_RECALL)
    for r in range(targets.n):
        t = targets.patterns[r]
        h0 = int(np.sum(probes[r] != t))
        res = recall(hn, probes[r], seed=child_seed(recall_root, r))
        h1 = int(np.sum(res.v != t))
        ok = int(h1 <= 1)
        n_ok += ok
        lines.append(f"{r},{r},{h0},{h1},{ok}")
    atomic_write_text(os.path.join(cfg.output_dir, "baseline.csv"),
                      "\n".join(lines) + "\n")
    print(f"hopfield-baseline: {n_ok}/{targets.n} probes recovered (Hamming <= 1)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pchn",
        description="Train and probe predictive-coding associative memories.")
    sub = parser.add_subparsers(dest="command", required=True)
    names = ["train", "perturb", "stability", "random-init", "hopfield-baseline"]
    for name in names:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value file")
        p.add_argument("--seed", default=None, help="root seed (overrides config)")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if name in ("perturb", "stability", "random-init"):
            p.add_argument("--checkpoint", default=None,
                           help="trained weights (default: <out>/checkpoint.pchn)")
        for key in CONFIG_KEYS:
            if key in ("seed", "output_dir"):
                continue
            p.add_argument(f"--{key}", dest=f"cfg_{key}", default=None,
                           metavar="VALUE")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = {}
        if args.config is not None:
            if not os.path.exists(args.config):
                raise ConfigError(f"config file not found: {args.config}")
            with open(args.config) as fh:
                file_values = parse_config_text(fh.read())
        overrides = {}
        for key in CONFIG_KEYS:
            val = getattr(args, f"cfg_{key}", None)
            if val is not None:
                overrides[key] = val
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["output_dir"] = args.out
        cfg = resolve_config(file_values, overrides)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if cfg.pairing_warning:
        print(cfg.pairing_warning, file=sys.stderr)
    _write_echo(cfg)
    try:
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "perturb":
            return cmd_perturb(cfg, args)
        if args.command == "stability":
            return cmd_stability(cfg, args)
        if args.command == "random-init":
            return cmd_random_init(cfg, args)
        return cmd_hopfield_baseline(cfg)
    except (ConstructionError, IntegrationDivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
