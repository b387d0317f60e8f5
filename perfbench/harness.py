"""Run the pchn CLI pipeline as subprocesses and check every output.

One pipeline is train -> perturb -> stability -> random-init, plus
hopfield-baseline on binary workloads, one subprocess at a time (a closed
loop with one client).  Each subcommand is an op: it fails when it exits
non-zero, times out, or an output check fails.
"""

import hashlib
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

# The CLI's default root seed: the one operating point whose summary
# counts are pinned below.
DEFAULT_SEED = 0

PHASES = ("train", "perturb", "stability", "random-init", "hopfield-baseline")


@dataclass(frozen=True)
class Shape:
    """The resolved CLI config values the output checks depend on."""

    total_units: int
    n_targets: int = 10
    epochs: int = 16
    horizon: float = 20.0
    sample_every: float = 0.05
    dt: float = 0.005
    n_random_runs: int = 10

    def samples(self) -> int:
        """Trace samples per run, as relaxation_study takes them."""
        steps = max(1, round(self.horizon / self.dt))
        stride = max(1, round(self.sample_every / self.dt))
        return 1 + steps // stride + (1 if steps % stride else 0)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict             # CLI overrides; everything else is the default
    shape: Shape
    binary: bool
    # summary counts at DEFAULT_SEED, exactly as the seed code prints them
    pinned: dict

    @property
    def phases(self):
        return PHASES if self.binary else PHASES[:-1]

    def flags(self):
        out = []
        for key, val in self.config.items():
            out += [f"--{key}", str(val)]
        return out


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "single_binary",
            {"architecture": "Single100", "target_kind": "BinarySign"},
            Shape(total_units=100), binary=True,
            pinned={"perturb": 10, "stability": 10, "random-init": 0,
                    "hopfield-baseline": 10}),
        Workload(
            "single_real",
            {"architecture": "Single100", "target_kind": "RealGaussian"},
            Shape(total_units=100, horizon=360.0), binary=False,
            pinned={"perturb": 5, "stability": 10, "random-init": 0}),
        Workload(
            "loop_binary",
            {"architecture": "Loop50_30_20", "target_kind": "BinarySign"},
            Shape(total_units=100), binary=True,
            pinned={"perturb": 0, "stability": 10, "random-init": 0,
                    "hopfield-baseline": 10}),
    ]
}


# ---- subprocesses ----

# At d = 100 a second BLAS thread made perturb and stability slower and
# noisier on a 2-CPU box, so the pin is one thread (at most nproc).
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    pin = str(BLAS_THREADS)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = pin
    return env


@dataclass
class Op:
    """One checked subprocess: a CLI subcommand or a set-up probe."""

    name: str
    start: float             # time.perf_counter() at spawn
    wall_s: float
    rss_mb: float
    cpu_s: float
    stdout: str
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def run_process(name, argv, cwd, timeout, log_dir) -> Op:
    """Run argv to completion, timing it from spawn to reap; the child's
    own peak RSS comes from wait4.  Output goes to files, not pipes, so a
    chatty child can never block."""
    out_path = log_dir / f"{name}.stdout"
    err_path = log_dir / f"{name}.stderr"
    killed = threading.Event()
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=child_env())

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(name, t0, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
            out_path.read_text())
    if killed.is_set():
        op.error = f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        tail = err_path.read_text().strip().splitlines()[-1:] or [""]
        op.error = f"exit code {proc.returncode}: {tail[0]}"
    return op


def cli_argv(w: Workload, phase, out_dir, seed, extra=(), spans=None):
    """The pchn command line; with spans, run it under traced_cli.py,
    which writes its spans to that file under the run id spans.stem."""
    pchn = [phase, "--out", str(out_dir), "--seed", str(seed)] + w.flags() + list(extra)
    if spans is None:
        return [sys.executable, "-m", "pchn"] + pchn
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans), spans.stem, "--"] + pchn


# ---- output checks ----

SUMMARY = {
    "train": re.compile(r"^train: .* final_mean_energy=(\S+) ", re.M),
    "perturb": re.compile(r"^perturb: (\d+)/(\d+) runs recovered their target$", re.M),
    "stability": re.compile(r"^stability: (\d+)/(\d+) found equilibria stable "
                            r"\((\d+) not found\)$", re.M),
    "random-init": re.compile(r"^random-init: (\d+)/(\d+) runs ended within", re.M),
    "hopfield-baseline": re.compile(r"^hopfield-baseline: (\d+)/(\d+) probes recovered",
                                    re.M),
}


def data_rows(path: Path) -> list:
    """CSV lines after the header, without '#' comment lines."""
    with open(path) as fh:
        next(fh, None)
        return [line for line in fh if not line.startswith("#")]


def check_outputs(w: Workload, phase, out_dir: Path, stdout: str, seed) -> tuple:
    """Check one subcommand's stdout summary and files.

    Returns (error, count): error is "" when every check passes.  count
    is the success count of the summary line, or for train the number
    of simulated training steps.
    """
    m = SUMMARY[phase].search(stdout)
    if m is None:
        return f"{phase}: summary line missing or unparseable", None
    s = w.shape
    if phase == "train":
        try:
            energy = float(m.group(1))
        except ValueError:
            energy = math.nan
        if not math.isfinite(energy):
            return f"train: final_mean_energy {m.group(1)} is not finite", None
        if not (out_dir / "checkpoint.pchn").is_file():
            return "train: no checkpoint written", None
        rows = data_rows(out_dir / "train.csv")
        if len(rows) != s.epochs * s.n_targets:
            return f"train: train.csv has {len(rows)} rows, expected {s.epochs * s.n_targets}", None
        return "", sum(int(row.split(",")[2]) for row in rows)
    count, total = int(m.group(1)), int(m.group(2))
    if phase == "stability":
        missing = int(m.group(3))
        if total + missing != s.n_targets:
            return f"stability: {total} found + {missing} not found != {s.n_targets}", count
        spectra = sorted(out_dir.glob("spectrum_t*.csv"))
        if len(spectra) != total:
            return f"stability: {len(spectra)} spectrum files for {total} equilibria", count
        for path in spectra:
            if len(data_rows(path)) != 2 * s.total_units:
                return f"stability: {path.name} lacks {2 * s.total_units} eigenvalues", count
    else:
        runs = s.n_random_runs if phase == "random-init" else s.n_targets
        if total != runs:
            return f"{phase}: summary counts {total} runs, expected {runs}", count
        csv, want = {"perturb": ("perturb.csv", runs * s.n_targets * s.samples()),
                     "random-init": ("random.csv", runs * s.n_targets * s.samples()),
                     "hopfield-baseline": ("baseline.csv", runs)}[phase]
        rows = len(data_rows(out_dir / csv))
        if rows != want:
            return f"{phase}: {csv} has {rows} rows, expected {want}", count
    if seed == DEFAULT_SEED and phase in w.pinned and count != w.pinned[phase]:
        return f"{phase}: count {count} != pinned {w.pinned[phase]} at seed {seed}", count
    return "", count


# ---- pipelines ----

@dataclass
class Pipeline:
    ops: list
    counts: dict

    @property
    def ok(self) -> bool:
        return all(op.ok for op in self.ops)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    def phase(self, name):
        return next((op for op in self.ops if op.name == name), None)


def run_pipeline(w: Workload, work: Path, seed, deadline, spans_dir=None,
                 between=None) -> Pipeline:
    """One closed-loop pass through the workload's subcommands into the
    emptied directory work/out; stops at the first failed op.  With
    spans_dir, every subcommand runs traced and leaves <phase>.npz there.
    between(op) is called after each passing subcommand op; its time is
    not part of the pipeline's."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    logs = spans_dir or work
    ops, counts = [], {}
    for phase in w.phases:
        spans = spans_dir / f"{phase}.npz" if spans_dir else None
        op = run_process(phase, cli_argv(w, phase, out_dir, seed, spans=spans),
                         work, deadline - time.monotonic(), logs)
        if op.ok:
            op.error, counts[phase] = check_outputs(w, phase, out_dir, op.stdout, seed)
        ops.append(op)
        if not op.ok:
            break
        if between:
            between(op)
    return Pipeline(ops, counts)


def drop_traces(work: Path):
    """The trace CSVs are checked; keep the run directory small."""
    for path in (work / "out").glob("*.csv"):
        path.unlink()


# ---- reporting ----

def median(values):
    return statistics.median(values) if values else 0.0


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": nproc(),
        "host_cpus": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": source_digest(),
    }


def source_digest() -> str:
    """Identifies the code measured where no git metadata is present."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "pchn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()
