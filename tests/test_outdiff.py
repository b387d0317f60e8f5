"""tools/outdiff.py, the output comparison of two source trees, on the
small Custom net that CI's console-script step runs."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "outdiff.py")
CI_FLAGS = ["--architecture", "Custom", "--sizes", "12", "--n_targets", "3",
            "--flip_bits", "2", "--duration_per_target", "0.5", "--epochs", "2",
            "--horizon", "1.0", "--sample_every", "0.25"]


def _outdiff(*args, cwd=None):
    return subprocess.run([sys.executable, TOOL, *map(str, args)],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def self_diff(tmp_path_factory):
    """This tree's outputs compared with its own, kept in out/old and
    out/new, with out given relative to the working directory."""
    cwd = tmp_path_factory.mktemp("outdiff")
    return cwd / "out", _outdiff(ROOT, ROOT, "--out", "out", "--", *CI_FLAGS, cwd=cwd)


def test_a_tree_against_itself_reports_every_file_identical(self_diff):
    """Under the Custom architecture each target kind is one workload, so
    single_binary and loop_real, which would repeat loop_binary and
    single_real, are skipped."""
    out, res = self_diff
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert lines[:2] == ["single_binary: skipped, repeats loop_binary",
                         "loop_real: skipped, repeats single_real"]
    reported = dict(line.split(": ", 1) for line in lines[2:])
    assert set(reported.values()) == {"identical"}
    written = {os.path.relpath(os.path.join(d, name), out / "new")
               for d, _, names in os.walk(out / "new") for name in names}
    assert set(reported) == written
    assert sorted(os.listdir(out / "new")) == ["loop_binary", "single_real"]
    for workload in ("single_real", "loop_binary"):
        for command in ("train", "perturb", "stability", "random-init"):
            assert (out / "new" / workload / f"{command}.stderr").read_text() == "exit 0\n"
        for name in ("checkpoint.pchn", "train.csv", "perturb.csv", "random.csv",
                     "spectrum_t0.csv"):
            assert f"{workload}/{name}" in reported
    baselines = {rel.split("/")[0] for rel in reported if rel.endswith("/baseline.csv")}
    assert baselines == {"loop_binary"}


def test_runs_that_failed_alike_fail_the_comparison(self_diff, tmp_path):
    """A run that failed on both sides leaves identical files, yet each
    side's stderr is printed and the comparison exits 1."""
    out, _ = self_diff
    failed = []
    for side in ("old", "new"):
        shutil.copytree(out / "new", tmp_path / side)
        failed.append(tmp_path / side / "loop_binary" / "perturb.stderr")
        failed[-1].write_text("exit 1\nTraceback (most recent call last):\n")
    res = _outdiff("--dirs", tmp_path / "old", tmp_path / "new")
    assert res.returncode == 1
    lines = res.stdout.splitlines()
    assert "loop_binary/perturb.stderr: identical" in lines
    for path in failed:
        at = lines.index(f"{path}: run failed")
        assert lines[at + 1:at + 3] == ["  exit 1", "  Traceback (most recent call last):"]


def test_a_checkpoint_row_nudged_by_one_ulp_is_reported(self_diff, tmp_path):
    """One weight moved to its next float: the report names that line of
    the checkpoint and its relative change, and every other file is
    identical."""
    out, _ = self_diff
    new = tmp_path / "new"
    shutil.copytree(out / "new", new)
    path = new / "loop_binary" / "checkpoint.pchn"
    lines = path.read_text().splitlines()
    # line 4 is M's first row; its entry 1 is off the diagonal
    fields = lines[3].split()
    a = float(fields[1])
    b = float(np.nextafter(a, np.inf))
    fields[1] = "%.17g" % b
    lines[3] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    res = _outdiff("--dirs", out / "old", new)
    assert res.returncode == 1
    change = f"{abs(a - b) / max(abs(a), abs(b)):.3g}"
    assert [line for line in res.stdout.splitlines() if not line.endswith(": identical")] \
        == [f"loop_binary/checkpoint.pchn: 1 line moved, largest relative change {change}",
            f"  line 4: largest relative change {change}"]
