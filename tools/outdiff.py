"""Compare the CLI outputs of two pchn source trees.

    python tools/outdiff.py OLD NEW [--out DIR] [-- PCHN_FLAG ...]
    python tools/outdiff.py --dirs OLD_OUT NEW_OUT

The first form runs the pipeline of each workload below under each
source tree, in fresh processes with that tree's src directory on
PYTHONPATH, at root seed 0: train, perturb, stability and random-init,
and hopfield-baseline on the binary workloads.  The flags after `--` go
to every run, after `--seed 0`, so they may override the seed too.  A
workload whose architecture and target kind, once those flags are read
(last one wins, spelled in full), are an earlier workload's would repeat
its runs: it is skipped, with one line naming the earlier one.  Each
workload writes into DIR/old/<workload> and DIR/new/<workload> (DIR
defaults to a temporary directory, removed afterwards), beside each
subcommand's stdout in <subcommand>.stdout and its exit code and stderr
in <subcommand>.stderr.  The second form compares two such directories
without running anything.

Stdout is compared with its wall= times masked, config.echo without its
output_dir line, and every other file byte for byte.  For each file the
script prints "identical", or every line that moved, with its line
number and the largest relative change of any numeric field in it.  It
prints every <subcommand>.stderr, on either side, whose run did not exit
0.  It exits 0 only when every file is identical and every run exited 0.
"""

import argparse
import difflib
import math
import os
import re
import subprocess
import sys
import tempfile

# workload: (architecture, target kind), in the order they run
WORKLOADS = {"single_real": ("Single100", "RealGaussian"),
             "loop_binary": ("Loop50_30_20", "BinarySign"),
             "single_binary": ("Single100", "BinarySign"),
             "loop_real": ("Loop50_30_20", "RealGaussian")}
STUDIES = ("train", "perturb", "stability", "random-init")

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def distinct_workloads(flags):
    """The workloads whose (architecture, target kind), with flags read
    last-wins as pchn reads them, no earlier workload has; prints one
    line for each workload left out."""
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    parser.add_argument("--architecture")
    parser.add_argument("--target_kind")
    known = parser.parse_known_args(flags)[0]
    first = {}
    for workload, (architecture, kind) in WORKLOADS.items():
        config = (known.architecture or architecture, known.target_kind or kind)
        if config in first:
            print(f"{workload}: skipped, repeats {first[config]}")
        else:
            first[config] = workload
    return list(first.values())


def run_pipelines(tree, out, workloads, flags):
    """Run each named workload's pipeline with tree's pchn into
    out/<workload>."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    for workload in workloads:
        architecture, kind = WORKLOADS[workload]
        wdir = os.path.join(out, workload)
        os.makedirs(wdir)
        commands = STUDIES + (("hopfield-baseline",) if kind == "BinarySign" else ())
        for command in commands:
            argv = [sys.executable, "-m", "pchn", command, "--out", wdir,
                    "--architecture", architecture, "--target_kind", kind, "--seed", "0",
                    *flags]
            # run from wdir, so no pchn in the working directory shadows tree's
            res = subprocess.run(argv, env=env, cwd=wdir, capture_output=True, text=True)
            with open(os.path.join(wdir, f"{command}.stdout"), "w") as fh:
                fh.write(res.stdout)
            with open(os.path.join(wdir, f"{command}.stderr"), "w") as fh:
                fh.write(f"exit {res.returncode}\n{res.stderr}")


def _files(root):
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def _text(rel, data):
    """The lines of a file as compared: stdout without its wall times,
    config.echo without its output_dir line."""
    lines = data.decode("utf-8", "replace").splitlines()
    if rel.endswith(".stdout"):
        return [re.sub(r"wall=\S*", "wall=*", line) for line in lines]
    if os.path.basename(rel) == "config.echo":
        return [line for line in lines if not line.startswith("output_dir = ")]
    return lines


def _relative_change(old, new):
    """The largest relative change of a numeric field between two lines,
    or None when their text around the numbers differs."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    worst = 0.0
    for a, b in zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            scale = max(abs(a), abs(b))
            worst = max(worst, abs(a - b) / scale if math.isfinite(scale) else math.inf)
    return worst


def moved_lines(old, new):
    """(line number, old line or None, new line or None) for each line
    that differs: paired by position when both have as many lines,
    otherwise through difflib's matching blocks."""
    if len(old) == len(new):
        return [(k + 1, a, b) for k, (a, b) in enumerate(zip(old, new)) if a != b]
    moved = []
    matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        for k in range(max(i2 - i1, j2 - j1) if tag != "equal" else 0):
            a = old[i1 + k] if i1 + k < i2 else None
            b = new[j1 + k] if j1 + k < j2 else None
            moved.append((j1 + k + 1 if b is not None else i1 + k + 1, a, b))
    return moved


def _describe(a, b):
    if a is None:
        return "only in new"
    if b is None:
        return "only in old"
    change = _relative_change(a, b)
    return "text changed" if change is None else f"largest relative change {change:.3g}"


def failed_runs(root):
    """Print each <subcommand>.stderr under root whose run did not exit 0,
    with its lines; True when there is none."""
    ok = True
    for rel in sorted(_files(root)):
        if rel.endswith(".stderr"):
            with open(os.path.join(root, rel)) as fh:
                text = fh.read()
            if not text.startswith("exit 0\n"):
                print(f"{os.path.join(root, rel)}: run failed")
                print("".join(f"  {line}\n" for line in text.splitlines()), end="")
                ok = False
    return ok


def compare(old_root, new_root):
    """Print one report per file under either root, then every failed
    run; True when every file is identical and every run exited 0."""
    same = True
    for rel in sorted(_files(old_root) | _files(new_root)):
        paths = [os.path.join(root, rel) for root in (old_root, new_root)]
        missing = [side for side, p in zip(("old", "new"), paths) if not os.path.exists(p)]
        if missing:
            print(f"{rel}: missing in {missing[0]}")
            same = False
            continue
        data = []
        for p in paths:
            with open(p, "rb") as fh:
                data.append(fh.read())
        moved = [] if data[0] == data[1] else moved_lines(*(_text(rel, d) for d in data))
        if not moved:
            print(f"{rel}: identical")
            continue
        same = False
        changes = [_relative_change(a, b) for _, a, b in moved if None not in (a, b)]
        worst = max((c for c in changes if c is not None), default=None)
        summary = f"{len(moved)} line{'s' * (len(moved) != 1)} moved"
        if worst is not None:
            summary += f", largest relative change {worst:.3g}"
        print(f"{rel}: {summary}")
        for lineno, a, b in moved:
            print(f"  line {lineno}: {_describe(a, b)}")
    # & and not `and`, so that both sides print their failed runs
    return failed_runs(old_root) & failed_runs(new_root) & same


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    flags = []
    if "--" in argv:
        cut = argv.index("--")
        argv, flags = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="source tree (or, with --dirs, output directory)")
    parser.add_argument("new", help="source tree (or, with --dirs, output directory)")
    parser.add_argument("--dirs", action="store_true",
                        help="compare two output directories of earlier runs")
    parser.add_argument("--out", help="keep the outputs in OUT/old and OUT/new")
    args = parser.parse_args(argv)
    if args.dirs:
        return 0 if compare(args.old, args.new) else 1
    workloads = distinct_workloads(flags)
    with tempfile.TemporaryDirectory() as tmp:
        # each run works in its own directory, so out must not be relative
        out = os.path.abspath(args.out or tmp)
        for side in ("old", "new"):
            run_pipelines(getattr(args, side), os.path.join(out, side), workloads, flags)
        return 0 if compare(os.path.join(out, "old"), os.path.join(out, "new")) else 1


if __name__ == "__main__":
    sys.exit(main())
