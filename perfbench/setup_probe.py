"""Set-up every CLI call pays, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <checkpoint> <json overrides>

Imports pchn, resolves the config, builds the network and the targets
and loads the checkpoint, then exits.  The caller times the whole
process, interpreter start-up included.
"""

import json
import sys


def main(argv):
    path, overrides = argv[0], json.loads(argv[1])
    from pchn.checkpoint import load_weights
    from pchn.cli import resolve_config
    from pchn.learning import freeze

    cfg = resolve_config({}, {k: str(v) for k, v in overrides.items()})
    net = cfg.build_network()
    targets = cfg.targets()
    load_weights(net, path)
    freeze(net)
    if targets.d != net.total_units:
        raise SystemExit(f"targets of length {targets.d} for {net.total_units} units")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
