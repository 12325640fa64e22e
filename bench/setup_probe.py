"""Set-up work of one CLI invocation, run in a fresh interpreter.

    python3 bench/setup_probe.py CONFIG_JSON

Imports the CLI and builds the subshift and the weight from the config,
which every subcommand does before its own work.  The benchmark times
this process from spawn to exit as `setup_s`.
"""

import sys

import shiftpath.cli  # noqa: F401  (the import cost is part of set-up)
from shiftpath.io import build_subshift_from_config, build_weight_from_config, load_config


def main(path):
    cfg = load_config(path)
    build_weight_from_config(build_subshift_from_config(cfg), cfg)


if __name__ == "__main__":
    main(sys.argv[1])
