import gc
import sys

from .cli import main


def run(argv=None):
    """The command line, as `python -m shiftpath` and the installed `shiftpath` run it.

    Runs `main` and returns its exit code, after `gc.freeze()`: the
    collections at interpreter shutdown would walk every object left
    alive, numpy's included; frozen, they are freed by reference counts
    alone, and the exit is faster.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
