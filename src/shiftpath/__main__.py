import gc
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    # the collections at interpreter shutdown would walk every object left alive, numpy's
    # included; frozen, they are freed by reference counts alone, and the exit is faster
    gc.freeze()
    sys.exit(code)
