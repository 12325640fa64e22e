"""Fixed calibration job that tracks how fast the machine runs right now.

    python3 bench/calibrate.py

The benchmark spawns this between consecutive timed processes of an
end-to-end run and scales each timing by the calibration runs on either
side of it (see run.py).  On a shared virtual machine the speed of
identical work drifts by up to 1.5x over minutes; this job drifts with
it, so the scaled timing drifts less.  Its mix follows the program's:
interpreter start and numpy import, tuple-keyed dict lookups, string
formatting and a small dense SVD.  It never changes with the program
under test.
"""

import itertools

import numpy as np


def main():
    words = list(itertools.product(range(3), repeat=9))
    for _ in range(2):
        index = {w: i for i, w in enumerate(words)}
        suffixes = [index[w[1:] + (0,)] for w in words]
        text = "\n".join(f"{i},{''.join(map(str, w))}" for i, w in zip(suffixes, words))
    matrix = np.random.default_rng(0).random((300, 300))
    for _ in range(3):
        np.linalg.svd(matrix, compute_uv=False)
    return len(text)


if __name__ == "__main__":
    main()
