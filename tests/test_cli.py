"""Command line behavior: outputs, exit codes, and reproducibility."""

import gc
import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import THREE_LOOPS
from shiftpath import (
    TableTooLarge,
    build_subshift,
    extremality,
    invariant,
    io,
    pathspace,
    strongly_invariant_measure,
    transfer,
)
from shiftpath.cli import main
from shiftpath.io import write_csv
from shiftpath.subshift import MAX_TABLE_DEPTH, word_string

GOLDEN_FLAT = {
    "k": 2,
    "matrix": [[1, 1], [1, 0]],
    "V": {"depth": 1, "values": {"1": 1.0, "2": 1.0}},
    "mu0": "auto",
}

FULL_HALF = {
    "k": 2,
    "matrix": [[1, 1], [1, 1]],
    "V": {"depth": 1, "values": {"1": 1.5, "2": 0.5}},
    "mu0": "auto",
    "filter": {
        "depth": 1,
        "values": {"1": [1.1180339887498949, 0.5], "2": 0.7071067811865476},
    },
}

FULL_MARKOV = {
    "k": 2,
    "matrix": [[1, 1], [1, 1]],
    "V": {
        "depth": 2,
        "values": {
            "11": 2.0 / 3.0,
            "12": 1.0,
            "21": 4.0 / 3.0,
            "22": 1.0,
        },
    },
    "mu0": "auto",
}

BLOCK_FLAT = {
    "k": 4,
    "matrix": [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
    "V": {"depth": 1, "values": {"1": 1.0, "2": 1.0, "3": 1.0, "4": 1.0}},
    "mu0": "auto",
}

DEGENERATE = {
    "k": 2,
    "matrix": [[1, 1], [1, 1]],
    "V": {"depth": 1, "values": {"1": 0.5, "2": 0.5}},
    "mu0": "auto",
}

SLOW_LEAK = {
    "k": 2,
    "matrix": [[1, 1], [1, 1]],
    "V": {"depth": 2, "values": {"11": 2.0, "21": 0.0, "12": 1e-4, "22": 2.0 - 2e-4}},
    "mu0": "auto",
}

CORRUPTED = {
    "k": 2,
    "matrix": [[1, 1], [1, 1]],
    "V": {"depth": 1, "values": {"1": 1.0, "2": 1.0}},
    "mu0": {"depth": 1, "values": {"1": 2.0, "2": 0.0}},
    "marginal_override": {
        "n": 1,
        "depth": 2,
        "masses": {"11": 0.25, "12": 0.25, "21": 0.25, "22": 0.25},
    },
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return main(args)


def load(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def test_invariant_command(tmp_path):
    cfg = write_config(tmp_path, GOLDEN_FLAT)
    code = run(["invariant", "--config", cfg, "--depth", "3", "--out", str(tmp_path)])
    assert code == 0
    report = load(tmp_path, "invariant_report.json")
    assert report["passed"]
    assert report["unique"]
    assert abs(report["symbol_masses"][0] - 2.0 / 3.0) < 1e-12
    assert report["tool"] == "shiftpath"
    assert len(report["config_sha256"]) == 64
    csv = (tmp_path / "invariant_measure.csv").read_text().splitlines()
    assert csv[0] == "word,mass"
    assert len(csv) == 1 + 5  # five admissible depth-3 words


def test_invariant_non_unique_exit(tmp_path):
    cfg = write_config(tmp_path, BLOCK_FLAT)
    code = run(["invariant", "--config", cfg, "--out", str(tmp_path)])
    assert code == 3
    report = load(tmp_path, "invariant_report.json")
    assert not report["unique"]


def test_fixpoint_command(tmp_path):
    cfg = write_config(tmp_path, FULL_HALF)
    code = run(["fixpoint", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = load(tmp_path, "fixpoint_report.json")
    assert report["status"] == "converged"
    assert report["residual"] <= 1e-10
    lines = (tmp_path / "fixed_function.csv").read_text().splitlines()
    assert lines[0] == "word,value"
    nu_lines = (tmp_path / "fixed_functional.csv").read_text().splitlines()
    # nu is 3/4 on word 1 to one ulp: the iterated vector is 0.7499999999999999
    word, mass = nu_lines[1].split(",")
    assert word == "1" and abs(float(mass) - 0.75) <= 2.0**-53


def test_fixpoint_builds_one_operator_and_one_class_search(tmp_path, monkeypatch):
    """h and nu come from one operator matrix and one search for its kept classes."""
    calls = []
    for name in ("_operator_matrix", "_kept_classes"):
        inner = getattr(transfer, name)
        monkeypatch.setattr(transfer, name,
                            lambda *a, _name=name, _inner=inner: calls.append(_name) or _inner(*a))
    cfg = write_config(tmp_path, FULL_MARKOV)
    assert run(["fixpoint", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert calls == ["_operator_matrix", "_kept_classes"]


def test_fixpoint_degenerate_exit(tmp_path):
    cfg = write_config(tmp_path, DEGENERATE)
    code = run(["fixpoint", "--config", cfg, "--out", str(tmp_path)])
    assert code == 4
    report = load(tmp_path, "fixpoint_report.json")
    assert report["status"] == "degenerate"


def test_fixpoint_solves_a_slowly_leaking_word(tmp_path):
    """Word 2 keeps 1 - 1e-4 of its mass per step, so T^n 1 nears h there only by that factor per step.

    The two bounds of the iteration close by that factor too, so h takes the LU fallback.
    """
    cfg = write_config(tmp_path, SLOW_LEAK)
    before = invariant.SOLVE_COUNTS["lu"]
    code = run(["fixpoint", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    assert invariant.SOLVE_COUNTS["lu"] > before
    report = load(tmp_path, "fixpoint_report.json")
    assert report["status"] == "converged"
    assert "iterations" not in report
    assert report["min_h"] == pytest.approx(0.5, abs=1e-12)


def test_verify_command_clean(tmp_path):
    cfg = write_config(tmp_path, FULL_HALF)
    code = run(["verify", "--config", cfg, "--depth", "3", "--out", str(tmp_path)])
    assert code == 0
    report = load(tmp_path, "verify_report.json")
    assert report["passed"]
    for key in (
        "base_fixed_point",
        "strong_invariance",
        "marginal_consistency",
        "quasi_invariance",
        "mass_conservation",
        "weight_pushforward",
        "isometry",
    ):
        assert report["residuals"][key] <= 1e-12, key


def test_verify_corrupted_fixture(tmp_path):
    cfg = write_config(tmp_path, CORRUPTED)
    code = run(
        ["verify", "--config", cfg, "--depth", "1", "--steps", "2", "--out", str(tmp_path)]
    )
    assert code == 1
    report = load(tmp_path, "verify_report.json")
    assert not report["passed"]
    assert report["worst_residual"] >= 0.1


def test_sample_command(tmp_path):
    cfg = write_config(tmp_path, FULL_MARKOV)
    code = run(
        [
            "sample",
            "--config",
            cfg,
            "--depth",
            "2",
            "--steps",
            "2",
            "--samples",
            "2000",
            "--seed",
            "6",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = load(tmp_path, "sample_report.json")
    assert report["passed"]
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0] == "sample_id,base_word,prepends"
    assert len(lines) == 2001
    sid, base, prep = lines[1].split(",")
    assert sid == "0" and len(base) == 2 and len(prep) == 2


def test_sample_zero_mass_exit(tmp_path):
    cfg = write_config(tmp_path, CORRUPTED)
    code = run(
        [
            "sample",
            "--config",
            cfg,
            "--depth",
            "1",
            "--steps",
            "5",
            "--samples",
            "64",
            "--tol",
            "1.0",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 5


def test_sample_zero_mass_exit_with_two_workers(tmp_path):
    """An error raised while two threads sample still exits 5, and no samples.csv is written."""
    cfg = write_config(tmp_path, CORRUPTED)
    argv = ["sample", "--config", cfg, "--depth", "1", "--steps", "5", "--samples", "64",
            "--tol", "1.0", "--workers", "2", "--out", str(tmp_path)]
    assert run(argv) == 5
    assert not (tmp_path / "samples.csv").exists()


def test_sample_gate_rejects_bad_base(tmp_path):
    """Without a loose tolerance the corrupted base fails the gate first."""
    cfg = write_config(tmp_path, CORRUPTED)
    code = run(
        ["sample", "--config", cfg, "--depth", "1", "--steps", "2", "--out", str(tmp_path)]
    )
    assert code == 1


def test_ergodicity_command_extremal(tmp_path):
    cfg = write_config(tmp_path, FULL_HALF)
    code = run(["ergodicity", "--config", cfg, "--depth", "2", "--out", str(tmp_path)])
    assert code == 0
    report = load(tmp_path, "ergodicity_report.json")
    assert report["extremal"]
    assert report["solution_dim"] == 1
    assert report["decomposition"] is None


def test_ergodicity_command_decomposes(tmp_path):
    cfg = write_config(tmp_path, BLOCK_FLAT)
    code = run(["ergodicity", "--config", cfg, "--depth", "1", "--out", str(tmp_path)])
    assert code == 6
    report = load(tmp_path, "ergodicity_report.json")
    assert report["solution_dim"] == 2
    assert report["closed_classes"] == [2, 2]
    decomposition = report["decomposition"]
    assert decomposition["weights"] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert decomposition["lambda"] == decomposition["weights"][0]
    assert decomposition["component_masses"] == pytest.approx([1.0, 1.0], abs=1e-12)
    c1 = (tmp_path / "component_1.csv").read_text().splitlines()
    c2 = (tmp_path / "component_2.csv").read_text().splitlines()
    assert c1[0] == "word,mass" and len(c1) == 5 and len(c2) == 5
    assert [float(line.split(",")[1]) for line in c1[1:]] == pytest.approx([0.5, 0.5, 0, 0], abs=1e-12)
    assert [float(line.split(",")[1]) for line in c2[1:]] == pytest.approx([0, 0, 0.5, 0.5], abs=1e-12)
    assert not (tmp_path / "component_3.csv").exists()


def test_ergodicity_splits_a_base_of_small_total_mass(tmp_path):
    """BLOCK4's flat base at density 1e-13 splits into its two blocks, of weight 1/2 each, as at density 1.

    Masses are read as given, so a total far below 1 keeps its support.
    """
    cfg = write_config(tmp_path, dict(BLOCK_FLAT, mu0={
        "depth": 1, "values": {symbol: 1e-13 for symbol in "1234"}}))
    code = run(["ergodicity", "--config", cfg, "--depth", "2", "--out", str(tmp_path)])
    assert code == 6
    report = load(tmp_path, "ergodicity_report.json")
    assert report["conditioning_depth"] == 1 and report["closed_classes"] == [2, 2]
    assert report["decomposition"]["weights"] == pytest.approx([0.5, 0.5], abs=1e-12)
    # each component has the base's own total mass
    assert report["decomposition"]["component_masses"] == pytest.approx([1e-13, 1e-13], rel=1e-12, abs=0)


def test_ergodicity_certifies_a_base_on_one_block(tmp_path):
    """BLOCK4's base on the block {1, 2} alone is ergodic: exit 0, one class, no component.

    The words of the uncharged block are null; each was once a closed
    class and a free dimension, for solution_dim 9 and exit 6 at depth 3.
    The class is counted at the conditioning depth 1.
    """
    cfg = write_config(tmp_path, dict(BLOCK_FLAT, mu0={
        "depth": 1, "values": {"1": 2.0, "2": 2.0, "3": 0.0, "4": 0.0}}))
    code = run(["ergodicity", "--config", cfg, "--depth", "3", "--out", str(tmp_path)])
    assert code == 0
    report = load(tmp_path, "ergodicity_report.json")
    assert report["solution_dim"] == 1 and report["extremal"]
    assert report["closed_classes"] == [2]
    assert report["decomposition"] is None
    assert not list(tmp_path.glob("component_*.csv"))


def three_loops_config(tmp_path):
    """THREE_LOOPS with its solved base, as a config file."""
    matrix, values = THREE_LOOPS
    words = ("".join(map(str, w)) for w in itertools.product(range(1, 5), repeat=3))
    return write_config(tmp_path, {"k": 4, "matrix": matrix, "mu0": "auto",
                                   "V": {"depth": 3, "values": dict(zip(words, values))}})


def test_ergodicity_splits_three_loops_that_one_fibre_ties(tmp_path):
    """Three loops that one depth-1 fibre ties are three components: exit 6, three depth-1 CSVs.

    The split is decided at the conditioning depth 2, where each loop is a
    closed class; the tie among functions of the first symbol once left
    two dimensions at --depth 1.  The CSVs hold the masses at --depth.
    """
    cfg = three_loops_config(tmp_path)
    code = run(["ergodicity", "--config", cfg, "--depth", "1", "--out", str(tmp_path)])
    assert code == 6
    report = load(tmp_path, "ergodicity_report.json")
    assert report["solution_dim"] == 3 and not report["extremal"]
    assert report["depth"] == 1 and report["conditioning_depth"] == 2
    assert report["closed_classes"] == [1, 1, 1]
    assert report["decomposition"]["weights"] == pytest.approx([0.3125, 0.3125, 0.375], abs=1e-12)
    written = sorted(tmp_path.glob("component_*.csv"))
    assert [p.name for p in written] == ["component_1.csv", "component_2.csv", "component_3.csv"]
    assert all(len(p.read_text().splitlines()) == 5 for p in written)


def test_ergodicity_factorises_nothing_at_the_conditioning_depth(tmp_path, monkeypatch):
    """Neither numpy's QR nor its SVD runs, at the conditioning depth or below it.

    On the seed-201 ergodicity-split bench config the request is the
    conditioning depth; on THREE_LOOPS, --depth 1 is below its
    conditioning depth 2, where a fibre null space once ran.  The
    components are the absorption columns themselves, so no split needs
    an orthonormal basis.
    """
    workload = _load_bench_workloads().generate("ergodicity-split", 201, str(tmp_path))
    loops = three_loops_config(tmp_path)
    calls = []
    for name in ("qr", "svd"):
        factor = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _name=name, _factor=factor, **k: calls.append(_name) or _factor(*a, **k))
    for argv, dim in ((workload.argv, 2), (["ergodicity", "--config", loops, "--depth", "1"], 3)):
        out = tmp_path / f"out{dim}"
        assert run([*argv, "--out", str(out)]) == 6
        assert calls == []
        report = load(out, "ergodicity_report.json")
        assert report["solution_dim"] == dim
        assert sum(report["decomposition"]["weights"]) == pytest.approx(1.0, abs=1e-12)
        assert len(list(out.glob("component_*.csv"))) == dim


def block_split(seed, depth=10):
    """BLOCK4 with a depth-`depth` weight whose two branches average exactly 1.

    Each pair of branches splits 2 into multiples of 1/64, so the float
    sums are exact and both blocks are closed classes that keep their mass.
    """
    shift = build_subshift(BLOCK_FLAT["matrix"])
    units = np.random.default_rng(seed).integers(8, 121, shift.word_count(depth - 1))
    suffix = shift.suffix_indices(depth)
    first = np.zeros(len(suffix), dtype=bool)
    first[np.unique(suffix, return_index=True)[1]] = True
    values = np.where(first, units[suffix], 128 - units[suffix]) / 64.0
    table = {word_string(w): float(x) for w, x in zip(shift.words(depth), values)}
    return dict(BLOCK_FLAT, V={"depth": depth, "values": table})


def test_verify_runs_at_the_depth_of_its_inputs(tmp_path):
    """BLOCK4 with a depth-13 weight verifies at depth 12: the orbit masses need no depth-21 table."""
    cfg = write_config(tmp_path, block_split(0, depth=13))
    code = run(["verify", "--config", cfg, "--depth", "12", "--steps", "2", "--out", str(tmp_path)])
    assert code == 0
    report = load(tmp_path, "verify_report.json")
    assert report["passed"]
    assert report["residuals"]["mass_conservation"] <= report["tolerance"]


def files_in(out):
    """The files of an output directory, by name."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def run_at_blas_threads(threads, argv):
    """A Python run of argv at `threads` BLAS threads, with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OPENBLAS_NUM_THREADS=threads)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def written_at_blas_threads(tmp_path, argv, code):
    """The files a subcommand writes at one and at two BLAS threads, each run exiting `code`."""
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = run_at_blas_threads(threads, ["-m", "shiftpath", *argv, "--out", str(out)])
        assert proc.returncode == code, proc.stderr
        written.append(files_in(out))
    return written


# nu of two random 128-state blocks joined by steps of 1e-9, and h of the same chain when
# each row keeps 1 - 1e-6 of its mass and sends a random part of the rest into a closed
# state; prints [LU solves run, sha256 of nu, sha256 of h]
WEAK_JOIN_PROBE = """
import hashlib, json
import numpy as np
from shiftpath import invariant
from shiftpath.invariant import Chain, _stationary_vector, absorption

def chain_of(steps):
    rows, cols = np.nonzero(steps)
    return Chain(np.r_[0, np.cumsum(np.bincount(rows, minlength=len(steps)))], cols, steps[rows, cols])

half, rng = 128, np.random.default_rng(0)
n = 2 * half
steps = np.zeros((n, n))
for lo in (0, half):
    steps[lo:lo + half, lo:lo + half] = rng.random((half, half))
steps *= (1.0 - 1e-9) / steps.sum(axis=1, keepdims=True)
steps[np.arange(n), (np.arange(n) + half) % n] += 1e-9
nu = _stationary_vector(chain_of(steps), np.arange(n))
leaky = np.zeros((n + 1, n + 1))
leaky[:n, :n] = steps * (1.0 - 1e-6)
leaky[:n, n] = 1e-6 * rng.random(n)
leaky[n, n] = 1.0
h = absorption(chain_of(leaky), [np.array([n])], np.ones((1, 1)))
print(json.dumps([invariant.SOLVE_COUNTS["lu"], hashlib.sha256(nu.tobytes()).hexdigest(),
                  hashlib.sha256(h.tobytes()).hexdigest()]))
"""


def test_lu_fallbacks_keep_their_bytes_at_any_blas_thread_count():
    """nu across a weak join and h along a slow leak, on 256 states, have the same bits at 1 and 2 threads.

    Both iterations give up, so both vectors come from the LU fallback,
    whose bits once followed the BLAS thread count on chains this large.
    """
    solved = []
    for threads in ("1", "2"):
        proc = run_at_blas_threads(threads, ["-c", WEAK_JOIN_PROBE])
        assert proc.returncode == 0, proc.stderr
        solved.append(json.loads(proc.stdout))
    assert solved[0][0] == 2
    assert solved[0] == solved[1]


def test_ergodicity_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The decomposition of a solved base writes the same files at one and at two BLAS threads."""
    cfg = write_config(tmp_path, block_split(0))
    written = written_at_blas_threads(tmp_path, ["ergodicity", "--config", cfg, "--depth", "9"], 6)
    assert written[0] == written[1]


def _load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixpoint_bytes_do_not_depend_on_blas_threads(tmp_path):
    """`fixpoint` on the seed-201 ergodicity-split bench config writes the same bytes at 1 and 2 threads.

    Its kept class has 512 words, where nu was once one dense LU whose
    bits followed the BLAS thread count; it is iterated by `Chain` products.
    """
    workload = _load_bench_workloads().generate("ergodicity-split", 201, str(tmp_path))
    written = written_at_blas_threads(tmp_path, ["fixpoint", "--config", workload.config], 0)
    assert written[0] == written[1]


BENCH_WORKLOADS = ("verify-deep", "sample-stream", "ergodicity-split", "invariant-wide")


@pytest.mark.parametrize("name", BENCH_WORKLOADS)
def test_no_bench_command_reaches_the_lu(tmp_path, monkeypatch, name):
    """Each seed-201 bench config runs its command with `invariant._lu_solve` refusing every call.

    Their fixed vectors are all iterated, so no command reaches the LU fallback.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("invariant._lu_solve was called")

    monkeypatch.setattr(invariant, "_lu_solve", refuse)
    workload = _load_bench_workloads().generate(name, 201, str(tmp_path))
    assert run([*workload.argv, "--out", str(tmp_path / "out")]) == workload.expected_exit


def test_verify_bytes_do_not_depend_on_blas_threads(tmp_path):
    """`verify` on the seed-201 verify-deep bench config writes the same bytes at 1 and 2 threads."""
    workload = _load_bench_workloads().generate("verify-deep", 201, str(tmp_path))
    written = written_at_blas_threads(tmp_path, workload.argv, 0)
    assert written[0] == written[1]


EDGE_COMMANDS = (
    ("fixpoint",),
    ("verify", "--depth", "2", "--steps", "2"),
    ("ergodicity", "--depth", "1"),
    ("sample", "--samples", "1000", "--depth", "1", "--steps", "1"),
)


@pytest.mark.parametrize("eps, code", [(-1e-11, 4), (5e-13, 0), (1e-11, 2)])
def test_commands_agree_at_the_normalization_edge(tmp_path, eps, code):
    """A constant weight 1 + eps on the full 2-shift gets one verdict from every command.

    Below 1 - NORMALIZED_SLACK the class loses mass and h is 0 (exit 4),
    within the slack it keeps it (exit 0), above 1 + NORMALIZED_SLACK the
    weight is not sub-normalized (exit 2).
    """
    weight = {"depth": 1, "values": {"1": 1 + eps, "2": 1 + eps}}
    cfg = write_config(tmp_path, dict(DEGENERATE, V=weight))
    codes = [run([*command, "--config", cfg, "--out", str(tmp_path)]) for command in EDGE_COMMANDS]
    assert codes == [code] * len(EDGE_COMMANDS)


def test_config_errors_exit_two(tmp_path, capsys):
    bad = dict(GOLDEN_FLAT)
    bad["V"] = {"depth": 1, "values": {"1": 1.0}}  # missing word "2"
    cfg = write_config(tmp_path, bad)
    assert run(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert run(["fixpoint", "--config", cfg, "--out", str(tmp_path)]) == 2

    inadmissible = dict(GOLDEN_FLAT)
    inadmissible["V"] = {"depth": 2, "values": {"11": 1, "12": 1, "21": 1, "22": 1}}
    cfg = write_config(tmp_path, inadmissible)
    assert run(["fixpoint", "--config", cfg, "--out", str(tmp_path)]) == 2

    assert run(["fixpoint", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json")
    assert run(["fixpoint", "--config", str(not_json), "--out", str(tmp_path)]) == 2

    # bytes that are not UTF-8, nesting too deep for the parser, an integer past the digit limit
    capsys.readouterr()
    for data in (b"\xff\xfe", b"[" * 200000 + b"]" * 200000, b'{"seed": ' + b"1" * 5000 + b"}"):
        not_json.write_bytes(data)
        assert run(["invariant", "--config", str(not_json), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("shiftpath: config error: config is not valid JSON")

    zero_col = dict(GOLDEN_FLAT)
    zero_col["matrix"] = [[1, 0], [1, 0]]
    cfg = write_config(tmp_path, zero_col)
    assert run(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "values, named",
    [
        ({"1": 1.0}, "e.g. 2"),  # a missing word
        ({"11": 1, "12": 1, "21": 1, "22": 1}, "word 22 "),  # an inadmissible word
        ({"1": 1, "3": 1}, "word 3 "),  # a symbol outside 1..k
        ({"1": 1, "2": 1, "x": 1}, "'x'"),
        ({"1": 1, "22": 1}, "'22'"),  # a word of another depth
        ({"1": 1, "\u0662": 1}, "'\u0662'"),  # a digit that is not 0-9
        ({"1": 1, "2": float("nan")}, "value for '2'"),  # JSON's NaN and infinities
        ({"1": 1, "2": float("inf")}, "value for '2'"),
        ({"1": 1, "2": float("-inf")}, "value for '2'"),
    ],
)
def test_table_errors_name_the_word(tmp_path, capsys, values, named):
    cfg = dict(GOLDEN_FLAT)
    cfg["V"] = {"depth": len(next(iter(values))), "values": values}
    assert run(["fixpoint", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch, named",
    [
        ({"k": 2.9}, "integer k, not 2.9"),  # not truncated to 2
        ({"k": "2"}, "integer k, not '2'"),
        ({"k": True}, "integer k, not True"),
        ({"V": {"depth": 1.7, "values": {"1": 1.5, "2": 0.5}}}, "integer depth, not 1.7"),
        ({"V": {"depth": True, "values": {"1": 1.5, "2": 0.5}}}, "integer depth, not True"),
        ({"V": {"depth": "1", "values": {"1": 1.5, "2": 0.5}}}, "integer depth, not '1'"),
        ({"marginal_override": {"n": 0.5, "depth": 1, "masses": {"1": 0.5, "2": 0.5}}},
         "integer n, not 0.5"),  # not level 0
        ({"matrix": [[1, 1], [1]]}, "bad transition matrix"),  # ragged
        ({"mu0": {"depth": 1, "values": {"1": float("nan"), "2": 1.0}}}, "value for '1'"),
        # either part of a complex pair
        ({"filter": {"depth": 1, "values": {"1": [1.0, float("nan")], "2": 0.5}}}, "value for '1'"),
    ],
)
def test_config_numbers_exit_two_naming_the_key(tmp_path, capsys, patch, named):
    """Integer fields are not cast from floats, bools or strings, and no value is NaN or infinite."""
    cfg = write_config(tmp_path, {**FULL_HALF, **patch})
    argv = ["verify", "--config", cfg, "--depth", "2", "--steps", "2", "--out", str(tmp_path)]
    assert run(argv) == 2
    assert named in capsys.readouterr().err


ZERO_MASS_MU0 = {
    "k": 2,
    "matrix": [[1, 1], [1, 1]],
    "V": {"depth": 1, "values": {"1": 1.0, "2": 1.0}},
    "mu0": {"depth": 1, "values": {"1": 0.0, "2": 0.0}},
}

# h is 1 on the closed class {2}, while the invariant measure lives on the word 1...1
# alone (word 2 is never followed by 1), so the solved base h d(rho) has no mass
NO_MASS_AUTO = {
    "k": 2,
    "matrix": [[1, 1], [0, 1]],
    "V": {"depth": 2, "values": {"11": 0.0, "12": 0.0, "22": 2.0}},
    "mu0": "auto",
}

CONFIG_ERROR = "shiftpath: config error:"
NO_MASS = "shiftpath: degenerate fixed density:"
EDGE_CONFIGS = [
    *(pytest.param(NO_MASS_AUTO, command, 4, NO_MASS, id=f"auto-no-mass-{command}")
      for command in ("verify", "sample", "ergodicity")),
    *(pytest.param(ZERO_MASS_MU0, command, 2, CONFIG_ERROR, id=f"zero-mu0-{command}")
      for command in ("verify", "sample", "ergodicity")),
    # the solved base h = 1, of mass 1e-318 (subnormal) and 1e-310 (below 2.2e-308, normal's limit)
    *(pytest.param(dict(FULL_HALF, mu0={"depth": 1, "values": {"1": scale, "2": scale}}),
                   command, 2, CONFIG_ERROR, id=f"subnormal-{scale:g}-{command}")
      for scale in (1e-318, 1e-310) for command in ("verify", "sample", "ergodicity")),
    pytest.param(DEGENERATE, "verify", 4, NO_MASS, id="h-zero"),
    pytest.param(dict(FULL_HALF, V={"depth": 1, "values": {"1": 1.5, "2": -0.5}}),
                 "verify", 2, CONFIG_ERROR, id="negative-V"),
    pytest.param(dict(FULL_HALF, marginal_override={"n": 1, "depth": 1,
                                                    "masses": {"1": 0.5, "2": -0.5}}),
                 "verify", 2, CONFIG_ERROR, id="negative-override"),
]


@pytest.mark.parametrize("config, command, code, prefix", EDGE_CONFIGS)
def test_edge_configs_exit_with_one_line(tmp_path, config, command, code, prefix):
    """A base of no mass or a config that breaks an input rule exits with its code.

    The one stderr line names the kind of error; there is no traceback and
    no report.  A configured mu0 of no mass, or of a mass below the
    normal float64 range, is a config error (2); a solved
    base of no mass and a zero h are degenerate (4), refused by the
    fixed-point gate and by the solve for h.
    """
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "shiftpath", command, "--config", cfg, "--depth", "2",
         "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1, proc.stderr
    assert not list(out.glob("*_report.json"))


def test_oversized_depth_exits_two_before_allocating(tmp_path):
    """The 2**40 depth-40 words exceed the table limit; nothing that size is built."""
    cfg = write_config(tmp_path, FULL_HALF)
    tracemalloc.start()
    try:
        code = run(["invariant", "--config", cfg, "--depth", "40", "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**23
    assert not (tmp_path / "invariant_report.json").exists()


CYCLE2 = {
    "k": 2,
    "matrix": [[0, 1], [1, 0]],
    "V": {"depth": 1, "values": {"1": 1.0, "2": 1.0}},
    "mu0": "auto",
}


def test_a_depth_above_the_depth_bound_exits_two_before_any_table(tmp_path):
    """The 2-cycle has 2 words at every depth: depth 2000 runs, and one above MAX_TABLE_DEPTH is refused unbuilt.

    Each level of a table keeps about 1.4 KiB whatever its word count,
    so only the depth bound keeps, say, depth 10**7 from taking 14 GiB.
    """
    cfg = write_config(tmp_path, CYCLE2)
    assert run(["invariant", "--config", cfg, "--depth", "2000", "--out", str(tmp_path / "2000")]) == 0
    tracemalloc.start()
    try:
        code = run(["invariant", "--config", cfg, "--depth", str(MAX_TABLE_DEPTH + 1), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**23
    assert not (tmp_path / "invariant_report.json").exists()


FULL3_FLAT = {
    "k": 3,
    "matrix": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    "V": {"depth": 1, "values": {"1": 1.0, "2": 1.0, "3": 1.0}},
    "mu0": "auto",
}


def table_cap_message():
    """The `TableTooLarge` message for depth 14 of the full 3-shift, its first table above the cap."""
    with pytest.raises(TableTooLarge) as refused:
        build_subshift(np.ones((3, 3), dtype=int)).word_count(14)
    return str(refused.value)


def test_invariant_at_depth_14_of_the_full_3_shift_is_refused_before_any_table(tmp_path, capsys):
    cfg = write_config(tmp_path, FULL3_FLAT)
    message = table_cap_message()
    tracemalloc.start()
    try:
        code = run(["invariant", "--config", cfg, "--depth", "14", "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"shiftpath: {message}\n"
    assert peak < 2**23
    assert not (tmp_path / "invariant_report.json").exists()


def test_ergodicity_at_depth_13_costs_the_conditioning_depth(tmp_path):
    """The flat full 3-shift is decided at its conditioning depth 1: --depth 13 builds no depth-13 walk.

    Its one component writes no CSV, and the table-cap check counts the
    request's words without building their table, so the peak stays
    under 8 MiB; that table alone once took about 50 MiB, and the
    depth-13 walk and its tables several times that, and exit 2 at the cap.
    """
    cfg = write_config(tmp_path, FULL3_FLAT)
    tracemalloc.start()
    try:
        code = run(["ergodicity", "--config", cfg, "--depth", "13", "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**23
    report = load(tmp_path, "ergodicity_report.json")
    assert report["depth"] == 13 and report["conditioning_depth"] == 1
    assert report["closed_classes"] == [3] and report["extremal"]


def test_ergodicity_refuses_a_request_above_the_cap(tmp_path, capsys):
    """--depth 14 exits 2 with the cap's message before any table is built."""
    cfg = write_config(tmp_path, FULL3_FLAT)
    tracemalloc.start()
    try:
        code = run(["ergodicity", "--config", cfg, "--depth", "14", "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"shiftpath: {table_cap_message()}\n"
    assert peak < 2**23
    assert not (tmp_path / "ergodicity_report.json").exists()


def readme_example():
    """README's one JSON config and its command lines, each split into arguments."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    config = json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])
    return config, [line.split()[1:] for line in text.splitlines() if line.startswith("shiftpath ")]


def io_docstring_config():
    """The config shown in the module docstring of `shiftpath.io`."""
    doc = io.__doc__
    return json.loads(doc[doc.index("    {"):doc.index("    }") + len("    }")])


@pytest.mark.parametrize("source", ["README", "io docstring"])
def test_documented_configs_pass_every_readme_command(tmp_path, source):
    config, commands = readme_example()
    if source == "io docstring":
        config = io_docstring_config()
    cfg = write_config(tmp_path, config, "cfg.json")
    assert [argv[0] for argv in commands] == ["invariant", "fixpoint", "verify", "sample", "ergodicity"]
    for argv in commands:
        argv = [cfg if arg == "cfg.json" else arg for arg in argv]
        assert run(argv + ["--out", str(tmp_path / argv[0])]) == 0, argv


def test_a_base_of_large_total_mass_passes_the_fixed_point_pre_check(tmp_path):
    """README's weight, with no filter, on a fixed base of density 1e13 on each symbol.

    Its fixed-point residual is rounding at the base's scale, about 1e-3,
    and the pre-check's tol is relative to the base's total mass.
    """
    config = {key: value for key, value in readme_example()[0].items() if key != "filter"}
    cfg = write_config(tmp_path, dict(config, mu0={"depth": 1, "values": {"1": 1e13, "2": 1e13}}))
    for argv in (["sample", "--samples", "1000", "--depth", "2"], ["ergodicity", "--depth", "2"]):
        assert run(argv + ["--config", cfg, "--out", str(tmp_path / argv[0])]) == 0, argv


# a depth-3 base on the full 2-shift with weight 1, fixed at depth 2 and not at depth 3:
# 1/4 more density on 121 and 212 keeps every depth-2 mass equal to its preimage sum
FIXED_ONLY_AT_DEPTH_2 = {
    "k": 2,
    "matrix": [[1, 1], [1, 1]],
    "V": {"depth": 1, "values": {"1": 1.0, "2": 1.0}},
    "mu0": {"depth": 3, "values": {"".join(w): 1.25 if "".join(w) in ("121", "212") else 1.0
                                   for w in itertools.product("12", repeat=3)}},
}


def test_every_command_refuses_a_base_fixed_only_below_its_depth(tmp_path, capsys):
    """`ergodicity` at depths 1 and 2 refuses the base with the residual `sample` reports.

    The one gate checks at the density's depth, 3, whatever depth is asked for.
    """
    cfg = write_config(tmp_path, FIXED_ONLY_AT_DEPTH_2)
    messages = []
    for argv in (["sample", "--samples", "1000", "--depth", "2"], ["verify"],
                 ["ergodicity", "--depth", "1"], ["ergodicity", "--depth", "2"],
                 ["ergodicity", "--depth", "3"]):
        assert run(argv + ["--config", cfg, "--out", str(tmp_path / argv[0])]) == 1, argv
        messages.append(capsys.readouterr().err)
    assert messages[0] == ("shiftpath: not a fixed point: "
                           "fixed-point residual 1.562e-02 exceeds tolerance 1.1e-10\n")
    assert messages[2:] == messages[:1] * 3
    assert load(tmp_path / "verify", "verify_report.json")["residuals"]["base_fixed_point"] == (
        pytest.approx(0.015625 / 1.0625, rel=1e-12))


def test_invariant_memory_holds_no_word_matrix(tmp_path):
    """Depth 11 on the full 3-shift (177147 words) without an (n, depth) symbol matrix.

    With the matrix cached and the word column built whole, the peak was 48 MiB;
    with masses walked up from each word's last symbol and 65536-row CSV
    blocks, 17.7 MiB; with one-byte symbols and 8192-row CSV blocks,
    13.5 MiB; with parent arrays that own their memory and level passes
    in row blocks, 8.3 MiB.
    """
    cfg = write_config(tmp_path, {"k": 3, "matrix": [[1, 1, 1]] * 3})
    tracemalloc.start()
    try:
        code = run(["invariant", "--config", cfg, "--depth", "11", "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 10 * 2**20


def test_oversized_sample_exits_two_before_allocating(tmp_path):
    """10**10 samples of 3 + 6 symbols exceed the sample cap; no uniform or batch array is built."""
    cfg = write_config(tmp_path, FULL_HALF)
    tracemalloc.start()
    try:
        code = run(["sample", "--config", cfg, "--samples", str(10**10), "--steps", "6",
                    "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**23
    assert not (tmp_path / "samples.csv").exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("invariant", "--max-iter"),
        ("invariant", "--steps"),
        ("fixpoint", "--max-iter"),
        ("ergodicity", "--max-iter"),
        ("fixpoint", "--depth"),
        ("fixpoint", "--tol"),
        ("verify", "--samples"),
        ("ergodicity", "--seed"),
        ("ergodicity", "--workers"),
    ],
)
def test_subcommands_reject_flags_they_do_not_read(tmp_path, command, flag):
    cfg = write_config(tmp_path, FULL_HALF)
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", cfg, flag, "1", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("invariant", "--depth", "0"),
        ("verify", "--depth", "0"),
        ("ergodicity", "--depth", "0"),
        ("sample", "--depth", "0"),
        ("verify", "--steps", "-1"),
        ("sample", "--steps", "-1"),
        ("sample", "--samples", "0"),
        ("sample", "--workers", "0"),
        ("sample", "--workers", "-3"),
        ("sample", "--seed", "-1"),
        ("invariant", "--tol", "nan"),
        ("invariant", "--tol", "inf"),
        ("verify", "--tol", "-1e-9"),
    ],
)
def test_out_of_range_flags_exit_two(tmp_path, command, flag, value):
    cfg = write_config(tmp_path, FULL_HALF)
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", cfg, flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.glob("*_report.json"))


def test_verify_zero_steps_checks_no_levels(tmp_path):
    cfg = write_config(tmp_path, FULL_HALF)
    code = run(["verify", "--config", cfg, "--steps", "0", "--out", str(tmp_path)])
    assert code == 0
    report = load(tmp_path, "verify_report.json")
    assert report["levels_checked"] == 0
    assert report["residuals"]["marginal_consistency"] == 0.0


def test_sample_too_few_samples_exits_two(tmp_path):
    cfg = write_config(tmp_path, FULL_MARKOV)
    code = run(["sample", "--config", cfg, "--samples", "50", "--out", str(tmp_path)])
    assert code == 2
    assert not (tmp_path / "sample_report.json").exists()


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call to module.name, through every package binding."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "shiftpath":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize(
    "argv, cfg, module, name, expected_code, expected_calls",
    [
        pytest.param(
            ["sample", "--samples", "2000", "--steps", "2", "--seed", "6"],
            FULL_MARKOV, pathspace, "sample_paths", 0, 1, id="sample",
        ),
        pytest.param(
            ["ergodicity", "--depth", "1"],
            BLOCK_FLAT, extremality, "relative_ergodicity_dimension", 6, 1, id="ergodicity",
        ),
        pytest.param(
            ["ergodicity", "--depth", "1"],
            BLOCK_FLAT, io, "build_weight_from_config", 6, 1, id="ergodicity-weight",
        ),
        pytest.param(
            ["verify", "--depth", "3"],
            FULL_HALF, transfer, "check_weight_pushforward", 0, 0, id="verify",
        ),
    ],
)
def test_each_result_is_computed_once(
    tmp_path, monkeypatch, argv, cfg, module, name, expected_code, expected_calls
):
    calls = count_calls(monkeypatch, module, name)
    path = write_config(tmp_path, cfg)
    assert run(argv + ["--config", path, "--out", str(tmp_path)]) == expected_code
    assert len(calls) == expected_calls


def assert_same_lines(path, expected):
    """The file's text is expected; a failure names the first differing row, not a diff."""
    got, want = path.read_text().split("\n"), expected.split("\n")
    row = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert row is None, f"row {row}: {got[row]!r} != {want[row]!r}"
    assert len(got) == len(want), f"{len(got)} lines written, {len(want)} expected"


def per_row_text(header, *columns):
    """The CSV text of the columns, formatted one cell at a time."""

    def cell(x):
        if isinstance(x, np.ndarray):
            return word_string(x)
        if isinstance(x, (np.integer, int)):
            return str(int(x))
        return repr(float(x))

    rows = zip(*columns, strict=True)
    return ",".join(header) + "\n" + "".join(",".join(map(cell, r)) + "\n" for r in rows)


BLOCK = io.CSV_BLOCK_ROWS
INT64 = np.iinfo(np.int64)
EDGES = np.array([0, 9, 10, 99, 100, -1, -9, -10, -99, -100, INT64.min, INT64.max])


def csv_edge_cases():
    """(name, columns) pairs at the edges of the byte-matrix renderer."""
    rng = np.random.default_rng(5)
    digits = rng.integers(1, 10, size=(BLOCK + 20, 3))
    return [
        ("integer edges", (EDGES, np.tile([[1, 2]], (len(EDGES), 1)))),
        ("int32 and uint64 extremes",
         (np.array([-(2**31), 2**31 - 1, 0], dtype=np.int32),
          np.array([0, 2**63, 2**64 - 1], dtype=np.uint64))),
        # one digit up to the block boundary, then 19 digits and a sign: a sign place
        # is taken only by a block that holds a negative value
        ("width change across the block boundary",
         (np.r_[np.full(BLOCK, 7), EDGES], digits[: BLOCK + len(EDGES)])),
        ("sign place in the first block only", (np.r_[EDGES, np.full(BLOCK, 7)],)),
        ("width change inside a block",
         (rng.integers(-(10 ** rng.integers(0, 19, 300)), 10 ** rng.integers(0, 19, 300)),)),
        ("one row past the block boundary", (np.arange(BLOCK + 1), digits[: BLOCK + 1])),
        ("zero rows", (np.arange(0), digits[:0], np.zeros(0))),
    ]


def test_csv_writer_matches_per_row_formatting(tmp_path):
    rng = np.random.default_rng(3)
    words = rng.integers(1, 10, size=(70000, 4))
    values = rng.standard_normal(len(words)) * 10.0 ** rng.integers(-20, 20, len(words))
    expected = "id,word,none,x\n" + "".join(
        f"{i},{word_string(w)},,{float(x)!r}\n" for i, (w, x) in enumerate(zip(words, values))
    )
    # 2-D symbol arrays are word columns, rendered block by block
    write_csv(tmp_path / "b.csv", ("id", "word", "none", "x"), np.arange(len(words)),
              words, words[:, :0], values)
    assert_same_lines(tmp_path / "b.csv", expected)
    write_csv(tmp_path / "empty.csv", ("word",), words[:0])
    assert (tmp_path / "empty.csv").read_text() == "word\n"

    # 78125 words, read from the word table one block at a time
    full5 = build_subshift(np.ones((5, 5), dtype=int))
    masses = rng.random(full5.word_count(7))
    io.write_measure_csv(tmp_path / "m.csv", full5, 7, masses)
    expected = "word,mass\n" + "".join(
        f"{word_string(w)},{float(x)!r}\n" for w, x in zip(full5.words(7), masses)
    )
    assert_same_lines(tmp_path / "m.csv", expected)

    for name, columns in csv_edge_cases():
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(tmp_path / "edge.csv", header, *columns)
        assert (tmp_path / "edge.csv").read_bytes().isascii(), name
        assert_same_lines(tmp_path / "edge.csv", per_row_text(header, *columns))

    # unequal lengths fail before a row is written, also when the first column ends a block
    for first, second in ((np.arange(5), np.arange(6)), (np.arange(BLOCK), words[: BLOCK + 1])):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", ("a", "b"), first, second)
        assert not (tmp_path / "bad.csv").exists()


def test_integer_cells_are_their_decimal_text(tmp_path):
    """The int64 extremes, zero and each side of a change of width, pinned, and random int64s."""
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    edges = np.array([lo, hi, 0, 9, -9, 10, -10, 99, -99, 100, -100], dtype=np.int64)
    write_csv(tmp_path / "i.csv", ("n",), edges)
    assert (tmp_path / "i.csv").read_text().split("\n") == [
        "n", "-9223372036854775808", "9223372036854775807", "0", "9", "-9", "10", "-10",
        "99", "-99", "100", "-100", "",
    ]
    drawn = np.random.default_rng(17).integers(lo, hi, 5000, dtype=np.int64, endpoint=True)
    write_csv(tmp_path / "r.csv", ("n",), drawn)
    assert (tmp_path / "r.csv").read_text() == "n\n" + "".join(f"{x}\n" for x in drawn.tolist())


@pytest.mark.parametrize("hidden", [(), ("_sha2",), ("_sha2", "_sha256")],
                         ids=["builtin", "no_sha2", "hashlib"])
def test_config_hash_is_the_sha256_of_the_canonical_json(monkeypatch, hidden):
    """Each SHA-256 that `io.config_sha256` falls back to gives hashlib's digest, pinned.

    A module set to None in sys.modules fails to import, so hiding the
    interpreter's built-in hashes runs the next branch, down to hashlib.
    """
    for name in hidden:
        monkeypatch.setitem(sys.modules, name, None)
    cfg = {"k": 2, "matrix": [[1, 1], [1, 0]], "V": {"depth": 1, "values": {"1": 1.5, "2": 0.5}}}
    canon = '{"V":{"depth":1,"values":{"1":1.5,"2":0.5}},"k":2,"matrix":[[1,1],[1,0]]}'
    assert json.dumps(cfg, sort_keys=True, separators=(",", ":")) == canon
    assert io.config_sha256(cfg) == hashlib.sha256(canon.encode("utf-8")).hexdigest()
    assert io.config_sha256(cfg) == "00b5df24bbc807b308d126734f8f5b211a2038f4f35db9722fb992a82a471792"


def test_float_cells_are_the_repr_of_each_value(tmp_path):
    """Columns with few distinct floats (formatted once per bit pattern) and with many."""
    rng = np.random.default_rng(11)
    full3 = build_subshift(np.ones((3, 3), dtype=int))
    masses = strongly_invariant_measure(full3).masses_at(11)
    payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)
    specials = np.r_[-0.0, 0.0, np.nan, -np.nan, payload_nan, np.inf, -np.inf, 5e-324, 1.0]
    columns = (
        masses,
        np.tile(specials, 40),
        rng.random(1000),
        np.r_[rng.random(50), specials],
        np.r_[np.tile(specials, 10), rng.random(20)].astype(np.float32),
    )
    for column in columns:
        write_csv(tmp_path / "f.csv", ("x",), column)
        expected = "x\n" + "".join(f"{x!r}\n" for x in column.tolist())
        assert (tmp_path / "f.csv").read_text() == expected


def test_filter_mismatch_exit_two(tmp_path):
    bad = json.loads(json.dumps(FULL_HALF))
    bad["filter"]["values"]["1"] = [1.0, 0.0]
    cfg = write_config(tmp_path, bad)
    assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_outputs_reproducible(tmp_path):
    cfg_a = write_config(tmp_path, FULL_MARKOV, "a.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = [
        "sample",
        "--config",
        cfg_a,
        "--depth",
        "2",
        "--steps",
        "2",
        "--samples",
        "3000",
        "--seed",
        "42",
    ]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--workers", "4", "--out", str(out2)]) == 0
    for name in ("samples.csv", "sample_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_report_hash_tracks_config(tmp_path):
    cfg1 = write_config(tmp_path, GOLDEN_FLAT, "one.json")
    out1, out2 = tmp_path / "h1", tmp_path / "h2"
    run(["invariant", "--config", cfg1, "--out", str(out1)])
    changed = dict(GOLDEN_FLAT)
    changed["V"] = {"depth": 1, "values": {"1": 1.0, "2": 0.9}}
    cfg2 = write_config(tmp_path, changed, "two.json")
    run(["invariant", "--config", cfg2, "--out", str(out2)])
    h1 = json.loads((out1 / "invariant_report.json").read_text())["config_sha256"]
    h2 = json.loads((out2 / "invariant_report.json").read_text())["config_sha256"]
    assert h1 != h2


def full3_weight():
    """A depth-3 weight on the full 3-shift whose three branches sum to exactly 3 on every tail."""
    values = {}
    for i, tail in enumerate(itertools.product("123", repeat=2)):
        c, d = (i % 4) / 8, (i % 3) / 8
        for a, val in zip("123", (1 - c, 1 + c - d, 1 + d)):
            values[a + "".join(tail)] = val
    return values


FULL3_SAMPLED = {"k": 3, "matrix": [[1, 1, 1]] * 3, "V": {"depth": 3, "values": full3_weight()},
                 "mu0": "auto"}
# sha256 of samples.csv and sample_report.json for 20000 six-step samples at depth 3,
# pinned before the sampler read its uniforms through a contiguous copy; seed 12's report
# repinned when nu and rho's q came to be iterated: max_deviation and sigma_bound moved by
# 1.4e-17 and 4e-19 (6e-15 and 1.5e-16 relative), the samples kept their bytes
GOLDEN_SAMPLES = {
    11: ("0fdc62d7dbe5739f09491f374ef27d8f03451eaa5f2dca0e32f955f3596e6a0b",
         "478db9d7d670c6235ee349fbb215942492e0d1d60f009b23511cb012fdfa2a11"),
    12: ("71bca096f3a282d70c4fffce11258843c0c0d75ec84586e1263b0755f44d31cb",
         "ced193e8bb13ef25ee0d1ee48325c09762c31731214abd643dfcd6e1a55ed969"),
}


@pytest.mark.parametrize("block", [7, 65536])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", sorted(GOLDEN_SAMPLES))
def test_sample_bytes_are_pinned(tmp_path, monkeypatch, seed, workers, block):
    """The samples and the report of a fixed run keep their bytes at any block size and worker count."""
    monkeypatch.setattr(pathspace, "SAMPLE_BLOCK", block)
    cfg = write_config(tmp_path, FULL3_SAMPLED)
    argv = ["sample", "--config", cfg, "--depth", "3", "--steps", "6", "--samples", "20000",
            "--seed", str(seed), "--workers", str(workers), "--out", str(tmp_path)]
    assert run(argv) == 0
    written = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("samples.csv", "sample_report.json"))
    assert written == GOLDEN_SAMPLES[seed]


def test_the_module_entry_point_exits_with_the_code_of_main(tmp_path, capsys):
    """`python -m shiftpath` exits with main's code, says what main says and writes the same files."""
    missing_word = dict(GOLDEN_FLAT, V={"depth": 1, "values": {"1": 1.0}})
    cases = [
        (["sample", "--config", write_config(tmp_path, FULL3_SAMPLED, "sample.json"), "--depth",
          "3", "--steps", "6", "--samples", "20000", "--seed", "11", "--workers", "2"], 0),
        (["fixpoint", "--config", write_config(tmp_path, missing_word, "bad.json")], 2),
        (["ergodicity", "--config", write_config(tmp_path, block_split(0, 4), "split.json"),
          "--depth", "3"], 6),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for i, (argv, code) in enumerate(cases):
        spawned, in_process = tmp_path / f"spawned{i}", tmp_path / f"main{i}"
        proc = subprocess.run([sys.executable, "-m", "shiftpath", *argv, "--out", str(spawned)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        capsys.readouterr()
        assert main([*argv, "--out", str(in_process)]) == code
        assert proc.stderr == capsys.readouterr().err
        if code == 2:
            assert proc.stderr.startswith("shiftpath: config error: ")
            assert not spawned.exists() and not in_process.exists()
        else:
            assert files_in(spawned) == files_in(in_process)


def test_both_entry_points_freeze_after_the_command(tmp_path, monkeypatch, capsys):
    """`run` returns main's code and freezes after main has written; the script runs `run`."""
    entry = importlib.import_module("shiftpath.__main__")
    frozen = []  # the files written when each freeze runs
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(sorted(os.listdir(tmp_path))))
    cfg = write_config(tmp_path, GOLDEN_FLAT)
    assert entry.run(["invariant", "--config", cfg, "--depth", "2", "--out", str(tmp_path)]) == 0
    assert frozen == [["config.json", "invariant_measure.csv", "invariant_report.json"]]
    missing_word = dict(GOLDEN_FLAT, V={"depth": 1, "values": {"1": 1.0}})
    bad = write_config(tmp_path, missing_word, "bad.json")
    assert entry.run(["fixpoint", "--config", bad, "--out", str(tmp_path / "none")]) == 2
    assert capsys.readouterr().err.startswith("shiftpath: config error: ")
    assert len(frozen) == 2
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert '\n[project.scripts]\nshiftpath = "shiftpath.__main__:run"\n' in pyproject
