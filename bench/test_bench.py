"""Tests of the benchmark itself: generator, output checks and result line.

    python3 -m pytest bench -q

One invocation of every workload runs on the current sources, so this
takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def _generate(name, seed, directory):
    directory.mkdir(parents=True, exist_ok=True)
    return workloads.generate(name, seed, str(directory))


def _cli_flags(wl):
    return wl.argv[: wl.argv.index("--config")]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    a = _generate(name, 7, tmp_path / "a")
    b = _generate(name, 7, tmp_path / "b")
    c = _generate(name, 8, tmp_path / "c")
    assert Path(a.config).read_bytes() == Path(b.config).read_bytes()
    assert _cli_flags(a) == _cli_flags(b)
    assert a.words == b.words
    assert Path(a.config).read_bytes() != Path(c.config).read_bytes()


def test_generator_checks_weight_properties():
    import random

    rng = random.Random(0)
    table = workloads.normalized_weight(rng, workloads.BLOCK4, 3)
    assert set(workloads.branch_averages(workloads.BLOCK4, table).values()) == {1}
    workloads._check_normalized(workloads.BLOCK4, table)
    word = next(iter(table))
    table[word] += 1.0 / workloads.UNITS
    with pytest.raises(ValueError, match="averages"):
        workloads._check_normalized(workloads.BLOCK4, table)

    leaky = workloads._leaky_weight(random.Random(0))
    averages = workloads.branch_averages(workloads.CHAIN3, leaky)
    assert all(avg == 1 for tail, avg in averages.items() if tail[0] == "1")
    assert all(avg < 1 for tail, avg in averages.items() if tail[0] != "1")


def test_word_counts_match_enumeration():
    for matrix in (workloads.CHAIN3, workloads.BLOCK4, workloads.FULL3):
        for depth in range(1, 7):
            assert workloads.word_count(matrix, depth) == len(workloads.words(matrix, depth))
    assert workloads.word_count(workloads.CHAIN3, 8) == 1393
    assert workloads.word_count(workloads.CHAIN3, 9) == 3363


@pytest.fixture(scope="module")
def invocations(tmp_path_factory):
    """One CLI invocation of every workload on seed 0: {name: (workload, exit, outdir)}."""
    base = tmp_path_factory.mktemp("invocations")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for name in workloads.WORKLOADS:
        wl = _generate(name, 0, base / name)
        outdir = base / name / "out"
        code, _, _ = run.spawn(
            run.cli_argv(wl) + ["--out", str(outdir)], env, base / name / "log"
        )
        out[name] = (wl, code, outdir)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_invocation_passes_its_checks(invocations, name):
    wl, code, outdir = invocations[name]
    assert workloads.check(wl, code, str(outdir)) == []


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_lines(path, edit):
    lines = path.read_text().split("\n")
    edit(lines)
    path.write_text("\n".join(lines))


def _drop_last_row(lines):
    del lines[-2]


def _bump_first_mass(lines):
    word, mass = lines[1].split(",")
    lines[1] = f"{word},{float(mass) + 1e-6!r}"


CORRUPTIONS = [
    ("verify-deep", "verify_report.json", lambda r: r.update(passed=False)),
    ("verify-deep", "verify_report.json", lambda r: r["residuals"].pop("isometry")),
    ("verify-deep", "verify_report.json", lambda r: r.update(worst_residual=1.0)),
    ("sample-stream", "sample_report.json", lambda r: r.update(passed=False)),
    ("sample-stream", "samples.csv", _drop_last_row),
    ("ergodicity-split", "ergodicity_report.json", lambda r: r.update(solution_dim=3)),
    ("ergodicity-split", "ergodicity_report.json", lambda r: r["decomposition"].update(
        **{"lambda": 1.5})),
    ("ergodicity-split", "ergodicity_report.json", lambda r: r["decomposition"][
        "component_masses"].__setitem__(0, 2.0)),
    ("invariant-wide", "invariant_report.json", lambda r: r.update(passed=False)),
    ("invariant-wide", "invariant_measure.csv", _drop_last_row),
    ("invariant-wide", "invariant_measure.csv", _bump_first_mass),
    ("invariant-wide", "invariant_measure.csv", lambda lines: lines.clear()),
]


@pytest.mark.parametrize("name, artifact, corrupt", CORRUPTIONS)
def test_checks_reject_corrupted_artifacts(invocations, tmp_path, name, artifact, corrupt):
    wl, code, outdir = invocations[name]
    copy = tmp_path / "out"
    shutil.copytree(outdir, copy)
    path = copy / artifact
    (_edit_json if artifact.endswith(".json") else _edit_lines)(path, corrupt)
    assert workloads.check(wl, code, str(copy)) != []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_reject_wrong_exit_code_and_missing_artifacts(invocations, tmp_path, name):
    wl, code, outdir = invocations[name]
    assert workloads.check(wl, code + 1, str(outdir)) != []
    assert workloads.check(wl, code, str(tmp_path)) != []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[n] for n in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    predicted = {m for metrics, _, _ in workloads.PREDICTIONS for m in metrics}
    assert predicted <= {m for m, _ in run.PER_LAYER}


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ergodicity-split",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert {m: v["unit"] for m, v in result["metrics"].items()} == dict(run.PER_LAYER)
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    assert metrics["extremality.dimension_calls"] == 2
    assert metrics["extremality.system_bytes"] == 2 * 1024 * 1024 * 8
    assert metrics["transfer.matrix_bytes"] == 1024 * 1024 * 8
    assert metrics["io.csv_rows"] == 2 * 1024


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
