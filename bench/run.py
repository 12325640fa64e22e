"""Benchmark of the `shiftpath` command line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root; it needs only the source tree, numpy
and scipy.  The workload's config is generated from --seed (see
bench/workloads.py) and the program receives only that config and CLI
flags.  Load is a closed loop with one client: one fresh
`python3 -m shiftpath` process at a time, each started after the
previous one exited, for --seconds seconds (at least three of them).
BLAS threads are pinned to BLAS_THREADS and sampler workers to at most
min(2, nproc); both are recorded.

--trace 0 reports the end-to-end metrics, each a median over the run:
  wall_s       spawn-to-exit time of one CLI invocation
  setup_s      spawn-to-exit time of a fresh interpreter that imports the
               CLI and builds the subshift and weight (bench/setup_probe.py),
               SETUP_REPS times per run
  peak_rss_mb  peak resident memory of the CLI process (wait4 rusage)
The two times are calibrated: a fixed job (bench/calibrate.py) runs
between consecutive timed processes, and each time is multiplied by
CALIBRATION_NOMINAL_S / (mean of the calibration runs on either side)
before the median is taken.  On a shared two-core virtual machine the
speed of identical work drifts by up to 1.5x over minutes; across
25-second runs the raw median spread 12-30% of itself (quartile distance
over median), the calibrated one 5-13%.  Raw medians, quartiles,
extremes and sample counts are printed and recorded next to the
calibrated values.
--trace 1 alternates untraced invocations with traced ones
(bench/trace_child.py) and reports per-layer self times, call counts and
computed byte counts, plus trace.overhead_s (traced minus untraced wall).

Every invocation's exit code and artifacts are checked, and artifacts
must be byte-identical across the invocations of a run, traced or not.
`failed` counts invocations that failed a check; failed / attempted is
the failure fraction.  Human-readable lines come first on standard
output; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  Full records, with the environment and
the spans, are written under .bench_build/shiftpath/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "shiftpath"
sys.path[:0] = [str(BENCH), str(SRC)]

import workloads  # noqa: E402

SETUP_REPS = 5
# typical time of bench/calibrate.py on a quiet two-core Xeon virtual machine
CALIBRATION_NOMINAL_S = 0.28
MIN_INVOCATIONS = 3
MAX_WORKERS = 2

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# per-layer metric -> span names whose self times it sums
SELF_TIME = {
    "subshift.suffix_indices_s": ("subshift.suffix_indices",),
    "subshift.prefix_indices_s": ("subshift.prefix_indices",),
    "subshift.words_s": ("subshift.words", "subshift.word_index", "subshift.symbols_array"),
    "subshift.weight_product_s": ("subshift.weight_product",),
    "transfer.apply_s": ("transfer.apply",),
    "transfer.pushforward_s": ("transfer.pushforward",),
    "transfer.fixed_iter_s": ("transfer.fixed_iter",),
    "transfer.matrix_s": ("transfer.matrix",),
    "transfer.functional_s": ("transfer.functional",),
    "invariant.solve_s": ("invariant.solve",),
    "invariant.masses_s": ("invariant.masses",),
    "invariant.verify_s": ("invariant.verify",),
    "measures.fixed_density_s": ("measures.fixed_density",),
    "measures.check_fixed_point_s": ("measures.check_fixed_point",),
    "measures.orbit_s": ("measures.orbit",),
    "pathspace.build_s": ("pathspace.build",),
    "pathspace.marginal_s": ("pathspace.marginal",),
    "pathspace.checks_s": (
        "pathspace.consistency",
        "pathspace.quasi_invariance",
        "pathspace.isometry",
    ),
    "pathspace.sample_s": ("pathspace.sample",),
    "pathspace.empirical_s": ("pathspace.empirical",),
    "extremality.dimension_s": ("extremality.dimension",),
    "extremality.decompose_s": ("extremality.decompose",),
    "io.config_s": (
        "io.load_config",
        "io.build_subshift",
        "io.build_weight",
        "io.build_base_measure",
        "io.build_filter",
        "io.build_overrides",
    ),
    "io.csv_s": ("io.write_csv", "io.write_measure_csv", "io.write_function_csv"),
    "io.report_s": ("io.write_report",),
    "cli.self_s": ("cli.main",),
}
# per-layer metric -> span name whose calls it counts
CALLS = {
    "subshift.suffix_indices_calls": "subshift.suffix_indices",
    "subshift.prefix_indices_calls": "subshift.prefix_indices",
    "transfer.apply_calls": "transfer.apply",
    "transfer.pushforward_calls": "transfer.pushforward",
    "extremality.dimension_calls": "extremality.dimension",
}
# per-layer metric -> (span count key, how counts combine, unit)
COUNTS = {
    "subshift.max_table_words": ("table_words", max, "count"),
    "transfer.fixed_iterations": ("fixed_iterations", sum, "count"),
    "transfer.matrix_bytes": ("matrix_bytes", sum, "computed_bytes"),
    "pathspace.sample_rows": ("sample_rows", sum, "count"),
    "pathspace.uniform_bytes": ("uniform_bytes", sum, "computed_bytes"),
    "extremality.system_bytes": ("system_bytes", sum, "computed_bytes"),
    "io.csv_rows": ("csv_rows", sum, "count"),
    "io.csv_bytes": ("csv_bytes", sum, "bytes"),
}
PER_LAYER = (
    [(m, "s") for m in SELF_TIME]
    + [(m, "count") for m in CALLS]
    + [(m, unit) for m, (_, _, unit) in COUNTS.items()]
    + [("trace.overhead_s", "s")]
)
LAYERS = ("subshift", "transfer", "invariant", "measures", "pathspace", "extremality", "io", "cli")


def spawn(argv, env, log_path):
    """Run one child to completion: (exit code, wall seconds, peak RSS in MiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def digests(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas(module):
    try:
        blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def environment(loadavg, workers):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads": BLAS_THREADS,
        "sampler_workers": workers,
        "git_commit": _git_commit(),
        "loadavg_start": list(loadavg),
    }


def summary(values):
    """Median with quartiles and sample count of a list of measurements."""
    vals = sorted(values)
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    return {"median": statistics.median(vals), "q1": q[0], "q3": q[2], "n": len(vals),
            "min": vals[0], "max": vals[-1]}


class Run:
    """One benchmark run of one workload: its invocations and their checks."""

    def __init__(self, workload, work, env):
        self.workload = workload
        self.work = work
        self.env = env
        self.invocations = []
        self.reference = None

    def invoke(self, label, argv):
        """Run one program process and check its artifacts; return the record."""
        outdir = self.work / label
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        code, wall, rss = spawn(list(argv) + ["--out", str(outdir)], self.env,
                                self.work / f"{label}.log")
        problems = workloads.check(self.workload, code, str(outdir))
        found = digests(outdir)
        if self.reference is None:
            if not problems:
                self.reference = found
        elif found != self.reference:
            problems.append("artifacts differ from the run's first correct invocation")
        record = {"label": label, "exit": code, "wall_s": wall, "peak_rss_mb": rss,
                  "problems": problems}
        self.invocations.append(record)
        shutil.rmtree(outdir, ignore_errors=True)
        return record

    def calibrate(self):
        code, wall, _ = spawn([sys.executable, str(BENCH / "calibrate.py")], self.env,
                              self.work / "calibrate.log")
        if code != 0:
            raise RuntimeError(f"calibration job exited {code}")
        return wall

    def setup_probe(self):
        code, wall, _ = spawn(
            [sys.executable, str(BENCH / "setup_probe.py"), self.workload.config],
            self.env, self.work / "setup.log",
        )
        problems = [] if code == 0 else [f"setup probe exited {code}"]
        self.invocations.append({"label": "setup", "exit": code, "wall_s": wall,
                                 "problems": problems})
        return wall

    @property
    def failed(self):
        return sum(1 for r in self.invocations if r["problems"])


def cli_argv(workload):
    return [sys.executable, "-m", "shiftpath", *workload.argv]


def measure_end_to_end(run, seconds):
    setup, calls = [], []
    setup_calibration = [run.calibrate()]
    for _ in range(SETUP_REPS):
        setup.append(run.setup_probe())
        setup_calibration.append(run.calibrate())
    calibration = setup_calibration[-1:]
    start = time.perf_counter()
    while len(calls) < MIN_INVOCATIONS or time.perf_counter() - start + pair_s <= seconds:
        began = time.perf_counter()
        calls.append(run.invoke(f"call{len(calls)}", cli_argv(run.workload)))
        calibration.append(run.calibrate())
        pair_s = time.perf_counter() - began
    walls = [c["wall_s"] for c in calls]
    detail = {
        "wall_s": summary(walls),
        "setup_s": summary(setup),
        "peak_rss_mb": summary([c["peak_rss_mb"] for c in calls]),
        "calibration_s": summary(setup_calibration + calibration[1:]),
        "samples": {"wall_s": walls, "setup_s": setup, "calibration_s": calibration,
                    "setup_calibration_s": setup_calibration},
    }
    metrics = {
        "wall_s": calibrated(walls, calibration),
        "setup_s": calibrated(setup, setup_calibration),
        "peak_rss_mb": detail["peak_rss_mb"]["median"],
    }
    return metrics, detail, None


def calibrated(times, calibration):
    """Median of times scaled by the mean of the calibration runs on either side."""
    return statistics.median(
        t * CALIBRATION_NOMINAL_S * 2 / (before + after)
        for t, before, after in zip(times, calibration, calibration[1:])
    )


def self_times(spans):
    """Span durations minus the time their direct children cover."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}


def layer_metrics(spans):
    own = self_times(spans)
    metrics = {}
    for metric, names in SELF_TIME.items():
        metrics[metric] = sum(own[s["id"]] for s in spans if s["name"] in names)
    for metric, name in CALLS.items():
        metrics[metric] = sum(1 for s in spans if s["name"] == name)
    for metric, (key, combine, _) in COUNTS.items():
        found = [s["counts"][key] for s in spans if s["counts"] and key in s["counts"]]
        metrics[metric] = combine(found) if found else 0
    root = next(s for s in spans if s["name"] == "cli.main")
    wall = root["end"] - root["start"]
    shares = {layer: sum(own[s["id"]] for s in spans if s["name"].split(".")[0] == layer)
              / wall for layer in LAYERS}
    return metrics, shares


def measure_layers(run, seconds):
    reps, all_spans, fields = [], [], None
    start = time.perf_counter()
    while not reps or time.perf_counter() - start + reps[-1]["rep_s"] <= seconds:
        rep = len(reps)
        began = time.perf_counter()
        plain = run.invoke(f"plain{rep}", cli_argv(run.workload))
        spans_path = run.work / f"spans{rep}.json"
        traced = run.invoke(
            f"traced{rep}",
            [sys.executable, str(BENCH / "trace_child.py"), str(spans_path),
             run.workload.name, str(rep), "--", *run.workload.argv],
        )
        rep_record = {"rep_s": None}
        if spans_path.is_file():
            with open(spans_path, encoding="utf-8") as fh:
                dumped = json.load(fh)
            spans = [dict(zip(dumped["fields"], row)) for row in dumped["spans"]]
            all_spans += dumped["spans"]
            fields = dumped["fields"]
            rep_record["metrics"], rep_record["shares"] = layer_metrics(spans)
            rep_record["metrics"]["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        else:
            traced["problems"].append("traced run wrote no spans")
        rep_record["rep_s"] = time.perf_counter() - began
        reps.append(rep_record)
    # a traced run that wrote no spans is already counted as failed
    done = [r for r in reps if "metrics" in r] or [
        {"metrics": dict.fromkeys(dict(PER_LAYER), 0), "shares": dict.fromkeys(LAYERS, 0)}
    ]
    # the lower median keeps each value one that a repetition measured
    metrics = {m: statistics.median_low(r["metrics"][m] for r in done) for m, _ in PER_LAYER}
    shares = {layer: statistics.median_low(r["shares"][layer] for r in done) for layer in LAYERS}
    detail = {"reps": reps, "layer_share": shares}
    return metrics, detail, {"fields": fields, "spans": all_spans}


def run_workload(name, seed, seconds, trace, env, workers, loadavg):
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        wl = workloads.generate(name, seed, str(work), workers=workers)
        run = Run(wl, work, env)
        measure = measure_layers if trace else measure_end_to_end
        metrics, detail, spans = measure(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(PER_LAYER if trace else END_TO_END)
    record = {
        "workload": name,
        "why": workloads.WHY[name],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": list(wl.argv[: wl.argv.index("--config")]),
        "word_counts": wl.words,
        "environment": environment(loadavg, workers),
        "load": "closed loop, one client, one CLI process at a time",
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "detail": detail,
        "invocations": run.invocations,
        "attempted": len(run.invocations),
        "failed": run.failed,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans:
        (results / f"{name}-spans.json").write_text(json.dumps(spans, separators=(",", ":")))
    report(record)
    return record


def report(record):
    name = record["workload"]
    print(f"# {name} seed={record['seed']} argv={' '.join(record['argv'])} "
          f"words by depth {record['word_counts']}")
    print(f"{name} failed_frac = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} attempted)")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    for r in record["invocations"]:
        if r["problems"]:
            print(f"# FAILED {r['label']}: {'; '.join(r['problems'])}")
    detail = record["detail"]
    for metric, m in record["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    for metric, d in detail.items():
        if metric in dict(END_TO_END) or metric == "calibration_s":
            print(f"# raw {metric}: n {d['n']}, min {d['min']:.6g}, q1 {d['q1']:.6g}, "
                  f"median {d['median']:.6g}, q3 {d['q3']:.6g}, max {d['max']:.6g}")
    if "layer_share" in detail:
        for layer, share in detail["layer_share"].items():
            expect = [f"{e2e} ({', '.join(ms)})" for ms, wl, e2e in workloads.PREDICTIONS
                      if wl == name and ms[0].startswith(layer + ".")]
            print(f"# share {layer:12s} {share:7.2%}  predicted to move: "
                  f"{'; '.join(expect) or '-'}")


def main(argv=None):
    loadavg = os.getloadavg()
    # a terminated benchmark still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "shiftpath" / "cli.py").is_file():
        print(f"bench: no shiftpath sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(n, args.seed, args.seconds, args.trace, env, workers, loadavg)
               for n in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in records for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
