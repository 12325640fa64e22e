"""Run one `shiftpath` CLI invocation in-process with every layer traced.

    python3 bench/trace_child.py SPANS_JSON WORKLOAD REP -- CLI_ARGS...

The public functions and methods listed in TARGETS are wrapped at every
place the package binds them (module attributes and class attributes),
so calls made through `from .x import f` are seen as well.  Each call
records a span: name, start, end, parent span, workload, repetition and
any counts taken at that boundary.  Spans stay in memory and are written
to SPANS_JSON as rows of FIELDS when the invocation ends.  The exit code
is the CLI's.  Nothing under the package's source tree is modified.
"""

import functools
import itertools
import json
import sys
import threading
import time


def _table_words(args, result):
    return {"table_words": len(result)}


def _iterations(args, result):
    return {"fixed_iterations": result.n_used}


def _matrix_bytes(args, result):
    # computed from the array shape, not measured
    return {"matrix_bytes": result.matrix.size * result.matrix.itemsize}


def _sample_counts(args, result):
    n_steps, n_samples = args[1], args[2]
    # the sampler draws one float64 uniform per sample for the base and per step
    return {"sample_rows": len(result), "uniform_bytes": n_samples * (n_steps + 1) * 8}


def _system_bytes(args, result):
    shift, mu0, v, depth = args[:4]
    density = getattr(mu0, "density", None)
    d0 = density.depth if density is not None else mu0.depth
    # the conditioning depth relative_ergodicity_dimension solves at
    rows = shift.word_count(max(v.depth - 1, depth, d0 - 1, 1))
    # float64 system of one row per conditioning word and one column per unknown
    return {"system_bytes": rows * shift.word_count(depth) * 8}


def _csv_counts(args, result):
    with open(args[0], "rb") as fh:
        data = fh.read()
    return {"csv_rows": data.count(b"\n") - 1, "csv_bytes": len(data)}


# (module, attribute path, span name, counts taken from (args, result) or None)
TARGETS = (
    ("subshift", "Subshift.suffix_indices", "subshift.suffix_indices", None),
    ("subshift", "Subshift.prefix_indices", "subshift.prefix_indices", None),
    ("subshift", "Subshift.words", "subshift.words", _table_words),
    ("subshift", "Subshift.word_index", "subshift.word_index", None),
    ("subshift", "Subshift.symbols_array", "subshift.symbols_array", None),
    ("subshift", "weight_product", "subshift.weight_product", None),
    ("transfer", "apply_transfer", "transfer.apply", None),
    ("transfer", "check_weight_pushforward", "transfer.pushforward", None),
    ("transfer", "iterate_fixed_function", "transfer.fixed_iter", _iterations),
    ("transfer", "transfer_matrix", "transfer.matrix", _matrix_bytes),
    ("transfer", "left_fixed_functional", "transfer.functional", None),
    ("invariant", "strongly_invariant_measure", "invariant.solve", None),
    ("invariant", "MarkovMeasure.masses_at", "invariant.masses", None),
    ("invariant", "verify_strong_invariance", "invariant.verify", None),
    ("measures", "fixed_density_measure", "measures.fixed_density", None),
    ("measures", "check_fixed_point", "measures.check_fixed_point", None),
    ("measures", "masses_along_orbit", "measures.orbit", None),
    ("pathspace", "build_path_measure", "pathspace.build", None),
    ("pathspace", "PathMeasure.marginal", "pathspace.marginal", None),
    ("pathspace", "check_consistency", "pathspace.consistency", None),
    ("pathspace", "check_quasi_invariance", "pathspace.quasi_invariance", None),
    ("pathspace", "check_isometry", "pathspace.isometry", None),
    ("pathspace", "sample_paths", "pathspace.sample", _sample_counts),
    ("pathspace", "empirical_check", "pathspace.empirical", None),
    ("extremality", "relative_ergodicity_dimension", "extremality.dimension", _system_bytes),
    ("extremality", "decompose", "extremality.decompose", None),
    ("io", "load_config", "io.load_config", None),
    ("io", "build_subshift_from_config", "io.build_subshift", None),
    ("io", "build_weight_from_config", "io.build_weight", None),
    ("io", "build_base_measure_from_config", "io.build_base_measure", None),
    ("io", "build_filter_from_config", "io.build_filter", None),
    ("io", "build_overrides_from_config", "io.build_overrides", None),
    ("io", "write_csv", "io.write_csv", _csv_counts),
    ("io", "write_measure_csv", "io.write_measure_csv", None),
    ("io", "write_function_csv", "io.write_function_csv", None),
    ("io", "write_report", "io.write_report", None),
)

ROOT_SPAN = "cli.main"
FIELDS = ("id", "name", "start", "end", "parent", "counts", "workload", "rep")


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self, workload, rep):
        self.workload = workload
        self.rep = rep
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = [span_id, name, start, end, parent, None]
                tracer.spans.append(span)
            # counted after the span closes; the enclosing span absorbs the cost
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return traced

    def root(self, fn, *args):
        return self.wrap(fn, ROOT_SPAN, None)(*args)

    def dump(self, path):
        """Write the spans as rows of FIELDS."""
        rows = [[*span, self.workload, self.rep] for span in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": rows}, fh, separators=(",", ":"))


def install(tracer):
    """Replace every binding of each target in the loaded shiftpath modules."""
    import importlib

    import shiftpath
    import shiftpath.cli  # noqa: F401  (binds the CLI's imports)

    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "shiftpath"]
    for mod_name, path, span, counter in TARGETS:
        owner = importlib.import_module(f"shiftpath.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, tracer.wrap(cls.__dict__[attr], span, counter))
            continue
        original = getattr(owner, path)
        wrapped = tracer.wrap(original, span, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    return shiftpath.cli


def main(argv):
    spans_path, workload, rep, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON WORKLOAD REP -- CLI_ARGS...")
    tracer = Tracer(workload, int(rep))
    cli = install(tracer)
    try:
        code = tracer.root(cli.main, cli_args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
