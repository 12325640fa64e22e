"""Command line front end.

Five subcommands cover the library's checkable claims:

    invariant    solve for the strongly invariant base measure
    fixpoint     solve for the fixed density and the dual functional
    verify       measure every identity defect for a configured system
    sample       draw trajectory records and validate them empirically
    ergodicity   compute the invariant-function dimension, decompose

Exit codes: 0 all checks passed, 1 an identity failed its tolerance,
2 config or precondition problem (also a flag out of its range, and
fewer than 100 samples), 3 the invariant vector is not unique (more
than one closed class), 4 the fixed density is degenerate (h is zero,
or the base measure has no mass), 5 sampling hit a zero-mass state, 6
the fixed point has more than one component, decided at the conditioning
depth and so at every depth above it (one component_<c>.csv of masses
at --depth is written for each).

Every JSON report embeds the tool version and a sha256 of the
canonical config so downstream diffs can tell configs apart.  All
output is byte-stable for a fixed config, seed and tolerance,
regardless of worker count.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DegenerateH,
    NotFixedPoint,
    ShiftPathError,
    ZeroMassConditioning,
)
from .invariant import (
    _strong_invariance_defects,
    strongly_invariant_measure,
    verify_strong_invariance,
)
from .io import (
    build_base_measure_from_config,
    build_filter_from_config,
    build_overrides_from_config,
    build_subshift_from_config,
    build_weight_from_config,
    config_sha256,
    load_config,
    write_csv,
    write_function_csv,
    write_measure_csv,
    write_report,
)
from .subshift import word_string

# measures, transfer, pathspace and extremality are imported inside the
# commands that use them, so that a process loads only what its command runs

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_NON_UNIQUE = 3
EXIT_DEGENERATE = 4
EXIT_SAMPLING = 5
EXIT_NON_EXTREMAL = 6


def _base_report(cfg, command):
    return {
        "tool": "shiftpath",
        "version": __version__,
        "command": command,
        "config_sha256": config_sha256(cfg),
    }


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _load(args):
    """Config and subshift; an oversized --depth fails before any table is built."""
    cfg = load_config(args.config)
    shift = build_subshift_from_config(cfg)
    if getattr(args, "depth", None) is not None:
        shift.word_count(args.depth)
    return cfg, shift


def _load_system(args):
    """Config, subshift, weight, invariant measure and base measure, solved when "auto"."""
    from .measures import fixed_density_measure

    cfg, shift = _load(args)
    v = build_weight_from_config(shift, cfg)
    rho = strongly_invariant_measure(shift)
    mu0 = build_base_measure_from_config(shift, cfg, rho=rho)
    if mu0 is None:
        mu0 = fixed_density_measure(shift, v, rho=rho)
    return cfg, shift, v, rho, mu0


def cmd_invariant(args):
    cfg, shift = _load(args)
    rho = strongly_invariant_measure(shift)
    # the report's defect at depth d is the worst over depths 1..d
    worst = np.maximum.accumulate(_strong_invariance_defects(rho, args.depth))
    defects = {str(d): float(x) for d, x in enumerate(worst, start=1)}
    write_measure_csv(
        _outpath(args, "invariant_measure.csv"),
        shift,
        args.depth,
        rho.masses_at(args.depth),
    )
    report = _base_report(cfg, "invariant")
    report.update(
        {
            "depth": args.depth,
            "symbol_masses": [float(x) for x in rho.q],
            "unique": not rho.non_unique,
            "defects": defects,
            "tolerance": args.tol,
        }
    )
    worst = max(defects.values())
    report["passed"] = worst <= args.tol and not rho.non_unique
    write_report(_outpath(args, "invariant_report.json"), report)
    if rho.non_unique:
        return EXIT_NON_UNIQUE
    if worst > args.tol:
        return EXIT_IDENTITY
    return EXIT_OK


def cmd_fixpoint(args):
    from .transfer import _fixed_objects

    cfg, shift = _load(args)
    v = build_weight_from_config(shift, cfg)
    # h and nu from one operator and one class search
    result, nu = _fixed_objects(shift, v, max(v.depth - 1, 1))
    h = result.h
    write_function_csv(_outpath(args, "fixed_function.csv"), h)
    if nu is not None:
        write_measure_csv(
            _outpath(args, "fixed_functional.csv"), shift, nu.depth, nu.masses
        )
    report = _base_report(cfg, "fixpoint")
    report.update(
        {
            "status": result.status,
            "residual": float(result.residual),
            "sup_h": float(h.values.max()),
            "min_h": float(h.values.min()),
            "pairing": None if nu is None else float(nu.integrate(h)),
            "functional_found": nu is not None,
        }
    )
    write_report(_outpath(args, "fixpoint_report.json"), report)
    if result.status == "degenerate":
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_verify(args):
    from .measures import masses_along_orbit, weight_pushforward_defect
    from .pathspace import (
        build_path_measure,
        check_consistency,
        check_isometry,
        check_quasi_invariance,
    )

    cfg, shift, v, rho, mu0 = _load_system(args)
    overrides = build_overrides_from_config(shift, cfg)
    filt = build_filter_from_config(shift, cfg)
    # the verifier measures defects instead of refusing to construct
    pm = build_path_measure(
        shift, v, mu0, tol=float("inf"), marginal_overrides=overrides
    )

    residuals = {
        "base_fixed_point": float(pm.base_residual),
        "strong_invariance": float(verify_strong_invariance(rho, args.depth)),
        "marginal_consistency": float(
            np.max([check_consistency(pm, n, args.depth) for n in range(args.steps)], initial=0.0)
        ),
        "quasi_invariance": float(check_quasi_invariance(pm, args.depth, args.steps)),
    }
    total = mu0.total_mass()
    residuals["mass_conservation"] = float(
        np.abs(masses_along_orbit(shift, v, mu0, 10) - total).max()
    )
    residuals["weight_pushforward"] = weight_pushforward_defect(
        shift, v, rho, args.depth, 3
    )
    if filt is not None:
        residuals["isometry"] = float(check_isometry(pm, filt, args.depth))
    # every residual but rho's two scales with mu0, so each is read per unit of mu0's mass
    base = {"total_mass": total,
            "residuals": sorted(residuals.keys() - {"strong_invariance", "weight_pushforward"})}
    for key in base["residuals"]:
        residuals[key] /= total

    # np.max keeps a NaN wherever it is, and a NaN is never <= tol
    worst = float(np.max(list(residuals.values())))
    report = _base_report(cfg, "verify")
    report.update(
        {
            "depth": args.depth,
            "levels_checked": args.steps,
            "residuals": residuals,
            "mu0": base,
            "worst_residual": worst,
            "tolerance": args.tol,
            "unique_invariant": not rho.non_unique,
            "passed": worst <= args.tol,
        }
    )
    write_report(_outpath(args, "verify_report.json"), report)
    return EXIT_OK if worst <= args.tol else EXIT_IDENTITY


def cmd_sample(args):
    from .pathspace import build_path_measure, empirical_check

    cfg, shift, v, _, mu0 = _load_system(args)
    overrides = build_overrides_from_config(shift, cfg)
    pm = build_path_measure(
        shift, v, mu0, tol=args.tol, marginal_overrides=overrides
    )
    empirical = empirical_check(
        pm, args.steps, args.samples, args.depth, args.seed, workers=args.workers
    )
    batch = empirical.batch
    write_csv(
        _outpath(args, "samples.csv"),
        ("sample_id", "base_word", "prepends"),
        np.arange(len(batch)),
        batch.base_words,
        batch.prepends,
    )
    report = _base_report(cfg, "sample")
    report.update(
        {
            "n_samples": args.samples,
            "n_steps": args.steps,
            "depth": args.depth,
            "seed": args.seed,
            "max_deviation": empirical.max_dev,
            "sigma_bound": empirical.sigma_bound,
            "worst_word": word_string(empirical.worst_word),
            "passed": empirical.passed,
        }
    )
    write_report(_outpath(args, "sample_report.json"), report)
    return EXIT_OK if empirical.passed else EXIT_IDENTITY


def cmd_ergodicity(args):
    from .extremality import decompose_report, relative_ergodicity_dimension

    cfg, shift, v, _, mu0 = _load_system(args)
    # hashed before the solve, so that the canonical config text is freed before its peak
    report = _base_report(cfg, "ergodicity")
    rep = relative_ergodicity_dimension(shift, mu0, v, tol=args.tol)
    report.update(
        {
            "depth": args.depth,
            "conditioning_depth": rep.depth,
            "solution_dim": rep.solution_dim,
            "extremal": rep.extremal_certificate,
            "base_residual": rep.base_residual,
            "closed_classes": rep.class_sizes,
            "tolerance": args.tol,
        }
    )
    dec = decompose_report(shift, mu0, rep)
    report["decomposition"] = None
    if dec is not None:
        report["decomposition"] = {
            "lambda": float(dec.weights[0]),
            "weights": dec.weights.tolist(),
            "component_masses": [mu.total_mass() for mu in dec.components],
        }
        for c, mu in enumerate(dec.components, start=1):
            write_measure_csv(
                _outpath(args, f"component_{c}.csv"),
                shift,
                args.depth,
                mu.masses_at(args.depth),
            )
    write_report(_outpath(args, "ergodicity_report.json"), report)
    return EXIT_OK if rep.extremal_certificate else EXIT_NON_EXTREMAL


def _at_least(kind, low):
    """argparse type for a finite `kind` value of at least `low`; others exit 2."""

    def parse(text):
        value = kind(text)
        if not low <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite and at least {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # named in argparse's "invalid int value" message
    return parse


_FLAGS = {
    "config": dict(required=True, help="path to the JSON system config"),
    "depth": dict(type=_at_least(int, 1), default=3, help="cylinder depth (default 3)"),
    "tol": dict(
        type=_at_least(float, 0), default=1e-10, help="identity tolerance (default 1e-10)"
    ),
    "samples": dict(
        type=_at_least(int, 1), default=100000, help="Monte Carlo sample count (default 100000)"
    ),
    "seed": dict(type=_at_least(int, 0), default=42, help="RNG seed (default 42)"),
    "steps": dict(
        type=_at_least(int, 0), default=3, help="trajectory steps / levels to check (default 3)"
    ),
    "workers": dict(type=_at_least(int, 1), default=1, help="sampler worker count (default 1)"),
    "out": dict(default=".", help="directory for reports and CSV files (default .)"),
}

_VERIFY_FLAGS = ("config", "depth", "steps", "tol", "out")

# each subcommand takes only the flags it reads
_COMMAND_FLAGS = {
    "invariant": ("config", "depth", "tol", "out"),
    "fixpoint": ("config", "out"),
    "verify": _VERIFY_FLAGS,
    "sample": _VERIFY_FLAGS + ("samples", "seed", "workers"),
    "ergodicity": ("config", "depth", "tol", "out"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shiftpath",
        description="Weighted transfer fixed points and trajectory measures "
        "on subshifts of finite type.",
    )
    parser.add_argument(
        "--version", action="version", version=f"shiftpath {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("invariant", cmd_invariant, "solve for the strongly invariant measure"),
        ("fixpoint", cmd_fixpoint, "solve for the weighted transfer fixed density"),
        ("verify", cmd_verify, "measure all identity defects for a config"),
        ("sample", cmd_sample, "draw trajectory records and check them"),
        ("ergodicity", cmd_ergodicity, "extremality dimension and decomposition"),
    ):
        sp = sub.add_parser(name, help=help_text)
        for flag in _COMMAND_FLAGS[name]:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.set_defaults(func=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"shiftpath: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ZeroMassConditioning as exc:
        print(f"shiftpath: sampling degenerated: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except DegenerateH as exc:
        print(f"shiftpath: degenerate fixed density: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NotFixedPoint as exc:
        print(f"shiftpath: not a fixed point: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except ShiftPathError as exc:
        print(f"shiftpath: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"shiftpath: i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
