"""Acceptance suite: one test per shipped guarantee, with stated tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every test also enforces its runtime budget, and prints a short
summary line (visible with -s) naming the worst observed residual.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    BLOCK4,
    FULL2,
    GOLDEN,
    IDENT2,
    SAMPLER_P,
    random_function,
    random_subshift,
    random_weight,
    solved_base,
    stock_systems,
    weight_full_half,
    weight_markov_full,
)
from shiftpath import (
    CylinderFunction,
    DensityMeasure,
    FilterMismatch,
    RawMeasure,
    apply_transfer,
    build_path_measure,
    build_subshift,
    check_consistency,
    check_fixed_point,
    check_isometry,
    check_quasi_invariance,
    check_weight_pushforward,
    decompose,
    empirical_check,
    iterate_fixed_function,
    martingale_coordinates,
    masses_along_orbit,
    project_once,
    relative_ergodicity_dimension,
    strongly_invariant_measure,
    transform_measure,
    verify_strong_invariance,
)
from shiftpath.cli import main as cli_main

CORRUPTED_CONFIG = {
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

SAMPLER_CONFIG = {
    "k": 2,
    "matrix": [[1, 1], [1, 1]],
    "V": {
        "depth": 2,
        "values": {"11": 2.0 / 3.0, "12": 1.0, "21": 4.0 / 3.0, "22": 1.0},
    },
    "mu0": "auto",
}


def report(tag, worst, elapsed, budget):
    print(f"[{tag}] PASS  worst={worst:.3e}  time={elapsed:.2f}s (budget {budget}s)")


def test_c01_strong_invariance_exact():
    """Preimage averaging reproduces the measure to 1e-12 at depths <= 5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    shifts = [build_subshift(FULL2), build_subshift(GOLDEN)]
    shifts += [
        random_subshift(rng, int(rng.integers(2, 5))) for _ in range(5)
    ]
    worst = 0.0
    for shift in shifts:
        rho = strongly_invariant_measure(shift)
        defect = verify_strong_invariance(rho, 5)
        worst = max(worst, defect)
        assert defect <= 1e-12
    golden_rho = strongly_invariant_measure(build_subshift(GOLDEN))
    gap = np.abs(golden_rho.q - np.array([2.0 / 3.0, 1.0 / 3.0])).max()
    assert gap <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("c01 strong invariance", max(worst, gap), elapsed, 1)


def test_c02_transfer_duality():
    """Integrating the running weight product equals iterating the operator."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for matrix in (FULL2, GOLDEN):
        shift = build_subshift(matrix)
        rho = strongly_invariant_measure(shift)
        for _ in range(100):
            v = random_weight(shift, rng, int(rng.integers(1, 4)))
            f = random_function(shift, rng, int(rng.integers(1, 4)))
            n = int(rng.integers(1, 5))
            defect = check_weight_pushforward(shift, v, f, rho, n)
            worst = max(worst, defect)
            assert defect <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("c02 transfer duality", worst, elapsed, 5)


def test_c03_monotone_iteration():
    """Sub-normalized weights descend pointwise and reach a fixed function."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(50):
        if trial % 3 == 0:
            shift = build_subshift(FULL2)
        elif trial % 3 == 1:
            shift = build_subshift(GOLDEN)
        else:
            shift = random_subshift(rng, int(rng.integers(2, 5)))
        one = CylinderFunction.constant(shift, 1.0)
        raw = random_weight(shift, rng, int(rng.integers(1, 3)))
        bound = apply_transfer(shift, raw, one).values.max()
        v = raw * (rng.uniform(0.4, 0.95) / bound)
        f = CylinderFunction.constant(shift, 1.0, max(v.depth - 1, 1))
        for _ in range(60):
            nxt = apply_transfer(shift, v, f)
            rise = (nxt.values - f.values).max()
            assert rise <= 1e-12
            f = nxt
        res = iterate_fixed_function(shift, v)
        assert res.status in ("converged", "degenerate")
        back = apply_transfer(shift, v, res.h)
        defect = np.abs(back.values - res.h.promote(back.depth).values).max()
        worst = max(worst, defect)
        assert defect <= 1e-11
    half = iterate_fixed_function(
        build_subshift(FULL2),
        CylinderFunction.constant(build_subshift(FULL2), 0.5),
    )
    assert half.status == "degenerate"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("c03 monotone iteration", worst, elapsed, 5)


def test_c04_fixed_point_and_mass_conservation():
    """The solved base measure is fixed and keeps total mass along the orbit."""
    t0 = time.perf_counter()
    worst = 0.0
    for name, shift, v in stock_systems():
        mu0 = solved_base(shift, v)
        for depth in range(1, 6):
            defect = check_fixed_point(shift, v, mu0, depth)
            worst = max(worst, defect)
            assert defect <= 1e-11, (name, depth)
        masses = masses_along_orbit(shift, v, mu0, 10)
        drift = np.abs(masses - mu0.total_mass()).max()
        worst = max(worst, drift)
        assert drift <= 1e-10, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report("c04 fixed point + mass", worst, elapsed, 2)


def test_c05_consistency_and_quasi_invariance(tmp_path):
    """Marginal families are consistent; a corrupted family is flagged loudly."""
    t0 = time.perf_counter()
    worst = 0.0
    for name, shift, v in stock_systems():
        pm = build_path_measure(shift, v, solved_base(shift, v), tol=1e-11)
        for depth in range(1, 5):
            for n in range(6):
                res = check_consistency(pm, n, depth)
                worst = max(worst, res)
                assert res <= 1e-12, (name, n, depth)
            res = check_quasi_invariance(pm, depth, 6)
            worst = max(worst, res)
            assert res <= 1e-12, (name, depth)
    cfg = tmp_path / "corrupted.json"
    cfg.write_text(json.dumps(CORRUPTED_CONFIG))
    code = cli_main(
        ["verify", "--config", str(cfg), "--depth", "1", "--steps", "2",
         "--out", str(tmp_path)]
    )
    assert code != 0
    flagged = json.loads((tmp_path / "verify_report.json").read_text())
    assert flagged["worst_residual"] >= 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report("c05 marginal checks", worst, elapsed, 2)


def test_c06_route_equivalence():
    """Raw pushforward equals density averaging, stepwise and iterated."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for matrix in (FULL2, GOLDEN):
        shift = build_subshift(matrix)
        rho = strongly_invariant_measure(shift)
        for _ in range(50):
            v = random_weight(shift, rng, int(rng.integers(1, 3)))
            d = int(rng.integers(1, 3))
            f = CylinderFunction(shift, d, rng.uniform(0.0, 2.0, shift.word_count(d)))
            mu = DensityMeasure(f, rho)
            dens = transform_measure(shift, v, mu)
            raw_in = RawMeasure(shift, dens.depth + 1, mu.masses_at(dens.depth + 1))
            raw_out = transform_measure(shift, v, raw_in, out_depth=dens.depth)
            gap = np.abs(dens.masses_at(dens.depth) - raw_out.masses_at(dens.depth)).max()
            worst = max(worst, gap)
            assert gap <= 1e-13
        # iterated form, with the flat companion weight made explicit
        one = CylinderFunction.constant(shift, 1.0)
        for _ in range(10):
            v = random_weight(shift, rng, int(rng.integers(1, 3)))
            vw = v * one
            f = CylinderFunction(shift, 1, rng.uniform(0.0, 2.0, shift.k))
            for n in (1, 2, 3):
                start = n + 2
                raw = RawMeasure(
                    shift, start, DensityMeasure(f, rho).masses_at(start)
                )
                g = f
                for i in range(n):
                    raw = transform_measure(shift, v, raw, out_depth=start - i - 1)
                    g = apply_transfer(shift, vw, g)
                lhs = raw.masses_at(2)
                rhs = DensityMeasure(g, rho).masses_at(2)
                gap = np.abs(lhs - rhs).max()
                worst = max(worst, gap)
                assert gap <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("c06 route equivalence", worst, elapsed, 5)


def test_c07_sampler_statistics():
    """1e5-path empirical cylinder frequencies sit inside the 3-sigma band."""
    t0 = time.perf_counter()
    shift = build_subshift(FULL2)
    v = weight_markov_full(shift)
    rho = strongly_invariant_measure(shift)
    mu0 = DensityMeasure(CylinderFunction.constant(shift, 1.0), rho)
    pm = build_path_measure(shift, v, mu0, tol=1e-11)
    mu1 = pm.marginal(1)
    for u in shift.words(1):
        for a in (1, 2):
            ratio = mu1.mass((a,) + u) / mu0.mass(u)
            assert ratio == SAMPLER_P[a - 1, u[0] - 1]
    worst = 0.0
    for seed in (11, 23, 37, 49, 58):
        for n in (1, 2, 3):
            for depth in (1, 2):
                rep = empirical_check(pm, n, 100000, depth, seed=seed)
                worst = max(worst, rep.max_dev / rep.sigma_bound)
                assert rep.passed, (seed, n, depth, rep.max_dev, rep.sigma_bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("c07 sampler statistics (worst dev/3sigma)", worst, elapsed, 30)


def test_c08_martingale_coordinates():
    """Tower projections are exact and coordinate L2 norms never decrease."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    systems = [s for s in stock_systems() if s[0] in ("full_markov", "golden_markov")]
    for name, shift, v in systems:
        pm = build_path_measure(shift, v, solved_base(shift, v), tol=1e-11)
        for _ in range(10):
            xi = random_function(shift, rng, int(rng.integers(1, 3)))
            mc = martingale_coordinates(pm, xi, 4)
            for n in range(4):
                stepped = project_once(pm, mc.coordinates[n + 1], n)
                gap = np.abs(stepped.values - mc.coordinates[n].values).max()
                worst = max(worst, gap)
                assert gap <= 1e-13, (name, n)
            norms = mc.norms()
            assert (np.diff(norms) >= -1e-12).all(), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report("c08 martingale tower", worst, elapsed, 2)


def test_c09_filter_isometry():
    """A filter whose squared modulus equals the weight acts isometrically."""
    t0 = time.perf_counter()
    shift = build_subshift(FULL2)
    v = weight_full_half(shift)
    pm = build_path_measure(shift, v, solved_base(shift, v), tol=1e-11)
    filt = CylinderFunction(
        shift,
        1,
        np.sqrt(np.array([1.5, 0.5])) * np.exp(1j * np.array([0.7, -0.2])),
    )
    residual = check_isometry(pm, filt, 2)
    assert residual <= 1e-13
    bad = CylinderFunction(shift, 1, np.array([1.0 + 0.0j, 1.0 + 0.0j]))
    with pytest.raises(FilterMismatch):
        check_isometry(pm, bad, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("c09 filter isometry", residual, elapsed, 1)


def test_c10_extremality_and_decomposition():
    """Connected systems are extreme points; split systems decompose exactly."""
    t0 = time.perf_counter()
    full = build_subshift(FULL2)
    v_full = CylinderFunction.constant(full, 1.0)
    mu_full = solved_base(full, v_full)
    rep = relative_ergodicity_dimension(full, mu_full, v_full)
    assert rep.solution_dim == 1
    assert rep.extremal_certificate
    worst = 0.0
    for matrix in (IDENT2, BLOCK4):
        shift = build_subshift(matrix)
        v = CylinderFunction.constant(shift, 1.0)
        mu0 = solved_base(shift, v)
        rep = relative_ergodicity_dimension(shift, mu0, v)
        assert rep.solution_dim >= 2
        assert not rep.extremal_certificate
        dec = decompose(shift, mu0, v)
        assert dec is not None
        for depth in (1, 2):
            mix = sum(lam * comp.masses_at(depth) for lam, comp in zip(dec.weights, dec.components))
            gap = np.abs(mix - mu0.masses_at(depth)).max()
            worst = max(worst, gap)
            assert gap <= 1e-13
            for comp in dec.components:
                defect = check_fixed_point(shift, v, comp, depth)
                worst = max(worst, defect)
                assert defect <= 1e-11
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report("c10 extremality", worst, elapsed, 2)


def test_c11_byte_identical_outputs(tmp_path):
    """Same config and seed give byte-identical artifacts, at any worker count."""
    cfg = tmp_path / "sampler.json"
    cfg.write_text(json.dumps(SAMPLER_CONFIG))
    base = [
        "sample", "--config", str(cfg), "--depth", "2", "--steps", "3",
        "--samples", "20000", "--seed", "42",
    ]
    runs = {
        "a": base + ["--workers", "1"],
        "b": base + ["--workers", "1"],
        "c": base + ["--workers", "4"],
    }
    blobs = {}
    for label, args in runs.items():
        out = tmp_path / label
        assert cli_main(args + ["--out", str(out)]) == 0
        blobs[label] = {
            name: (out / name).read_bytes()
            for name in ("samples.csv", "sample_report.json")
        }
    assert blobs["a"] == blobs["b"]
    assert blobs["a"] == blobs["c"]
    for sub, outputs in (
        (["invariant"], ("invariant_measure.csv", "invariant_report.json")),
        (["verify", "--steps", "2"], ("verify_report.json",)),
    ):
        pair = []
        for label in ("x", "y"):
            out = tmp_path / (sub[0] + label)
            assert cli_main(
                sub + ["--config", str(cfg), "--depth", "2", "--out", str(out)]
            ) == 0
            pair.append({name: (out / name).read_bytes() for name in outputs})
        assert pair[0] == pair[1]
    print("[c11 determinism] PASS  byte-identical across runs and workers {1,4}")
