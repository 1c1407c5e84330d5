"""Acceptance suite: the twelve contract checks for this package.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s) carrying
the measured margin, and asserts the stated tolerance.  Shared ensembles
are session fixtures so expensive generation happens once.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qaoa_landscape import cli
from qaoa_landscape.analytic import (
    EXACT_MODE,
    PAPER_MODE,
    UniformModel,
    pmf_joint,
    pmf_single,
    summary_analytic,
)
from qaoa_landscape.core import AngleGrid, TargetSpace, binomial
from qaoa_landscape.experiments import run_landscape_comparison, run_success_comparison
from qaoa_landscape.landscape import (
    f1,
    f1_closed,
    f1_statevector,
    fn_matrix,
    mean_ck_squared,
    w_matrix,
)
from qaoa_landscape.optimize import maximize
from qaoa_landscape.problems import build_ensemble
from qaoa_landscape.structure import aggregate


@contextmanager
def criterion(number, description):
    info = {}
    try:
        yield info
    except Exception:
        print(f"\n[FAIL] criterion {number:02d} {description}")
        raise
    detail = f" ({info['detail']})" if "detail" in info else ""
    print(f"\n[PASS] criterion {number:02d} {description}{detail}")


def random_space(rng, n, size):
    return TargetSpace.from_iterable(n, rng.choice(1 << n, size=size, replace=False))


def ensemble_summary(ensemble):
    return aggregate([inst.target for inst in ensemble.instances])


@pytest.fixture(scope="session")
def uniform500():
    return build_ensemble("uniform", 8, 500, {"t_size": 128}, seed=1)


@pytest.fixture(scope="session")
def clustered200():
    return {
        8: build_ensemble("clustered", 8, 200, {}, seed=2),
        9: build_ensemble("clustered", 9, 200, {}, seed=3),
    }


@pytest.fixture(scope="session")
def qrfactor100():
    return build_ensemble("qrfactor", 12, 100, {}, seed=5)


def test_criterion_01_closed_form_matches_statevector():
    with criterion(1, "closed form matches statevector simulation") as info:
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for i in range(100):
            n = 4 + i % 7
            space = random_space(rng, n, int(rng.integers(1, (1 << n) + 1)))
            for _ in range(20):
                beta = float(rng.uniform(0, math.pi))
                gamma = float(rng.uniform(0, 2 * math.pi))
                diff = abs(
                    f1_closed(space, beta, gamma) - f1_statevector(space, beta, gamma)
                )
                worst = max(worst, diff)
        elapsed = time.perf_counter() - start
        assert worst < 1e-9
        assert elapsed < 60.0
        info["detail"] = f"max |diff| {worst:.2e}, {elapsed:.1f}s"


def test_criterion_02_boundary_angles_collapse():
    with criterion(2, "zero-angle landscapes equal |T|/2^n") as info:
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(4, 11))
            space = random_space(rng, n, int(rng.integers(1, (1 << n) + 1)))
            flat = len(space) / (1 << n)
            gamma = float(rng.uniform(0, 2 * math.pi))
            beta = float(rng.uniform(0, math.pi))
            worst = max(
                worst,
                abs(f1_closed(space, 0.0, gamma) - flat),
                abs(f1_closed(space, beta, 0.0) - flat),
            )
        assert worst < 1e-12
        info["detail"] = f"max |diff| {worst:.2e} over 1000 cases"


def test_criterion_03_aggregation_is_exactly_linear():
    with criterion(3, "aggregated summary reproduces the ensemble mean") as info:
        ensembles = [
            build_ensemble("uniform", 6, 20, {"t_size": 12}, seed=31),
            build_ensemble("clustered", 7, 20, {}, seed=32),
            build_ensemble("sat", 6, 20, {"num_clauses": 12}, seed=33),
            build_ensemble("kclique", 7, 20, {}, seed=34),
            build_ensemble("qrfactor", 10, 20, {}, seed=35),
        ]
        grid = AngleGrid(0.0, math.pi, 0.0, 2 * math.pi * 4 / 5, 5, 5)
        worst = 0.0
        for ensemble in ensembles:
            spaces = [inst.target for inst in ensemble.instances]
            summary = ensemble_summary(ensemble)
            for beta in grid.betas():
                fn = fn_matrix(float(beta), ensemble.n)
                for gamma in grid.gammas():
                    quad = complex(
                        fn @ w_matrix(float(gamma), summary) @ fn.conj()
                    ).real
                    direct = float(
                        np.mean(
                            [mean_ck_squared(s, float(beta), float(gamma)) for s in spaces]
                        )
                    )
                    rel = abs(direct - quad) / max(abs(quad), 1e-15)
                    worst = max(worst, rel)
        assert worst < 1e-9
        info["detail"] = f"max relative diff {worst:.2e}, 5 families x 25 points"


def test_criterion_04_error_bounded_by_variances(clustered200):
    with criterion(4, "approximation error within the variance bound") as info:
        grid = AngleGrid(0.0, math.pi, 0.0, 2 * math.pi * 49 / 50, 50, 50)
        result = run_landscape_comparison(clustered200[8], grid)
        slack = float((result.error.values - result.bound.values).max())
        assert slack <= 1e-12
        info["detail"] = f"max (error - bound) {slack:.2e} on 50x50"


def test_criterion_05_constant_size_family_is_exact(qrfactor100):
    with criterion(5, "constant-|T| ensemble approximated to 1e-9") as info:
        grid = AngleGrid(0.0, math.pi, 0.0, 2 * math.pi * 49 / 50, 50, 50)
        result = run_landscape_comparison(qrfactor100, grid)
        worst = float(result.error.values.max())
        assert worst < 1e-9
        info["detail"] = f"max |mean - approx| {worst:.2e} on 50x50"


def test_criterion_06_exhaustive_two_target_enumeration():
    with criterion(6, "n=3 two-target spaces: enumeration matches approximation") as info:
        start = time.perf_counter()
        spaces = [
            TargetSpace.from_iterable(3, pair)
            for pair in itertools.combinations(range(8), 2)
        ]
        assert len(spaces) == 28
        summary = aggregate(spaces)
        grid = AngleGrid(0.0, math.pi, 0.0, 2 * math.pi * 4 / 5, 5, 5)
        approx = f1(summary, grid.betas(), grid.gammas()).ravel()
        worst = 0.0
        i = 0
        for beta in grid.betas():
            for gamma in grid.gammas():
                exact = np.mean(
                    [f1_closed(s, float(beta), float(gamma)) for s in spaces]
                )
                worst = max(worst, abs(float(exact) - approx[i]))
                i += 1
        elapsed = time.perf_counter() - start
        assert worst < 1e-12
        assert elapsed < 1.0
        info["detail"] = f"max |diff| {worst:.2e}, {elapsed:.2f}s"


def test_criterion_07_analytic_uniform_model_tracks_sample(uniform500):
    with criterion(7, "analytic uniform model tracks the empirical mean") as info:
        start = time.perf_counter()
        betas = np.linspace(0.0, math.pi, 100)
        gamma_c = 1.2
        curves = [
            f1(inst.target, betas, gamma_c)
            for inst in uniform500.instances
        ]
        empirical = np.mean(curves, axis=0)
        deviations = {}
        for mode in (PAPER_MODE, EXACT_MODE):
            summary = summary_analytic(UniformModel(8, 128, mode))
            deviations[mode] = float(
                np.abs(empirical - f1(summary, betas, gamma_c)).max()
            )
        elapsed = time.perf_counter() - start
        assert deviations[PAPER_MODE] < 0.02
        assert deviations[EXACT_MODE] <= deviations[PAPER_MODE] + 0.005
        assert elapsed < 120.0
        info["detail"] = (
            f"paper dev {deviations[PAPER_MODE]:.4f}, "
            f"exact dev {deviations[EXACT_MODE]:.4f}, {elapsed:.1f}s"
        )


def test_criterion_08_clustered_error_below_spread(clustered200):
    with criterion(8, "clustered error stays below the instance spread") as info:
        betas = np.linspace(0.0, math.pi, 100)
        gamma_c = 1.2
        fractions = {}
        for n, ensemble in clustered200.items():
            spaces = [inst.target for inst in ensemble.instances]
            curves = np.array([f1(s, betas, gamma_c) for s in spaces])
            mean = curves.mean(axis=0)
            spread = curves.std(axis=0)
            approx = f1(ensemble_summary(ensemble), betas, gamma_c)
            ok = np.abs(mean - approx) <= spread
            fractions[n] = float(ok.mean())
            assert fractions[n] >= 0.98
        info["detail"] = ", ".join(
            f"n={n}: {frac:.0%} of 100 points" for n, frac in sorted(fractions.items())
        )


def test_criterion_09_shared_angles_match_per_instance_optimisation():
    with criterion(9, "shared-angle pipeline keeps >= 0.9x per-instance mean") as info:
        runs = [("sat a=2", build_ensemble("sat", 8, 50, {"num_clauses": 16}, seed=0))]
        runs.append(("sat a=4", build_ensemble("sat", 8, 50, {"num_clauses": 32}, seed=0)))
        runs.append(("sat a=6", build_ensemble("sat", 8, 50, {"num_clauses": 48}, seed=0)))
        runs.append(("uniform", build_ensemble("uniform", 8, 50, {"t_size": 128}, seed=0)))
        runs.append(("clustered", build_ensemble("clustered", 8, 50, {}, seed=0)))
        runs.append(("qrfactor", build_ensemble("qrfactor", 12, 50, {}, seed=0)))
        ratios = {}
        for label, ensemble in runs:
            report = run_success_comparison(ensemble, shots=50, seed=0)
            ratios[label] = report.mean_noniterative / report.mean_standard
            assert ratios[label] >= 0.9
        info["detail"] = ", ".join(f"{k}: {v:.3f}" for k, v in ratios.items())


def test_criterion_10_hypergeometric_model_sanity():
    with criterion(10, "profile pmfs normalise and match Monte-Carlo moments") as info:
        worst_norm = 0.0
        for n in range(1, 13):
            t_max = min(64, 1 << n)
            for t in range(1, t_max + 1):
                model = UniformModel(n, t)
                draws = t - 1
                for d in range(n + 1):
                    top = min(draws, binomial(n, d)) if d else 1
                    total = sum(pmf_single(model, d, x) for x in range(top + 1))
                    worst_norm = max(worst_norm, abs(total - 1.0))
            for t in sorted({1, 2, 9, 33, t_max} & set(range(1, t_max + 1))):
                model = UniformModel(n, t)
                draws = t - 1
                for d1 in range(n + 1):
                    for d2 in range(d1, n + 1):
                        top1 = min(draws, binomial(n, d1)) if d1 else 1
                        total = 0.0
                        for x1 in range(top1 + 1):
                            top2 = min(draws, binomial(n, d2)) if d2 else 1
                            if d1 and d2 and d1 != d2:
                                top2 = min(draws - x1, binomial(n, d2))
                            for x2 in range(top2 + 1):
                                total += pmf_joint(model, d1, x1, d2, x2)
                        worst_norm = max(worst_norm, abs(total - 1.0))
        assert worst_norm < 1e-9

        # Monte-Carlo moments at n=6, |T| = 8: reference 0 plus 7 companions
        rng = np.random.default_rng(2718)
        trials = 100_000
        companions = rng.random((trials, 63)).argsort(axis=1)[:, :7] + 1
        dists = np.bitwise_count(companions.astype(np.uint64))
        counts = np.ones((trials, 7))
        for d in range(1, 7):
            counts[:, d] = (dists == d).sum(axis=1)
        summary = summary_analytic(UniformModel(6, 8, EXACT_MODE))
        worst_z = 0.0
        for d in range(7):
            se = counts[:, d].std(ddof=1) / math.sqrt(trials)
            diff = abs(counts[:, d].mean() - summary.e_profile[d])
            if se == 0.0:
                assert diff < 1e-12
            else:
                worst_z = max(worst_z, diff / se)
        for d1 in range(7):
            for d2 in range(d1, 7):
                prod = counts[:, d1] * counts[:, d2]
                se = prod.std(ddof=1) / math.sqrt(trials)
                diff = abs(prod.mean() - summary.e_pair[d1, d2])
                if se == 0.0:
                    assert diff < 1e-12
                else:
                    worst_z = max(worst_z, diff / se)
        assert worst_z < 5.0
        info["detail"] = f"max |norm - 1| {worst_norm:.2e}, max MC z-score {worst_z:.2f}"


def test_criterion_11_single_qubit_family_and_optimum():
    with criterion(11, "n=1 closed form and optimiser recover the known optimum") as info:
        space = TargetSpace(1, (1,))
        rng = np.random.default_rng(1111)
        worst = 0.0
        for _ in range(1000):
            beta = float(rng.uniform(0, math.pi))
            gamma = float(rng.uniform(0, 2 * math.pi))
            exact = (1 + math.sin(2 * beta) * math.sin(gamma)) / 2
            worst = max(worst, abs(f1_closed(space, beta, gamma) - exact))
        assert worst < 1e-12
        result = maximize(lambda b, g: f1_closed(space, b, g))
        beta_err = abs(result.angles.beta - math.pi / 4)
        gamma_err = abs(result.angles.gamma - math.pi / 2)
        assert beta_err < 1e-6
        assert gamma_err < 1e-6
        info["detail"] = (
            f"max |diff| {worst:.2e}, angle error ({beta_err:.1e}, {gamma_err:.1e})"
        )


def test_criterion_12_pipelines_deterministic_across_threads(tmp_path):
    with criterion(12, "pipelines byte-identical across thread counts") as info:
        ens = tmp_path / "e.json"
        assert cli.main([
            "gen", "--family", "uniform", "--n", "6", "--count", "8",
            "--t-size", "10", "--seed", "7", "--out", str(ens),
        ]) == 0
        ens_again = tmp_path / "e2.json"
        cli.main([
            "gen", "--family", "uniform", "--n", "6", "--count", "8",
            "--t-size", "10", "--seed", "7", "--out", str(ens_again),
        ])
        assert ens.read_bytes() == ens_again.read_bytes()

        def run_compare(threads):
            argv = ["compare", "--ensemble", str(ens), "--shots", "20",
                    "--seed", "7", "--out-prefix", str(tmp_path / "run")]
            if threads is not None:
                argv += ["--threads", str(threads)]
            assert cli.main(argv) == 0
            return {
                name: (tmp_path / name).read_bytes()
                for name in ("run.csv", "run.json", "run_config.json")
            }

        def run_landscape(threads):
            argv = ["landscape", "--ensemble", str(ens), "--grid", "10x10",
                    "--out-prefix", str(tmp_path / "ls")]
            if threads is not None:
                argv += ["--threads", str(threads)]
            assert cli.main(argv) == 0
            return {
                name: (tmp_path / name).read_bytes()
                for name in ("ls_mean.csv", "ls_approx.csv", "ls_error.csv",
                             "ls_bound.csv", "ls_cross.csv")
            }

        for run in (run_compare, run_landscape):
            baseline = run(1)
            for threads in (1, 4, None):  # None leaves the flag out
                assert run(threads) == baseline
        info["detail"] = "gen/compare/landscape identical at threads 1, 4, max"
