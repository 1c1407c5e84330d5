import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaoa_landscape.core import Angles, ComputationError, TargetSpace, UsageError
from qaoa_landscape.experiments import STANDARD_ARM, run_success_comparison
from qaoa_landscape.landscape import LandscapeForm, approx_expected_f1, f1, f1_closed
from qaoa_landscape.optimize import (
    BETA_STEP_CAP,
    SCAN_CELLS_PER_QUBIT,
    OptConfig,
    _SEARCH_BLOCK,
    _best_gamma,
    best_angles,
    best_angles_all,
    maximize,
    optimize_instance,
    reduce_angles,
)
from qaoa_landscape.problems import build_ensemble
from qaoa_landscape.structure import StructuralSummary, aggregate

from angle_oracle import _derivative, best_value, bisected_angles, laurent_z
from conftest import (
    ANALYTIC_CASES, FAMILY_CASES, analytic_summaries, family_sources, oracle_spaces, random_space,
)


def n1_objective(beta, gamma):
    return (1 + math.sin(2 * beta) * math.sin(gamma)) / 2


class TestReduce:
    def test_wraparound(self):
        beta, gamma = reduce_angles(3 * math.pi / 2, -1.0)
        assert abs(beta - math.pi / 2) < 1e-12
        assert abs(gamma - (2 * math.pi - 1.0)) < 1e-12

    def test_canonical_fixed(self):
        assert reduce_angles(0.5, 4.0) == (0.5, 4.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(UsageError):
            OptConfig(coarse_beta=0)
        with pytest.raises(UsageError):
            OptConfig(refine_starts=0)
        with pytest.raises(UsageError):
            OptConfig(max_evals=100)  # smaller than the coarse scan


class TestMaximize:
    def test_finds_known_optimum(self):
        result = maximize(n1_objective)
        assert abs(result.angles.beta - math.pi / 4) < 1e-6
        assert abs(result.angles.gamma - math.pi / 2) < 1e-6
        assert abs(result.value - 1.0) < 1e-10

    def test_deterministic(self):
        a = maximize(n1_objective)
        b = maximize(n1_objective)
        assert a.angles == b.angles
        assert a.value == b.value
        assert a.evaluations == b.evaluations

    def test_constant_ties_break_to_origin(self):
        result = maximize(lambda b, g: 0.25)
        assert result.angles.beta == 0.0
        assert result.angles.gamma == 0.0
        assert result.value == 0.25

    def test_value_is_fresh_evaluation(self, rng):
        space = random_space(rng, 5, 6)
        result = maximize(lambda b, g: f1_closed(space, b, g))
        again = f1_closed(space, result.angles.beta, result.angles.gamma)
        assert abs(result.value - again) < 1e-12

    def test_refinement_never_loses_to_scan(self):
        config = OptConfig()
        result = maximize(n1_objective, config)
        scan_best = max(
            n1_objective(math.pi * i / config.coarse_beta, 2 * math.pi * j / config.coarse_gamma)
            for i in range(config.coarse_beta)
            for j in range(config.coarse_gamma)
        )
        assert result.value >= scan_best

    def test_scaling_leaves_argmax(self):
        base = maximize(n1_objective)
        scaled = maximize(lambda b, g: 3.0 * n1_objective(b, g))
        assert abs(base.angles.beta - scaled.angles.beta) < 1e-9
        assert abs(base.angles.gamma - scaled.angles.gamma) < 1e-9
        assert abs(scaled.value - 3.0 * base.value) < 1e-9

    def test_angles_land_in_canonical_domain(self, rng):
        for _ in range(3):
            space = random_space(rng, 4)
            result = maximize(lambda b, g: f1_closed(space, b, g))
            assert 0.0 <= result.angles.beta < math.pi
            assert 0.0 <= result.angles.gamma < 2 * math.pi

    def test_budget_respected(self):
        config = OptConfig(max_evals=1100)
        result = maximize(n1_objective, config)
        assert result.evaluations <= 1100

    def test_evaluations_count_every_call(self):
        for config in (OptConfig(), OptConfig(max_evals=32 * 32 + 3)):
            calls = []

            def counted(beta, gamma):
                calls.append((n1_objective(beta, gamma), beta, gamma))
                return calls[-1][0]

            result = maximize(counted, config)
            assert result.evaluations == len(calls)
            best = max(calls, key=lambda call: call[0])  # the first of equals
            assert (result.value, result.angles.beta, result.angles.gamma) == best
        assert len(calls) == config.max_evals  # the budget stops the search at once

    def test_non_finite_objective_rejected(self):
        with pytest.raises(ComputationError):
            maximize(lambda b, g: math.nan)


class TestInstanceAndProblem:
    def test_instance_value_matches_landscape(self, rng):
        space = random_space(rng, 5, 10)
        result = optimize_instance(space)
        assert abs(result.value - f1_closed(space, result.angles.beta, result.angles.gamma)) < 1e-12

    def test_instance_beats_boundary(self, rng):
        # the optimum can never undershoot the beta=0 plateau |T|/2^n
        space = random_space(rng, 5, 10)
        result = optimize_instance(space)
        assert result.value >= len(space) / 32 - 1e-12

    def test_problem_value_matches_approximation(self, rng):
        summary = aggregate([random_space(rng, 5) for _ in range(4)])
        result = best_angles(summary)
        want = approx_expected_f1(summary, result.angles.beta, result.angles.gamma)
        assert abs(result.value - want) < 1e-12

    def test_degenerate_summary_rejected(self):
        # a summary without mass cannot be built, so no search ever sees one
        with pytest.raises(UsageError, match="e_tsize must be in"):
            StructuralSummary(
                n=2,
                count=1,
                e_tsize=0.0,
                var_tsize=0.0,
                e_profile=np.zeros(3),
                e_pair=np.zeros((3, 3)),
            )

    def test_n1_target_space(self):
        result = optimize_instance(TargetSpace(1, (1,)))
        assert abs(result.angles.beta - math.pi / 4) < 1e-6
        assert abs(result.angles.gamma - math.pi / 2) < 1e-6


# the ensembles of acceptance criterion 9: (family, n, params), 50 instances at seed 0
CRITERION_9 = {
    "sat a=2": ("sat", 8, {"num_clauses": 16}),
    "sat a=4": ("sat", 8, {"num_clauses": 32}),
    "sat a=6": ("sat", 8, {"num_clauses": 48}),
    "uniform": ("uniform", 8, {"t_size": 128}),
    "clustered": ("clustered", 8, {}),
    "qrfactor": ("qrfactor", 12, {}),
}


@pytest.fixture(scope="module", params=list(CRITERION_9))
def criterion_9_sources(request):
    """The first 10 instances of one criterion-9 ensemble, then its summary."""
    family, n, params = CRITERION_9[request.param]
    spaces = [inst.target for inst in build_ensemble(family, n, 50, params, seed=0).instances]
    return spaces[:10] + [aggregate(spaces)]


def refine_steps(source, result) -> int:
    """The refinement's steps: evaluations less the 64n+1 scan betas and the refined beta."""
    return result.evaluations - (64 * source.n + 1) - 1


def objective(source):
    """The landscape of a space or a summary as a scalar (beta, gamma) function."""
    if isinstance(source, StructuralSummary):
        return lambda beta, gamma: approx_expected_f1(source, beta, gamma)
    return lambda beta, gamma: f1_closed(source, beta, gamma)


class TestBestAngles:
    def test_at_least_the_2d_search(self, criterion_9_sources):
        for source in criterion_9_sources:
            assert best_angles(source).value >= maximize(objective(source)).value - 1e-9

    def test_value_is_the_landscape_at_its_angles(self, criterion_9_sources):
        for source in criterion_9_sources:
            result = best_angles(source)
            want = objective(source)(result.angles.beta, result.angles.gamma)
            assert abs(result.value - want) <= 1e-12

    @pytest.mark.parametrize("family, n, params", FAMILY_CASES)
    def test_value_has_the_bits_of_f1(self, family, n, params):
        # every space and the empirical summary: the value is f1's own, not a close copy
        for source in family_sources(family, n, params):
            result = best_angles(source)
            want = f1(source, result.angles.beta, result.angles.gamma)
            assert result.value.hex() == float(want).hex()

    @pytest.mark.parametrize("n, t", ANALYTIC_CASES)
    def test_value_has_the_bits_of_f1_analytic(self, n, t):
        for source in analytic_summaries(n, t):
            result = best_angles(source)
            want = f1(source, result.angles.beta, result.angles.gamma)
            assert result.value.hex() == float(want).hex()

    def test_angles_in_the_half_domain(self, criterion_9_sources):
        for source in criterion_9_sources:
            result = best_angles(source)
            assert 0.0 <= result.angles.beta <= math.pi / 2
            assert 0.0 <= result.angles.gamma < 2 * math.pi
            assert 1 <= refine_steps(source, result) <= BETA_STEP_CAP

    def test_never_below_its_scan(self, rng):
        space = random_space(rng, 6, 9)
        betas = np.linspace(0.0, math.pi / 2, 64 * 6 + 1)
        gammas = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
        assert best_angles(space).value >= f1(space, betas, gammas).max()

    def test_n1_target_space(self):
        result = best_angles(TargetSpace(1, (1,)))
        assert abs(result.angles.beta - math.pi / 4) < 1e-6
        assert abs(result.angles.gamma - math.pi / 2) < 1e-6
        assert abs(result.value - 1.0) < 1e-12

    def test_flat_landscape_ties_break_to_origin(self, monkeypatch):
        # zero statistics give z == 0 at every beta: every beta and every gamma tie;
        # no summary holds them, so the search is handed the form itself
        flat = LandscapeForm(n=3, scale=1 / 8, profile=np.zeros(4), even=np.zeros(4))
        monkeypatch.setattr(LandscapeForm, "of", classmethod(lambda cls, source: flat))
        result = best_angles(TargetSpace(3, (0,)))
        assert (result.angles.beta, result.angles.gamma) == (0.0, 0.0)
        assert result.value == 1 / 8

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_space_takes_the_tie_unsearched(self, n):
        # |T| = 2^n: F1 = 1 at every angle, so the angles are the documented tie, not noise
        full = TargetSpace(n, tuple(range(1 << n)))
        result = best_angles(full)
        assert (result.angles.beta, result.angles.gamma) == (0.0, 0.0)
        assert result.value == 1.0 == f1_closed(full, 0.0, 0.0)
        assert result.evaluations == 0

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_full_space_summaries_take_the_tie(self, n):
        full = TargetSpace(n, tuple(range(1 << n)))
        summaries = [aggregate([full, full]), *analytic_summaries(n, 1 << n)]
        for result in best_angles_all(summaries):
            assert (result.angles.beta, result.angles.gamma) == (0.0, 0.0)
            assert (result.value, result.evaluations) == (1.0, 0)

    def test_full_spaces_leave_the_others_searched(self):
        full, other = TargetSpace(3, tuple(range(8))), TargetSpace(3, (1, 2))
        alone = best_angles(other)
        first, searched, last = best_angles_all([full, other, full])
        assert (first.evaluations, last.evaluations) == (0, 0)
        assert searched.angles == alone.angles and searched.value == alone.value
        assert searched.evaluations == alone.evaluations > 64 * 3 + 1

    def test_z_zero_raises_no_warning(self, monkeypatch):
        # z == 0 leaves the Newton step undefined; the search takes the midpoint silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best_angles(TargetSpace(1, (1,)))
            flat = LandscapeForm(n=3, scale=1 / 8, profile=np.zeros(4), even=np.zeros(4))
            monkeypatch.setattr(LandscapeForm, "of", classmethod(lambda cls, source: flat))
            best_angles(TargetSpace(3, (0,)))

    def test_non_finite_landscape_is_computation_error(self, monkeypatch):
        huge = LandscapeForm(
            n=1, scale=0.5, profile=np.array([1.0, 1e308]), even=np.full(2, 1e308)
        )
        monkeypatch.setattr(LandscapeForm, "of", classmethod(lambda cls, source: huge))
        with np.errstate(all="ignore"), pytest.raises(ComputationError, match="not finite"):
            best_angles(TargetSpace(1, (0,)))

    @pytest.mark.parametrize(
        "z, gamma",
        [(0j, 0.0), (complex(-0.0, -0.0), 0.0), (complex(0.0, -0.0), 0.0),
         (1 + 0j, math.pi), (-1j, math.pi / 2), (complex(-1.0, 1e-17), 0.0)],
    )
    def test_best_gamma(self, z, gamma):
        # signed zeros all tie to 0; a tiny negative angle wraps to 0, not to 2*pi
        assert _best_gamma(z) == gamma

    def test_same_bits_alone_and_from_compare(self):
        ensemble = build_ensemble("uniform", 5, 6, {"t_size": 5}, seed=3)
        report = run_success_comparison(ensemble, shots=10, seed=3)
        columns = (c[STANDARD_ARM].tolist() for c in (report.betas, report.gammas, report.probs))
        for inst, beta, gamma, prob in zip(ensemble.instances, *columns):
            alone = best_angles(inst.target)
            assert Angles(beta, gamma) == alone.angles
            assert prob == alone.value
        shared = best_angles(aggregate([inst.target for inst in ensemble.instances]))
        assert report.shared_angles == shared.angles and report.shared_value == shared.value

    def test_batched_rejects_mixed_widths_and_no_sources(self):
        with pytest.raises(UsageError):
            best_angles_all([TargetSpace(3, (1,)), TargetSpace(4, (1,))])
        with pytest.raises(UsageError):
            best_angles_all([])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 4), st.data())
    def test_batched_results_are_the_lone_ones(self, n, count, data):
        spaces = [data.draw(oracle_spaces(n)) for _ in range(count)]
        sources = [*spaces, aggregate(spaces)]
        for source, batched in zip(sources, best_angles_all(sources), strict=True):
            alone = best_angles(source)
            assert batched.angles == alone.angles
            assert batched.value == alone.value and batched.evaluations == alone.evaluations

    def test_search_keeps_no_scan_row_per_source(self):
        # the scan keeps each source's best index and peak, not its 64n+1 peaks
        n = 20
        spaces = [inst.target for inst in build_ensemble("qrfactor", n, 2000, {}, seed=1).instances]
        forms = [LandscapeForm.of(space) for space in spaces]
        peaks = []
        for count in (1000, 2000):
            tracemalloc.start()
            try:
                best_angles_all(forms[:count])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        row = (SCAN_CELLS_PER_QUBIT * n + 1) * 8
        assert (peaks[1] - peaks[0]) / 1000 < row

    def test_search_memory_holds_one_block(self):
        # each block has its own coefficients and refinement arrays: only the results
        # grow with the sources (the whole-stack search grew by 5.4 KB a source here)
        instances = build_ensemble("qrfactor", 20, 4000, {}, seed=11).instances
        forms = [LandscapeForm.of(inst.target) for inst in instances]
        peaks = []
        for count in (1000, 4000):
            tracemalloc.start()
            try:
                best_angles_all(forms[:count])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 3000 < 1024

    def test_blocks_keep_the_lone_bits(self):
        # flat forms between the searched ones shift where each block starts
        spaces = [inst.target for inst in build_ensemble("uniform", 6, 2 * _SEARCH_BLOCK + 5,
                                                         {"t_size": 5}, seed=9).instances]
        full = TargetSpace(6, range(64))
        sources = [full, *spaces[:100], full, *spaces[100:], full]
        for source, batched in zip(sources, best_angles_all(sources), strict=True):
            alone = best_angles(source)
            assert batched.angles == alone.angles
            assert batched.value == alone.value and batched.evaluations == alone.evaluations


def ulps_apart(a: float, b: float) -> int:
    """How many floats from a to b, for a, b >= 0."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def assert_bisection_bits(source, result):
    """The search's angles and value are those of the bisection oracle, to the bit."""
    beta, value = bisected_angles(source)
    assert (result.angles.beta.hex(), result.value.hex()) == (beta.hex(), value.hex())


class TestBisectionOracle:
    """The refinement's Newton steps against the 52 bisections they replace."""

    @pytest.mark.parametrize("family, n, params", FAMILY_CASES)
    def test_family_sources(self, family, n, params):
        sources = family_sources(family, n, params)
        for source, result in zip(sources, best_angles_all(sources), strict=True):
            assert_bisection_bits(source, result)

    @pytest.mark.parametrize("family, n, params", FAMILY_CASES)
    def test_family_sources_refine_in_few_steps(self, family, n, params):
        # bisection takes all 52 steps; Newton's end in 4 to 6 on these
        sources = family_sources(family, n, params)
        for source, result in zip(sources, best_angles_all(sources), strict=True):
            assert refine_steps(source, result) <= 8

    def test_criterion_9_sources(self, criterion_9_sources):
        for source, result in zip(criterion_9_sources, best_angles_all(criterion_9_sources)):
            assert_bisection_bits(source, result)

    @pytest.mark.parametrize("n, t", ANALYTIC_CASES)
    def test_analytic_summaries(self, n, t):
        for summary in analytic_summaries(n, t):
            assert_bisection_bits(summary, best_angles(summary))

    def test_plateau_does_not_creep(self):
        # the slope is exactly 0 across ~1e-12 of beta near 0.7854: Newton points on an end
        # of the bracket, each moved one float in, would shrink it by a float a step to the cap
        full = TargetSpace(3, tuple(range(8)))
        summary = aggregate([full, full, TargetSpace(3, (2, 5))])
        result = best_angles(summary)
        assert_bisection_bits(summary, result)
        assert refine_steps(summary, result) < BETA_STEP_CAP

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 3), st.data())
    def test_random_spaces_and_summaries(self, n, count, data):
        spaces = [data.draw(oracle_spaces(n)) for _ in range(count)]
        sources = [*spaces, aggregate(spaces)]
        for source, result in zip(sources, best_angles_all(sources)):
            beta, value = bisected_angles(source)
            if (result.angles.beta, result.value) != (beta, value):
                # where the slope's sign is rounding noise the two may end apart
                assert ulps_apart(result.angles.beta, beta) <= 16
                assert result.value >= value - 1e-13 * result.value


def assert_no_stationary_point_beats(source, result):
    """The search's value against the exact oracle's best stationary point."""
    oracle = best_value(source)
    assert result.value >= oracle - 1e-12 * result.value  # no narrow peak was missed
    assert oracle >= result.value - 1e-9 * result.value  # and the oracle found the peak too


def peak_and_slope(source, beta):
    """g = 1 + 2 Re z + 2|z| and g' at beta, with z from the binomial expansion."""
    coeffs = laurent_z(source)
    waves = np.exp(2j * beta * np.arange(-source.n, source.n + 1))
    z, dz = coeffs @ waves, _derivative(coeffs) @ waves
    return 1 + 2 * z.real + 2 * abs(z), 2 * dz.real + 2 * (z.conjugate() * dz).real / abs(z)


class TestExactOracle:
    def test_criterion_9_sources(self, criterion_9_sources):
        for source in criterion_9_sources:
            assert_no_stationary_point_beats(source, best_angles(source))

    def test_refined_beta_is_stationary(self, criterion_9_sources):
        for source in criterion_9_sources:
            beta = best_angles(source).angles.beta
            if 0.0 < beta < math.pi / 2:
                peak, slope = peak_and_slope(source, beta)
                assert abs(slope) <= 1e-10 * peak

    def test_z_imaginary_up_to_rounding(self):
        # u ~ 1e-17 everywhere: the peak, at beta = pi/4, is a double root of v'
        full = TargetSpace(2, (0, 1, 2, 3))
        summary = aggregate([full, full, TargetSpace(2, (2, 3))])
        result = best_angles(summary)
        assert result.value == pytest.approx(10 / 9, rel=1e-12)
        assert_no_stationary_point_beats(summary, result)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 3), st.data())
    def test_random_spaces_and_summaries(self, n, count, data):
        spaces = [data.draw(oracle_spaces(n)) for _ in range(count)]
        sources = [*spaces, aggregate(spaces)]
        for source, result in zip(sources, best_angles_all(sources)):
            assert_no_stationary_point_beats(source, result)
