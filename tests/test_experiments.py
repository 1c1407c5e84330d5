import math
import tracemalloc

import numpy as np
import pytest

from qaoa_landscape import experiments, landscape, problems
from qaoa_landscape.core import AngleGrid, ComputationError, TargetSpace, UsageError, streams
from qaoa_landscape.experiments import (
    DEFAULT_GAMMA_C,
    MAX_ALPHA,
    NONITERATIVE_ARM,
    STANDARD_ARM,
    run_landscape_comparison,
    run_sat_alpha,
    run_success_comparison,
)
from qaoa_landscape.landscape import (
    LandscapeForm, approx_expected_f1, f1, f1_closed, form_z, mean_ck_squared, z_f1,
)
from qaoa_landscape.optimize import best_angles_all
from qaoa_landscape.problems import Ensemble, Instance, build_ensemble
from qaoa_landscape.structure import StructuralSummary, aggregate

import landscape_oracle
from conftest import numpy_stream, patch_last_shared_f1

# one small ensemble per family: (family, n, params)
FAMILY_CASES = [
    ("uniform", 8, {"t_size": 40}),
    ("clustered", 8, {}),
    ("sat", 8, {"num_clauses": 24}),
    ("kclique", 10, {}),
    ("qrfactor", 12, {}),
]


def count_mixer_builds(monkeypatch) -> list:
    """Record the width of every landscape.fn_matrix call from now on."""
    builds, build = [], landscape.fn_matrix

    def counted(betas, n):
        builds.append(n)
        return build(betas, n)

    monkeypatch.setattr(landscape, "fn_matrix", counted)
    return builds


def spaces_report(*spaces, shots, seed):
    """The two-arm report of an ensemble of the given spaces, with ids 0, 1, ..."""
    instances = tuple(Instance(i, space) for i, space in enumerate(spaces))
    return run_success_comparison(Ensemble("uniform", spaces[0].n, seed, {}, instances),
                                  shots, seed)


def numpy_hits(report) -> list:
    """Each arm's hits drawn by numpy itself: Binomial(shots, clamped F1) from (id, arm)."""
    def draw(instance_id, arm, p):
        rng = numpy_stream(report.seed, (instance_id, arm))
        return int(rng.binomial(report.shots, min(max(p, 0.0), 1.0)))

    return [[draw(i, arm, p) for i, p in zip(report.ids, row)]
            for arm, row in enumerate(report.probs.tolist())]


class TestSampleShots:
    def test_deterministic_per_stream(self):
        space = TargetSpace(4, (3, 9, 12))
        a = spaces_report(space, shots=200, seed=7)
        b = spaces_report(space, shots=200, seed=7)
        assert a.hits.tolist() == b.hits.tolist() == numpy_hits(a)

    def test_streams_differ_by_arm(self):
        # one instance: its own angles are its summary's, so both arms draw at one F1
        report = spaces_report(TargetSpace(4, (3, 9, 12)), shots=500, seed=7)
        assert report.probs[STANDARD_ARM, 0] == report.probs[NONITERATIVE_ARM, 0]
        assert report.hits[STANDARD_ARM, 0] != report.hits[NONITERATIVE_ARM, 0]
        assert report.hits.tolist() == numpy_hits(report)

    def test_bounds(self):
        report = spaces_report(TargetSpace(3, (1, 6)), TargetSpace(3, (2,)), shots=64, seed=0)
        assert ((0 <= report.hits) & (report.hits <= 64)).all()

    def test_full_space_always_hits(self):
        report = spaces_report(TargetSpace(2, (0, 1, 2, 3)), shots=50, seed=1)
        assert report.hits.tolist() == [[50], [50]]

    def test_matches_success_probability(self):
        # binomial check: observed rate within 5 standard errors of exact F1
        shots = 20000
        report = spaces_report(TargetSpace(5, tuple(range(7))), TargetSpace(5, (1, 30)),
                               shots=shots, seed=42)
        se = np.sqrt(report.probs * (1 - report.probs) / shots)
        assert (abs(report.hits / shots - report.probs) < 5 * se).all()

    def test_zero_shots_rejected(self):
        ensemble = build_ensemble("uniform", 2, 2, {"t_size": 1}, seed=0)
        with pytest.raises(UsageError, match="shots must be in"):
            run_success_comparison(ensemble, shots=0, seed=0)

    def test_beyond_statevector_width(self):
        report = spaces_report(TargetSpace(26, (1, 5)), shots=1000, seed=0)
        assert ((0 <= report.hits) & (report.hits <= 1000)).all()
        assert report.hits.tolist() == numpy_hits(report)

    @pytest.mark.parametrize("prob, hits", [(1.0 + 1e-12, 30), (-1e-12, 0)])
    def test_rounding_outside_unit_interval_is_clamped(self, monkeypatch, prob, hits):
        patch_last_shared_f1(monkeypatch, prob)
        ensemble = build_ensemble("uniform", 4, 3, {"t_size": 2}, seed=0)
        report = run_success_comparison(ensemble, shots=30, seed=0)
        assert report.probs[NONITERATIVE_ARM, -1] == prob  # reported as computed
        assert report.hits[NONITERATIVE_ARM, -1] == hits

    @pytest.mark.parametrize("prob", [1.5, -0.5, math.nan])
    def test_probability_outside_unit_interval_is_computation_error(self, monkeypatch, prob):
        patch_last_shared_f1(monkeypatch, prob)
        ensemble = build_ensemble("uniform", 4, 3, {"t_size": 2}, seed=0)
        with pytest.raises(ComputationError, match=f"^success probability {prob!r} is not in"):
            run_success_comparison(ensemble, shots=10, seed=0)


@pytest.fixture(scope="module")
def sat_run():
    ensemble = build_ensemble("sat", 6, 20, {"num_clauses": 12}, seed=5)
    grid = AngleGrid(0.0, np.pi, 0.0, 2 * np.pi, 12, 12)
    return ensemble, grid, run_landscape_comparison(ensemble, grid, gamma_c=1.2)


@pytest.fixture(scope="module")
def success_report():
    ensemble = build_ensemble("uniform", 5, 12, {"t_size": 6}, seed=11)
    return ensemble, run_success_comparison(ensemble, shots=40, seed=11)


class TestLandscapeComparison:
    def test_error_within_bound(self, sat_run):
        _, _, comparison = sat_run
        assert np.all(comparison.error.values <= comparison.bound.values + 1e-12)

    def test_bound_is_the_per_instance_error_bound(self, sat_run):
        ensemble, grid, comparison = sat_run
        spaces = [inst.target for inst in ensemble.instances]
        scaled = np.array([len(space) for space in spaces]) / 2**ensemble.n
        points = [(beta, gamma) for beta in grid.betas() for gamma in grid.gammas()]
        for i in (0, 17, 80, len(points) - 1):
            beta, gamma = points[i]
            values = [mean_ck_squared(space, beta, gamma) for space in spaces]
            assert comparison.bound.values[i] == pytest.approx(
                landscape_oracle.error_bound(scaled, values), rel=1e-9, abs=1e-15
            )

    @pytest.mark.parametrize(
        "family, n, params",
        [
            ("uniform", 10, {"t_size": 20}),
            ("sat", 10, {"num_clauses": 30}),
            ("clustered", 10, {"num_seeds": 3, "per_seed": 6}),
            ("kclique", 10, {}),
            ("qrfactor", 14, {}),
            ("sat", 16, {"num_clauses": 40}),
            ("clustered", 22, {"num_seeds": 4, "per_seed": 400, "dedupe": "drop"}),
        ],
    )
    def test_matches_the_per_instance_oracle(self, family, n, params):
        ensemble = build_ensemble(family, n, 20, params, seed=3)
        grid = AngleGrid(0.0, np.pi, 0.0, 2 * np.pi, 30, 20)
        comparison = run_landscape_comparison(ensemble, grid, gamma_c=1.2)
        want = landscape_oracle.compare(ensemble, grid, 1.2)
        got = {
            "mean": comparison.mean.values,
            "stddev": comparison.mean.stddev,
            "approx": comparison.approx.values,
            "error": comparison.error.values,
            "bound": comparison.bound.values,
            "cross": comparison.cross_section.values,
            "cross_stddev": comparison.cross_section.stddev,
        }
        for name, values in got.items():
            assert np.allclose(values, getattr(want, name).ravel(), rtol=0, atol=1e-12), name
        assert np.array_equal(comparison.approx.values, want.approx.ravel())
        assert np.array_equal(comparison.cross_section.approx, f1(comparison.summary, grid.betas(), 1.2))

    @pytest.mark.parametrize("family, n, params", FAMILY_CASES)
    def test_z_has_the_bits_of_a_lone_evaluation(self, monkeypatch, family, n, params):
        ensemble = build_ensemble(family, n, 6, params, seed=2)
        grid = AngleGrid(0.0, np.pi, 0.0, 2 * np.pi, 23, 7)
        seen = []

        def recorded(forms, betas):
            seen.append((list(forms), form_z(forms, betas)))
            return seen[-1][1]

        monkeypatch.setattr(experiments, "form_z", recorded)
        comparison = run_landscape_comparison(ensemble, grid, gamma_c=1.2)
        ((forms, every_z),) = seen  # one call: the 2n+2 unit forms, then the summary
        *units, shared = forms
        assert [np.concatenate((unit.profile, unit.even)).tolist() for unit in units] == (
            np.eye(2 * n + 2).tolist()
        )
        assert all(unit.n == n and unit.scale == 1.0 for unit in units)
        want = LandscapeForm.of(comparison.summary)
        assert shared.scale == want.scale
        assert np.array_equal(shared.profile, want.profile) and np.array_equal(shared.even, want.even)
        lone = landscape_oracle.lone_z(want, grid.betas())
        assert np.array_equal(every_z[-1].view(np.uint64), lone.view(np.uint64))

    @pytest.mark.parametrize("count", [3, 30])
    def test_one_mixer_build_whatever_the_count(self, monkeypatch, count):
        ensemble = build_ensemble("uniform", 6, count, {"t_size": 5}, seed=1)
        grid = AngleGrid(0.0, np.pi, 0.0, 2 * np.pi, 11, 5)
        builds = count_mixer_builds(monkeypatch)
        run_landscape_comparison(ensemble, grid)
        assert len(builds) == 1

    def test_memory_does_not_grow_with_count_times_grid(self):
        # per-instance grids would take 2 x 300 x 300 x 301 float64s (about 413 MiB)
        ensemble = build_ensemble("uniform", 8, 300, {"t_size": 20}, seed=0)
        grid = AngleGrid(0.0, np.pi, 0.0, 2 * np.pi, 300, 300)
        tracemalloc.start()
        try:
            run_landscape_comparison(ensemble, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("beta_steps", [30, 300])
    def test_peak_grows_by_less_than_4096_bytes_per_instance(self, beta_steps):
        # per instance only its form's row may add to the peak, whatever the beta count
        grid = AngleGrid(0.0, np.pi, 0.0, 2 * np.pi, beta_steps, 50)
        peaks = []
        for count in (200, 2000):
            ensemble = build_ensemble("uniform", 8, count, {"t_size": 20}, seed=0)
            tracemalloc.start()
            try:
                run_landscape_comparison(ensemble, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (2000 - 200) < 4096

    def test_default_cross_section_gamma(self, sat_run):
        ensemble, grid, comparison = sat_run
        default = run_landscape_comparison(ensemble, grid)
        assert default.cross_section.gamma_c == DEFAULT_GAMMA_C == 1.2
        assert np.array_equal(default.cross_section.values, comparison.cross_section.values)

    def test_mean_matches_direct_average(self, sat_run):
        ensemble, grid, comparison = sat_run
        betas = grid.betas()
        direct = np.mean(
            [f1(inst.target, betas, 1.2) for inst in ensemble.instances],
            axis=0,
        )
        assert np.allclose(comparison.cross_section.values, direct, atol=1e-12)

    def test_approx_matches_summary(self, sat_run):
        _, grid, comparison = sat_run
        point = approx_expected_f1(comparison.summary, grid.beta_min, grid.gamma_min)
        assert abs(comparison.approx.values[0] - point) < 1e-12


class TestSuccessComparison:
    def test_aggregates_consistent(self, success_report):
        _, rep = success_report
        for arm, mean, std in ((STANDARD_ARM, rep.mean_standard, rep.std_standard),
                               (NONITERATIVE_ARM, rep.mean_noniterative, rep.std_noniterative)):
            probs = np.array(rep.probs[arm].tolist())
            assert mean.hex() == probs.mean().hex()
            assert std.hex() == probs.std().hex()

    def test_columns_follow_the_ensemble(self, success_report):
        ensemble, rep = success_report
        assert rep.ids == tuple(inst.id for inst in ensemble.instances)
        for column in (rep.betas, rep.gammas, rep.probs, rep.hits):
            assert column.shape == (2, len(ensemble.instances))

    def test_probs_match_landscape(self, success_report):
        ensemble, rep = success_report
        own_angles = zip(rep.betas[STANDARD_ARM].tolist(), rep.gammas[STANDARD_ARM].tolist())
        for inst, (beta, gamma), own_prob, shared_prob in zip(
            ensemble.instances, own_angles, *rep.probs.tolist()
        ):
            own = f1_closed(inst.target, beta, gamma)
            shared = f1_closed(
                inst.target, rep.shared_angles.beta, rep.shared_angles.gamma
            )
            assert own_prob.hex() == own.hex()  # the search's value is f1's
            assert abs(shared_prob - shared) < 1e-12

    def test_shared_angles_used_everywhere(self, success_report):
        _, rep = success_report
        assert (rep.betas[NONITERATIVE_ARM] == rep.shared_angles.beta).all()
        assert (rep.gammas[NONITERATIVE_ARM] == rep.shared_angles.gamma).all()

    def test_standard_arm_never_below_shared(self, success_report):
        # per-instance optimisation saw the shared angles' value among candidates
        _, rep = success_report
        assert (rep.probs[STANDARD_ARM] >= rep.probs[NONITERATIVE_ARM] - 1e-9).all()

    def test_shared_value_is_approximation(self, success_report):
        ensemble, rep = success_report
        summary = aggregate([inst.target for inst in ensemble.instances])
        want = approx_expected_f1(
            summary, rep.shared_angles.beta, rep.shared_angles.gamma
        )
        assert abs(rep.shared_value - want) < 1e-12

    def test_hits_bounded_by_shots(self, success_report):
        _, rep = success_report
        assert ((0 <= rep.hits) & (rep.hits <= rep.shots)).all()

    def test_hits_drawn_at_each_arms_probability(self, success_report):
        ensemble, rep = success_report
        for arm in (STANDARD_ARM, NONITERATIVE_ARM):
            angles = zip(rep.betas[arm].tolist(), rep.gammas[arm].tolist())
            for inst, (beta, gamma), hit in zip(ensemble.instances, angles, rep.hits[arm].tolist()):
                rng = numpy_stream(rep.seed, (inst.id, arm))
                assert hit == rng.binomial(rep.shots, f1_closed(inst.target, beta, gamma))

    def test_no_f1_evaluated_twice_after_search(self, monkeypatch):
        ensemble = build_ensemble("uniform", 5, 3, {"t_size": 6}, seed=2)
        z_calls, f1_calls = [], []

        def recorded_z(forms, betas):
            z_calls.append((forms, betas))
            return form_z(forms, betas)

        def recorded_f1(scale, z, gammas):
            f1_calls.append(gammas)
            return z_f1(scale, z, gammas)

        monkeypatch.setattr(experiments, "form_z", recorded_z)
        monkeypatch.setattr(experiments, "z_f1", recorded_f1)
        report = run_success_comparison(ensemble, shots=10, seed=2)
        ((forms, beta),) = z_calls  # the shared arm, in one call at the shared beta
        distinct = {(form.profile.tobytes(), form.even.tobytes()) for form in forms}
        assert len(forms) == len(distinct) == len(ensemble.instances)
        assert beta == report.shared_angles.beta
        assert f1_calls == [report.shared_angles.gamma]  # every instance, in one call

    def test_shared_arm_builds_the_mixer_once(self, monkeypatch):
        ensemble = build_ensemble("uniform", 5, 4, {"t_size": 6}, seed=2)
        spaces = [inst.target for inst in ensemble.instances]
        builds = count_mixer_builds(monkeypatch)
        best_angles_all([*spaces, aggregate(spaces)])
        search = len(builds)
        run_success_comparison(ensemble, shots=10, seed=2)
        assert len(builds) == 2 * search + 1

    def test_each_source_built_once(self, monkeypatch):
        ensemble = build_ensemble("uniform", 5, 4, {"t_size": 6}, seed=2)
        builds, build = [], LandscapeForm.of.__func__

        def counted(cls, source):
            builds.append(source)
            return build(cls, source)

        monkeypatch.setattr(LandscapeForm, "of", classmethod(counted))
        run_success_comparison(ensemble, shots=10, seed=2)
        spaces = [inst.target for inst in ensemble.instances]
        assert builds[:-1] == spaces  # every instance once, then the summary
        assert isinstance(builds[-1], StructuralSummary)

    @pytest.mark.parametrize("family, n, params", FAMILY_CASES)
    def test_shared_arm_has_the_bits_of_f1_closed(self, family, n, params):
        ensemble = build_ensemble(family, n, 6, params, seed=4)
        report = run_success_comparison(ensemble, shots=10, seed=4)
        beta, gamma = report.shared_angles.beta, report.shared_angles.gamma
        for inst, prob in zip(ensemble.instances, report.probs[NONITERATIVE_ARM].tolist()):
            want = f1_closed(inst.target, beta, gamma)
            assert prob.hex() == want.hex()


class TestSatAlpha:
    def test_every_density_reuses_the_seeds_streams(self, monkeypatch):
        # instance i draws its formula from (i,) and its shots from (i, arm) at every
        # alpha, so a denser formula may begin with a sparser one's clauses
        requested = []

        def recording(module):
            def recorded(seed, keys):
                keys = list(keys)
                requested.append((module, seed, keys))
                return streams(seed, keys)
            return recorded

        monkeypatch.setattr(problems, "streams", recording("problems"))
        monkeypatch.setattr(experiments, "streams", recording("experiments"))
        run_sat_alpha(6, (2.0, 4.0), count=3, shots=10, seed=3)
        formula_keys = [(0,), (1,), (2,)]
        shot_keys = [(i, arm) for arm in (STANDARD_ARM, NONITERATIVE_ARM) for i in range(3)]
        assert requested == [("problems", 3, formula_keys), ("experiments", 3, shot_keys)] * 2

    def test_clause_counts(self):
        results = run_sat_alpha(5, (2.0,), count=3, shots=10, seed=3)
        assert len(results) == 1
        alpha, ensemble, report = results[0]
        assert alpha == 2.0
        assert report.family == "sat"
        for inst in ensemble.instances:
            header, *clauses = inst.meta["dimacs"].splitlines()
            assert header == "p cnf 5 10" and len(clauses) == 10  # int(2.0 * 5)

    def test_rejects_empty_alphas(self):
        with pytest.raises(UsageError):
            run_sat_alpha(5, (), count=3, shots=10, seed=3)

    def test_rejects_zero_clause_density(self):
        with pytest.raises(UsageError):
            run_sat_alpha(5, (0.1,), count=3, shots=10, seed=3)

    def test_accepts_the_largest_alpha(self):
        (alpha, ensemble, _), = run_sat_alpha(3, (MAX_ALPHA,), count=1, shots=10, seed=3)
        assert alpha == MAX_ALPHA
        assert ensemble.params == {"num_clauses": 30}
