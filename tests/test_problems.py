import math
import re
from itertools import combinations

import numpy as np
import pytest

from qaoa_landscape import cli, problems
from qaoa_landscape.core import UsageError
from qaoa_landscape.problems import (
    MAX_COUNT,
    build_ensemble,
    enumerate_kcliques,
    enumerate_sat,
    gen_graph,
    gen_sat,
    instance_rng,
    primes_below,
    random_walk,
    sample_clustered,
    sample_qr,
    sample_uniform,
    to_dimacs,
)

from conftest import FAMILY_CASES


@pytest.mark.parametrize("family, n, params", FAMILY_CASES)
def test_generators_hold_read_only_int64_states(family, n, params):
    for inst in build_ensemble(family, n, 3, params, seed=2).instances:
        states = inst.target.states
        assert states.dtype == np.int64 and states.ndim == 1 and not states.flags.writeable


class TestUniform:
    def test_size_and_range(self, rng):
        space = sample_uniform(6, 20, rng)
        assert len(space) == 20
        assert all(0 <= s < 64 for s in space.states)

    def test_full_space(self, rng):
        space = sample_uniform(3, 8, rng)
        assert space.states.tolist() == list(range(8))

    def test_validation(self, rng):
        with pytest.raises(UsageError):
            sample_uniform(3, 0, rng)
        with pytest.raises(UsageError):
            sample_uniform(3, 9, rng)
        with pytest.raises(UsageError, match=r"^n must be in \[1, 32\], got 0$"):
            sample_uniform(0, 1, rng)

    def test_subsets_uniform(self):
        # every 2-subset of 16 states equally likely, 4 sigma per subset
        rng = np.random.default_rng(2024)
        counts = {frozenset(c): 0 for c in combinations(range(16), 2)}
        draws = 100_000
        for _ in range(draws):
            counts[frozenset(sample_uniform(4, 2, rng).states)] += 1
        expected = draws / len(counts)
        sigma = math.sqrt(draws * (1 / len(counts)) * (1 - 1 / len(counts)))
        worst = max(abs(c - expected) for c in counts.values())
        assert worst < 4 * sigma


class TestClustered:
    def test_exact_size_with_retry(self, rng):
        space = sample_clustered(8, 3, 30, rng)
        assert len(space) == 3 * 31

    def test_drop_mode_never_exceeds_plan(self, rng):
        for _ in range(10):
            space = sample_clustered(5, 2, 6, rng, dedupe="drop")
            assert len(space) <= 2 * 7

    def test_capacity_checked(self, rng):
        with pytest.raises(UsageError):
            sample_clustered(3, 3, 3, rng)  # 12 states > 2^3
        with pytest.raises(UsageError, match="^need num_seeds >= 1 and per_seed >= 0$"):
            sample_clustered(4, 0, 1, rng)

    def test_dedupe_validated(self, rng):
        with pytest.raises(UsageError):
            sample_clustered(5, 1, 1, rng, dedupe="maybe")

    @pytest.mark.parametrize("n", [-1, 0, 33])
    def test_width_validated(self, rng, n):
        with pytest.raises(UsageError, match="n must be in"):
            sample_clustered(n, 1, 0, rng)

    def test_exhausted_walks_are_a_usage_error(self, rng, monkeypatch):
        monkeypatch.setattr(problems, "_WALK_RETRY_CAP", 1)
        with pytest.raises(UsageError, match="16 states at n=4"):
            sample_clustered(4, 1, 15, rng)  # the whole space from one seed

    def test_walk_length_geometric(self):
        # flips per walk are geometric with continue probability 1/2, mean 1
        rng = np.random.default_rng(7)
        flips = np.array([random_walk(0, 6, rng)[1] for _ in range(100_000)])
        standard_error = flips.std(ddof=1) / math.sqrt(flips.size)
        assert abs(flips.mean() - 1.0) < 4 * standard_error

    def test_walk_stays_in_range(self, rng):
        for _ in range(200):
            state, _ = random_walk(int(rng.integers(16)), 4, rng)
            assert 0 <= state < 16


class TestSat:
    def test_clause_shape(self, rng):
        clauses = gen_sat(8, 10, rng)
        assert len(clauses) == 10
        for clause in clauses:
            variables = [v for v, _ in clause]
            assert len(set(variables)) == 3
            assert all(0 <= v < 8 for v in variables)

    def test_needs_three_vars(self, rng):
        with pytest.raises(UsageError):
            gen_sat(2, 1, rng)

    def test_density_bounded(self, rng):
        assert len(gen_sat(5, 50, rng)) == 50
        with pytest.raises(UsageError, match=re.escape("51 clauses exceed 10 * n = 50")):
            gen_sat(5, 51, rng)
        with pytest.raises(UsageError, match="^need at least one clause$"):
            gen_sat(5, 0, rng)

    def test_single_clause_excludes_one_state(self):
        space = enumerate_sat(3, (((0, False), (1, False), (2, False)),))
        assert len(space) == 7
        assert 0 not in space.states  # all-false is the only falsifying assignment

    def test_contradiction_is_none(self):
        assert enumerate_sat(3, (((0, False),), ((0, True),))) is None

    def test_against_slow_evaluation(self, rng):
        clauses = gen_sat(6, 9, rng)

        def satisfied(assignment: int) -> bool:
            for clause in clauses:
                if not any(
                    ((assignment >> var) & 1) == (0 if neg else 1) for var, neg in clause
                ):
                    return False
            return True

        want = [z for z in range(64) if satisfied(z)]
        space = enumerate_sat(6, clauses)
        got = [] if space is None else space.states.tolist()
        assert got == want

    def test_width_capped(self):
        with pytest.raises(UsageError):
            enumerate_sat(25, (((0, False), (1, False), (2, False)),))


def clauses_from_dimacs(text: str) -> tuple[int, tuple]:
    """(n, clauses) of well-formed DIMACS text: a header, then one clause per line."""
    header, *lines = text.splitlines()
    _p, _cnf, n, count = header.split()
    clauses = tuple(
        tuple((abs(lit) - 1, lit < 0) for lit in map(int, line.split()[:-1])) for line in lines
    )
    assert len(clauses) == int(count)
    return int(n), clauses


class TestDimacs:
    def test_header_and_terminators(self, rng):
        text = to_dimacs(5, gen_sat(5, 4, rng))
        lines = text.strip().split("\n")
        assert lines[0] == "p cnf 5 4"
        assert all(line.endswith(" 0") for line in lines[1:])

    def test_round_trip(self, rng):
        clauses = gen_sat(7, 12, rng)
        assert clauses_from_dimacs(to_dimacs(7, clauses)) == (7, clauses)

    def test_known_text(self):
        clauses = (((0, False), (1, True), (2, False)), ((2, True), (0, True), (1, False)))
        assert to_dimacs(3, clauses) == "p cnf 3 2\n1 -2 3 0\n-3 -1 2 0\n"


def kcliques_by_brute_force(n: int, edges, k: int) -> list[int] | None:
    """Ascending masks of the k-vertex sets whose pairs are all edges; None if none."""
    edges = set(edges)
    masks = [
        sum(1 << v for v in combo)
        for combo in combinations(range(n), k)
        if all(pair in edges for pair in combinations(combo, 2))
    ]
    return sorted(masks) or None


class TestKClique:
    def test_triangle_with_isolated_vertex(self):
        space = enumerate_kcliques(4, ((0, 1), (0, 2), (1, 2)), 3)
        assert space.states.tolist() == [0b0111]

    def test_no_clique_is_none(self):
        assert enumerate_kcliques(4, ((0, 1), (2, 3)), 3) is None

    def test_complete_graph_counts(self):
        edges = tuple(combinations(range(5), 2))
        space = enumerate_kcliques(5, edges, 3)
        assert len(space) == math.comb(5, 3)
        # every mask has exactly k bits set
        assert all(s.bit_count() == 3 for s in space.states.tolist())

    def test_k_validated(self):
        with pytest.raises(UsageError):
            enumerate_kcliques(3, (), 0)
        with pytest.raises(UsageError):
            enumerate_kcliques(3, (), 4)

    @pytest.mark.parametrize("edge_prob", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_same_cliques_as_brute_force(self, n, edge_prob):
        rng = np.random.default_rng(n)
        for _ in range(3):
            edges = gen_graph(n, edge_prob, rng)
            for k in range(1, n + 1):
                space = enumerate_kcliques(n, edges, k)
                assert (None if space is None else space.states.tolist()) == \
                    kcliques_by_brute_force(n, edges, k)

    def test_gen_graph_extremes(self, rng):
        assert gen_graph(6, 0.0, rng) == ()
        assert gen_graph(6, 1.0, rng) == tuple(combinations(range(6), 2))
        with pytest.raises(UsageError):
            gen_graph(6, 1.5, rng)
        with pytest.raises(UsageError, match="^graph generation needs n >= 2, got 1$"):
            gen_graph(1, 0.5, rng)


class TestQrFactor:
    def test_prime_pool(self):
        assert primes_below(8) == (2, 3, 5, 7)
        assert primes_below(100) == (
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
            47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
        )
        assert primes_below(2) == ()

    def test_known_pair_layout(self):
        # q=3, r=5 at n=6: 011|101 and 101|011
        class FixedRng:
            def integers(self, *_args, **_kwargs):
                return np.array([1, 2])  # indices of 3 and 5 in (2, 3, 5, 7)

        space, meta = sample_qr(6, FixedRng())
        assert space.states.tolist() == [0b011101, 0b101011]
        assert meta == {"q": 3, "r": 5, "x": 15}

    def test_always_two_targets(self, rng):
        for _ in range(50):
            space, meta = sample_qr(8, rng)
            assert len(space) == 2
            assert meta["q"] != meta["r"]
            assert meta["x"] == meta["q"] * meta["r"]

    def test_validation(self, rng):
        with pytest.raises(UsageError):
            sample_qr(7, rng)
        with pytest.raises(UsageError):
            sample_qr(4, rng)


class TestEnsembles:
    def test_ids_sequential(self):
        ensemble = build_ensemble("uniform", 5, 7, {"t_size": 4}, seed=1)
        assert [inst.id for inst in ensemble.instances] == list(range(7))

    def test_rebuild_identical(self):
        a = build_ensemble("sat", 5, 5, {"num_clauses": 10}, seed=3)
        b = build_ensemble("sat", 5, 5, {"num_clauses": 10}, seed=3)
        for x, y in zip(a.instances, b.instances):
            assert x.target.states.tolist() == y.target.states.tolist()
            assert x.meta == y.meta

    def test_instances_independent_of_count(self):
        # stream is keyed by (seed, id): growing the ensemble keeps a prefix
        small = build_ensemble("uniform", 6, 3, {"t_size": 8}, seed=4)
        large = build_ensemble("uniform", 6, 9, {"t_size": 8}, seed=4)
        for x, y in zip(small.instances, large.instances):
            assert x.target.states.tolist() == y.target.states.tolist()

    def test_seed_changes_output(self):
        a = build_ensemble("uniform", 6, 3, {"t_size": 8}, seed=4)
        b = build_ensemble("uniform", 6, 3, {"t_size": 8}, seed=5)
        assert any(
            x.target.states.tolist() != y.target.states.tolist()
            for x, y in zip(a.instances, b.instances)
        )

    def test_sat_meta_round_trips(self):
        ensemble = build_ensemble("sat", 5, 3, {"num_clauses": 8}, seed=6)
        for inst in ensemble.instances:
            space = enumerate_sat(*clauses_from_dimacs(inst.meta["dimacs"]))
            assert space is not None and space.states.tolist() == inst.target.states.tolist()

    def test_kclique_masks_match_meta(self):
        ensemble = build_ensemble("kclique", 6, 3, {}, seed=7)
        for inst in ensemble.instances:
            edges = [tuple(e) for e in inst.meta["edges"]]
            space = enumerate_kcliques(6, edges, inst.meta["k"])
            assert space.states.tolist() == inst.target.states.tolist()

    def test_defaults_recorded(self):
        ensemble = build_ensemble("clustered", 8, 1, {}, seed=8)
        assert ensemble.params == {"num_seeds": 3, "per_seed": 30, "dedupe": "retry"}
        assert len(ensemble.instances[0].target) == 93

    def test_unknown_family_and_params(self):
        with pytest.raises(UsageError):
            build_ensemble("mystery", 5, 1, {}, seed=0)
        with pytest.raises(UsageError):
            build_ensemble("uniform", 5, 1, {"t_size": 4, "k": 2}, seed=0)
        with pytest.raises(UsageError):
            build_ensemble("uniform", 5, 1, {}, seed=0)  # t_size required
        with pytest.raises(UsageError):
            build_ensemble("uniform", 5, 0, {"t_size": 4}, seed=0)
        with pytest.raises(UsageError, match="count must be in"):
            build_ensemble("uniform", 5, MAX_COUNT + 1, {"t_size": 4}, seed=0)

    def test_instance_rng_streams_differ(self):
        a = instance_rng(1, 0).random(4)
        b = instance_rng(1, 1).random(4)
        assert not np.allclose(a, b)


class TestDrawCap:
    def test_kclique_without_edges_stops_at_the_cap(self, monkeypatch):
        draws = []

        def counted(*args):
            draws.append(args)
            return gen_graph(*args)

        monkeypatch.setattr(problems, "MAX_DRAWS", 3)
        monkeypatch.setattr(problems, "gen_graph", counted)
        message = "kclique n=5 {'k': 3, 'edge_prob': 0.0}: no target in 3 draws of instance 0"
        with pytest.raises(UsageError, match=re.escape(message)):
            build_ensemble("kclique", 5, 1, {"edge_prob": 0.0}, seed=0)
        assert len(draws) == 3

    def test_hopeless_kclique_stops_at_the_cap(self, tmp_path, capsys):
        # a 16-clique almost never exists in G(32, 1/2): all MAX_DRAWS draws run,
        # which only pruned clique growth makes quick
        code = cli.main(["gen", "--family", "kclique", "--n", "32", "--k", "16", "--count", "1",
                         "--out", str(tmp_path / "e.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: kclique n=32 {'k': 16, 'edge_prob': 0.5}: no target in "
                       f"{problems.MAX_DRAWS} draws of instance 0\n")
        assert not list(tmp_path.iterdir())

    def test_unsatisfiable_first_draw_stops_at_a_cap_of_one(self, monkeypatch):
        assert enumerate_sat(5, gen_sat(5, 50, instance_rng(0, 0))) is None
        monkeypatch.setattr(problems, "MAX_DRAWS", 1)
        message = "sat n=5 {'num_clauses': 50}: no target in 1 draws of instance 0"
        with pytest.raises(UsageError, match=re.escape(message)):
            build_ensemble("sat", 5, 1, {"num_clauses": 50}, seed=0)

    def test_redraws_continue_the_instance_stream(self):
        # the first draw above is unsatisfiable; the accepted one comes later
        # from the same stream, so it is what a loop of bare draws finds
        (inst,) = build_ensemble("sat", 5, 1, {"num_clauses": 50}, seed=0).instances
        rng = instance_rng(0, 0)
        while True:
            clauses = gen_sat(5, 50, rng)
            space = enumerate_sat(5, clauses)
            if space is not None:
                break
        assert inst.target.states.tolist() == space.states.tolist()
        assert inst.meta == {"dimacs": to_dimacs(5, clauses)}
