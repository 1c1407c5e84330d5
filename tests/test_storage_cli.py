import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from qaoa_landscape import _kernels, cli, experiments, problems, storage
from qaoa_landscape.analytic import MODES
from qaoa_landscape.core import AngleGrid, Angles, TargetSpace, UsageError, default_grid
from qaoa_landscape.experiments import (
    NONITERATIVE_ARM,
    STANDARD_ARM,
    ComparisonReport,
    CrossSection,
    run_success_comparison,
)
from qaoa_landscape.landscape import LandscapeForm, LandscapeGrid, f1, f1_closed
from qaoa_landscape.optimize import best_angles
from qaoa_landscape.problems import build_ensemble
from qaoa_landscape.structure import aggregate

from conftest import (
    BOUNDARY_IDS, BOUNDARY_SEED, FAMILY_CASES, numpy_stream, patch_last_shared_f1,
)


def ensemble_doc(ensemble) -> dict:
    """The JSON document of an ensemble file, built whole: the writer's oracle."""
    return {
        "family": ensemble.family,
        "n": ensemble.n,
        "seed": ensemble.seed,
        "params": ensemble.params,
        "instances": [
            {"id": inst.id, "targets": inst.target.states.tolist(), "meta": inst.meta}
            for inst in ensemble.instances
        ],
    }


def assert_ensemble_approx_is_the_summary_landscape(tmp_path, gen: list[str], grid: str) -> None:
    """gen, then landscape --ensemble writes the bits of landscape --summary of its summary.

    That holds for the approximation grid and for the cross-section's approx column.
    """
    ens, summ = tmp_path / "e.json", tmp_path / "s.json"
    assert cli.main(["gen", *gen, "--out", str(ens)]) == 0
    assert cli.main(["summarize", "--ensemble", str(ens), "--out", str(summ)]) == 0
    for source, path in (("--ensemble", ens), ("--summary", summ)):
        assert cli.main(["landscape", source, str(path), "--grid", grid, "--gamma-c", "1.2",
                         "--out-prefix", str(tmp_path / source[2:])]) == 0
    approx = (tmp_path / "ensemble_approx.csv").read_bytes()
    assert approx == (tmp_path / "summary_approx.csv").read_bytes()
    rows = [line.split(",") for line in (tmp_path / "ensemble_cross.csv").read_text().split()]
    want = [line.split(",") for line in (tmp_path / "summary_cross.csv").read_text().split()]
    assert [row[3] for row in rows[1:]] == [row[1] for row in want[1:]]


@pytest.fixture(scope="module")
def sat_ensemble():
    return build_ensemble("sat", 5, 6, {"num_clauses": 10}, seed=9)


class TestEnsembleJson:
    def test_round_trip(self, sat_ensemble, tmp_path):
        path = tmp_path / "e.json"
        storage.save_ensemble(sat_ensemble, path)
        loaded = storage.load_ensemble(path)
        assert loaded.family == sat_ensemble.family
        assert loaded.n == sat_ensemble.n
        assert loaded.seed == sat_ensemble.seed
        assert loaded.params == sat_ensemble.params
        for orig, back in zip(sat_ensemble.instances, loaded.instances):
            assert back.id == orig.id
            assert back.target.states.tolist() == orig.target.states.tolist()
            assert back.meta == orig.meta  # DIMACS text survives verbatim

    def test_second_save_is_byte_identical(self, sat_ensemble, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        ensembles = [build_ensemble(family, n, 4, params, seed=5)
                     for family, n, params in FAMILY_CASES]
        for ensemble in [sat_ensemble, *ensembles]:
            storage.save_ensemble(ensemble, first)
            storage.save_ensemble(storage.load_ensemble(first), second)
            assert first.read_bytes() == second.read_bytes(), ensemble.family

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("family, n, params", FAMILY_CASES)
    def test_writer_is_the_stdlib_encoder(self, family, n, params, seed, tmp_path):
        ensemble = build_ensemble(family, n, 4, params, seed)
        storage.save_ensemble(ensemble, tmp_path / "e.json")
        want = json.dumps(ensemble_doc(ensemble), indent=1) + "\n"
        assert (tmp_path / "e.json").read_text() == want

    @pytest.mark.parametrize("family, n, params", FAMILY_CASES)
    def test_target_slices_keep_the_stdlib_bytes(self, family, n, params, tmp_path, monkeypatch):
        # slices of 3 targets: lists shorter than, equal to and spanning several slices
        monkeypatch.setattr(storage, "_TARGET_BLOCK", 3)
        ensemble = build_ensemble(family, n, 4, params, seed=0)
        storage.save_ensemble(ensemble, tmp_path / "e.json")
        want = json.dumps(ensemble_doc(ensemble), indent=1) + "\n"
        assert (tmp_path / "e.json").read_text() == want

    def test_memory_holds_one_slice_of_targets(self, tmp_path):
        def peak(size):
            states = np.arange(size, dtype=np.int64) * 3
            instance = problems.Instance(id=0, target=TargetSpace(20, states))
            ensemble = problems.Ensemble("uniform", 20, 0, {"t_size": size}, (instance,))
            tracemalloc.start()
            try:
                storage.save_ensemble(ensemble, tmp_path / "e.json")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the text of 2^17 more targets alone would take several MiB
        assert peak(1 << 18) - peak(1 << 17) < 2 * 2**20

    @pytest.mark.parametrize("instances", [
        [{"id": 2**70, "targets": [0, 3, 5], "meta": {
            "q\"uote": "back\\slash\nnew line \u00e9\u2603 \U0001f600",
            "nested": [[1, [2.5, None]], {"deep": [[]], "empty": {}}, True, -0.0, 1e300],
         }},
         {"id": 0, "targets": [7], "meta": ["a", ["b", ["c"]]]},
         {"id": 9, "targets": [1, 2], "meta": "text\t\"q\""}],
        [],
    ], ids=["awkward-meta", "no-instances"])
    def test_writer_saves_a_loaded_document_as_the_stdlib_encoder(self, instances, tmp_path):
        doc = {"family": "uniform", "n": 3, "seed": -4, "params": {"t_size": 2, "x": [1, {}]},
               "instances": instances}
        storage.write_json(doc, tmp_path / "in.json")
        storage.save_ensemble(storage.load_ensemble(tmp_path / "in.json"), tmp_path / "out.json")
        # write_json is json.dumps(doc, indent=1) + "\n": the stdlib encoder's bytes
        assert (tmp_path / "out.json").read_bytes() == (tmp_path / "in.json").read_bytes()

    def test_rejects_state_out_of_range(self):
        doc = {
            "family": "uniform",
            "n": 3,
            "seed": 0,
            "params": {"t_size": 1},
            "instances": [{"id": 0, "targets": [8], "meta": None}],
        }
        with pytest.raises(UsageError, match="does not fit 3 bits"):
            storage.ensemble_from_dict(doc)

    def test_rejects_missing_keys(self):
        with pytest.raises(UsageError, match="lacks keys"):
            storage.ensemble_from_dict({"family": "uniform", "n": 3})

    def test_rejects_unknown_family(self):
        doc = {"family": "nope", "n": 3, "seed": 0, "params": {}, "instances": []}
        with pytest.raises(UsageError, match="unknown family"):
            storage.ensemble_from_dict(doc)

    def test_rejects_empty_targets(self):
        doc = {
            "family": "uniform",
            "n": 3,
            "seed": 0,
            "params": {},
            "instances": [{"id": 0, "targets": [], "meta": None}],
        }
        with pytest.raises(UsageError, match="empty target list"):
            storage.ensemble_from_dict(doc)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "family": "uniform",\n oops\n}\n')
        with pytest.raises(UsageError, match="line 3"):
            storage.load_ensemble(path)

    def test_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            storage.load_ensemble(tmp_path / "absent.json")


class TestSummaryJson:
    def test_round_trip_exact(self, sat_ensemble, tmp_path):
        summary = aggregate([inst.target for inst in sat_ensemble.instances])
        path = tmp_path / "s.json"
        storage.save_summary(summary, path)
        back = storage.load_summary(path)
        assert back.n == summary.n
        assert back.count == summary.count
        assert back.mode == summary.mode
        assert back.e_tsize == summary.e_tsize
        assert back.var_tsize == summary.var_tsize
        assert np.array_equal(back.e_profile, summary.e_profile)
        assert np.array_equal(back.e_pair, summary.e_pair)

    def test_rejects_shape_mismatch(self):
        doc = {
            "n": 2,
            "count": 1,
            "mode": "empirical",
            "e_tsize": 1.0,
            "var_tsize": 0.0,
            "e_profile": [1.0, 0.0],  # length 2, needs 3
            "e_pair": [[1.0] * 3] * 3,
        }
        with pytest.raises(UsageError, match="do not match n"):
            storage.summary_from_dict(doc)

    def test_rejects_missing_keys(self):
        with pytest.raises(UsageError, match="lacks keys"):
            storage.summary_from_dict({"n": 2})


class TestGridCsv:
    def test_round_trip_and_order(self, tmp_path):
        grid = AngleGrid(0.0, 1.0, 0.0, 2.0, 3, 4)
        values = np.sin(1 + grid.betas()[:, None] + 2 * grid.gammas()).ravel()
        result = LandscapeGrid(grid=grid, values=values)
        path = tmp_path / "g.csv"
        storage.grid_to_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "beta,gamma,value"
        assert len(lines) == 1 + 12
        rows = [line.split(",") for line in lines[1:]]
        # row-major: beta is the outer loop
        assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.0
        assert float(rows[1][0]) == 0.0 and float(rows[1][1]) == pytest.approx(2 / 3)
        for i, row in enumerate(rows):
            assert float(row[2]) == result.values[i]  # 17g round-trips exactly

    def test_stddev_column(self, tmp_path):
        grid = AngleGrid(0.0, 1.0, 0.0, 1.0, 2, 2)
        values = np.array([0.1, 0.2, 0.3, 0.4])
        stddev = np.array([0.01, 0.02, 0.03, 0.04])
        path = tmp_path / "g.csv"
        storage.grid_to_csv(LandscapeGrid(grid=grid, values=values, stddev=stddev), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "beta,gamma,value,stddev"
        assert float(lines[1].split(",")[3]) == 0.01

    def test_memory_holds_one_block_of_text(self, tmp_path):
        # the text of all 90000 cells would take about 17 MiB
        grid = AngleGrid(0.0, 1.0, 0.0, 2.0, 300, 300)
        rng = np.random.default_rng(0)
        result = LandscapeGrid(
            grid=grid, values=rng.standard_normal(90000), stddev=rng.random(90000)
        )
        path = tmp_path / "g.csv"
        tracemalloc.start()
        try:
            storage.grid_to_csv(result, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert len(path.read_text().splitlines()) == 1 + 90000

    @pytest.mark.parametrize("beta_steps, gamma_steps", [
        (1, 1), (1, 5000), (5000, 1), (300, 300),
        # a row of a whole block of cells, and one cell past it, with a value column
        # (_CELL_BLOCK cells a block) and with stddev too (half as many)
        (2, storage._CELL_BLOCK), (2, storage._CELL_BLOCK + 1),
        (3, storage._CELL_BLOCK // 2), (3, storage._CELL_BLOCK // 2 + 1),
        (7, 300),  # six rows a tile with a value column, three with stddev: 7 leaves one over
    ])
    @pytest.mark.parametrize("with_stddev", [False, True])
    def test_bytes_of_the_template_writer(self, tmp_path, beta_steps, gamma_steps, with_stddev):
        # shapes that fill less than a tile, fill tiles of whole rows with rows to spare,
        # or split each row into runs with a shorter last run
        rng = np.random.default_rng(beta_steps * 7 + gamma_steps)
        size = beta_steps * gamma_steps
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
        values[rng.random(size) < 0.2] = 0.0
        values[::7] = rng.random(values[::7].size)  # landscape-like values in [0, 1)
        stddev = np.abs(rng.standard_normal(size)) * 1e-3 if with_stddev else None
        grid = LandscapeGrid(
            grid=AngleGrid(0.0, math.pi, -1e-5, 12.5, beta_steps, gamma_steps),
            values=values, stddev=stddev,
        )
        path = tmp_path / "g.csv"
        storage.grid_to_csv(grid, path)
        assert path.read_bytes() == template_grid_csv(grid)


def template_grid_csv(grid: LandscapeGrid) -> bytes:
    """The grid CSV of a `%.17g` template per beta row: the oracle of grid_to_csv's bytes."""
    lattice = grid.grid
    header = "beta,gamma,value" + (",stddev" if grid.stddev is not None else "")
    cells = [grid.values] if grid.stddev is None else [grid.values, grid.stddev]
    slots = ",%.17g" * len(cells) + "\n"
    pieces = [f",{gamma}{slots}" for gamma in storage._texts(lattice.gammas())]
    rows = zip(*(np.asarray(c, dtype=np.float64).reshape(lattice.beta_steps, -1) for c in cells))
    lines = [
        (beta + beta.join(pieces)) % tuple(np.stack(row, axis=-1).ravel().tolist())
        for beta, row in zip(storage._texts(lattice.betas()), rows)
    ]
    return (header + "\n" + "".join(lines)).encode()


def assert_17g(values):
    """_format17g's text of each value, its row less the zero bytes, is `'%.17g' % value`."""
    values = np.asarray(values, dtype=np.float64).ravel()
    for start in range(0, values.size, 100_000):  # a few MiB of rows at a time
        chunk = values[start : start + 100_000]
        cells = storage._format17g(chunk)
        assert not cells[:, 31].any()  # the byte grid_to_csv puts the separator in
        cells[:, 31] = ord("\n")
        got = cells.tobytes().translate(None, b"\0").splitlines()
        want = [b"%.17g" % value for value in chunk.tolist()]
        wrong = [(value, g, w) for value, g, w in zip(chunk.tolist(), got, want) if g != w]
        assert len(got) == len(want) and not wrong, wrong[:5]


def neighbours(values) -> np.ndarray:
    """Each value, the floats either side of it, and the negatives of all three."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        near = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return np.concatenate([near, -near])


class TestFormat17g:
    """The grid cells' formatter against `'%.17g' % x`, value by value."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(17).integers(0, 2**64, 10**6, dtype=np.uint64)
        assert_17g(bits.view(np.float64))  # every class: nan, inf, subnormal, huge exponents

    def test_powers_of_ten_and_their_neighbours(self):
        assert_17g(neighbours([float(f"1e{k}") for k in range(-323, 309)]))

    def test_exact_halves(self):
        # k / 2^j is exact; with 18 significant digits ending in 5 it ties at 17
        ties = [1.00000762939453125, 1.00002288818359375, 9.99999237060546875]
        assert [b"%.17g" % tie for tie in ties] == [
            b"1.0000076293945312", b"1.0000228881835938", b"9.9999923706054688"
        ]
        rng = np.random.default_rng(2)
        j = np.arange(1, 80)[:, None]
        k = rng.integers(1, 2**53, (j.size, 200)) | 1
        ones = np.arange(2**17, 10 * 2**17) / 2**17  # 1 + i / 2^17: a tie wherever i is odd
        assert_17g(neighbours([*ties, *(k / 2.0**j).ravel(), *ones]))

    def test_integers_near_2_to_the_53(self):
        assert_17g(neighbours(2.0**53 + np.arange(-3000, 3000)))
        assert_17g(neighbours(2.0 ** np.arange(40, 70)[:, None] + np.arange(-40, 40)))

    def test_notation_switches(self):
        # fixed below 1e17 and from 1e-4, an exponent beyond; rounding near the switches;
        # below 10 the fast path's point at byte 7, from 10 the fallback
        switches = [1e16, 1e17, 1e-4, 1e-5, 9.999999999999999e-5, 99999.99999999999,
                    9.9999999999999998e16, 1.0000000000000002e16, 99999999999999984.0,
                    1.0000000000000002, 9.999999999999998, 9.5, 10.0, 10.000000000000002, 12.5,
                    1e16 - 2, -9.75]
        below = [10.0**k * (1 - m * 2.0**-53) for k in range(-6, 19) for m in range(1, 9)]
        assert_17g(neighbours(switches + below))

    def test_zeros_subnormals_and_non_finite(self):
        specials = [0.0, 5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308,
                    1e-280, 1e280, 1.7976931348623157e308, np.inf, np.nan]
        assert_17g(neighbours(specials))
        assert_17g([-0.0, np.copysign(np.nan, -1.0)])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):
        assert_17g(values)


@pytest.fixture(scope="module")
def report():
    ensemble = build_ensemble("uniform", 4, 5, {"t_size": 3}, seed=2)
    return run_success_comparison(ensemble, shots=20, seed=2)


class TestReportFiles:
    def test_csv_rows(self, report, tmp_path):
        path = tmp_path / "r.csv"
        storage.report_to_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,arm,beta,gamma,success_prob,shots_hit,shots"
        assert len(lines) == 1 + 2 * len(report.ids)
        arms = [line.split(",")[1] for line in lines[1:]]
        assert arms[::2] == ["standard"] * len(report.ids)
        assert arms[1::2] == ["noniterative"] * len(report.ids)

    def test_json_summary(self, report, tmp_path):
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        storage.save_report(report, csv_path, json_path)
        doc = json.loads(json_path.read_text())
        assert doc["instances"] == len(report.ids)
        assert doc["mean_noniterative"] == report.mean_noniterative
        assert doc["shared_angles"]["beta"] == report.shared_angles.beta


# Awkward doubles for the golden-bytes tests: signed zero, a value that 17
# digits show inexactly, the smallest subnormal and a huge exponent.
AWKWARD = np.array([0.0, -0.0, 1.0, 0.1, 1 / 3, 5e-324, 1e300, -2.5])


class TestGoldenBytes:
    def test_grid(self, tmp_path):
        grid = AngleGrid(0.0, 0.1, 0.0, 1.0, 2, 4)
        path = tmp_path / "g.csv"
        storage.grid_to_csv(LandscapeGrid(grid=grid, values=AWKWARD), path)
        assert path.read_text() == (
            "beta,gamma,value\n"
            "0,0,0\n"
            "0,0.33333333333333331,-0\n"
            "0,0.66666666666666663,1\n"
            "0,1,0.10000000000000001\n"
            "0.10000000000000001,0,0.33333333333333331\n"
            "0.10000000000000001,0.33333333333333331,4.9406564584124654e-324\n"
            "0.10000000000000001,0.66666666666666663,1.0000000000000001e+300\n"
            "0.10000000000000001,1,-2.5\n"
        )

    def test_grid_with_stddev(self, tmp_path):
        grid = AngleGrid(0.0, 1.0, 0.0, 1.0, 4, 2)
        path = tmp_path / "g.csv"
        storage.grid_to_csv(
            LandscapeGrid(grid=grid, values=AWKWARD, stddev=AWKWARD[::-1].copy()), path
        )
        assert path.read_text() == (
            "beta,gamma,value,stddev\n"
            "0,0,0,-2.5\n"
            "0,1,-0,1.0000000000000001e+300\n"
            "0.33333333333333331,0,1,4.9406564584124654e-324\n"
            "0.33333333333333331,1,0.10000000000000001,0.33333333333333331\n"
            "0.66666666666666663,0,0.33333333333333331,0.10000000000000001\n"
            "0.66666666666666663,1,4.9406564584124654e-324,1\n"
            "1,0,1.0000000000000001e+300,-0\n"
            "1,1,-2.5,0\n"
        )

    def test_cross_section(self, tmp_path):
        path = tmp_path / "c.csv"
        section = CrossSection(
            gamma_c=1.2, betas=AWKWARD[:4], values=AWKWARD[4:],
            stddev=AWKWARD[:4], approx=AWKWARD[4:],
        )
        storage.cross_section_to_csv(section, path)
        assert path.read_text() == (
            "beta,value,stddev,approx\n"
            "0,0.33333333333333331,0,0.33333333333333331\n"
            "-0,4.9406564584124654e-324,-0,4.9406564584124654e-324\n"
            "1,1.0000000000000001e+300,1,1.0000000000000001e+300\n"
            "0.10000000000000001,-2.5,0.10000000000000001,-2.5\n"
        )

    def test_curve(self, tmp_path):
        path = tmp_path / "c.csv"
        storage.curve_to_csv(AWKWARD[:4], AWKWARD[4:], path)
        assert path.read_text() == (
            "beta,value\n"
            "0,0.33333333333333331\n"
            "-0,4.9406564584124654e-324\n"
            "1,1.0000000000000001e+300\n"
            "0.10000000000000001,-2.5\n"
        )

    def test_report(self, tmp_path):
        report = ComparisonReport(
            family="uniform", n=3, shots=5, seed=0, shared_angles=Angles(0.1, 1 / 3),
            shared_value=1 / 3, ids=(0, 7),
            betas=np.array([[0.0, 1e300], [0.1, 1 / 3]]),
            gammas=np.array([[-0.0, -2.5], [1 / 3, 0.0]]),
            probs=np.array([[1.0, 0.1], [5e-324, 1 / 3]]),
            hits=np.array([[3, 5], [0, 1]]),
        )
        path = tmp_path / "r.csv"
        storage.report_to_csv(report, path)
        assert path.read_text() == (
            "id,arm,beta,gamma,success_prob,shots_hit,shots\n"
            "0,standard,0,-0,1,3,5\n"
            "0,noniterative,0.10000000000000001,0.33333333333333331,"
            "4.9406564584124654e-324,0,5\n"
            "7,standard,1.0000000000000001e+300,-2.5,0.10000000000000001,5,5\n"
            "7,noniterative,0.33333333333333331,0,0.33333333333333331,1,5\n"
        )

    def test_json(self, tmp_path):
        path = tmp_path / "d.json"
        storage.write_json({"values": AWKWARD.tolist(), "nested": {"n": 3, "none": None}}, path)
        assert path.read_text() == (
            '{\n "values": [\n  0.0,\n  -0.0,\n  1.0,\n  0.1,\n  0.3333333333333333,\n'
            '  5e-324,\n  1e+300,\n  -2.5\n ],\n "nested": {\n  "n": 3,\n  "none": null\n }\n}\n'
        )


class TestInPlaceWrite:
    """Every writer rewrites an existing file in place, then cuts it to the bytes written."""

    def test_shorter_document_leaves_only_the_new_bytes(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_bytes(b"x" * 100_000)
        storage.write_json({"n": 3}, path)
        assert path.read_bytes() == b'{\n "n": 3\n}\n'

    @pytest.mark.parametrize("existing", [None, b"x" * 100_000], ids=["new", "longer"])
    def test_raising_chunks_leave_the_bytes_written(self, tmp_path, existing):
        def chunks():
            yield "a,1\n"
            yield b"b,2\n" * 10_000  # past the write buffer: part of it is on disk already
            raise ValueError("no more rows")

        path = tmp_path / "t.csv"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(ValueError, match="no more rows"):
            storage._write(path, "k,v\n", chunks())
        assert path.read_bytes() == b"k,v\na,1\n" + b"b,2\n" * 10_000

    def test_a_failing_write_still_cuts_the_file(self, tmp_path):
        # a file size limit makes the kernel refuse writes past 100 kB with EFBIG, as a full
        # disk would with ENOSPC.  The lines are short, so the buffer still holds some when
        # the write fails: the cut must run without flushing them, and leave no old byte
        path = tmp_path / "t.csv"
        path.write_bytes(b"x" * 400_000)
        text = b"".join(b"%d,%d\n" % (i, i * i) for i in range(20_000))  # about 240 kB
        limit = 100_000
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
        try:
            with pytest.raises(UsageError, match="cannot write .*t.csv"):
                storage._write(path, "k,v\n", text.splitlines(keepends=True))
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)
        assert path.read_bytes() == (b"k,v\n" + text)[:limit]

    def test_opens_without_truncating(self, tmp_path, monkeypatch):
        flags, real_open = [], os.open

        def spy(path, flag, *mode):
            flags.append(flag)
            return real_open(path, flag, *mode)

        monkeypatch.setattr(os, "open", spy)
        storage.write_json([1], tmp_path / "d.json")
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC and flags[0] & os.O_CREAT

    def test_a_hard_link_sees_the_new_bytes(self, tmp_path):
        path, link = tmp_path / "d.json", tmp_path / "link.json"
        path.write_bytes(b"x" * 5000)
        os.link(path, link)
        storage.write_json([1, 2], path)
        assert link.read_bytes() == path.read_bytes() == b"[\n 1,\n 2\n]\n"
        assert path.stat().st_ino == link.stat().st_ino and path.stat().st_nlink == 2

    def test_a_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "d.json", tmp_path / "link.json"
        target.write_bytes(b"x" * 5000)
        link.symlink_to(target)
        storage.write_json([1], link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"[\n 1\n]\n"

    def test_gen_to_dev_null_exits_0(self, capsys):
        argv = ["gen", "--family", "uniform", "--n", "5", "--count", "3", "--t-size", "4"]
        assert cli.main(argv + ["--out", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_a_new_file_has_the_mode_of_open_wb(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "ref", "wb"):
                pass
            storage.write_json([], tmp_path / "new.json")
        finally:
            os.umask(old)
        assert (tmp_path / "new.json").stat().st_mode == (tmp_path / "ref").stat().st_mode

    @pytest.mark.parametrize("mode", [0o600, 0o755])
    def test_an_existing_file_keeps_its_mode(self, tmp_path, mode):
        path = tmp_path / "d.json"
        path.write_bytes(b"x" * 5000)
        path.chmod(mode)
        storage.write_json([], path)
        assert stat.S_IMODE(path.stat().st_mode) == mode and path.read_bytes() == b"[]\n"


@pytest.fixture(scope="module")
def rewrite_inputs(tmp_path_factory):
    """A ten-instance and a two-instance ensemble, and each one's summary, for the rewrite runs."""
    root = tmp_path_factory.mktemp("inputs")
    for name, flags in (("ten", ["--n", "8", "--count", "10", "--t-size", "20"]),
                        ("two", ["--n", "4", "--count", "2", "--t-size", "5"])):
        assert cli.main(["gen", "--family", "uniform", *flags, "--seed", "5",
                         "--out", str(root / f"{name}.json")]) == 0
        assert cli.main(["summarize", "--ensemble", str(root / f"{name}.json"),
                         "--out", str(root / f"{name}_s.json")]) == 0
    return root


# each command's longer run, then its shorter one into the same paths; {in} is the inputs
REWRITES = {
    "gen": [["gen", "--family", "uniform", "--n", "6", "--t-size", "9", "--count", count,
             "--out", "e.json"] for count in ("20", "2")],
    "summarize": [["summarize", "--ensemble", f"{{in}}/{name}.json", "--out", "s.json"]
                  for name in ("ten", "two")],
    "optimize": [["optimize", "--ensemble", f"{{in}}/{name}.json", "--instance", "0",
                  "--out", "o.json"] for name in ("ten", "two")],
    "landscape-ensemble": [["landscape", "--ensemble", f"{{in}}/{name}.json", "--grid", grid,
                            "--out-prefix", "p"] for name, grid in (("ten", "100x100"),
                                                                   ("two", "30x30"))],
    "landscape-summary": [["landscape", "--summary", f"{{in}}/{name}_s.json", "--grid", grid,
                           "--gamma-c", "1.2", "--out-prefix", "p"]
                          for name, grid in (("ten", "100x100"), ("two", "30x30"))],
    "compare": [["compare", "--ensemble", f"{{in}}/{name}.json", "--shots", "10",
                 "--out-prefix", "run"] for name in ("ten", "two")],
    "sat-alpha": [["sat-alpha", "--n", "5", "--alphas", "1,2", "--count", count, "--shots", "5",
                   "--out-prefix", "sa"] for count in ("6", "2")],
}


@pytest.mark.parametrize("command", list(REWRITES))
def test_rewrite_over_longer_files_matches_a_fresh_run(tmp_path, monkeypatch, rewrite_inputs,
                                                       command):
    longer, shorter = ([arg.replace("{in}", str(rewrite_inputs)) for arg in argv]
                       for argv in REWRITES[command])
    over, fresh = tmp_path / "over", tmp_path / "fresh"
    over.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(over)  # relative output paths: compare's config is alike in both
    assert cli.main(longer) == 0
    sizes = {path.name: path.stat().st_size for path in over.iterdir()}
    assert cli.main(shorter) == 0
    monkeypatch.chdir(fresh)
    assert cli.main(shorter) == 0
    files = sorted(path.name for path in fresh.iterdir())
    assert files == sorted(sizes)
    assert all((over / name).read_bytes() == (fresh / name).read_bytes() for name in files)
    growth = [(fresh / name).stat().st_size - size for name, size in sizes.items()]
    assert max(growth) <= 0 and min(growth) < 0  # no file grew, and old bytes were cut


class TestCli:
    def test_gen_and_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["gen", "--family", "uniform", "--n", "5", "--count", "4",
                "--t-size", "6", "--seed", "3"]
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(storage.load_ensemble(a).instances) == 4

    def test_summarize(self, tmp_path):
        ens = tmp_path / "e.json"
        out = tmp_path / "s.json"
        cli.main(["gen", "--family", "uniform", "--n", "4", "--count", "3",
                  "--t-size", "5", "--out", str(ens)])
        assert cli.main(["summarize", "--ensemble", str(ens), "--out", str(out)]) == 0
        summary = storage.load_summary(out)
        assert summary.count == 3
        assert summary.e_tsize == 5.0

    def test_analytic_uniform(self, tmp_path):
        out = tmp_path / "s.json"
        code = cli.main(["analytic-uniform", "--n", "6", "--t-size", "8",
                         "--mode", "exact_hypergeometric", "--out", str(out)])
        assert code == 0
        summary = storage.load_summary(out)
        assert summary.count == 0
        assert summary.mode == "exact_hypergeometric"
        assert summary.e_tsize == 8.0

    def test_landscape_from_summary(self, tmp_path):
        summ = tmp_path / "s.json"
        cli.main(["analytic-uniform", "--n", "5", "--t-size", "4", "--out", str(summ)])
        prefix = tmp_path / "ls"
        code = cli.main(["landscape", "--summary", str(summ), "--grid", "6x6",
                         "--gamma-c", "1.2", "--out-prefix", str(prefix)])
        assert code == 0
        approx = (tmp_path / "ls_approx.csv").read_text().splitlines()
        assert approx[0] == "beta,gamma,value"
        assert len(approx) == 1 + 36
        cross = (tmp_path / "ls_cross.csv").read_text().splitlines()
        assert cross[0] == "beta,value"
        assert len(cross) == 1 + 6

    @pytest.mark.parametrize("gamma_c", [None, "1.2"])
    def test_landscape_summary_values_are_f1(self, tmp_path, gamma_c):
        # the grid and the cross-section come from one evaluation; each must
        # equal its own evaluation bit for bit
        summ = tmp_path / "s.json"
        cli.main(["analytic-uniform", "--n", "7", "--t-size", "9", "--out", str(summ)])
        argv = ["landscape", "--summary", str(summ), "--grid", "7x5",
                "--out-prefix", str(tmp_path / "ls")]
        if gamma_c is not None:
            argv += ["--gamma-c", gamma_c]
        assert cli.main(argv) == 0
        summary = storage.load_summary(summ)
        grid = default_grid(7, 5)
        approx = np.loadtxt(tmp_path / "ls_approx.csv", delimiter=",", skiprows=1)
        assert approx[:, 2].tolist() == f1(summary, grid.betas(), grid.gammas()).ravel().tolist()
        cross_path = tmp_path / "ls_cross.csv"
        assert cross_path.exists() == (gamma_c is not None)
        if gamma_c is not None:
            cross = np.loadtxt(cross_path, delimiter=",", skiprows=1)
            assert cross[:, 1].tolist() == f1(summary, grid.betas(), float(gamma_c)).tolist()

    def test_summary_at_the_width_limit(self, tmp_path):
        # |T| = 2^31 of 2^32 states: pair-matrix entries near 1e17 cancel to F1 in [0, 1]
        summ = tmp_path / "w.json"
        assert cli.main(["analytic-uniform", "--n", "32", "--t-size", str(1 << 31),
                         "--out", str(summ)]) == 0
        assert cli.main(["landscape", "--summary", str(summ), "--grid", "100x100",
                         "--gamma-c", "1.2", "--out-prefix", str(tmp_path / "w")]) == 0
        summary = storage.load_summary(summ)
        grid = default_grid(100, 100)
        approx = np.loadtxt(tmp_path / "w_approx.csv", delimiter=",", skiprows=1)
        assert approx[:, 2].tolist() == f1(summary, grid.betas(), grid.gammas()).ravel().tolist()
        assert 0.0 <= approx[:, 2].min() and approx[:, 2].max() <= 1.0
        out = tmp_path / "w_opt.json"
        assert cli.main(["optimize", "--summary", str(summ), "--out", str(out)]) == 0
        # the refinement ends in a few Newton steps, not in bisection's 52
        steps = json.loads(out.read_text())["evaluations"] - (64 * 32 + 1) - 1
        assert 1 <= steps <= 8

    def test_landscape_from_ensemble(self, tmp_path):
        ens = tmp_path / "e.json"
        cli.main(["gen", "--family", "uniform", "--n", "4", "--count", "3",
                  "--t-size", "4", "--out", str(ens)])
        prefix = tmp_path / "cmp"
        code = cli.main(["landscape", "--ensemble", str(ens), "--grid", "5x5",
                         "--out-prefix", str(prefix)])
        assert code == 0
        for tag in ("mean", "approx", "error", "bound", "cross"):
            assert (tmp_path / f"cmp_{tag}.csv").exists()
        mean = (tmp_path / "cmp_mean.csv").read_text().splitlines()
        assert mean[0] == "beta,gamma,value,stddev"

    @pytest.mark.parametrize(
        "family, flags",
        [("uniform", ["--t-size", "40"]), ("sat", ["--clauses", "30"]), ("clustered", [])],
    )
    def test_ensemble_approx_is_the_summary_landscape(self, tmp_path, family, flags):
        gen = ["--family", family, "--n", "10", "--count", "5", "--seed", "3", *flags]
        assert_ensemble_approx_is_the_summary_landscape(tmp_path, gen, "30x20")

    @pytest.mark.parametrize(
        "n, t_size, route",
        [(7, 100, _kernels.SHELL_ROUTE),  # int8 shell table
         (12, 2048, _kernels.SHELL_ROUTE),  # int16 shell table
         (20, 3000, _kernels.PAIRWISE_ROUTE)],  # 18 pairwise row blocks
    )
    def test_ensemble_approx_is_the_summary_landscape_on_each_route(self, tmp_path, n, t_size,
                                                                    route):
        assert _kernels.profile_route(n, t_size) == route
        gen = ["--family", "uniform", "--n", str(n), "--count", "2", "--t-size", str(t_size)]
        assert_ensemble_approx_is_the_summary_landscape(tmp_path, gen, "20x20")

    def test_optimize_summary_and_instance(self, tmp_path):
        summ = tmp_path / "s.json"
        cli.main(["analytic-uniform", "--n", "4", "--t-size", "3", "--out", str(summ)])
        out = tmp_path / "opt.json"
        assert cli.main(["optimize", "--summary", str(summ), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"beta", "gamma", "value", "evaluations"}

        ens = tmp_path / "e.json"
        cli.main(["gen", "--family", "uniform", "--n", "4", "--count", "2",
                  "--t-size", "3", "--out", str(ens)])
        out2 = tmp_path / "opt2.json"
        code = cli.main(["optimize", "--ensemble", str(ens), "--instance", "1",
                         "--out", str(out2)])
        assert code == 0
        ensemble = storage.load_ensemble(ens)
        doc2 = json.loads(out2.read_text())
        assert doc2["value"] == pytest.approx(
            f1_closed(ensemble.instances[1].target, doc2["beta"], doc2["gamma"]),
            abs=1e-12,
        )

    def test_optimize_instance_needs_ensemble(self, tmp_path, capsys):
        code = cli.main(["optimize", "--summary", "x.json", "--instance", "0",
                         "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: --instance requires --ensemble\n"
        assert not list(tmp_path.iterdir())

    def test_compare(self, tmp_path):
        ens = tmp_path / "e.json"
        cli.main(["gen", "--family", "uniform", "--n", "4", "--count", "3",
                  "--t-size", "4", "--seed", "1", "--out", str(ens)])
        prefix = tmp_path / "run"
        code = cli.main(["compare", "--ensemble", str(ens), "--shots", "10",
                         "--seed", "1", "--out-prefix", str(prefix)])
        assert code == 0
        assert (tmp_path / "run.csv").exists()
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["instances"] == 3
        config = json.loads((tmp_path / "run_config.json").read_text())
        assert list(config) == [
            "ensemble", "seed", "family", "n", "count", "params", "optimizer", "out_dir"
        ]
        assert config == {
            "ensemble": str(ens),
            "seed": 1,
            "family": "uniform",
            "n": 4,
            "count": 3,
            "params": storage.load_ensemble(ens).params,
            "optimizer": {"shots": 10},
            "out_dir": str(tmp_path),
        }

    def test_compare_keys_each_row_by_its_own_id(self, tmp_path):
        # ids neither 0..count-1 nor int64, at the word boundaries of a spawn key: a
        # report keyed by position, or by an int64 array of the ids, fails here
        ids = [7, *BOUNDARY_IDS, 0]
        doc = ensemble_doc(build_ensemble("uniform", 4, len(ids), {"t_size": 3}, seed=2))
        for inst, instance_id in zip(doc["instances"], ids):
            inst["id"] = instance_id
        ens = tmp_path / "e.json"
        storage.write_json(doc, ens)
        arms = {"standard": STANDARD_ARM, "noniterative": NONITERATIVE_ARM}
        for seed in (5, BOUNDARY_SEED):
            prefix = tmp_path / f"run{seed}"
            code = cli.main(["compare", "--ensemble", str(ens), "--shots", "1000",
                             "--seed", str(seed), "--out-prefix", str(prefix)])
            assert code == 0
            with open(f"{prefix}.csv", newline="") as handle:
                rows = list(csv.DictReader(handle))
            assert [int(row["id"]) for row in rows] == [i for i in ids for _ in range(2)]
            for row in rows:
                rng = numpy_stream(seed, (int(row["id"]), arms[row["arm"]]))
                assert int(row["shots_hit"]) == rng.binomial(1000, float(row["success_prob"]))
            assert json.loads(Path(f"{prefix}.json").read_text())["instances"] == len(ids)

    def test_compare_refuses_a_bad_f1_before_any_stream(self, tmp_path, capsys, monkeypatch):
        def refuse(seed, keys):
            raise AssertionError("a stream was built for a refused F1")

        ens = tmp_path / "e.json"
        storage.save_ensemble(build_ensemble("uniform", 4, 3, {"t_size": 3}, seed=2), ens)
        monkeypatch.setattr(experiments, "streams", refuse)
        patch_last_shared_f1(monkeypatch, 1.5)  # the last F1 of the last row
        code = cli.main(["compare", "--ensemble", str(ens), "--shots", "10",
                         "--out-prefix", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == (
            "computation error: success probability 1.5 is not in [0, 1]\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["e.json"]

    def test_sat_alpha(self, tmp_path):
        prefix = tmp_path / "sa"
        code = cli.main(["sat-alpha", "--n", "5", "--alphas", "1,2", "--count", "2",
                         "--shots", "5", "--seed", "4", "--out-prefix", str(prefix)])
        assert code == 0
        for tag in ("a1", "a2"):
            assert (tmp_path / f"sa_{tag}.csv").exists()
            assert (tmp_path / f"sa_{tag}.json").exists()
        combined = json.loads((tmp_path / "sa_summary.json").read_text())
        assert [entry["alpha"] for entry in combined] == [1.0, 2.0]

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_sat_alpha_threads_accepted_and_inert(self, tmp_path, threads):
        # perfbench/run.py runs sat-alpha with --threads 1; the flag changes no byte
        outputs = {}
        for run, extra in (("plain", []), ("threads", ["--threads", threads])):
            (tmp_path / run).mkdir()
            code = cli.main(["sat-alpha", "--n", "5", "--alphas", "2", "--count", "2",
                             "--shots", "5", "--seed", "4", *extra,
                             "--out-prefix", str(tmp_path / run / "sa")])
            assert code == 0
            outputs[run] = {p.name: p.read_bytes() for p in (tmp_path / run).iterdir()}
        assert sorted(outputs["plain"]) == ["sa_a2.csv", "sa_a2.json", "sa_summary.json"]
        assert outputs["threads"] == outputs["plain"]

    def test_usage_errors_exit_1(self, tmp_path, capsys):
        absent, bad = tmp_path / "absent.json", tmp_path / "bad.json"
        bad.write_text("{ nope")
        cases = [
            # a prefix only: argparse words the list of choices differently across versions
            (["gen", "--family", "bogus", "--n", "4", "--count", "1",
              "--out", str(tmp_path / "x.json")],
             "error: argument --family: invalid choice: 'bogus'"),
            (["landscape", "--out-prefix", str(tmp_path / "x")],
             "error: one of the arguments --summary --ensemble is required\n"),
            (["summarize", "--ensemble", str(absent), "--out", str(tmp_path / "s.json")],
             f"error: cannot read {absent}: [Errno 2] No such file or directory: '{absent}'\n"),
            (["summarize", "--ensemble", str(bad), "--out", str(tmp_path / "s.json")],
             f"error: {bad}: invalid JSON at line 1: "
             "Expecting property name enclosed in double quotes\n"),
        ]
        for argv, message in cases:
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(message) and err.count("\n") == 1
            assert [path.name for path in tmp_path.iterdir()] == ["bad.json"]

    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        # the parser is built once per process, so no parsed value may leak
        # into the next call: two passes of all seven commands, with a bad
        # flag between them, write the same bytes
        assert cli.build_parser() is cli.build_parser()
        commands = [
            ["gen", "--family", "uniform", "--n", "5", "--count", "3", "--t-size", "6",
             "--seed", "2", "--out", "e.json"],
            ["summarize", "--ensemble", "e.json", "--out", "s.json"],
            ["analytic-uniform", "--n", "5", "--t-size", "6", "--out", "a.json"],
            ["landscape", "--ensemble", "e.json", "--grid", "4x3", "--gamma-c", "1.2",
             "--out-prefix", "le"],
            ["landscape", "--summary", "a.json", "--grid", "4x3", "--out-prefix", "la"],
            ["optimize", "--ensemble", "e.json", "--instance", "1", "--out", "oi.json"],
            ["optimize", "--summary", "s.json", "--out", "os.json"],  # no --instance left over
            ["compare", "--ensemble", "e.json", "--shots", "5", "--seed", "3", "--out-prefix", "c"],
            ["sat-alpha", "--n", "5", "--alphas", "2", "--count", "2", "--shots", "5",
             "--out-prefix", "sa"],
        ]
        outputs = []
        for run in ("first", "second"):
            if run == "second":
                code = cli.main(["summarize", "--ensemble", "e.json", "--bogus", "1",
                                 "--out", "x.json"])
                err = capsys.readouterr().err
                assert code == 1
                assert err == "error: unrecognized arguments: --bogus 1\n"
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)  # relative paths: _config.json matches too
            for argv in commands:
                assert cli.main(argv) == 0, argv
            outputs.append({p.name: p.read_bytes() for p in Path.cwd().iterdir()})
        assert len(outputs[0]) == 17
        assert outputs[1] == outputs[0]
        storage.save_optresult(best_angles(storage.load_summary("s.json")), "want.json")
        assert Path("want.json").read_bytes() == outputs[0]["os.json"]
        assert capsys.readouterr().err == ""

    def test_computation_errors_exit_2(self, tmp_path, capsys, monkeypatch):
        # a non-finite form gives a non-finite grid, a numeric failure; no summary
        # holds one, so the landscape of a good file is swapped for it
        broken = LandscapeForm(
            n=1, scale=0.5, profile=np.array([1.0, 0.0]), even=np.full(2, np.nan)
        )
        monkeypatch.setattr(LandscapeForm, "of", classmethod(lambda cls, source: broken))
        storage.write_json(GOOD_SUMMARY, tmp_path / "s.json")
        code = cli.main(["landscape", "--summary", str(tmp_path / "s.json"), "--grid", "8x8",
                         "--out-prefix", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "computation error: landscape values must be finite\n"
        assert [path.name for path in tmp_path.iterdir()] == ["s.json"]

    @pytest.mark.parametrize(
        "alphas", ["x", "nan", "inf", "1e30", "2,,4", "0", "-1", "2,10.5"]
    )
    def test_malformed_alphas_exit_1(self, tmp_path, capsys, monkeypatch, alphas):
        def refuse(*args):  # an unchecked 1e30 would ask for 5e30 clauses
            raise AssertionError("an ensemble was generated for a bad alpha")

        monkeypatch.setattr(experiments, "build_ensemble", refuse)
        code = cli.main(["sat-alpha", "--n", "5", "--alphas", alphas, "--count", "1",
                         "--out-prefix", str(tmp_path / "sa")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: alpha") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n", ["-3", "0", "2", "25"])
    def test_sat_alpha_width_exit_1(self, tmp_path, capsys, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("an ensemble was generated at a bad width")

        monkeypatch.setattr(experiments, "build_ensemble", refuse)
        code = cli.main(["sat-alpha", "--n", n, "--count", "1",
                         "--out-prefix", str(tmp_path / "sa")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: sat-alpha needs n in [3, 24], got n={n}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "alphas, first, second", [("2,2", "2.0", "2.0"), ("4,2,2.0000001", "2.0", "2.0000001")]
    )
    def test_alphas_sharing_a_file_tag_exit_1(self, tmp_path, capsys, monkeypatch,
                                              alphas, first, second):
        def refuse(*args):
            raise AssertionError("an ensemble was generated for alphas that would overwrite")

        monkeypatch.setattr(experiments, "build_ensemble", refuse)
        code = cli.main(["sat-alpha", "--n", "6", "--alphas", alphas, "--count", "2",
                         "--shots", "5", "--out-prefix", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: alphas {first} and {second} would both write files tagged a2\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("shots", ["0", "-3", "1000000000000000000000000000000"])
    @pytest.mark.parametrize("command", ["compare", "sat-alpha"])
    def test_bad_shots_exit_1_before_any_work(self, tmp_path, capsys, monkeypatch, command, shots):
        ens = tmp_path / "e.json"
        cli.main(["gen", "--family", "uniform", "--n", "3", "--count", "2",
                  "--t-size", "2", "--out", str(ens)])

        def refuse(*args, **kwargs):
            raise AssertionError("work was started for a bad shot count")

        monkeypatch.setattr(experiments, "build_ensemble", refuse)
        monkeypatch.setattr(experiments, "best_angles_all", refuse)
        source = ["--ensemble", str(ens)] if command == "compare" else ["--n", "12"]
        code = cli.main([command, *source, "--shots", shots,
                         "--out-prefix", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: shots must be in [1, 2**63 - 1], got {shots}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["e.json"]

    @pytest.mark.parametrize("command", ["optimize", "compare", "sat-alpha"])
    @pytest.mark.parametrize(
        "flag, value", [("--coarse", "32x32"), ("--refine-starts", "4"), ("--max-evals", "10000")]
    )
    def test_removed_optimiser_flags_exit_1(self, tmp_path, capsys, command, flag, value):
        ens = tmp_path / "e.json"
        cli.main(["gen", "--family", "uniform", "--n", "3", "--count", "2",
                  "--t-size", "2", "--out", str(ens)])
        # --threads 1 stays accepted: only the removed flag is named
        argv = {
            "optimize": ["optimize", "--ensemble", str(ens), "--out", str(tmp_path / "o.json")],
            "compare": ["compare", "--ensemble", str(ens), "--threads", "1",
                        "--out-prefix", str(tmp_path / "run")],
            "sat-alpha": ["sat-alpha", "--n", "4", "--threads", "1",
                          "--out-prefix", str(tmp_path / "run")],
        }[command]
        code = cli.main(argv + [flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: unrecognized arguments: {flag} {value}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["e.json"]

    @pytest.mark.parametrize("command", ["optimize", "compare"])
    @pytest.mark.parametrize("coarse", ["abc", "32", "3x", "1x2x3"])
    def test_malformed_coarse_exits_1(self, tmp_path, capsys, command, coarse):
        # --coarse is gone, so a malformed value is still refused before any work
        ens = tmp_path / "e.json"
        cli.main(["gen", "--family", "uniform", "--n", "3", "--count", "2",
                  "--t-size", "2", "--out", str(ens)])
        out = ["--out", str(tmp_path / "o.json")] if command == "optimize" else [
            "--out-prefix", str(tmp_path / "run")]
        code = cli.main([command, "--ensemble", str(ens), "--coarse", coarse] + out)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: unrecognized arguments: --coarse {coarse}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["e.json"]

    @pytest.mark.parametrize("gamma_c", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", ["--summary", "--ensemble"])
    def test_non_finite_gamma_c_exits_1(self, tmp_path, capsys, source, gamma_c):
        source_doc = GOOD_SUMMARY if source == "--summary" else GOOD_ENSEMBLE
        storage.write_json(source_doc, tmp_path / "in.json")
        code = cli.main(["landscape", source, str(tmp_path / "in.json"), "--grid", "3x3",
                         f"--gamma-c={gamma_c}", "--out-prefix", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: gamma-c must be finite, got {float(gamma_c)!r}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["in.json"]

    @pytest.mark.parametrize("grid", ["20000x20000", "1000x1001", "1x1000001"])
    @pytest.mark.parametrize("source", ["--summary", "--ensemble"])
    def test_oversized_grid_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    source, grid):
        source_doc = GOOD_SUMMARY if source == "--summary" else GOOD_ENSEMBLE
        storage.write_json(source_doc, tmp_path / "in.json")

        def refuse(*args, **kwargs):
            raise AssertionError("work was started for an oversized grid")

        for name in ("load_summary", "load_ensemble"):
            monkeypatch.setattr(storage, name, refuse)
        for name in ("f1", "run_landscape_comparison"):
            monkeypatch.setattr(cli, name, refuse)
        code = cli.main(["landscape", source, str(tmp_path / "in.json"), "--grid", grid,
                         "--out-prefix", str(tmp_path / "p")])
        err = capsys.readouterr().err
        beta_steps, gamma_steps = map(int, grid.split("x"))
        assert code == 1
        assert err == f"error: grid has {beta_steps * gamma_steps} points, more than 1000000\n"
        assert [path.name for path in tmp_path.iterdir()] == ["in.json"]

    @pytest.mark.parametrize("grid", ["5x0", "0x5"])
    def test_empty_grid_axis_exits_1(self, tmp_path, capsys, grid):
        storage.write_json(GOOD_SUMMARY, tmp_path / "in.json")
        code = cli.main(["landscape", "--summary", str(tmp_path / "in.json"), "--grid", grid,
                         "--out-prefix", str(tmp_path / "p")])
        assert code == 1
        assert capsys.readouterr().err == "error: grid must have at least one point per axis\n"
        assert [path.name for path in tmp_path.iterdir()] == ["in.json"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "kclique", "--n", "5", "--edge-prob", "0"],
             "error: kclique n=5 {'k': 3, 'edge_prob': 0.0}: no target in 10000 draws"),
            (["--family", "kclique", "--n", "4", "--k", "4", "--edge-prob", "0.01"],
             "error: kclique n=4 {'k': 4, 'edge_prob': 0.01}: no target in 10000 draws"),
        ],
        ids=["no-edges", "sparse-k4"],
    )
    def test_hopeless_generation_exits_1(self, tmp_path, capsys, flags, message):
        code = cli.main(["gen", *flags, "--count", "1", "--out", str(tmp_path / "e.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == message + " of instance 0\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 8.00 GiB for an array with shape (1073741824,)"
                         " and data type int64"),
             "error: out of memory: Unable to allocate 8.00 GiB for an array with shape"
             " (1073741824,) and data type int64"),
            (MemoryError(), "error: out of memory"),
            (MemoryError("first line\nsecond line"),
             "error: out of memory: first line second line"),
        ],
        ids=["numpy", "bare", "two-lines"],
    )
    def test_memory_error_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch, exc, line):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(problems, "sample_uniform", exhausted)
        code = cli.main(["gen", "--family", "uniform", "--n", "30", "--count", "1",
                         "--t-size", "200000000", "--out", str(tmp_path / "e.json")])
        assert code == 1
        assert capsys.readouterr().err == line + "\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps allocations on Linux only")
    def test_a_real_allocation_past_the_memory_limit_exits_1(self, tmp_path):
        # drawing 2e8 of 2^30 states shuffles 8 GiB: a real MemoryError, raised in a child
        # whose address space is capped at 2 GB; the installed script runs where there is one
        import resource

        script = shutil.which("qaoa-landscape")
        command = [script] if script else [sys.executable, "-m", "qaoa_landscape.cli"]
        limit, out = 2 * 10**9, tmp_path / "oom.json"
        done = subprocess.run(
            [*command, "gen", "--family", "uniform", "--n", "30", "--count", "1",
             "--t-size", "200000000", "--out", str(out)],
            capture_output=True, text=True, check=False,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                     PYTHONPATH=str(Path(cli.__file__).parents[1])),  # the package under test
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert done.returncode == 1, done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: out of memory")
        assert not out.exists()

    def test_sat_density_refused_before_any_draw(self, tmp_path, capsys, monkeypatch):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError("a formula was drawn for a refused density")

        argv = ["gen", "--family", "sat", "--n", "5", "--count", "1"]
        with monkeypatch.context() as patch:
            patch.setattr(problems, "streams", lambda seed, keys: (NoDraws() for _ in keys))
            code = cli.main(argv + ["--clauses", "51", "--out", str(tmp_path / "e.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: 51 clauses exceed 10 * n = 50\n"
        assert not list(tmp_path.iterdir())
        assert cli.main(argv + ["--clauses", "50", "--out", str(tmp_path / "e.json")]) == 0
        assert storage.load_ensemble(tmp_path / "e.json").params == {"num_clauses": 50}

    @pytest.mark.parametrize("n", ["0", "33", "34", str(10**30)])
    @pytest.mark.parametrize("family", problems.FAMILIES)
    def test_width_refused_before_any_draw(self, tmp_path, capsys, monkeypatch, family, n):
        def refuse(seed, keys):
            raise AssertionError("a stream was built for a refused width")

        monkeypatch.setattr(problems, "streams", refuse)
        params = {"uniform": ["--t-size", "1"], "sat": ["--clauses", "3"]}.get(family, [])
        code = cli.main(["gen", "--family", family, "--n", n, "--count", "1", *params,
                         "--out", str(tmp_path / "e.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: n must be in [1, 32], got {n}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("count", [str(problems.MAX_COUNT + 1), str(10**30)])
    @pytest.mark.parametrize("command", ["gen", "sat-alpha"])
    def test_count_refused_before_any_draw(self, tmp_path, capsys, monkeypatch, command, count):
        def refuse(seed, keys):
            raise AssertionError("a stream was built for a refused count")

        monkeypatch.setattr(problems, "streams", refuse)
        argv = {
            "gen": ["gen", "--family", "uniform", "--n", "3", "--t-size", "2",
                    "--out", str(tmp_path / "e.json")],
            "sat-alpha": ["sat-alpha", "--n", "6", "--alphas", "2,4",
                          "--out-prefix", str(tmp_path / "sa")],
        }[command]
        code = cli.main(argv + ["--count", count])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: count must be in [1, {problems.MAX_COUNT}], got {count}\n"
        assert not list(tmp_path.iterdir())

    def test_exhausted_clustered_walks_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(problems, "_WALK_RETRY_CAP", 1)
        code = cli.main(["gen", "--family", "clustered", "--n", "4", "--count", "1",
                         "--num-seeds", "1", "--per-seed", "15",
                         "--out", str(tmp_path / "e.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: random walks found no new state for 16 states at n=4\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["gen", "compare", "sat-alpha"])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_exits_1(self, tmp_path, capsys, command, seed):
        storage.write_json(GOOD_ENSEMBLE, tmp_path / "e.json")
        argv = {
            "gen": ["gen", "--family", "uniform", "--n", "3", "--count", "1", "--t-size", "2",
                    "--out", str(tmp_path / "x.json")],
            "compare": ["compare", "--ensemble", str(tmp_path / "e.json"),
                        "--out-prefix", str(tmp_path / "run")],
            "sat-alpha": ["sat-alpha", "--n", "4", "--out-prefix", str(tmp_path / "run")],
        }[command]
        code = cli.main(argv + [f"--seed={seed}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: argument --seed: must be a non-negative integer, got {seed!r}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["e.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "uniform", "--n", "3", "--count", "1", "--t-size", "2",
             "--out", "nodir/x.json"],
            ["landscape", "--summary", "s.json", "--grid", "3x3", "--out-prefix", "nodir/p"],
        ],
        ids=["gen", "landscape"],
    )
    def test_output_in_missing_directory_exits_1(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        storage.write_json(GOOD_SUMMARY, "s.json")
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot write nodir/") and err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["s.json"]

    @pytest.mark.parametrize("source, grid_file", [("--summary", "p_approx.csv"),
                                                   ("--ensemble", "p_mean.csv")])
    def test_unwritable_grid_path_exits_1(self, tmp_path, capsys, monkeypatch, source, grid_file):
        # the grid's path is a directory: the grid writer's open fails like any other writer's
        monkeypatch.chdir(tmp_path)
        storage.write_json(GOOD_SUMMARY if source == "--summary" else GOOD_ENSEMBLE, "in.json")
        (tmp_path / grid_file).mkdir()
        code = cli.main(["landscape", source, "in.json", "--grid", "3x3", "--out-prefix", "p"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot write {grid_file}: ") and err.count("\n") == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["in.json", grid_file])

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff\xfe{}", "not UTF-8 text: invalid start byte at byte 0"),
            (b"[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
            (b"1" * 5000, "invalid JSON: Exceeds the limit (4300 digits)"),
        ],
        ids=["not-utf8", "deep-nesting", "long-integer"],
    )
    @pytest.mark.parametrize("reader", ["summarize --ensemble", "optimize --summary"])
    def test_undecodable_input_file_exits_1(self, tmp_path, capsys, reader, content, message):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        code = cli.main(reader.split() + [str(path), "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1
        assert [entry.name for entry in tmp_path.iterdir()] == ["in.json"]


GOOD_SUMMARY = {
    "n": 1,
    "count": 1,
    "mode": "empirical",
    "e_tsize": 1.0,
    "var_tsize": 0.0,
    "e_profile": [1.0, 0.0],
    "e_pair": [[1.0, 0.0], [0.0, 0.0]],
}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n", "1", "n must be an integer"),
        ("count", "1", "count must be a non-negative integer"),
        ("e_pair", [[1.0, 0.0], [0.0]], "e_pair is not a rectangular array"),
        ("e_profile", ["1.0", 0.0], "e_profile must hold numbers only"),
        ("e_tsize", math.nan, "e_tsize must be a finite number"),
        ("e_pair", [[1.0, 3.0], [0.0, 0.0]], "e_pair must be symmetric"),
        ("e_tsize", -4096, r"e_tsize must be in \[1, 2\^1\], got -4096"),
        ("e_tsize", 1e9, r"e_tsize must be in \[1, 2\^1\]"),
        ("e_tsize", 0.5, r"e_tsize must be in \[1, 2\^1\]"),
        ("e_tsize", 2.5, r"e_tsize must be in \[1, 2\^1\]"),
        ("e_tsize", 10**400, "e_tsize must be a finite number"),
        ("e_tsize", True, "e_tsize must be a finite number"),
        ("var_tsize", -1.0, "var_tsize must be non-negative, got -1.0"),
        ("e_profile", [1.0, 2.0], r"e_profile\[1\] must be in \[0, C\(1, 1\)\], got 2.0"),
        ("e_profile", [-0.5, 0.0], r"e_profile\[0\] must be in \[0, C\(1, 0\)\], got -0.5"),
        ("e_profile", [1.0, 1.0 + 1e-6], r"e_profile\[1\] must be in"),
        ("e_pair", [[1.0, 0.0], [0.0, 1e308]],
         r"e_pair\[1\]\[1\] must be in \[0, C\(1, 1\) \* C\(1, 1\)\], got 1e\+308"),
        ("e_pair", [[1.0, -1.0], [-1.0, 0.0]], r"e_pair\[0\]\[1\] must be in"),
        ("e_profile", [0.5, 0.0], r"summary e_profile\[0\] must be 1, got 0.5"),
        ("e_pair", [[1.0, 0.5], [0.5, 0.5]],
         "summary e_pair row and column 0 must equal e_profile"),
        # JSON true/false are not counts, also beside numbers
        ("e_profile", [True, 0.0], "e_profile must hold numbers only"),
        ("e_pair", [[1.0, 0.0], [0.0, False]], "e_pair must hold numbers only"),
        ("mode", None, r"summary mode must be one of \('empirical', 'paper', "
                       r"'exact_hypergeometric'\), got None"),
        ("mode", 3, "summary mode must be one of .*, got 3"),
        ("mode", ["x"], r"summary mode must be one of .*, got \['x'\]"),
        ("mode", "bogus", "summary mode must be one of .*, got 'bogus'"),
        ("mode", "Paper", "summary mode must be one of .*, got 'Paper'"),
        # json reads the NaN and Infinity tokens as floats
        ("e_profile", [1.0, math.nan], "^summary e_profile must be finite$"),
        ("e_pair", [[1.0, 0.0], [0.0, math.inf]], "^summary e_pair must be finite$"),
    ],
)
def test_malformed_summary_refused_at_load(tmp_path, capsys, key, value, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(GOOD_SUMMARY | {key: value}))
    with pytest.raises(UsageError, match=message):
        storage.load_summary(path)
    code = cli.main(["landscape", "--summary", str(path), "--grid", "4x4",
                     "--out-prefix", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x_approx.csv").exists()
    code = cli.main(["optimize", "--summary", str(path), "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("e_tsize", [1, 1.0, 2, 2.0])
def test_summary_sizes_at_their_bounds_load(e_tsize):
    summary = storage.summary_from_dict(GOOD_SUMMARY | {"e_tsize": e_tsize, "var_tsize": 0})
    assert (summary.e_tsize, summary.var_tsize) == (float(e_tsize), 0.0)


def test_out_of_range_counts_exit_1_before_any_output(tmp_path, capsys):
    # unrefused, this e_profile[1] makes the optimum about 1.67e307 and the cross-section 1e292
    path = tmp_path / "s.json"
    storage.write_json(
        {"n": 2, "count": 1, "mode": "empirical", "e_tsize": 2.0, "var_tsize": 0.0,
         "e_profile": [1, 1e308, 0], "e_pair": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]},
        path,
    )
    for argv in (
        ["optimize", "--summary", str(path), "--out", str(tmp_path / "o.json")],
        ["landscape", "--summary", str(path), "--grid", "4x4", "--gamma-c", "1",
         "--out-prefix", str(tmp_path / "x")],
    ):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: summary e_profile[1] must be in [0, C(2, 1)], got 1e+308\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["s.json"]


@pytest.mark.parametrize(
    "e_profile, e_pair, message",
    [
        # each count in its range, but row 0 puts no target at distance 1 or 2
        ([1, 0, 0], [[1, 2, 1], [2, 4, 2], [1, 2, 1]],
         "summary e_pair row and column 0 must equal e_profile"),
        ([0.25, 0, 0], [[0.25, 0, 0], [0, 0, 0], [0, 0, 0]],
         "summary e_profile[0] must be 1, got 0.25"),
        # each variance non-negative, but the covariance of distances 1 and 2 too large
        ([1, 1, 0.5], [[1, 1, 0.5], [1, 1.5, 1], [0.5, 1, 0.5]],
         "summary e_pair - outer(e_profile, e_profile) must be positive semidefinite"),
    ],
    ids=["row-zero", "profile-zero", "covariance"],
)
def test_inconsistent_summaries_exit_1_before_any_output(tmp_path, capsys, e_profile, e_pair,
                                                         message):
    path = tmp_path / "s.json"
    storage.write_json({"n": 2, "count": 1, "mode": "empirical", "e_tsize": 4, "var_tsize": 0,
                        "e_profile": e_profile, "e_pair": e_pair}, path)
    for argv in (
        ["optimize", "--summary", str(path), "--out", str(tmp_path / "o.json")],
        ["landscape", "--summary", str(path), "--grid", "4x4", "--gamma-c", "1",
         "--out-prefix", str(tmp_path / "x")],
    ):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["s.json"]


@pytest.mark.parametrize(
    "e_profile, e_pair",
    [
        ([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]),
        ([1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]]),
        # rounding past the top of C(1, 0) and below zero, consistent otherwise
        ([1.0 + 1e-12, -1.4e-17], [[1.0 + 1e-12, -1.4e-17], [-1.4e-17, -1.4e-17]]),
    ],
    ids=["top", "zero", "rounding"],
)
def test_summary_counts_at_their_bounds_load(e_profile, e_pair):
    summary = storage.summary_from_dict(GOOD_SUMMARY | {"e_profile": e_profile, "e_pair": e_pair})
    assert summary.e_profile.tolist() == e_profile and summary.e_pair.tolist() == e_pair


@pytest.mark.parametrize("n", range(1, 21))
def test_written_summaries_load(tmp_path, n):
    """Every analytic summary, and the summaries of singleton and full target sets, loads."""
    paths = []
    for t in sorted({1, 2, (1 << n) // 3, (1 << n) - 1, 1 << n} - {0}):
        for mode in MODES:
            paths.append(tmp_path / f"a_{t}_{mode}.json")
            assert cli.main(["analytic-uniform", "--n", str(n), "--t-size", str(t),
                             "--mode", mode, "--out", str(paths[-1])]) == 0
    # a full target set holds a 2^n x (n+1) int64 profile matrix: 176 MB at n = 20
    for t in (1, 1 << n) if n <= 16 else (1,):
        ensemble = tmp_path / f"e_{t}.json"
        paths.append(tmp_path / f"s_{t}.json")
        assert cli.main(["gen", "--family", "uniform", "--n", str(n), "--count", "1",
                         "--t-size", str(t), "--out", str(ensemble)]) == 0
        assert cli.main(["summarize", "--ensemble", str(ensemble), "--out", str(paths[-1])]) == 0
    for path in paths:
        summary = storage.load_summary(path)
        assert summary.n == n


_NUMBERS = st.integers(-3, 3) | st.floats() | st.sampled_from([2**63, 10**400, -(10**400)])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
_SUMMARY_FIELDS = {
    "n": st.integers(0, 3) | _JSON_VALUES,
    "count": _NUMBERS | _JSON_VALUES,
    "mode": _JSON_VALUES,
    "e_tsize": _NUMBERS | _JSON_VALUES,
    "var_tsize": _NUMBERS | _JSON_VALUES,
    "e_profile": st.lists(_NUMBERS, min_size=2, max_size=2) | _JSON_VALUES,
    "e_pair": st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=2, max_size=2)
    | _JSON_VALUES,
}


@st.composite
def summary_documents(draw):
    """Mostly the good summary with some fields replaced or one dropped; else any JSON value."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_JSON_VALUES)
    doc = GOOD_SUMMARY | draw(st.fixed_dictionaries({}, optional=_SUMMARY_FIELDS))
    if draw(st.integers(0, 4)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@settings(max_examples=300, deadline=None)
@given(summary_documents())
def test_summary_loader_raises_only_usage_error(doc):
    try:
        summary = storage.summary_from_dict(doc)
    except UsageError:
        return
    n = summary.n
    assert 1.0 <= summary.e_tsize <= 2**n and summary.var_tsize >= 0.0
    assert summary.e_profile.shape == (n + 1,) and summary.e_pair.shape == (n + 1, n + 1)
    assert abs(summary.e_profile[0] - 1.0) <= 1e-9


GOOD_ENSEMBLE = {
    "family": "uniform",
    "n": 3,
    "seed": 0,
    "params": {"t_size": 2},
    "instances": [{"id": 0, "targets": [1, 6], "meta": None}],
}


MALFORMED_ENSEMBLES = [
    ({"seed": "abc"}, "seed must be an integer"),
    ({"seed": None}, "seed must be an integer"),
    ({"instances": 3}, "instances must be a JSON list"),
    ({"params": 3}, "params must be a JSON object"),
    ({"instances": [{"id": 0, "targets": 3}]}, "targets must be a JSON list"),
    ({"instances": [{"id": "x", "targets": [1]}]}, "id must be an integer"),
    ({"instances": [{"id": 0, "targets": [1, 6, 1]}]}, "duplicate target states"),
    ({"instances": [{"id": 0, "targets": [True]}]}, "state True does not fit"),
    ({"n": True}, "n must be an integer"),
    ({"instances": [{"id": False, "targets": [1]}]}, "id must be an integer"),
    (
        {"instances": [{"id": 4, "targets": [1]}, {"id": 4, "targets": [2]}]},
        "duplicate instance id 4",
    ),
    ({"instances": [{"id": 0, "targets": [1, "a"]}]}, "targets must all be integers"),
    ({"instances": [{"id": 0, "targets": [1, None]}]}, "targets must all be integers"),
    ({"instances": [{"id": 0, "targets": [1, 8]}]}, r"instances\[0\]: state 8 does not fit"),
    # each of these reaches the int64 conversion of the targets
    ({"instances": [{"id": 0, "targets": [2**70]}]}, f"state {2**70} does not fit"),
    ({"instances": [{"id": 0, "targets": [-1]}]}, "state -1 does not fit"),
    ({"instances": [{"id": 0, "targets": [1.5]}]}, "state 1.5 does not fit"),
    ({"instances": [{"id": 0, "targets": ["a"]}]}, "state 'a' does not fit"),
    ({"instances": [{"id": 0, "targets": [2, True]}]}, "state True does not fit"),
    ({"instances": [{"id": 0, "targets": [[1]]}]}, r"state \[1\] does not fit"),
    # a negative id cannot be a SeedSequence spawn key for compare's draws
    (
        {"instances": [{"id": -1, "targets": [1]}]},
        r"^instances\[0\]: id must be a non-negative integer, got -1$",
    ),
]


@pytest.mark.parametrize("change, message", MALFORMED_ENSEMBLES)
def test_malformed_ensemble_refused_at_load(tmp_path, capsys, change, message):
    path = tmp_path / "e.json"
    path.write_text(json.dumps(GOOD_ENSEMBLE | change))
    with pytest.raises(UsageError, match=message) as refused:
        storage.load_ensemble(path)
    for argv in (
        ["summarize", "--ensemble", str(path), "--out", str(tmp_path / "s.json")],
        ["compare", "--ensemble", str(path), "--shots", "5", "--out-prefix", str(tmp_path / "c")],
    ):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {refused.value}\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["e.json"]


def both_routes(path):
    """What load_ensemble, and json.loads with ensemble_from_dict, each make of the file at path.

    An ensemble as comparable values, or ("refused", message).
    """
    def outcome(load):
        try:
            ensemble = load()
        except UsageError as exc:
            return "refused", str(exc)
        instances = []
        for inst in ensemble.instances:
            states = inst.target.states
            assert states.dtype == np.int64 and not states.flags.writeable
            instances.append((inst.id, states.tolist(), inst.meta))
        return ensemble.family, ensemble.n, ensemble.seed, ensemble.params, instances

    typed = outcome(lambda: storage.load_ensemble(path))
    assert typed == outcome(lambda: storage.ensemble_from_dict(storage._read_json(path)))
    return typed


def typed_route_taken(path) -> bool:
    return storage._typed_document(path.read_text()) is not None


_METAS = st.none() | st.integers(-(2**70), 2**70) | st.text(max_size=6) | st.lists(
    st.floats(allow_nan=False) | st.booleans() | st.text(max_size=3), max_size=3
) | st.dictionaries(st.text(max_size=4), st.integers() | st.none(), max_size=2)


@st.composite
def written_ensembles(draw):
    """Ensembles as the package holds them: any ids, boundary ids included, and metas."""
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.sampled_from(BOUNDARY_IDS) | st.integers(0, 50), unique=True,
                        max_size=5))
    instances = []
    for instance_id in ids:
        states = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
        instances.append(problems.Instance(instance_id, TargetSpace(n, sorted(states)),
                                           draw(_METAS)))
    params = draw(st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=3),
                                  max_size=2))
    return problems.Ensemble("uniform", n, draw(st.integers(-5, 2**70)), params, tuple(instances))


def test_short_lists_go_to_json(tmp_path):
    """The typed route takes a file of 512 characters or more per target list."""
    path = tmp_path / "e.json"
    # ten pairs of targets, as sparse-qr20 reads, and ten lists of 4096, as dense-u14 does
    for family, n, params, typed in (("qrfactor", 20, {}, False),
                                     ("uniform", 14, {"t_size": 4096}, True)):
        storage.save_ensemble(build_ensemble(family, n, 10, params, seed=0), path)
        assert typed_route_taken(path) == typed
        both_routes(path)
    # one list: 33 targets of 5 digits and 34 make a file of 502 and 513 characters
    for size, typed in ((33, False), (34, True)):
        instance = problems.Instance(0, TargetSpace(16, np.arange(size) + 10**4), None)
        storage.save_ensemble(problems.Ensemble("uniform", 16, 0, {}, (instance,)), path)
        assert typed_route_taken(path) == typed


class TestTypedReader:
    """load_ensemble's typed route gives what json.loads and ensemble_from_dict give.

    The typed route reads files of any length here; `test_short_lists_go_to_json`
    checks the lengths it takes outside this class.
    """

    @pytest.fixture(autouse=True)
    def lists_of_any_length(self, monkeypatch):
        monkeypatch.setattr(storage, "_TYPED_MIN_CHARS", 0)

    @settings(max_examples=150, deadline=None)
    @given(written_ensembles())
    def test_both_routes_give_equal_ensembles(self, ensemble):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "e.json"
            storage.save_ensemble(ensemble, path)
            # a "NaN" anywhere, even in a string, leaves the file to json.loads
            typed = bool(ensemble.instances) and "NaN" not in path.read_text()
            assert typed_route_taken(path) == typed
            got = both_routes(path)
        assert got[4] == [(i.id, i.target.states.tolist(), i.meta) for i in ensemble.instances]

    @pytest.mark.parametrize("family, n, params", FAMILY_CASES)
    def test_every_family_takes_the_typed_route(self, family, n, params, tmp_path):
        ensemble = build_ensemble(family, n, 4, params, seed=3)
        storage.save_ensemble(ensemble, tmp_path / "e.json")
        assert typed_route_taken(tmp_path / "e.json")
        loaded = both_routes(tmp_path / "e.json")
        assert loaded[4] == [(i.id, i.target.states.tolist(), i.meta) for i in ensemble.instances]

    # (block text, whether the typed route may read it): a block np.fromstring would misread,
    # or one that does not strictly ascend, goes to json.loads; one it reads right takes the
    # typed route and the same checks
    @pytest.mark.parametrize("block, typed", [
        ("01,\n    6", False),
        ("+1,\n    6", False),
        ("1 ,\n    6", False),
        ("1,\n    6,", False),
        ("1,,\n    6", False),
        (",\n    1", False),
        ("1,\n     6", False),
        ("1, \n   6", False),
        ("1\n    ,6", False),
        ("12345678901", False),
        (str(2**63), False),
        ("-1", False),
        ("1.0", False),
        ("true", False),
        ("1,\n    \\u0036", False),
        ("6,\n    1", False),
        ("1,\n    1", False),
        ("1,\n    8", True),
        ("4294967295", True),
        ("0", True),
    ])
    def test_pitfalls_refused_alike_or_sent_to_json(self, block, typed, tmp_path):
        path = tmp_path / "e.json"
        good = json.dumps(GOOD_ENSEMBLE, indent=1)
        assert '"targets": [\n    1,\n    6\n   ]' in good
        path.write_text(good.replace("1,\n    6", block))
        assert typed_route_taken(path) == typed
        both_routes(path)

    def test_unsorted_blocks_sorted_each_alone(self, tmp_path):
        # the second block descends, and each block starts below where the one before ends:
        # the file goes to json.loads, whose sorted() gives each block alone
        instances = [{"id": i, "targets": t, "meta": None}
                     for i, t in enumerate(([5, 2], [7, 1, 3], [0], [6, 4]))]
        path = tmp_path / "e.json"
        path.write_text(json.dumps(GOOD_ENSEMBLE | {"instances": instances}, indent=1))
        assert not typed_route_taken(path)
        got = both_routes(path)
        assert [states for _, states, _ in got[4]] == [[2, 5], [1, 3, 7], [0], [4, 6]]

    @pytest.mark.parametrize("change, message", MALFORMED_ENSEMBLES)
    def test_malformed_documents_in_the_layout(self, tmp_path, change, message):
        path = tmp_path / "e.json"
        path.write_text(json.dumps(GOOD_ENSEMBLE | change, indent=1))
        outcome = both_routes(path)
        assert outcome[0] == "refused" and re.search(message, outcome[1])

    @pytest.mark.parametrize("text", [
        # a targets list in the layout that is not an instance's own
        '{"family": "uniform", "n": 3, "seed": 0, "params": {"x": {\n   "targets": [\n    5\n   ]}},'
        ' "instances": [{"id": 0, "targets": [1], "meta": null}]}',
        # two lists in the layout, the first not an instance's
        '{"family": "uniform", "n": 3, "seed": 0, "params": {"x": {\n   "targets": [\n    5\n   ]}},'
        ' "instances": [{"id": 0,\n   "targets": [\n    1\n   ]}]}',
        # a NaN in place of an instance's list
        '{"family": "uniform", "n": 3, "seed": 0, "params": {"x": {\n   "targets": [\n    5\n   ]}},'
        ' "instances": [{"id": 0, "targets": NaN}]}',
        # an instance's list in the layout, another's not, and a NaN elsewhere
        '{"family": "uniform", "n": 3, "seed": 0, "params": {}, "instances": [{"id": 0,'
        '\n   "targets": [\n    5\n   ], "meta": NaN}]}',
        '{"family": "uniform", "n": 3, "seed": 0, "params": {}, "instances": [{"id": 0,'
        '\n   "targets": [\n    5\n   ]}, {"id": 1, "targets": [2]}]}',
        # the same key twice: json keeps the last value
        '{"family": "uniform", "n": 3, "seed": 0, "params": {}, "instances": [{"id": 0,'
        '\n   "targets": [\n    5\n   ], "targets": [3]}]}',
        '{"family": "uniform", "n": 3, "seed": 0, "params": {}, "instances": [{"id": 0,'
        ' "targets": [3],\n   "targets": [\n    5\n   ]}]}',
        # a list left open, and a document that is not JSON
        '{"family": "uniform", "n": 3, "seed": 0, "params": {}, "instances": [{"id": 0,'
        '\n   "targets": [\n    5',
        '{"family": "uniform", "n": 3,, "seed": 0, "params": {}, "instances": [{"id": 0,'
        '\n   "targets": [\n    5\n   ]}]}',
    ], ids=["foreign-list", "foreign-list-first", "nan-targets", "nan-meta", "mixed-layout", "key-twice-typed-first",
            "key-twice-typed-last", "open-list", "not-json"])
    def test_documents_outside_the_layout(self, text, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(text)
        both_routes(path)

    def test_one_fromstring_per_file(self, tmp_path, monkeypatch):
        calls = []
        fromstring = np.fromstring
        monkeypatch.setattr(np, "fromstring", lambda *a, **k: calls.append(1) or fromstring(*a, **k))
        storage.save_ensemble(build_ensemble("uniform", 8, 50, {"t_size": 9}, 0), tmp_path / "e.json")
        assert len(storage.load_ensemble(tmp_path / "e.json").instances) == 50
        assert len(calls) == 1


_INSTANCE_FIELDS = {
    "id": st.integers(-2, 2) | _JSON_VALUES,
    "targets": st.lists(st.integers(-1, 8) | _JSON_VALUES, max_size=4) | _JSON_VALUES,
    "meta": _JSON_VALUES,
}
_ENSEMBLE_FIELDS = {
    "family": st.sampled_from(problems.FAMILIES) | _JSON_VALUES,
    "n": st.integers(0, 4) | _JSON_VALUES,
    "seed": _NUMBERS | _JSON_VALUES,
    "params": _JSON_VALUES,
    "instances": st.lists(
        st.fixed_dictionaries({}, optional=_INSTANCE_FIELDS) | _JSON_VALUES, max_size=3
    ) | _JSON_VALUES,
}


@st.composite
def ensemble_documents(draw):
    """Mostly the good ensemble with some fields replaced or one dropped; else any JSON value."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_JSON_VALUES)
    doc = GOOD_ENSEMBLE | draw(st.fixed_dictionaries({}, optional=_ENSEMBLE_FIELDS))
    if draw(st.integers(0, 4)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@settings(max_examples=300, deadline=None)
@given(ensemble_documents())
def test_ensemble_loader_raises_only_usage_error(doc):
    try:
        ensemble = storage.ensemble_from_dict(doc)
    except UsageError:
        return
    assert ensemble.family in problems.FAMILIES and type(ensemble.seed) is int
    ids = [inst.id for inst in ensemble.instances]
    assert all(type(i) is int for i in ids) and len(set(ids)) == len(ids)
    for inst in ensemble.instances:
        assert inst.target.n == ensemble.n
        states = inst.target.states
        assert states.dtype == np.int64 and states.ndim == 1 and not states.flags.writeable
        assert all(0 <= k < 1 << ensemble.n for k in states.tolist())


_ODD_INTS = st.one_of(st.integers(-2, 70), st.sampled_from([2**31, 2**63, 10**30, -(10**30)]))
_GEN_FLAGS = {
    "--t-size": _ODD_INTS,
    "--num-seeds": _ODD_INTS,
    "--per-seed": _ODD_INTS,
    "--dedupe": st.sampled_from(["retry", "drop"]),
    "--clauses": _ODD_INTS,
    "--k": _ODD_INTS,
    "--edge-prob": st.one_of(
        st.floats(-0.5, 1.5), st.sampled_from([math.nan, math.inf, -math.inf, 1e300])
    ),
    "--seed": _ODD_INTS,
}


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(problems.FAMILIES),
    n=st.integers(-1, 6),
    count=st.integers(-1, 3),
    flags=st.fixed_dictionaries({}, optional=_GEN_FLAGS),
)
def test_gen_exits_0_or_1_with_one_error_line(family, n, count, flags):
    argv = ["gen", "--family", family, "--n", str(n), "--count", str(count)]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    # small caps keep hopeless draws and exhausted walks quick
    with tempfile.TemporaryDirectory() as work, \
            mock.patch.object(problems, "MAX_DRAWS", 5), \
            mock.patch.object(problems, "_WALK_RETRY_CAP", 50), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        out = Path(work) / "e.json"
        code = cli.main(argv + ["--out", str(out)])
        written = out.exists()
    assert code in (0, 1)
    if code == 0:
        assert written and err.getvalue() == ""
    else:
        assert not written
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _mostly(good, odd):
    """Three draws in four from good, else from odd."""
    return st.integers(0, 3).flatmap(lambda i: odd if i == 0 else good)


def _ints(good: range, odd: list):
    """A decimal integer in good, or now and then one in odd or an odd text."""
    odd_texts = st.sampled_from(["x", "", "2.5", "nan"])
    return _mostly(st.sampled_from(good).map(str), odd_texts | st.sampled_from(odd).map(str))


# a count of 10**30 would be honoured, one instance at a time, so counts stay small
_HUGE = 10**30
_SOURCES = _mostly(
    st.sampled_from([("--summary", "s.json"), ("--ensemble", "e.json")]),
    st.tuples(st.sampled_from(["--summary", "--ensemble"]),
              st.sampled_from(["e.json", "s.json", "bad.json", "absent.json"])),
)
_FLOATS = _mostly(st.floats(-10, 10).map(repr), st.floats().map(repr) | st.just("x"))
_RUN_FLAGS = {
    "--shots": _ints(range(1, 7), [-2, 0, _HUGE]),
    "--seed": _ints(range(7), [-2, -1, _HUGE]),
    "--threads": _ints(range(1, 5), [-2, 0, _HUGE]),
}
# per command: the flags always drawn, then the optional ones; "source"
# stands for --summary or --ensemble with a file name
_CLI_FLAGS = {
    "landscape": (
        {"source": _SOURCES,
         "--grid": _mostly(st.builds("{}x{}".format, st.integers(1, 8), st.integers(1, 8)),
                           st.sampled_from(["0x3", "-1x2", "8", "3x3x3", "", "axb"]))},
        {"--gamma-c": _FLOATS, "--threads": _RUN_FLAGS["--threads"]},
    ),
    "optimize": ({"source": _SOURCES}, {"--instance": _ints(range(2), [-2, 8, _HUGE])}),
    "compare": (
        {"--ensemble": _mostly(st.just("e.json"), st.sampled_from(["s.json", "bad.json"]))},
        _RUN_FLAGS,
    ),
    "sat-alpha": (
        {"--n": _ints(range(3, 7), [-2, 0, 2, 33, _HUGE]),
         "--count": _ints(range(1, 4), [-2, 0])},
        {"--alphas": st.lists(_FLOATS, min_size=1, max_size=3).map(",".join),
         **_RUN_FLAGS},
    ),
    "analytic-uniform": (
        {"--n": _ints(range(1, 7), [-2, 0, 33, _HUGE]),
         "--t-size": _ints(range(1, 65), [-2, 0, _HUGE])},
        {"--mode": st.sampled_from([*MODES, "x"])},
    ),
}
_OUTPUT_FLAG = {"optimize": "--out", "analytic-uniform": "--out"}


# flags a command cannot run without; the defaults of the others (count 50,
# grid 100x100) are not cheap, so only these are ever dropped
_REQUIRED = {"source", "--ensemble", "--n", "--t-size"}


@st.composite
def cli_arguments(draw):
    """One command, its flags cheap or odd; now and then a required flag is dropped."""
    command = draw(st.sampled_from(sorted(_CLI_FLAGS)))
    required, optional = _CLI_FLAGS[command]
    flags = draw(st.fixed_dictionaries(required, optional=optional))
    if draw(st.integers(0, 9)) == 0 and _REQUIRED & set(flags):
        del flags[draw(st.sampled_from(sorted(_REQUIRED & set(flags))))]
    if "source" in flags:
        flag, path = flags.pop("source")
        flags[flag] = path
    return command, flags


@settings(max_examples=300, deadline=None)
@given(cli_arguments())
def test_commands_exit_0_or_1_with_one_error_line(arguments):
    command, flags = arguments
    # a small cap keeps hopeless SAT draws quick
    with tempfile.TemporaryDirectory() as work, \
            mock.patch.object(problems, "MAX_DRAWS", 5), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        work = Path(work)
        storage.write_json(GOOD_ENSEMBLE, work / "e.json")
        storage.write_json(GOOD_SUMMARY, work / "s.json")
        (work / "bad.json").write_text("{ nope")
        argv = [command, f"{_OUTPUT_FLAG.get(command, '--out-prefix')}={work / 'run'}"]
        for flag, value in flags.items():
            argv.append(f"{flag}={work / value if flag in ('--summary', '--ensemble') else value}")
        code = cli.main(argv)
        written = [path.name for path in work.iterdir() if path.name.startswith("run")]
    event(f"{command} exit {code}")
    assert code in (0, 1)
    if code == 0:
        assert written and err.getvalue() == ""
    else:
        assert not written
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
