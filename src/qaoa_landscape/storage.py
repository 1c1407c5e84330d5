"""On-disk formats: ensemble and summary JSON, grid and report CSV.

Every file the package writes goes through `write_json` or `_write_csv`.
All floats in CSV are written with 17 significant digits, enough to
round-trip a double exactly; JSON uses Python's shortest-exact float
representation.  Writers emit keys in a fixed order so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import MAX_WIDTH, TargetSpace, UsageError
from .experiments import ComparisonReport, CrossSection
from .landscape import LandscapeGrid
from .optimize import OptResult
from .problems import FAMILIES, Ensemble, Instance
from .structure import StructuralSummary


def _texts(values) -> list[str]:
    """Each float as 17 significant digits."""
    return [format(v, ".17g") for v in np.asarray(values, dtype=np.float64).tolist()]


def _write_csv(path: str | Path, header: str, lines) -> None:
    """The header, then each line of the iterable `lines`.

    Lines are streamed to the file, so no copy of the whole text is held.
    """
    try:
        with open(path, "w") as out:
            out.write(header + "\n")
            out.writelines(lines)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _rows(columns: list[list[str]]):
    """Line i joins the i-th text of each column."""
    return (",".join(row) + "\n" for row in zip(*columns))


def write_json(doc, path: str | Path) -> None:
    """`doc` as JSON indented by one space, with a final newline."""
    text = json.dumps(doc, indent=1) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _read_json(path: str | Path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


# ---------------------------------------------------------------------------
# ensembles
#
# JSON true/false load as bool, a subclass of int, so integer fields are
# checked with `type(value) is int` rather than isinstance.


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    return {
        "family": ensemble.family,
        "n": ensemble.n,
        "seed": ensemble.seed,
        "params": ensemble.params,
        "instances": [
            {"id": inst.id, "targets": list(inst.target.states), "meta": inst.meta}
            for inst in ensemble.instances
        ],
    }


def ensemble_from_dict(data: dict) -> Ensemble:
    if not isinstance(data, dict):
        raise UsageError("ensemble document must be a JSON object")
    missing = {"family", "n", "seed", "params", "instances"} - set(data)
    if missing:
        raise UsageError(f"ensemble document lacks keys: {sorted(missing)}")
    family = data["family"]
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    n, seed = data["n"], data["seed"]
    if type(n) is not int or not 1 <= n <= MAX_WIDTH:
        raise UsageError(f"n must be an integer in [1, {MAX_WIDTH}], got {n!r}")
    if type(seed) is not int:
        raise UsageError(f"seed must be an integer, got {seed!r}")
    if not isinstance(data["params"], dict):
        raise UsageError("ensemble params must be a JSON object")
    if not isinstance(data["instances"], list):
        raise UsageError("ensemble instances must be a JSON list")
    instances = []
    seen_ids = set()
    for pos, raw in enumerate(data["instances"]):
        where = f"instances[{pos}]"
        if not isinstance(raw, dict) or "id" not in raw or "targets" not in raw:
            raise UsageError(f"{where}: needs 'id' and 'targets'")
        instance_id, targets = raw["id"], raw["targets"]
        if type(instance_id) is not int:
            raise UsageError(f"{where}: id must be an integer, got {instance_id!r}")
        if instance_id in seen_ids:
            raise UsageError(f"{where}: duplicate instance id {instance_id}")
        seen_ids.add(instance_id)
        if not isinstance(targets, list):
            raise UsageError(f"{where}: targets must be a JSON list")
        try:
            target = TargetSpace(n, tuple(sorted(targets)))
        except TypeError:  # sorted() met values of kinds that do not compare
            raise UsageError(f"{where}: targets must all be integers") from None
        except UsageError as exc:
            raise UsageError(f"{where}: {exc}") from None
        instances.append(Instance(id=instance_id, target=target, meta=raw.get("meta")))
    return Ensemble(
        family=family,
        n=n,
        seed=seed,
        params=dict(data["params"]),
        instances=tuple(instances),
    )


def save_ensemble(ensemble: Ensemble, path: str | Path) -> None:
    write_json(ensemble_to_dict(ensemble), path)


def load_ensemble(path: str | Path) -> Ensemble:
    return ensemble_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# structural summaries


def summary_to_dict(summary: StructuralSummary) -> dict:
    return {
        "n": summary.n,
        "count": summary.count,
        "mode": summary.mode,
        "e_tsize": summary.e_tsize,
        "var_tsize": summary.var_tsize,
        "e_profile": [float(v) for v in summary.e_profile],
        "e_pair": [[float(v) for v in row] for row in summary.e_pair],
    }


def _summary_array(value, name: str) -> np.ndarray:
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        raise UsageError(f"summary {name} is not a rectangular array") from None
    if array.dtype.kind not in "iuf" or _holds_bool(value):  # JSON true/false are not counts
        raise UsageError(f"summary {name} must hold numbers only")
    return array.astype(np.float64)


def _holds_bool(value) -> bool:
    """Whether a JSON value holds true or false at any depth of its lists."""
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def _summary_number(data: dict, key: str) -> float:
    value = data[key]
    try:  # bools are refused: JSON true/false are not sizes
        if type(value) in (int, float):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise UsageError(f"summary {key} must be a finite number, got {value!r}")


def summary_from_dict(data: dict) -> StructuralSummary:
    """The summary a JSON document holds; StructuralSummary checks its values."""
    if not isinstance(data, dict):
        raise UsageError("summary document must be a JSON object")
    missing = {"n", "count", "mode", "e_tsize", "var_tsize", "e_profile", "e_pair"} - set(data)
    if missing:
        raise UsageError(f"summary document lacks keys: {sorted(missing)}")
    n, count = data["n"], data["count"]
    if type(n) is not int:
        raise UsageError(f"summary n must be an integer in [1, {MAX_WIDTH}], got {n!r}")
    if type(count) is not int:
        raise UsageError(f"summary count must be a non-negative integer, got {count!r}")
    fields = {
        "e_tsize": _summary_number(data, "e_tsize"),
        "var_tsize": _summary_number(data, "var_tsize"),
        "e_profile": _summary_array(data["e_profile"], "e_profile"),
        "e_pair": _summary_array(data["e_pair"], "e_pair"),
    }
    try:
        return StructuralSummary(n=n, count=count, mode=str(data["mode"]), **fields)
    except UsageError as exc:
        raise UsageError(f"summary {exc}") from None


def save_summary(summary: StructuralSummary, path: str | Path) -> None:
    write_json(summary_to_dict(summary), path)


def load_summary(path: str | Path) -> StructuralSummary:
    return summary_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# grids, cross-sections, curves, reports


def grid_to_csv(grid: LandscapeGrid, path: str | Path) -> None:
    """One row per lattice point, row-major (beta outer, gamma inner).

    Each axis value is formatted once.  The gamma texts fix one template per
    beta row, and each row of cells is written by a single `%` call, so the
    text held at any time is one beta row.
    """
    lattice = grid.grid
    header = "beta,gamma,value" + (",stddev" if grid.stddev is not None else "")
    cells = [grid.values] if grid.stddev is None else [grid.values, grid.stddev]
    slots = ",%.17g" * len(cells) + "\n"
    pieces = [f",{gamma}{slots}" for gamma in _texts(lattice.gammas())]
    rows = zip(*(np.asarray(c, dtype=np.float64).reshape(lattice.beta_steps, -1) for c in cells))
    lines = (
        (beta + beta.join(pieces)) % tuple(np.stack(row, axis=-1).ravel().tolist())
        for beta, row in zip(_texts(lattice.betas()), rows)
    )
    _write_csv(path, header, lines)


def cross_section_to_csv(section: CrossSection, path: str | Path) -> None:
    columns = [section.betas, section.values, section.stddev, section.approx]
    _write_csv(path, "beta,value,stddev,approx", _rows([_texts(c) for c in columns]))


def curve_to_csv(betas, values, path: str | Path) -> None:
    """A fixed-gamma curve: one row per beta."""
    _write_csv(path, "beta,value", _rows([_texts(betas), _texts(values)]))


def report_to_csv(report: ComparisonReport, path: str | Path) -> None:
    """One row per instance per arm."""
    ids, arms, outcomes = [], [], []
    for rec in report.records:
        for arm, outcome in (("standard", rec.standard), ("noniterative", rec.noniterative)):
            ids.append(str(rec.id))
            arms.append(arm)
            outcomes.append(outcome)
    columns = [
        ids,
        arms,
        _texts([outcome.angles.beta for outcome in outcomes]),
        _texts([outcome.angles.gamma for outcome in outcomes]),
        _texts([outcome.success_prob for outcome in outcomes]),
        [str(outcome.shots_hit) for outcome in outcomes],
        [str(report.shots)] * len(outcomes),
    ]
    _write_csv(path, "id,arm,beta,gamma,success_prob,shots_hit,shots", _rows(columns))


def report_to_dict(report: ComparisonReport) -> dict:
    return {
        "family": report.family,
        "n": report.n,
        "shots": report.shots,
        "seed": report.seed,
        "shared_angles": {"beta": report.shared_angles.beta, "gamma": report.shared_angles.gamma},
        "shared_value": report.shared_value,
        "mean_standard": report.mean_standard,
        "std_standard": report.std_standard,
        "mean_noniterative": report.mean_noniterative,
        "std_noniterative": report.std_noniterative,
        "instances": len(report.records),
    }


def save_report(report: ComparisonReport, csv_path: str | Path, json_path: str | Path) -> None:
    report_to_csv(report, csv_path)
    write_json(report_to_dict(report), json_path)


def optresult_to_dict(result: OptResult) -> dict:
    return {
        "beta": result.angles.beta,
        "gamma": result.angles.gamma,
        "value": result.value,
        "evaluations": result.evaluations,
    }


def save_optresult(result: OptResult, path: str | Path) -> None:
    write_json(optresult_to_dict(result), path)
