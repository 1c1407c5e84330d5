"""On-disk formats: ensemble and summary JSON, grid and report CSV.

All floats in CSV are written with 17 significant digits, enough to
round-trip a double exactly; JSON uses Python's shortest-exact float
representation.  Writers emit keys in a fixed order so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MAX_WIDTH, Angles, AngleGrid, TargetSpace, UsageError
from .experiments import ComparisonReport, CrossSection
from .landscape import IMAG_RESIDUE_TOL, LandscapeGrid
from .optimize import OptConfig, OptResult
from .problems import FAMILIES, Ensemble, Instance
from .structure import StructuralSummary


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
        if not targets:
            raise UsageError(f"{where}: empty target list")
        for t in targets:
            if type(t) is not int or not 0 <= t < (1 << n):
                raise UsageError(f"{where}: state {t!r} does not fit {n} bits")
        if len(set(targets)) != len(targets):
            raise UsageError(f"{where}: duplicate target states")
        instances.append(
            Instance(
                id=instance_id,
                target=TargetSpace(n, tuple(sorted(targets))),
                meta=raw.get("meta"),
            )
        )
    return Ensemble(
        family=family,
        n=n,
        seed=seed,
        params=dict(data["params"]),
        instances=tuple(instances),
    )


def save_ensemble(ensemble: Ensemble, path: str | Path) -> None:
    Path(path).write_text(json.dumps(ensemble_to_dict(ensemble), indent=1) + "\n")


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


def _summary_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        raise UsageError(f"summary {name} is not a rectangular array") from None
    if array.dtype.kind not in "iuf":
        raise UsageError(f"summary {name} must hold numbers only")
    if array.shape != shape:
        raise UsageError("summary arrays do not match n")
    if not np.isfinite(array).all():
        raise UsageError(f"summary {name} must be finite")
    return array.astype(np.float64)


def summary_from_dict(data: dict) -> StructuralSummary:
    if not isinstance(data, dict):
        raise UsageError("summary document must be a JSON object")
    missing = {"n", "count", "mode", "e_tsize", "var_tsize", "e_profile", "e_pair"} - set(data)
    if missing:
        raise UsageError(f"summary document lacks keys: {sorted(missing)}")
    n, count = data["n"], data["count"]
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_WIDTH:
        raise UsageError(f"n must be an integer in [1, {MAX_WIDTH}], got {n!r}")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise UsageError(f"count must be a non-negative integer, got {count!r}")
    for key in ("e_tsize", "var_tsize"):
        value = data[key]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not number or not math.isfinite(value):
            raise UsageError(f"summary {key} must be a finite number, got {value!r}")
    profile = _summary_array(data["e_profile"], (n + 1,), "e_profile")
    pair = _summary_array(data["e_pair"], (n + 1, n + 1), "e_pair")
    if not np.allclose(pair, pair.T, rtol=IMAG_RESIDUE_TOL, atol=IMAG_RESIDUE_TOL):
        raise UsageError("summary e_pair must be symmetric")
    return StructuralSummary(
        n=n,
        count=count,
        e_tsize=float(data["e_tsize"]),
        var_tsize=float(data["var_tsize"]),
        e_profile=profile,
        e_pair=pair,
        mode=str(data["mode"]),
    )


def save_summary(summary: StructuralSummary, path: str | Path) -> None:
    Path(path).write_text(json.dumps(summary_to_dict(summary), indent=1) + "\n")


def load_summary(path: str | Path) -> StructuralSummary:
    return summary_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# grids, cross-sections, reports


def grid_to_csv(grid: LandscapeGrid, path: str | Path) -> None:
    """One row per lattice point, row-major (beta outer, gamma inner)."""
    header = "beta,gamma,value" + (",stddev" if grid.stddev is not None else "")
    lines = [header]
    i = 0
    for b in grid.grid.betas():
        for g in grid.grid.gammas():
            row = f"{_fmt(b)},{_fmt(g)},{_fmt(grid.values[i])}"
            if grid.stddev is not None:
                row += f",{_fmt(grid.stddev[i])}"
            lines.append(row)
            i += 1
    Path(path).write_text("\n".join(lines) + "\n")


def cross_section_to_csv(section: CrossSection, path: str | Path) -> None:
    lines = ["beta,value,stddev,approx"]
    for i, b in enumerate(section.betas):
        lines.append(
            f"{_fmt(b)},{_fmt(section.values[i])},"
            f"{_fmt(section.stddev[i])},{_fmt(section.approx[i])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def report_to_csv(report: ComparisonReport, path: str | Path) -> None:
    """One row per instance per arm."""
    lines = ["id,arm,beta,gamma,success_prob,shots_hit,shots"]
    for rec in report.records:
        for arm, outcome in (("standard", rec.standard), ("noniterative", rec.noniterative)):
            lines.append(
                f"{rec.id},{arm},{_fmt(outcome.angles.beta)},{_fmt(outcome.angles.gamma)},"
                f"{_fmt(outcome.success_prob)},{outcome.shots_hit},{report.shots}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


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
    Path(json_path).write_text(json.dumps(report_to_dict(report), indent=1) + "\n")


def optresult_to_dict(result: OptResult) -> dict:
    return {
        "beta": result.angles.beta,
        "gamma": result.angles.gamma,
        "value": result.value,
        "evaluations": result.evaluations,
    }


def save_optresult(result: OptResult, path: str | Path) -> None:
    Path(path).write_text(json.dumps(optresult_to_dict(result), indent=1) + "\n")


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """A reproducible description of one experiment run."""

    seed: int
    family: str
    n: int
    count: int
    params: dict
    grid: dict
    optimizer: dict
    out_dir: str

    _FIELDS = ("seed", "family", "n", "count", "params", "grid", "optimizer", "out_dir")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise UsageError("run config must be a JSON object")
        unknown = set(data) - set(cls._FIELDS)
        if unknown:
            raise UsageError(f"run config has unknown fields: {sorted(unknown)}")
        missing = set(cls._FIELDS) - set(data)
        if missing:
            raise UsageError(f"run config lacks fields: {sorted(missing)}")
        return cls(**{name: data[name] for name in cls._FIELDS})


def angle_grid_from_spec(spec: dict) -> AngleGrid:
    """Build an AngleGrid from the JSON shape used in run configs."""
    return AngleGrid(
        beta_min=float(spec["beta_min"]),
        beta_max=float(spec["beta_max"]),
        gamma_min=float(spec["gamma_min"]),
        gamma_max=float(spec["gamma_max"]),
        beta_steps=int(spec["beta_steps"]),
        gamma_steps=int(spec["gamma_steps"]),
    )


def opt_config_from_spec(spec: dict) -> OptConfig:
    allowed = {
        "coarse_beta",
        "coarse_gamma",
        "refine_starts",
        "value_tol",
        "x_tol",
        "max_evals",
    }
    unknown = set(spec) - allowed
    if unknown:
        raise UsageError(f"optimizer config has unknown fields: {sorted(unknown)}")
    return OptConfig(**spec)
