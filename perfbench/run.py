"""Layered benchmark of the qaoa-landscape command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense-u14 [--seed 0] [--seconds 20] [--trace 0]

Each workload runs fixed CLI commands through `qaoa_landscape.cli.main` in this
one process, with `--threads 1`, repeating them until `--seconds` is spent.
The outputs of the last repetition are then checked against the statevector
oracle, outside the timed region.  With `--trace 0` the run prints the
end-to-end metrics; with `--trace 1` it alternates plain and traced
repetitions (spans from `spans.py`) and prints the per-layer metrics.  The
last stdout line is one JSON object; a result file and a run manifest are
written to `perfbench/.run/<workload>-seed<seed>-trace<trace>/`.

Workloads (BENCHMARK.json records why the two gated ones were chosen):

    dense-u14    set-up: gen uniform n=14, 10 instances, |T|=4096
                 timed:  summarize; optimize --summary; landscape --ensemble
                         100x100 --gamma-c 1.2; analytic-uniform
                         exact_hypergeometric; landscape --summary 100x100
    sparse-qr20  set-up: gen qrfactor n=20, 10 instances
                 timed:  compare --shots 50
    sat-alpha12  set-up: none
                 timed:  sat-alpha n=12, alphas 2,4,6, 20 instances, 50 shots

sat-alpha12 is where the per-point optimiser dominates (about 80 % of its
traced time), but it is not listed in BENCHMARK.json.  It runs
interpreter-bound Python, and on a 2-vCPU shared machine its wall time
drifted by 13 to 20 % (quartile spread over ten seeds) with the host's load.
The gated workloads stayed under 8 %.  Run it by name to measure the
optimiser.

End-to-end metrics (trace 0):

    wall_s            median wall time of one repetition of the timed commands
    setup_s           median over fresh interpreters of `import qaoa_landscape.cli`
                      plus the set-up gen commands
    peak_rss_mb       peak resident memory of this process after the timed region
    f1_standard_gain  mean over instances of exact F1 of the per-instance arm
                      divided by the random-guess probability |T|/2^n
    f1_shared_gain    the same at the problem-global angles (the optimize
                      --summary angles on dense-u14)

F1 is divided by |T|/2^n per instance because the raw mean F1 of a random SAT
ensemble moves by about 10 % from seed to seed, while the gain over random
guessing moves by about 1 %.  dense-u14 has no per-instance arm among its
commands, so its f1_standard_gain comes from `optimize_instance` on each
instance, run after the timed region.  The raw means are printed too.

Per-layer metrics (trace 1) and the end-to-end metric each should move:

    <layer>.self_s, <layer>.calls          all layers; self times sum to trace.wall_s
    kernels.pairwise_s, _pairs, _bytes,    wall_s on dense-u14 (the |T|^2 profile
    structure.targets, structure.pairs       kernel); about 0 on sparse-qr20
    landscape.grid_s, grid_points          wall_s on dense-u14; 0 on the compare
                                             workloads
    landscape.point_s, point_evals,        wall_s on sat-alpha12 (per-point closed
    optimize.searches, objective_evals       form under Nelder-Mead); small on
                                             dense-u14; the f1 gains must not fall
    kernels.mixer_s, _updates, _bytes,     wall_s and peak_rss_mb on sparse-qr20
    landscape.statevectors,                  (sampling through the 2^20
    experiments.shots_s, experiments.shots   statevector); 0 on dense-u14
    problems.instances, accept_ratio       wall_s on sat-alpha12, setup_s elsewhere
    storage.read_s/_bytes, write_s/_bytes  wall_s on dense-u14 (50k CSV rows, a
                                             420 KB ensemble) and setup_s
    trace.overhead_s, trace.self_share,    numeric and tracing health
    checks.max_oracle_gap

Computed bytes come from array sizes (see spans.py), not from counters.  No
layer queues work at --threads 1, so there are no wait-time metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

# One process, one thread: BLAS threading is thread scaling, which this
# benchmark leaves out, and on a small shared machine it only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = Path(__file__).resolve().parent / ".run"

SETUP_REPEATS = 5
GRID = "100x100"
GRID_POINTS = 100 * 100
SAMPLE_POINTS = 16  # lattice points checked against the statevector oracle
ORACLE_TOL = 1e-9
FORM_TOL = 1e-12
SAT_N, SAT_ALPHAS, SAT_COUNT = 12, (2.0, 4.0, 6.0), 20
SHOTS = 50

# name: (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
    "f1_standard_gain": ("x", "higher", 0.05),
    "f1_shared_gain": ("x", "higher", 0.05),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Per-layer metric name: (unit, better)."""
    names = [f"{layer}.{what}" for layer in spans.LAYERS for what in ("self_s", "calls")]
    names += [*spans.COUNTERS, "problems.accept_ratio",
              "trace.wall_s", "trace.overhead_s", "trace.self_share", "checks.max_oracle_gap"]
    spec = {}
    for name in names:
        if name.endswith("_s"):
            spec[name] = ("s", "lower")
        elif name.endswith("_bytes"):
            spec[name] = ("B", "lower")
        elif name.endswith(("accept_ratio", "self_share")):
            spec[name] = ("ratio", "higher")
        elif name == "checks.max_oracle_gap":
            spec[name] = ("prob", "lower")
        else:
            spec[name] = ("count", "lower")
    return spec


# ---------------------------------------------------------------------------
# operations and checks


@dataclass
class Operations:
    """Counts CLI commands and output checks; a failure is either kind failing."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    max_oracle_gap: float = 0.0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def oracle(self, value: float, reference: float, what: str) -> None:
        gap = abs(value - reference)
        self.max_oracle_gap = max(self.max_oracle_gap, gap)
        self.expect(gap <= ORACLE_TOL, f"{what}: |{value!r} - {reference!r}| = {gap:g}")


def run_cli(cli, argv: list[str], ops: Operations) -> None:
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        code = None
    ops.expect(code == 0, f"qaoa-landscape {' '.join(argv)} returned {code}")


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_records(ops: Operations, spaces: dict, path: Path, shots: int, quality: dict) -> None:
    """Every compare record against the statevector oracle; collects F1 per arm."""
    from qaoa_landscape.landscape import f1_statevector

    rows = read_rows(path)
    ops.expect(len(rows) == 2 * len(spaces), f"{path.name}: {len(rows)} rows for {len(spaces)} instances")
    for row in rows:
        space = spaces[int(row["id"])]
        prob = float(row["success_prob"])
        ops.oracle(
            prob,
            f1_statevector(space, float(row["beta"]), float(row["gamma"])),
            f"{path.name} id {row['id']} {row['arm']} success_prob",
        )
        hit = int(row["shots_hit"])
        ops.expect(0 <= hit <= shots and int(row["shots"]) == shots,
                   f"{path.name} id {row['id']} {row['arm']}: shots_hit {hit} of {row['shots']}")
        arm = "standard" if row["arm"] == "standard" else "shared"
        quality.setdefault(arm, []).append((prob, len(space) / (1 << space.n)))


def quality_metrics(quality: dict) -> dict[str, float]:
    out = {}
    for arm in ("standard", "shared"):
        pairs = quality.get(arm, [])
        out[f"f1_{arm}_gain"] = float(np.mean([p / base for p, base in pairs])) if pairs else 0.0
        out[f"f1_{arm}_mean"] = float(np.mean([p for p, _ in pairs])) if pairs else 0.0
    return out


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (work dir, seed) -> list of argv
    timed: Callable  # (work dir, seed) -> list of argv
    check: Callable  # (ops, work dir, seed, with_quality) -> F1 per arm

    def checked(self, ops: Operations, work: Path, seed: int, with_quality: bool) -> dict:
        """Run the output checks; a check that crashes is one failed operation."""
        try:
            return self.check(ops, work, seed, with_quality)
        except Exception:
            traceback.print_exc()
            ops.expect(False, "an output check raised")
            return {}


def _dense_setup(w: Path, seed: int):
    return [["gen", "--family", "uniform", "--n", "14", "--count", "10", "--t-size", "4096",
             "--seed", str(seed), "--out", str(w / "u14.json")]]


def _dense_timed(w: Path, seed: int):
    return [
        ["summarize", "--ensemble", str(w / "u14.json"), "--out", str(w / "u14_summary.json")],
        ["optimize", "--summary", str(w / "u14_summary.json"), "--out", str(w / "u14_opt.json")],
        ["landscape", "--ensemble", str(w / "u14.json"), "--grid", GRID, "--gamma-c", "1.2",
         "--threads", "1", "--out-prefix", str(w / "u14")],
        ["analytic-uniform", "--n", "14", "--t-size", "4096", "--mode", "exact_hypergeometric",
         "--out", str(w / "analytic.json")],
        ["landscape", "--summary", str(w / "analytic.json"), "--grid", GRID,
         "--threads", "1", "--out-prefix", str(w / "analytic")],
    ]


def _dense_check(ops: Operations, w: Path, seed: int, with_quality: bool) -> dict:
    from qaoa_landscape import storage
    from qaoa_landscape.landscape import approx_expected_f1, f1_statevector
    from qaoa_landscape.optimize import optimize_instance

    spaces = [inst.target for inst in storage.load_ensemble(w / "u14.json").instances]
    mean = np.loadtxt(w / "u14_mean.csv", delimiter=",", skiprows=1, ndmin=2)
    error = np.loadtxt(w / "u14_error.csv", delimiter=",", skiprows=1, ndmin=2)[:, 2]
    bound = np.loadtxt(w / "u14_bound.csv", delimiter=",", skiprows=1, ndmin=2)[:, 2]
    approx = np.loadtxt(w / "analytic_approx.csv", delimiter=",", skiprows=1, ndmin=2)
    summary = storage.load_summary(w / "analytic.json")

    ops.expect(len(mean) == len(error) == len(bound) == len(approx) == GRID_POINTS,
               "dense grids do not have one row per lattice point")
    over = int(np.count_nonzero(error > bound + FORM_TOL))
    ops.expect(over == 0, f"u14 error exceeds its bound at {over} lattice points")
    picks = np.random.default_rng(seed).choice(min(len(mean), len(approx)), SAMPLE_POINTS, replace=False)
    for i in picks:
        beta, gamma = mean[i, 0], mean[i, 1]
        oracle = float(np.mean([f1_statevector(s, beta, gamma) for s in spaces]))
        ops.oracle(mean[i, 2], oracle, f"u14_mean.csv row {i}")
        beta, gamma = approx[i, 0], approx[i, 1]
        form = approx_expected_f1(summary, beta, gamma)
        ops.expect(abs(approx[i, 2] - form) <= FORM_TOL,
                   f"analytic_approx.csv row {i}: {approx[i, 2]!r} != {form!r}")

    quality = {}
    if with_quality:
        angles = json.loads((w / "u14_opt.json").read_text())
        for s in spaces:
            base = len(s) / (1 << s.n)
            quality.setdefault("shared", []).append(
                (f1_statevector(s, angles["beta"], angles["gamma"]), base))
            quality.setdefault("standard", []).append((optimize_instance(s).value, base))
    return quality


def _qr_setup(w: Path, seed: int):
    return [["gen", "--family", "qrfactor", "--n", "20", "--count", "10",
             "--seed", str(seed), "--out", str(w / "qr20.json")]]


def _qr_timed(w: Path, seed: int):
    return [["compare", "--ensemble", str(w / "qr20.json"), "--shots", str(SHOTS),
             "--seed", str(seed), "--threads", "1", "--out-prefix", str(w / "qr20_compare")]]


def _qr_check(ops: Operations, w: Path, seed: int, with_quality: bool) -> dict:
    from qaoa_landscape import storage

    ensemble = storage.load_ensemble(w / "qr20.json")
    spaces = {inst.id: inst.target for inst in ensemble.instances}
    quality = {}
    check_records(ops, spaces, w / "qr20_compare.csv", SHOTS, quality)
    return quality


def _sat_timed(w: Path, seed: int):
    return [["sat-alpha", "--n", str(SAT_N), "--alphas", ",".join(f"{a:g}" for a in SAT_ALPHAS),
             "--count", str(SAT_COUNT), "--shots", str(SHOTS), "--seed", str(seed),
             "--threads", "1", "--out-prefix", str(w / "sat")]]


def _sat_check(ops: Operations, w: Path, seed: int, with_quality: bool) -> dict:
    from qaoa_landscape.problems import build_ensemble

    quality = {}
    for alpha in SAT_ALPHAS:
        # the same ensemble the command generated for this density
        ensemble = build_ensemble("sat", SAT_N, SAT_COUNT, {"num_clauses": int(alpha * SAT_N)}, seed)
        spaces = {inst.id: inst.target for inst in ensemble.instances}
        check_records(ops, spaces, w / f"sat_a{alpha:g}.csv", SHOTS, quality)
    return quality


WORKLOADS = {
    "dense-u14": Workload(_dense_setup, _dense_timed, _dense_check),
    "sparse-qr20": Workload(_qr_setup, _qr_timed, _qr_check),
    "sat-alpha12": Workload(lambda w, seed: [], _sat_timed, _sat_check),
}


# ---------------------------------------------------------------------------
# measurement


SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
from qaoa_landscape import cli
imported = time.perf_counter()
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"import_s": imported - start, "gen_s": time.perf_counter() - imported, "codes": codes}))
"""


def measure_setup(commands: list[list[str]], ops: Operations) -> list[float]:
    """Set-up seconds in each of several fresh interpreters: import plus gen."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, json.dumps(commands)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        try:
            report = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            report = None
        ok = child.returncode == 0 and report is not None and not any(report["codes"])
        ops.expect(ok, f"set-up interpreter exited {child.returncode}: {child.stderr.strip()[-300:]}")
        if ok:
            samples.append(report["import_s"] + report["gen_s"])
    return samples


def run_commands(cli, commands: list[list[str]], ops: Operations, per_command: dict) -> float:
    start = time.perf_counter()
    for argv in commands:
        begin = time.perf_counter()
        run_cli(cli, argv, ops)
        per_command.setdefault(" ".join(argv[:2]), []).append(time.perf_counter() - begin)
    return time.perf_counter() - start


def repeat_for(seconds: float, once) -> list:
    """Call `once` until another call would overrun `seconds`; at least once."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        results.append(once())
        durations.append(time.perf_counter() - begin)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def untraced_run(cli, workload: Workload, work: Path, args, ops: Operations, detail: dict) -> dict:
    setup_cmds = workload.setup(work, args.seed)
    setup = measure_setup(setup_cmds, ops)
    timed = workload.timed(work, args.seed)
    per_command = {}
    walls = repeat_for(args.seconds, lambda: run_commands(cli, timed, ops, per_command))
    rss = peak_rss_mib()
    quality = quality_metrics(workload.checked(ops, work, args.seed, True))
    detail.update(
        wall_samples=walls,
        setup_samples=setup,
        per_command_median_s={k: statistics.median(v) for k, v in per_command.items()},
        f1_standard_mean=quality["f1_standard_mean"],
        f1_shared_mean=quality["f1_shared_mean"],
    )
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": rss,
        "f1_standard_gain": quality["f1_standard_gain"],
        "f1_shared_gain": quality["f1_shared_gain"],
    }


def traced_run(cli, workload: Workload, work: Path, args, ops: Operations, detail: dict) -> dict:
    setup_cmds = workload.setup(work, args.seed)
    timed = workload.timed(work, args.seed)
    run_commands(cli, setup_cmds, ops, {})  # inputs for the first plain repetition
    last_spans = []

    def pair() -> dict:
        nonlocal last_spans
        plain = run_commands(cli, timed, ops, {})
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_setup = run_commands(cli, setup_cmds, ops, {})
            traced_timed = run_commands(cli, timed, ops, {})
        finally:
            tracer.uninstall()
        last_spans = tracer.spans
        metrics = spans.layer_metrics(tracer.spans, traced_setup + traced_timed)
        metrics["trace.overhead_s"] = traced_timed - plain
        return metrics

    pairs = repeat_for(args.seconds, pair)
    spans.write_spans(last_spans, RUN_DIR / run_name(args) / "spans.csv")
    workload.checked(ops, work, args.seed, False)
    detail.update(traced_repetitions=len(pairs))
    metrics = {name: statistics.median(p[name] for p in pairs) for name in pairs[0]}
    metrics["checks.max_oracle_gap"] = ops.max_oracle_gap
    return metrics


# ---------------------------------------------------------------------------
# manifest and output


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version_of(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def manifest(args) -> dict:
    from qaoa_landscape import _kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version_of("scipy"),
        "kernels_backend": _kernels.BACKEND,
        "QAOA_LANDSCAPE_PUREPY": os.environ.get("QAOA_LANDSCAPE_PUREPY"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def run_name(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def describe(metrics: dict, units: dict, detail: dict, ops: Operations) -> list[str]:
    lines = [f"{name:28s} {value:.6g} {units[name]}" for name, value in metrics.items()]
    walls = detail.get("wall_samples")
    if walls:
        tail = spans.tail_percentile(walls)
        tail_text = (f"p{tail[0]:g} {tail[1]:.6g} s" if tail
                     else f"no percentile has {spans.TAIL_MIN_BEYOND} samples beyond it")
        lines.append(f"{'wall_s samples':28s} n={len(walls)}, median {statistics.median(walls):.6g} s, {tail_text}")
        for command, seconds in detail["per_command_median_s"].items():
            lines.append(f"{'  ' + command:28s} {seconds:.6g} s (median)")
        lines.append(f"{'f1_standard_mean':28s} {detail['f1_standard_mean']:.6g} prob")
        lines.append(f"{'f1_shared_mean':28s} {detail['f1_shared_mean']:.6g} prob")
    rate = len(ops.failures) / ops.attempted if ops.attempted else 1.0
    lines.append(f"{'error_rate':28s} {rate:.6g} ratio ({len(ops.failures)} of {ops.attempted} operations failed)")
    lines += [f"FAILED: {what}" for what in ops.failures]
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qaoa_landscape" / "cli.py").is_file():
        print(f"error: no qaoa_landscape sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from qaoa_landscape import cli

    out_dir = RUN_DIR / run_name(args)
    shutil.rmtree(out_dir, ignore_errors=True)
    work = out_dir / "work"
    work.mkdir(parents=True)

    workload = WORKLOADS[args.workload]
    ops = Operations()
    detail = {}
    if args.trace:
        metrics = traced_run(cli, workload, work, args, ops, detail)
        units = {name: unit for name, (unit, _) in per_layer_spec().items()}
    else:
        metrics = untraced_run(cli, workload, work, args, ops, detail)
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest(args), indent=1) + "\n")
    (out_dir / "result.json").write_text(
        json.dumps(result | {"detail": detail, "failures": ops.failures}, indent=1) + "\n")
    print("\n".join(describe({k: metrics[k] for k in units}, units, detail, ops)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
