"""On-disk formats: ensemble and summary JSON, grid and report CSV.

Every file the package writes goes through `_write`, which rewrites an
existing file in place and cuts it to its new length rather than truncating
it on open.  A run killed mid-write over a longer file leaves the new bytes
followed by the old file's tail, and that mix can read as a well-formed file
(a grid CSV of the same shape, or an ensemble of the same width): rerun the
command, or remove its outputs first, after an interrupted run.  Nothing is
fsynced.
All floats in CSV are written with 17 significant digits, enough to
round-trip a double exactly; JSON uses Python's shortest-exact float
representation.  Writers emit keys in a fixed order so identical inputs
produce byte-identical files.

`load_ensemble` reads a file in `save_ensemble`'s layout by a typed route:
every target list of the file is checked and parsed to int64 in a fixed
number of numpy calls (`_typed_document`), and only the rest goes through
json.loads.  Any other file, and one whose target lists are short or do
not strictly ascend as save_ensemble writes them, goes whole through
json.loads, which is also the oracle the typed route is tested against.
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat
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


_CELL_BLOCK = 2048  # floats per block of a grid CSV: O(block) memory, numpy's call cost spread
_EXPONENTS = range(-284, 2)  # the tables' decimal exponents: those of [1e-280, 10), and more


def _split(a):  # Dekker's split into halves of 26 bits: a = high + low
    high = 134217729.0 * a - (134217729.0 * a - a)
    return high, a - high


@functools.cache
def _format_tables():
    """By exponent e: 10^(16-e) as a split double and its rest, head bytes (by sign, by one
    digit or more) and exponent bytes.  Then the 4-digit groups, less trailing zeros or not."""
    tens = [(10 ** max(16 - e, 0), 10 ** max(e - 16, 0)) for e in _EXPONENTS]  # 10^(16-e) = n / d
    high = [n / d for n, d in tens]  # int / int is correctly rounded
    ratios = map(float.as_integer_ratio, high)
    rest = [(n * q - p * d) / (d * q) for (n, d), (p, q) in zip(tens, ratios)]
    heads = [sign + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "").rjust(5, "\0") + "\0"
             + ("\0" if one or -4 <= e < 0 else ".")  # d.ddd, d.ddde+XX: the point after the first
             for one in (False, True) for sign in "\0-" for e in _EXPONENTS]
    exps = [("\0" + ("" if -4 <= e else f"e{e:+03d}")).ljust(8, "\0") for e in _EXPONENTS]
    digits = np.frombuffer(b"".join(b"%04d" % g for g in range(10**4)), np.uint8).reshape(-1, 4)
    last = np.logical_or.accumulate(digits[:, ::-1] > 48, axis=1)[:, ::-1]  # to the last nonzero
    return ((*_split(np.array(high)), np.array(rest)),
            *(np.frombuffer("".join(words).encode(), np.uint64) for words in (heads, exps)),
            np.concatenate([digits, digits * last]).view(np.uint32).ravel())


def _format17g(x: np.ndarray) -> np.ndarray:
    """1-D float64 x as (len(x), 32) uint8: row i holds '%.17g' % x[i]'s bytes, zeros between.

    Where 1e-280 <= |x| < 10, y = |x| 10^(16-e), e = floor(log10 |x|),
    is a double-double with an error below 1e-14: where 1e16 <= y and y's nearest integer
    is below 1e17 and 1e-9 or more from a tie, it is the 17 digits (Grisu's idea:
    Loitsch, PLDI 2010).  Zero has digits 0; other rows are '%.17g' % x[i] itself.
    Bytes: 0 the sign, 1-5 the "0.000" below 1, 6 the first digit, 7 its point in
    d.ddd and d.ddde+XX, 8-24 the others less trailing zeros, 25-29 the exponent;
    31 stays zero.
    """
    powers, heads, exps, groups = _format_tables()
    a = np.abs(x)
    fast, zero = (a >= 1e-280) & (a < 10.0), a == 0.0
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    row = e - _EXPONENTS.start
    high, low, rest = (table[row] for table in powers)
    p = a * (high + low)
    a_high, a_low = _split(a)  # Dekker's exact two-product of a and high + low, then a * rest
    lo = (((a_high * high - p) + a_high * low + a_low * high) + a_low * low) + a * rest
    floor = np.floor(lo)
    base, lo = p.astype(np.int64) + floor.astype(np.int64), lo - floor  # floor(y), its fraction
    digits = base + (lo > 0.5)
    # 1e16 <= y < 1e17 (else log10 missed e by one) and no near tie
    fast = (fast & (base >= 10**16) & (digits < 10**17) & (np.abs(lo - 0.5) >= 1e-9)) | zero
    del a, p, lo, floor, base, high, low, rest, a_high, a_low
    (lead, upper), lower = np.divmod(digits * ~zero // 10**8, 10**8), digits * ~zero % 10**8
    cells = np.empty((len(x), 32), np.uint8)
    # a group followed by zero groups only drops its trailing zeros: the table's second half
    for col, half, bare in ((2, upper, lower == 0), (4, lower, True)):
        first, second = np.divmod(half, 10**4)
        cells.view(np.uint32)[:, col] = groups[first + 10**4 * (bare & (second == 0))]
        cells.view(np.uint32)[:, col + 1] = groups[second + 10**4 * bare]
    one = (upper | lower) == 0  # one digit, and no point
    head = row + len(_EXPONENTS) * (np.signbit(x) + 2 * one)
    cells.view(np.uint64)[:, 0] = heads[head] | (lead.astype(np.uint64) + 48) << 48
    cells.view(np.uint64)[:, 3] = exps[row]
    for i in np.flatnonzero(~fast):
        cells[i] = np.frombuffer((b"%.17g" % x[i]).ljust(32, b"\0"), np.uint8)
    return cells


def _write(path: str | Path, head: str, chunks=()) -> None:
    """Write head, then each chunk (str lines or bytes of lines), streamed: no whole text held.

    An existing file is rewritten in place, not truncated on open: O_TRUNC would
    drop every page of it for the kernel to allocate again.  A regular file is
    then cut where the descriptor stands, also when a chunk or a write raises;
    the cut never flushes, so a failed write cannot keep it from running, and
    what the buffer still holds lands after the cut when the file is closed.  A
    device such as /dev/null is written as it is.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as out:
            try:
                out.write(head.encode())
                for chunk in chunks:
                    out.write(chunk.encode() if isinstance(chunk, str) else chunk)
                out.flush()
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _rows(columns: list[list[str]]):
    """Line i joins the i-th text of each column."""
    return (",".join(row) + "\n" for row in zip(*columns))


def write_json(doc, path: str | Path) -> None:
    """`doc` as JSON indented by one space, with a final newline."""
    _write(path, json.dumps(doc, indent=1) + "\n")


def _read_text(path: str | Path) -> str:
    """The UTF-8 text at `path`; any file it cannot read is a UsageError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _read_json(path: str | Path, text: str | None = None):
    """The JSON document at `path` (of its text, if given); any it cannot decode is a UsageError."""
    if text is None:
        text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # deep nesting; an integer past the digit limit
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# ensembles
#
# JSON true/false load as bool, a subclass of int, so integer fields are
# checked with `type(value) is int` rather than isinstance.


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
        if instance_id < 0:  # compare's streams are keyed by id: see core.streams
            raise UsageError(f"{where}: id must be a non-negative integer, got {instance_id}")
        if instance_id in seen_ids:
            raise UsageError(f"{where}: duplicate instance id {instance_id}")
        seen_ids.add(instance_id)
        if not isinstance(targets, (list, np.ndarray)):  # an array: the typed reader's, ascending
            raise UsageError(f"{where}: targets must be a JSON list")
        try:
            target = TargetSpace(n, targets if isinstance(targets, np.ndarray) else sorted(targets))
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


def _nested(value, depth: int) -> str:
    """value as the indent=1 JSON encoder writes it `depth` levels into a document."""
    return json.dumps(value, indent=1).replace("\n", "\n" + " " * depth)


def _value(value) -> str:
    """An instance's id or meta as _nested writes it at depth 3; an int and None written directly."""
    if type(value) is int:
        return str(value)
    return "null" if value is None else _nested(value, 3)


_TARGET_BLOCK = 1 << 16  # targets per chunk of an ensemble file: O(block) Python ints and strs
_TARGETS_KEY = '\n   "targets": '  # then a target list, as indent=1 JSON writes it
_TARGETS_OPEN = _TARGETS_KEY + "[\n    "
_TARGETS_SEP = ",\n    "
_TARGETS_CLOSE = "\n   ]"


def save_ensemble(ensemble: Ensemble, path: str | Path) -> None:
    """The ensemble as indent=1 JSON, streamed one instance at a time.

    Keys family, n, seed, params, instances; an instance's are id, targets
    (ascending) and meta.  An int id is written as str() writes it, a None meta
    as null, and every other value but the targets goes through json.dumps;
    the targets are joined _TARGET_BLOCK at a time, so the bytes are those
    of json.dumps(document, indent=1) + "\n" without the document, or one
    instance's target text, held whole.
    """
    head = "".join(f' "{key}": {_nested(getattr(ensemble, key), 1)},\n'
                   for key in ("family", "n", "seed", "params"))

    def chunks():
        for i, inst in enumerate(ensemble.instances):
            yield ("," if i else "") + f'\n  {{\n   "id": {_value(inst.id)},' + _TARGETS_OPEN
            states = inst.target.states
            for start in range(0, len(states), _TARGET_BLOCK):
                text = _TARGETS_SEP.join(map(str, states[start : start + _TARGET_BLOCK].tolist()))
                yield (_TARGETS_SEP if start else "") + text
            yield _TARGETS_CLOSE + f',\n   "meta": {_value(inst.meta)}\n  }}'
        yield "\n ]\n}\n" if ensemble.instances else "]\n}\n"

    _write(path, "{\n" + head + ' "instances": [', chunks())


def load_ensemble(path: str | Path) -> Ensemble:
    """The ensemble at `path`: by the typed reader in save_ensemble's layout, else by json.loads.

    Both routes give the same ensemble, or refuse with the same message.
    """
    text = _read_text(path)
    data = _typed_document(text)
    return ensemble_from_dict(_read_json(path, text) if data is None else data)


_MAX_DIGITS = 10  # 2^32 - 1 has 10 digits: a state of n <= 32 bits never has more
# fewest characters of file per target list for the typed route: below it json.loads is as
# fast, as the typed route's fixed numpy calls (about 40 us a file) and its Python work per
# list (about 1.5 us) outweigh what it saves per target (about 0.1 us)
_TYPED_MIN_CHARS = 512


def _typed_document(text: str) -> dict | None:
    """The ensemble document of text with each instance's targets an ascending int64 array.

    None where text holds fewer than _TYPED_MIN_CHARS characters per target
    list, and unless text is in save_ensemble's layout: each target list
    opens with _TARGETS_OPEN, separates its tokens with _TARGETS_SEP and
    closes with _TARGETS_CLOSE.  Every block of tokens is checked at once in
    numpy: digits only, no leading zero, at most _MAX_DIGITS digits, one token more
    than separators; np.fromstring would accept all of "01", "+1", "1 ,2" and
    "1,2," and clamp an out-of-range token to 2^63 - 1.  Then one np.fromstring
    parses them all, np.split cuts them by each block's token count, and a list
    that does not strictly ascend is not in the layout.  The rest of text, each
    list replaced by NaN, goes to json.loads, so every other value keeps json's
    checks; a text holding "NaN" anywhere, or whose NaNs do not land as the
    instances' targets one for one, is not in the layout.  A None leaves the
    whole text to json.loads and ensemble_from_dict: every refusal keeps its message.
    """
    lists = text.count(_TARGETS_OPEN)
    if not lists or len(text) < lists * _TYPED_MIN_CHARS:
        return None
    blocks = []  # each target block's first and past-the-end offsets in text
    tokens = []  # each block's tokens: one more than its separators
    opener = text.find(_TARGETS_OPEN)
    while opener >= 0:
        start = opener + len(_TARGETS_OPEN)
        end = text.find("]", start) - len(_TARGETS_CLOSE) + 1  # a block holds no "]"
        if end < start or not text.startswith(_TARGETS_CLOSE, end):
            return None
        blocks.append((start, end))
        tokens.append(text.count(_TARGETS_SEP, start, end) + 1)
        opener = text.find(_TARGETS_OPEN, end)
    body = _TARGETS_SEP.join([text[start:end] for start, end in blocks])
    if not body.isascii():
        return None
    body = body.encode("ascii")  # every block's tokens, the blocks joined by a separator too
    raw = np.frombuffer(body, np.uint8)
    commas = np.flatnonzero(raw == ord(","))
    # each comma starts a separator and every other byte is a digit
    if (sum(tokens) - 1 != len(commas)
            or raw.size - np.count_nonzero(raw - ord("0") < 10) != len(commas) * len(_TARGETS_SEP)):
        return None
    starts = np.concatenate(([0], commas + len(_TARGETS_SEP)))  # each token's first byte
    lengths = np.append(commas, raw.size) - starts
    if (lengths.min() < 1 or lengths.max() > _MAX_DIGITS
            or np.count_nonzero((raw[starts] == ord("0")) & (lengths > 1))):
        return None
    del raw, commas, starts, lengths  # each as large as the targets: gone before the parse
    values = np.fromstring(body, dtype=np.int64, sep=",")
    del body
    cuts = np.cumsum(tokens[:-1], dtype=np.int64)  # where each block after the first starts
    rises = values[1:] > values[:-1]
    rises[cuts - 1] = True  # a block's first value is not compared with the last block's
    if not rises.all():  # json.loads and sorted() give the same ensemble, or the same refusal
        return None
    # each list, from its "[" to its "]", becomes NaN
    kept = [0]  # the first and past-the-end offsets of the text around the lists
    for start, end in blocks:
        kept += start - len(_TARGETS_OPEN) + len(_TARGETS_KEY), end + len(_TARGETS_CLOSE)
    skeleton = "NaN".join([text[at:stop] for at, stop in zip(kept[::2], [*kept[1::2], len(text)])])
    if skeleton.count("NaN") != len(blocks):
        return None
    try:
        data = json.loads(skeleton)
    except (ValueError, RecursionError):  # the text's own error, and its message, come from json
        return None
    instances = data.get("instances") if isinstance(data, dict) else None
    if not isinstance(instances, list) or len(instances) != len(blocks):
        return None
    for instance, targets in zip(instances, np.split(values, cuts)):
        marker = instance.get("targets") if isinstance(instance, dict) else None
        if not (isinstance(marker, float) and math.isnan(marker)):
            return None
        instance["targets"] = targets
    return data


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
    fields = {
        "e_tsize": _summary_number(data, "e_tsize"),
        "var_tsize": _summary_number(data, "var_tsize"),
        "e_profile": _summary_array(data["e_profile"], "e_profile"),
        "e_pair": _summary_array(data["e_pair"], "e_pair"),
    }
    try:
        return StructuralSummary(n=data["n"], count=data["count"], mode=data["mode"], **fields)
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

    Each axis value is formatted once.  The lines are laid out a tile at a
    time: as many whole beta rows as hold at most _CELL_BLOCK floats, or runs
    of one row where a row holds more.  A tile is one (rows, cells, bytes)
    matrix: each row's beta text broadcast along it, the gamma texts broadcast
    down the rows, then the cells as _format17g writes them; its zero bytes are
    dropped, so the text held at any time is one tile's.
    """
    lattice = grid.grid
    columns = [np.asarray(c, dtype=np.float64).reshape(lattice.beta_steps, -1)
               for c in (grid.values, grid.stddev) if c is not None]
    betas, gammas = (np.array([f"{t}," for t in _texts(axis)], "S")[:, None].view(np.uint8)
                     for axis in (lattice.betas(), lattice.gammas()))
    step = max(_CELL_BLOCK // len(columns), 1)
    rows, run = max(step // lattice.gamma_steps, 1), min(step, lattice.gamma_steps)
    axes = betas.shape[1] + gammas.shape[1]  # the bytes before a line's cells

    def tiles():
        for i in range(0, lattice.beta_steps, rows):
            for j in range(0, lattice.gamma_steps, run):
                floats = np.stack([c[i : i + rows, j : j + run] for c in columns], axis=-1)
                lines = floats.shape[:2]
                cells = _format17g(floats.ravel())
                cells[:, 31] = ord(",")  # the last byte of a cell, which its text leaves zero
                cells = cells.reshape(*lines, -1)
                cells[..., -1] = ord("\n")
                text = bytearray(math.prod(lines) * (axes + cells.shape[-1]))
                tile = np.frombuffer(text, np.uint8).reshape(*lines, -1)
                tile[..., : betas.shape[1]] = betas[i : i + rows, None]
                tile[..., betas.shape[1] : axes] = gammas[j : j + run]
                tile[..., axes:] = cells
                yield text.translate(None, b"\0")

    _write(path, "beta,gamma,value" + ",stddev" * (len(columns) - 1) + "\n", tiles())


def cross_section_to_csv(section: CrossSection, path: str | Path) -> None:
    columns = [section.betas, section.values, section.stddev, section.approx]
    _write(path, "beta,value,stddev,approx\n", _rows([_texts(c) for c in columns]))


def curve_to_csv(betas, values, path: str | Path) -> None:
    """A fixed-gamma curve: one row per beta."""
    _write(path, "beta,value\n", _rows([_texts(betas), _texts(values)]))


def report_to_csv(report: ComparisonReport, path: str | Path) -> None:
    """One row per instance per arm: an instance's standard row, then its non-iterative row."""
    count = len(report.ids)
    columns = [
        [str(i) for i in report.ids for _ in range(2)],
        ["standard", "noniterative"] * count,
        *(_texts(column.T.ravel()) for column in (report.betas, report.gammas, report.probs)),
        list(map(str, report.hits.T.ravel().tolist())),
        [str(report.shots)] * (2 * count),
    ]
    _write(path, "id,arm,beta,gamma,success_prob,shots_hit,shots\n", _rows(columns))


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
        "instances": len(report.ids),
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
