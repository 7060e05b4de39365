"""On-disk formats: the choices CSV, posterior JSONL, and report files.

All writers are atomic (temp file in the target directory, then rename) and
byte-deterministic: UTF-8, LF line endings, '.' decimal separator, floats
rendered with repr (shortest round-trip form), except each posterior draw's
z: its R x F values are the padded standard base64 of their little-endian
float64 bytes, so they are stored exactly and never pass through decimal
text. Every CSV table goes through
one csv.writer, which quotes a field holding a comma, quote or newline. The
choices CSV schema is fixed: respondent_id, task_id, the A-side attribute
levels and price, the B-side equivalents, then chose_a as 0/1. The reader
codes each level name once, through the scheme, into the survey table's
level indices; the writer turns each index back into its name.
"""

from __future__ import annotations

import base64
import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, TextIO

import numpy as np

from .config import from_dict, open_utf8, parse_json_object, read_json_object, to_dict
from .domain import AttributeScheme
from .errors import ConfigError, ContractError, DataError, RowError
from .infer.design import Standardization
from .infer.diagnostics import Diagnostics
from .infer.fit import PosteriorDraws
from .infer.model import ModelConfig, split_parameters
from .posterior import WtpDraws, WtpSummary
from .revenue import RevenueCurve
from .simulate import ChoiceDataset, GroundTruth

POSTERIOR_FORMAT = "conjoint-wtp-posterior"
POSTERIOR_VERSION = 2
PARAM_LAYOUT = "params: mu, sigma; z: base64 little-endian float64, respondent-major"


def _fmt(value: float) -> str:
    return repr(float(value))


def _atomic_write(path: str | Path, write: Callable[[TextIO], object]) -> None:
    """Call `write` on a temp file beside `path`, then rename it over `path`;
    if anything fails, the temp file goes and `path` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            write(f)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj) -> None:
    _atomic_write(path, lambda f: f.write(json.dumps(obj, indent=2) + "\n"))


def choices_header(scheme: AttributeScheme) -> list[str]:
    a, b = ([f"{side}_{attr.name}" for attr in scheme.attributes] + [f"{side}_price"] for side in "ab")
    return ["respondent_id", "task_id", *a, *b, "chose_a"]


def _write_csv(path: str | Path, header: list[str], rows: Iterable[list[str]]) -> None:
    """Stream the header and rows through one csv.writer (LF endings, minimal
    quoting) into an atomic write: a field holding a comma, quote or newline
    is quoted, so every row reads back with the header's column count."""

    def write(f: TextIO) -> None:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    _atomic_write(path, write)


def write_choices_csv(path: str | Path, dataset: ChoiceDataset) -> None:
    """Write the choices CSV: each level index back to its name, column by
    column. The table checked every row when it was built."""
    columns = [dataset.respondent_id.tolist(), dataset.task_id.tolist()]
    for side in (0, 1):
        for j, attr in enumerate(dataset.scheme.attributes):
            columns.append([attr.levels[k] for k in dataset.levels[:, side, j].tolist()])
        columns.append([_fmt(p) for p in dataset.prices[:, side].tolist()])
    columns.append(["1" if c else "0" for c in dataset.chose_a.tolist()])
    _write_csv(path, choices_header(dataset.scheme), zip(*columns))


def read_choices_csv(path: str | Path, scheme: AttributeScheme) -> ChoiceDataset:
    """Read and check a choices CSV; any bad row is a DataError naming the
    path and row. Level names are coded through the scheme as each row is
    read; the table checks the rest once every row is in."""
    expected = choices_header(scheme)
    names = [a.name for a in scheme.attributes]
    k = len(names)
    ids, levels, prices, chose_a = [], [], [], []
    with open_utf8(path) as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if header != expected:
            raise DataError(
                f"{path}: header mismatch, expected {','.join(expected)} got {','.join(header)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise DataError(f"{path}: row {line_no} has {len(row)} fields, expected {len(expected)}")
            try:
                ids.append((np.int64(int(row[0])), np.int64(int(row[1]))))  # too large an id fails here
                prices.append((float(row[2 + k]), float(row[3 + 2 * k])))
                if row[-1] not in ("0", "1"):
                    raise ValueError(f"chose_a must be 0 or 1, got {row[-1]!r}")
                levels.append([scheme.code_levels(dict(zip(names, row[s : s + k]))) for s in (2, 3 + k)])
            except Exception as e:
                raise DataError(f"{path}: row {line_no}: {e}") from None
            chose_a.append(row[-1] == "1")
    try:
        ids = np.array(ids, dtype=np.int64).reshape(-1, 2)
        levels = np.array(levels, dtype=np.intp).reshape(-1, 2, k)
        prices = np.array(prices).reshape(-1, 2)
        return ChoiceDataset(scheme, ids[:, 0], ids[:, 1], levels, prices, np.array(chose_a, dtype=bool))
    except RowError as e:
        raise DataError(f"{path}: row {e.row + 2}: {e.message}") from None
    except Exception as e:
        raise DataError(f"{path}: {e}") from None


def read_fields(cls, data, name: str, where: str | Path):
    """The dataclass `cls` as the config walker reads it from the parsed JSON value
    `data` at dotted path `name`; a bad field is a DataError opening with `where`."""
    try:
        return from_dict(cls, data, name)
    except ConfigError as e:
        raise DataError(f"{where}: {e}") from None


def read_ground_truth_json(path: str | Path) -> GroundTruth:
    """Accepts either a provenance file or a bare ground-truth document."""
    data = read_json_object(path)
    return read_fields(GroundTruth, data.get("ground_truth", data), "ground_truth", path)


@dataclass(frozen=True)
class ColumnScaling:
    """The header's `standardization` block: `Standardization` without its
    columns. Every scale divides a column, so each must be finite and > 0."""

    mean: tuple[float, ...]
    scale: tuple[float, ...]

    def __post_init__(self) -> None:
        bad = [s for s in self.scale if not 0.0 < s < math.inf]
        if bad:
            raise ContractError(f"scale entries must be finite and > 0, got {bad[0]}")


@dataclass(frozen=True, kw_only=True)
class PosteriorHeader:
    """A posterior file's first line, as the config walker writes and reads it.
    As in the run config, the model's seed is the header's; `price_column` names the last column."""

    format: str = POSTERIOR_FORMAT
    version: int = POSTERIOR_VERSION
    columns: tuple[str, ...]
    price_column: str
    respondent_ids: tuple[int, ...]
    standardization: ColumnScaling
    config: ModelConfig
    seed: int
    param_layout: str = PARAM_LAYOUT

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", replace(self.config, seed=self.seed))
        if self.param_layout != PARAM_LAYOUT:
            raise ContractError(f"param_layout must be {PARAM_LAYOUT!r}, got {self.param_layout!r}")
        if self.columns[-1:] != (self.price_column,):
            raise ContractError(f"price_column {self.price_column!r} is not the last column of {list(self.columns)}")
        if not set(self.columns) - {self.price_column}:
            raise ContractError(f"columns must hold a feature besides the price column {self.price_column!r}")
        if len(set(self.columns)) < len(self.columns):
            raise ContractError("columns must not repeat a name")
        if len(set(self.respondent_ids)) < len(self.respondent_ids):
            raise ContractError("respondent_ids must not repeat an id")
        if not len(self.standardization.mean) == len(self.standardization.scale) == len(self.columns):
            raise ContractError(f"standardization must hold one mean and one scale per column ({len(self.columns)})")


def write_posterior_jsonl(path: str | Path, draws: PosteriorDraws) -> None:
    std = draws.standardization
    header = PosteriorHeader(
        columns=draws.columns,
        price_column=draws.price_column,
        respondent_ids=draws.respondent_ids,
        standardization=ColumnScaling(tuple(std.mean.tolist()), tuple(std.scale.tolist())),
        config=draws.config,
        seed=draws.seed,
    )
    n = draws.n_draws
    params = np.concatenate([draws.mu, draws.sigma], axis=1)
    flat_z = draws.z.reshape(n, -1).astype("<f8", copy=False)

    def write(f: TextIO) -> None:
        f.write(json.dumps(to_dict(header), separators=(",", ":")) + "\n")
        for i in range(n):
            line = {
                "chain": int(draws.chain_index[i]),
                "draw": i,
                "divergent": bool(draws.divergent[i]),
                "params": params[i].tolist(),
                "z": base64.b64encode(flat_z[i].tobytes()).decode("ascii"),
            }
            f.write(json.dumps(line, separators=(",", ":")) + "\n")

    _atomic_write(path, write)


def read_posterior_jsonl(path: str | Path) -> PosteriorDraws:
    """Read a posterior file; a bad header field, or a draw line out of its
    place, of the wrong size or with a parameter that is not finite, is a
    DataError naming the path and the field or line. Draw line i is a JSON
    object holding "draw": i, "chain": i // config.draws_per_chain, `params`
    (mu, then sigma) and `z` (R x F base64 float64), and there are
    config.chains x config.draws_per_chain of them."""
    with open_utf8(path) as f:
        header_line = f.readline()
        if not header_line:
            raise DataError(f"{path}: empty file")
        raw = parse_json_object(header_line, f"{path}: bad header")
        if raw.get("format") != POSTERIOR_FORMAT or raw.get("version") != POSTERIOR_VERSION:
            raise DataError(f"{path}: not a {POSTERIOR_FORMAT} v{POSTERIOR_VERSION} file")
        header = read_fields(PosteriorHeader, raw, "posterior", f"{path}: bad header")
        scaling = header.standardization
        f_dim = len(header.columns)
        r_dim = len(header.respondent_ids)
        z_bytes = 8 * f_dim * r_dim
        per_chain = header.config.draws_per_chain
        n = header.config.chains * per_chain
        try:
            block = np.empty((n, f_dim * (2 + r_dim)))
        except (MemoryError, ValueError):
            raise DataError(f"{path}: the header's chains x draws_per_chain, {n}, is too many draws") from None
        divergent = []
        for line_no, line in enumerate(f, start=2):
            if not line.strip():
                continue
            where = f"{path}: line {line_no}"
            obj = parse_json_object(line, where)
            for key in ("chain", "draw", "divergent", "params", "z"):
                if key not in obj:
                    raise DataError(f"{where}: {key!r} is missing")
            i = len(divergent)
            if i == n:
                raise DataError(f"{where}: more draws than the header's chains x draws_per_chain, {n}")
            for key, place in (("chain", i // per_chain), ("draw", i)):
                if type(obj[key]) is not int or obj[key] != place:
                    raise DataError(f"{where}: {key} must be {place}, got {obj[key]!r}")
            if type(obj["divergent"]) is not bool:
                raise DataError(f"{where}: divergent must be true or false, got {obj['divergent']!r}")
            params = obj["params"]
            numbers = type(params) is list and all(type(v) in (int, float) for v in params)
            if not numbers or len(params) != 2 * f_dim:
                raise DataError(f"{where}: params must be a list of {2 * f_dim} numbers, mu then sigma")
            try:
                z = base64.b64decode(obj["z"], validate=True)
            except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
                raise DataError(f"{where}: z must be base64 text: {e}") from None
            if len(z) != z_bytes:
                raise DataError(f"{where}: z holds {len(z)} bytes, expected {r_dim} x {f_dim} float64, {z_bytes}")
            try:
                block[i, : 2 * f_dim] = params
            except OverflowError:  # an integer past the float64 range
                raise DataError(f"{where}: every parameter must be finite") from None
            block[i, 2 * f_dim :] = np.frombuffer(z, dtype="<f8")
            if not np.isfinite(block[i]).all():
                raise DataError(f"{where}: every parameter must be finite")
            divergent.append(obj["divergent"])
    if len(divergent) != n:
        raise DataError(f"{path}: {len(divergent)} draws, the header's chains x draws_per_chain is {n}")
    mu, sigma, z = split_parameters(block, f_dim, r_dim)
    return PosteriorDraws(
        columns=header.columns,
        price_column=header.price_column,
        respondent_ids=header.respondent_ids,
        mu=mu,
        sigma=sigma,
        z=z,
        standardization=Standardization(header.columns, np.array(scaling.mean), np.array(scaling.scale)),
        chain_index=np.repeat(np.arange(header.config.chains), per_chain),
        divergent=np.array(divergent, dtype=bool),
        config=header.config,
        seed=header.seed,
    )


def write_diagnostics_json(path: str | Path, diag: Diagnostics) -> None:
    write_json(path, to_dict(diag))


def read_diagnostics_json(path: str | Path) -> Diagnostics:
    return read_fields(Diagnostics, read_json_object(path), "diagnostics", path)


def write_wtp_summary_csv(
    path: str | Path, summaries: list[WtpSummary], truth: GroundTruth | None = None
) -> None:
    header = ["feature", "true_wtp", "mean", "hdi_low", "hdi_high", "hdi_mass", "flagged_count"]
    true_wtp = {} if truth is None else truth.true_wtp
    rows = (
        [s.feature, _fmt(true_wtp[s.feature]) if s.feature in true_wtp else ""]
        + [_fmt(v) for v in (s.mean, s.hdi_low, s.hdi_high, s.hdi_mass)]
        + [str(s.flagged_count)]
        for s in summaries
    )
    _write_csv(path, header, rows)


def write_wtp_draws_csv(path: str | Path, wtp_by_feature: list[WtpDraws]) -> None:
    stacked = np.column_stack([w.draws for w in wtp_by_feature])
    header = [w.feature for w in wtp_by_feature]
    _write_csv(path, header, ([_fmt(v) for v in row] for row in stacked))


def write_revenue_csv(path: str | Path, curve: RevenueCurve) -> None:
    rows = (
        [_fmt(price), _fmt(curve.mean_revenue[j]), _fmt(curve.hdi_low[j]), _fmt(curve.hdi_high[j])]
        for j, price in enumerate(curve.prices)
    )
    _write_csv(path, ["price", "mean_revenue", "hdi_low", "hdi_high"], rows)
