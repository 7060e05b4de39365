"""On-disk formats: the choices CSV, the posterior, and report files.

All writers are atomic (temp file in the target directory, then rename) and
byte-deterministic: UTF-8, LF line endings, '.' decimal separator, floats
rendered with repr (shortest round-trip form). The posterior is two files:
`posterior.jsonl`, a header line and one JSON line per draw with its mu and
sigma, and beside it `posterior.z.f8`, every draw's R x F z as raw
little-endian float64 that never passes through text; the header holds
the z file's sha256, so a z file from another write is refused. Every CSV
table goes through
one csv.writer, which quotes a field holding a comma, quote or newline. The
choices CSV schema is fixed: respondent_id, task_id, the A-side attribute
levels and price, the B-side equivalents, then chose_a as 0/1. The reader
codes each level name once, through the scheme, into the survey table's
level indices; the writer turns each index back into its name.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Callable, Iterable, TextIO

import numpy as np

from .config import from_dict, open_utf8, parse_json_object, read_json_object, to_dict
from .domain import AttributeScheme
from .errors import ConfigError, ContractError, DataError, RowError
from .infer.design import Standardization
from .infer.diagnostics import Diagnostics
from .infer.fit import PosteriorDraws
from .infer.model import ModelConfig
from .posterior import WtpDraws, WtpSummary
from .revenue import RevenueCurve
from .simulate import ChoiceDataset, GroundTruth

POSTERIOR_FORMAT = "conjoint-wtp-posterior"
POSTERIOR_VERSION = 3
PARAM_LAYOUT = "params: mu, sigma; z: .z.f8 file, little-endian float64, draw-major then respondent-major"


def _fmt(value: float) -> str:
    return repr(float(value))


def _atomic_write(path: str | Path, write: Callable[[IO], object], binary: bool = False) -> None:
    """Call `write` on a temp file beside `path` (UTF-8 text, or bytes if
    `binary`), then rename it over `path`; if anything fails, the temp file
    goes and `path` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with os.fdopen(fd, "wb" if binary else "w", **text) as f:
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
    As in the run config, the model's seed is the header's; `price_column` names
    the last column, and `z_sha256` is the hex sha256 of the z file's bytes."""

    format: str = POSTERIOR_FORMAT
    version: int = POSTERIOR_VERSION
    columns: tuple[str, ...]
    price_column: str
    respondent_ids: tuple[int, ...]
    standardization: ColumnScaling
    config: ModelConfig
    seed: int
    z_sha256: str
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


def z_path(path: str | Path) -> Path:
    """The z file of the posterior JSONL at `path`: `posterior.z.f8` beside `posterior.jsonl`."""
    return Path(path).with_suffix(".z.f8")


def write_posterior_jsonl(path: str | Path, draws: PosteriorDraws) -> None:
    """Write the z file, then the JSONL whose header holds its sha256: a
    crash between the two leaves the old JSONL beside a z file it refuses.
    The header is checked before either is written. z goes out a draw at a
    time, so a z that is a view of the sampler's draws is never copied whole."""
    std = draws.standardization
    header = PosteriorHeader(
        columns=draws.columns,
        price_column=draws.price_column,
        respondent_ids=draws.respondent_ids,
        standardization=ColumnScaling(tuple(std.mean.tolist()), tuple(std.scale.tolist())),
        config=draws.config,
        seed=draws.seed,
        z_sha256="",
    )
    sha256 = hashlib.sha256()

    def write_z(f: IO[bytes]) -> None:
        for z in draws.z:
            data = np.ascontiguousarray(z, dtype="<f8")
            sha256.update(data)
            f.write(data)

    _atomic_write(z_path(path), write_z, binary=True)
    header = replace(header, z_sha256=sha256.hexdigest())
    params = np.concatenate([draws.mu, draws.sigma], axis=1)

    def write(f: TextIO) -> None:
        f.write(json.dumps(to_dict(header), separators=(",", ":")) + "\n")
        for i in range(draws.n_draws):
            line = {
                "chain": int(draws.chain_index[i]),
                "draw": i,
                "divergent": bool(draws.divergent[i]),
                "params": params[i].tolist(),
            }
            f.write(json.dumps(line, separators=(",", ":")) + "\n")

    _atomic_write(path, write)


def _first_nonfinite(values: np.ndarray) -> int | None:
    """The index of the first draw (axis 0) of `values` holding a value that is not finite."""
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    return None if finite.all() else int(finite.argmin())


def read_posterior_jsonl(path: str | Path) -> PosteriorDraws:
    """Read a posterior file and its z file; a bad header field, a draw line
    out of its place or of the wrong size, a parameter that is not finite, or
    a z file of the wrong size, sha256 or with a value that is not finite, is
    a DataError naming the file and the field or line (a missing z file is an
    OSError). Draw line i is a JSON object holding "draw": i, "chain":
    i // config.draws_per_chain and `params` (mu, then sigma), and there are
    config.chains x config.draws_per_chain of them; the z file holds their z,
    R x F float64 each, and nothing else."""
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
        per_chain = header.config.draws_per_chain
        n = header.config.chains * per_chain
        try:
            params = np.empty((n, 2 * f_dim))
        except (MemoryError, ValueError):
            raise DataError(f"{path}: the header's chains x draws_per_chain, {n}, is too many draws") from None
        divergent, line_nos = [], []
        for line_no, line in enumerate(f, start=2):
            if not line.strip():
                continue
            where = f"{path}: line {line_no}"
            obj = parse_json_object(line, where)
            for key in ("chain", "draw", "divergent", "params"):
                if key not in obj:
                    raise DataError(f"{where}: {key!r} is missing")
            i = len(line_nos)
            if i == n:
                raise DataError(f"{where}: more draws than the header's chains x draws_per_chain, {n}")
            for key, place in (("chain", i // per_chain), ("draw", i)):
                if type(obj[key]) is not int or obj[key] != place:
                    raise DataError(f"{where}: {key} must be {place}, got {obj[key]!r}")
            if type(obj["divergent"]) is not bool:
                raise DataError(f"{where}: divergent must be true or false, got {obj['divergent']!r}")
            values = obj["params"]
            numbers = type(values) is list and all(type(v) in (int, float) for v in values)
            if not numbers or len(values) != 2 * f_dim:
                raise DataError(f"{where}: params must be a list of {2 * f_dim} numbers, mu then sigma")
            try:
                params[i] = values
            except OverflowError:  # an integer past the float64 range
                raise DataError(f"{where}: every parameter must be finite") from None
            divergent.append(obj["divergent"])
            line_nos.append(line_no)
    if len(line_nos) != n:
        raise DataError(f"{path}: {len(line_nos)} draws, the header's chains x draws_per_chain is {n}")
    bad = _first_nonfinite(params)
    if bad is not None:
        raise DataError(f"{path}: line {line_nos[bad]}: every parameter must be finite")
    z_file, z_bytes = z_path(path), 8 * n * r_dim * f_dim
    with open(z_file, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size != z_bytes:
            raise DataError(f"{z_file}: {size} bytes, expected {n} draws x {r_dim} x {f_dim} float64, {z_bytes}")
        z = np.fromfile(f, dtype="<f8", count=z_bytes // 8)
    if hashlib.sha256(z).hexdigest() != header.z_sha256:
        raise DataError(f"{z_file}: sha256 does not match the z_sha256 in {path}; the two are from different writes")
    z = z.reshape(n, r_dim, f_dim)
    bad = _first_nonfinite(z)
    if bad is not None:
        raise DataError(f"{z_file}: the z of the draw on line {line_nos[bad]} of {path} must be finite")
    return PosteriorDraws(
        columns=header.columns,
        price_column=header.price_column,
        respondent_ids=header.respondent_ids,
        mu=params[:, :f_dim],
        sigma=params[:, f_dim:],
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
