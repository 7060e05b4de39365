"""On-disk formats: the choices CSV, posterior JSONL, and report files.

All writers are atomic (temp file in the target directory, then rename) and
byte-deterministic: UTF-8, LF line endings, '.' decimal separator, floats
rendered with repr (shortest round-trip form). Every CSV table goes through
one csv.writer, which quotes a field holding a comma, quote or newline. The
choices CSV schema is fixed: respondent_id, task_id, the A-side attribute
levels and price, the B-side equivalents, then chose_a as 0/1. The reader
codes each level name once, through the scheme, into the survey table's
level indices; the writer turns each index back into its name.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .config import from_dict, to_dict
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
POSTERIOR_VERSION = 1


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


@contextmanager
def _open_utf8(path: str | Path) -> Iterator[TextIO]:
    """`path` opened as UTF-8 text; a byte that does not decode is a DataError naming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            yield f
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from None


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
    with _open_utf8(path) as f:
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


def read_json_object(path: str | Path) -> dict:
    """A file's JSON object; unreadable JSON or another JSON type is a DataError."""
    try:
        with _open_utf8(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object")
    return data


def _read_fields(cls, path: str | Path, name: str, unwrap: bool = False):
    """The dataclass `cls` as the config walker reads it from the JSON
    object in `path`, or from that object's `name` member if `unwrap` and it
    has one; a bad field is a DataError naming the path and the field."""
    data = read_json_object(path)
    try:
        return from_dict(cls, data.get(name, data) if unwrap else data, name)
    except ConfigError as e:
        raise DataError(f"{path}: {e}") from None


def read_ground_truth_json(path: str | Path) -> GroundTruth:
    """Accepts either a provenance file or a bare ground-truth document."""
    return _read_fields(GroundTruth, path, "ground_truth", unwrap=True)


@dataclass(frozen=True)
class ColumnScaling:
    """The header's `standardization` block: `Standardization` without its columns."""

    mean: tuple[float, ...]
    scale: tuple[float, ...]


@dataclass(frozen=True, kw_only=True)
class PosteriorHeader:
    """The first line of a posterior file, as the config walker writes and
    reads it. As in the run config, the model's seed is the header's seed."""

    format: str = POSTERIOR_FORMAT
    version: int = POSTERIOR_VERSION
    columns: tuple[str, ...]
    price_column: str
    respondent_ids: tuple[int, ...]
    standardization: ColumnScaling
    config: ModelConfig
    seed: int
    param_layout: str = "mu, sigma, z (respondent-major)"

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", replace(self.config, seed=self.seed))
        if self.price_column not in self.columns:
            raise ContractError(f"price_column {self.price_column!r} is not one of the columns")
        if not set(self.columns) - {self.price_column}:
            raise ContractError(f"columns must hold a feature besides the price column {self.price_column!r}")
        if len(set(self.columns)) < len(self.columns):
            raise ContractError("columns must not repeat a name")
        if len(set(self.respondent_ids)) < len(self.respondent_ids):
            raise ContractError("respondent_ids must not repeat an id")


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
    flat_z = draws.z.reshape(n, -1)

    def write(f: TextIO) -> None:
        f.write(json.dumps(to_dict(header), separators=(",", ":")) + "\n")
        for i in range(n):
            params = np.concatenate([draws.mu[i], draws.sigma[i], flat_z[i]])
            line = {
                "chain": int(draws.chain_index[i]),
                "draw": i,
                "divergent": bool(draws.divergent[i]),
                "params": params.tolist(),
            }
            f.write(json.dumps(line, separators=(",", ":")) + "\n")

    _atomic_write(path, write)


def read_posterior_jsonl(path: str | Path) -> PosteriorDraws:
    """Read a posterior file; a bad header field, or a draw line out of its
    place or with a parameter that is not finite, is a DataError naming the
    path and the field or line. Draw line i holds "draw": i and "chain":
    i // config.draws_per_chain, and there are config.chains x
    config.draws_per_chain of them."""
    with _open_utf8(path) as f:
        header_line = f.readline()
        if not header_line:
            raise DataError(f"{path}: empty file")
        try:
            raw = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: bad header: {e}") from None
        if not isinstance(raw, dict):
            raise DataError(f"{path}: header is not a JSON object")
        if raw.get("format") != POSTERIOR_FORMAT or raw.get("version") != POSTERIOR_VERSION:
            raise DataError(f"{path}: not a {POSTERIOR_FORMAT} v{POSTERIOR_VERSION} file")
        try:
            header = from_dict(PosteriorHeader, raw, "posterior")
            scaling = header.standardization
            standardization = Standardization(header.columns, np.array(scaling.mean), np.array(scaling.scale))
        except (ConfigError, ContractError) as e:
            raise DataError(f"{path}: bad header: {e}") from None
        f_dim = len(header.columns)
        r_dim = len(header.respondent_ids)
        expected = f_dim * (2 + r_dim)
        per_chain = header.config.draws_per_chain
        n = header.config.chains * per_chain
        try:
            block = np.empty((n, expected))
        except (MemoryError, ValueError):
            raise DataError(f"{path}: the header's chains x draws_per_chain, {n}, is too many draws") from None
        divergent = []
        for line_no, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                params = np.asarray(obj["params"], dtype=float)
                chain, draw, div = obj["chain"], obj["draw"], obj["divergent"]
            except Exception as e:
                raise DataError(f"{path}: line {line_no}: {e}") from None
            i = len(divergent)
            if i == n:
                raise DataError(
                    f"{path}: line {line_no}: more draws than the header's chains x draws_per_chain, {n}"
                )
            for key, value, place in (("chain", chain, i // per_chain), ("draw", draw, i)):
                if type(value) is not int or value != place:
                    raise DataError(f"{path}: line {line_no}: {key} must be {place}, got {value!r}")
            if type(div) is not bool:
                raise DataError(f"{path}: line {line_no}: divergent must be true or false, got {div!r}")
            if params.shape != (expected,):
                raise DataError(
                    f"{path}: line {line_no}: {params.size} parameters, expected {expected}"
                )
            if not np.isfinite(params).all():
                raise DataError(f"{path}: line {line_no}: every parameter must be finite")
            block[i] = params
            divergent.append(div)
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
        standardization=standardization,
        chain_index=np.repeat(np.arange(header.config.chains), per_chain),
        divergent=np.array(divergent, dtype=bool),
        config=header.config,
        seed=header.seed,
    )


def write_diagnostics_json(path: str | Path, diag: Diagnostics) -> None:
    write_json(path, to_dict(diag))


def read_diagnostics_json(path: str | Path) -> Diagnostics:
    return _read_fields(Diagnostics, path, "diagnostics")


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
