"""On-disk formats: the choices CSV, posterior JSONL, and report files.

All writers are atomic (temp file in the target directory, then rename) and
byte-deterministic: UTF-8, LF line endings, '.' decimal separator, floats
rendered with repr (shortest round-trip form). Every CSV table goes through
one csv.writer, which quotes a field holding a comma, quote or newline. The
choices CSV schema is fixed: respondent_id, task_id, the A-side attribute
levels and price, the B-side equivalents, then chose_a as 0/1.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import from_dict, to_dict
from .domain import AttributeScheme, ProductProfile, encode_profile
from .errors import ContractError, DataError
from .infer.design import Standardization
from .infer.diagnostics import Diagnostics
from .infer.fit import PosteriorDraws
from .infer.model import ModelConfig
from .posterior import WtpDraws, WtpSummary
from .revenue import RevenueCurve
from .simulate import ChoiceDataset, ChoiceRecord, ChoiceTask, GroundTruth

POSTERIOR_FORMAT = "conjoint-wtp-posterior"
POSTERIOR_VERSION = 1


def _fmt(value: float) -> str:
    return repr(float(value))


def _atomic_write(path: str | Path, chunks: Iterable[str]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(chunks)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    _atomic_write(path, (text,))


def atomic_write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line plus "\n", streamed, so the whole text is never held."""
    _atomic_write(path, (line + "\n" for line in lines))


def write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=False) + "\n")


def choices_header(scheme: AttributeScheme) -> list[str]:
    attrs = [a.name for a in scheme.attributes]
    return (
        ["respondent_id", "task_id"]
        + [f"a_{name}" for name in attrs]
        + ["a_price"]
        + [f"b_{name}" for name in attrs]
        + ["b_price", "chose_a"]
    )


def _write_csv(path: str | Path, header: list[str], rows: Iterable[list[str]]) -> None:
    """Stream the header and rows through one csv.writer (LF endings, minimal
    quoting) into an atomic write: a field holding a comma, quote or newline
    is quoted, so every row reads back with the header's column count."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")

    def chunks():
        for row in itertools.chain([header], rows):
            writer.writerow(row)
            yield buffer.getvalue()
            buffer.seek(0)
            buffer.truncate()

    _atomic_write(path, chunks())


def write_choices_csv(path: str | Path, dataset: ChoiceDataset) -> None:
    """Write the choices CSV; a profile the scheme cannot encode raises
    CodingError naming the attribute or level, and leaves `path` as it was."""
    scheme = dataset.scheme
    attrs = [a.name for a in scheme.attributes]

    def rows():
        for record in dataset.records:
            task = record.task
            row = [str(task.respondent_id), str(task.task_id)]
            for profile in (task.profile_a, task.profile_b):
                encode_profile(scheme, profile)
                row += [profile.levels[name] for name in attrs] + [_fmt(profile.price)]
            yield row + ["1" if record.chose_a else "0"]

    _write_csv(path, choices_header(scheme), rows())


def read_choices_csv(path: str | Path, scheme: AttributeScheme) -> ChoiceDataset:
    """Read and check a choices CSV; any bad row is a DataError naming the path and row."""
    expected = choices_header(scheme)
    attrs = [a.name for a in scheme.attributes]
    records: list[ChoiceRecord] = []
    with open(path, encoding="utf-8", newline="") as f:
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
                rid = int(row[0])
                tid = int(row[1])
                offset = 2
                a_levels = dict(zip(attrs, row[offset : offset + len(attrs)]))
                a_price = float(row[offset + len(attrs)])
                offset += len(attrs) + 1
                b_levels = dict(zip(attrs, row[offset : offset + len(attrs)]))
                b_price = float(row[offset + len(attrs)])
                chose_raw = row[-1]
                if chose_raw not in ("0", "1"):
                    raise ValueError(f"chose_a must be 0 or 1, got {chose_raw!r}")
                profile_a = ProductProfile(levels=a_levels, price=a_price)
                profile_b = ProductProfile(levels=b_levels, price=b_price)
                encode_profile(scheme, profile_a)
                encode_profile(scheme, profile_b)
                task = ChoiceTask(
                    respondent_id=rid, task_id=tid, profile_a=profile_a, profile_b=profile_b
                )
                records.append(ChoiceRecord(task=task, chose_a=chose_raw == "1"))
            except DataError:
                raise
            except Exception as e:
                raise DataError(f"{path}: row {line_no}: {e}") from None
    try:
        return ChoiceDataset(scheme=scheme, records=records)
    except Exception as e:
        raise DataError(f"{path}: {e}") from None


def write_provenance_json(
    path: str | Path,
    truth: GroundTruth,
    seed: int,
    n_respondents: int,
    tasks_per_respondent: int,
    price_grid: Iterable[float],
) -> None:
    write_json(
        path,
        {
            "seed": seed,
            "ground_truth": to_dict(truth),
            "n_respondents": n_respondents,
            "tasks_per_respondent": tasks_per_respondent,
            "price_grid": [float(p) for p in price_grid],
        },
    )


def read_json_object(path: str | Path) -> dict:
    """A file's JSON object; unreadable JSON or another JSON type is a DataError."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise DataError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object")
    return data


def read_ground_truth_json(path: str | Path) -> GroundTruth:
    """Accepts either a provenance file or a bare ground-truth document."""
    data = read_json_object(path)
    if "ground_truth" in data:
        data = data["ground_truth"]
    try:
        return from_dict(GroundTruth, data, str(path))
    except Exception as e:
        raise DataError(f"{path}: {e}") from None


def write_posterior_jsonl(path: str | Path, draws: PosteriorDraws) -> None:
    header = {
        "format": POSTERIOR_FORMAT,
        "version": POSTERIOR_VERSION,
        "columns": list(draws.columns),
        "price_column": draws.price_column,
        "respondent_ids": list(draws.respondent_ids),
        "standardization": {
            "mean": draws.standardization.mean.tolist(),
            "scale": draws.standardization.scale.tolist(),
        },
        "config": to_dict(draws.config),
        "seed": draws.seed,
        "param_layout": "mu, sigma, z (respondent-major)",
    }
    n = draws.n_draws
    flat_z = draws.z.reshape(n, -1)

    def lines():
        yield json.dumps(header, separators=(",", ":"))
        for i in range(n):
            params = np.concatenate([draws.mu[i], draws.sigma[i], flat_z[i]])
            yield json.dumps(
                {
                    "chain": int(draws.chain_index[i]),
                    "draw": i,
                    "divergent": bool(draws.divergent[i]),
                    "params": params.tolist(),
                },
                separators=(",", ":"),
            )

    atomic_write_lines(path, lines())


def read_posterior_jsonl(path: str | Path) -> PosteriorDraws:
    with open(path, encoding="utf-8") as f:
        header_line = f.readline()
        if not header_line:
            raise DataError(f"{path}: empty file")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: bad header: {e}") from None
        if not isinstance(header, dict):
            raise DataError(f"{path}: header is not a JSON object")
        if header.get("format") != POSTERIOR_FORMAT or header.get("version") != POSTERIOR_VERSION:
            raise DataError(f"{path}: not a {POSTERIOR_FORMAT} v{POSTERIOR_VERSION} file")
        try:
            columns = tuple(header["columns"])
            respondent_ids = tuple(int(r) for r in header["respondent_ids"])
            std = header["standardization"]
            standardization = Standardization(
                columns=columns,
                mean=np.asarray(std["mean"], dtype=float),
                scale=np.asarray(std["scale"], dtype=float),
            )
            price_column, seed = header["price_column"], int(header["seed"])
            if price_column not in columns:
                raise DataError(f"{path}: header price_column {price_column!r} is not one of the columns")
            config = from_dict(ModelConfig, header["config"], "posterior.config", ModelConfig(seed=seed))
        except KeyError as e:
            raise DataError(f"{path}: header has no field {e}") from None
        except (TypeError, ValueError, ContractError) as e:
            raise DataError(f"{path}: bad header: {e}") from None
        f_dim = len(columns)
        r_dim = len(respondent_ids)
        expected = f_dim * (2 + r_dim)
        mu_rows, sigma_rows, z_rows, chains, divergent = [], [], [], [], []
        for line_no, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                params = np.asarray(obj["params"], dtype=float)
                chains.append(int(obj["chain"]))
                divergent.append(bool(obj["divergent"]))
            except Exception as e:
                raise DataError(f"{path}: line {line_no}: {e}") from None
            if params.shape != (expected,):
                raise DataError(
                    f"{path}: line {line_no}: {params.size} parameters, expected {expected}"
                )
            mu_rows.append(params[:f_dim])
            sigma_rows.append(params[f_dim : 2 * f_dim])
            z_rows.append(params[2 * f_dim :])
    if not mu_rows:
        raise DataError(f"{path}: no draws")
    return PosteriorDraws(
        columns=columns,
        price_column=price_column,
        respondent_ids=respondent_ids,
        mu=np.vstack(mu_rows),
        sigma=np.vstack(sigma_rows),
        z=np.vstack(z_rows).reshape(len(mu_rows), r_dim, f_dim),
        standardization=standardization,
        chain_index=np.asarray(chains, dtype=int),
        divergent=np.asarray(divergent, dtype=bool),
        config=config,
        seed=seed,
    )


def diagnostics_to_dict(diag: Diagnostics) -> dict:
    return {
        "r_hat": {k: _json_float(v) for k, v in diag.r_hat.items()},
        "effective_sample_size": {
            k: _json_float(v) for k, v in diag.effective_sample_size.items()
        },
        "divergence_count": diag.divergence_count,
        "divergence_rate": diag.divergence_rate,
        "mean_accept_prob": [_json_float(v) for v in diag.mean_accept_prob],
        "warnings": list(diag.warnings),
    }


def _json_float(value: float):
    value = float(value)
    return value if np.isfinite(value) else None


def write_diagnostics_json(path: str | Path, diag: Diagnostics) -> None:
    write_json(path, diagnostics_to_dict(diag))


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
    if not wtp_by_feature:
        raise DataError("no WTP draws to write")
    n = {len(w.draws) for w in wtp_by_feature}
    if len(n) != 1:
        raise DataError("WTP draw vectors have mismatched lengths")
    stacked = np.column_stack([w.draws for w in wtp_by_feature])
    header = [w.feature for w in wtp_by_feature]
    _write_csv(path, header, ([_fmt(v) for v in row] for row in stacked))


def write_revenue_csv(path: str | Path, curve: RevenueCurve) -> None:
    rows = (
        [_fmt(price), _fmt(curve.mean[j]), _fmt(curve.hdi_low[j]), _fmt(curve.hdi_high[j])]
        for j, price in enumerate(curve.prices)
    )
    _write_csv(path, ["price", "mean_revenue", "hdi_low", "hdi_high"], rows)
