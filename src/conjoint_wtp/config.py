"""Run configuration: a single JSON document driving every pipeline stage.

Each section of the document is a frozen dataclass, and one reader and one
writer serve them all, and every other JSON document built from
dataclasses. The writer, `to_dict`, is the only JSON encoder of the
library's dataclasses: it writes the run config (in `report.json`), the
ground truth and simulation settings in `provenance.json`, the sampler's
`diagnostics.json`, the posterior file's header, `recovery.json`, and the
report's `wtp`, `recovery`, `revenue` and `quality` sections. The reader
walks a dataclass's fields and type hints: each field is one JSON key of the
declared type, a field with a default may be left out (a partly given prior
takes the rest from the default prior), null leaves out an optional section,
and an unknown key is an error. In a list or object of floats, null stands
for a value that is not finite. Range checks live in each dataclass, so
every value is checked once, and every message names the field's dotted
path. One top-level seed feeds all stages; per-unit RNG substreams are
derived from it internally. Every JSON document the program reads, and
each line of the posterior file, is parsed by `parse_json_object`.
"""

from __future__ import annotations

import json
import math
import types
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, TextIO, Union, get_args, get_origin, get_type_hints

import numpy as np

from .domain import AttributeScheme, check_price_grid
from .errors import ConfigError, ConjointError, ContractError, DataError
from .infer.model import ModelConfig
from .revenue import BundleScenario, RevenueCurve
from .simulate import GroundTruth


# The most rows a simulated survey may have. The simulator draws each task
# in Python and the fit holds every row, so no survey it can fit comes near.
MAX_SURVEY_ROWS = 10_000_000


@dataclass(frozen=True)
class SimulationSettings:
    n_respondents: int
    tasks_per_respondent: int
    price_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_respondents < 1:
            raise ContractError(f"n_respondents must be >= 1, got {self.n_respondents}")
        if self.tasks_per_respondent < 1:
            raise ContractError(f"tasks_per_respondent must be >= 1, got {self.tasks_per_respondent}")
        if self.n_respondents * self.tasks_per_respondent > MAX_SURVEY_ROWS:
            raise ContractError(
                f"n_respondents x tasks_per_respondent must be at most {MAX_SURVEY_ROWS:,} "
                f"survey rows, got {self.n_respondents} x {self.tasks_per_respondent}"
            )
        check_price_grid(self.price_grid)


@dataclass(frozen=True)
class RunConfig:
    """The whole document. Its seed is also the model's seed, and the
    model's own check of it is the seed's one check. The truth and the
    scenario are checked against the scheme here, before any stage runs."""

    seed: int
    scheme: AttributeScheme
    model: ModelConfig = ModelConfig()
    output_dir: str | None = None
    ground_truth: GroundTruth | None = None
    simulation: SimulationSettings | None = None
    scenario: BundleScenario | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", replace(self.model, seed=self.seed))
        field, truth = "ground_truth", self.ground_truth
        try:
            columns = self.scheme.dummy_columns  # the truth gives a WTP for each, and for no other
            if truth is not None and set(truth.true_wtp) != set(columns):
                missing = [c for c in columns if c not in truth.true_wtp]
                unknown = [c for c in truth.true_wtp if c not in columns]
                raise ContractError(f"ground truth WTP columns: missing {missing}, unknown {unknown}")
            field = "scenario"
            if self.scenario is not None:
                self.scenario.offsets(self.scheme)
        except ConjointError as e:  # CodingError or ContractError
            raise ConfigError(f"config.{field}: {e}") from None


# Fields that are not JSON keys: the model's seed is the document's seed,
# and the revenue curve's per-draw arrays stay out of the report.
_NOT_KEYS = {(ModelConfig, "seed"), (RevenueCurve, "revenue"), (RevenueCurve, "purchase_prob")}
_SCALARS = {int: "an integer", float: "a number", str: "a string"}


def _keys(cls) -> list:
    return [f for f in fields(cls) if (cls, f.name) not in _NOT_KEYS]


def _is_optional(tp) -> bool:
    return get_origin(tp) in (Union, types.UnionType)


def from_dict(cls, data: Any, path: str, base=None):
    """Read the config dataclass `cls` from its JSON object at dotted `path`.

    A key left out takes the field's value in `base` if one is given, else
    the field's default; a field with neither is required.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be a JSON object")
    keys = _keys(cls)
    names = {f.name for f in keys}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"unknown key(s) in {path}: {', '.join(unknown)}")
    hints = get_type_hints(cls)
    values = {}
    for f in keys:
        tp, value = hints[f.name], data.get(f.name)
        default = f.default if base is None else getattr(base, f.name)
        if value is None and (f.name not in data or is_dataclass(tp) or _is_optional(tp)):
            if default is MISSING:
                raise ConfigError(f"missing required field {path}.{f.name}")
            continue
        values[f.name] = _value(tp, value, f"{path}.{f.name}", default)
    try:
        return cls(**values) if base is None else replace(base, **values)
    except ContractError as e:
        # a check whose message opens with a field's name is reported at that field's path
        sep = "." if str(e).split(" ", 1)[0] in names else ": "
        raise ConfigError(f"{path}{sep}{e}") from None


def _value(tp, value: Any, path: str, default=None):
    """One JSON value read as type `tp`; a section's `default` is the base
    that fills the keys it leaves out."""
    if _is_optional(tp):  # a null value never gets here
        (tp,) = [t for t in get_args(tp) if t is not type(None)]
    if is_dataclass(tp):
        return from_dict(tp, value, path, default if is_dataclass(default) else None)
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list")
        return tuple(_item(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is Mapping:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be a JSON object")
        return {k: _item(args[1], v, f"{path}.{k}") for k, v in value.items()}
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path} must be {_SCALARS[tp]}, got {value!r}")
    try:
        return float(value) if tp is float else value
    except OverflowError:  # an integer literal past the largest float
        raise ConfigError(f"{path} must be a number, got an integer too large for a float") from None


def _item(tp, value: Any, path: str):
    """One element of a list or object: null, which `to_dict` writes for a
    non-finite float, reads back as NaN where a float is expected."""
    return math.nan if value is None and tp is float else _value(tp, value, path)


def to_dict(obj):
    """A config dataclass as its JSON object: keys in field order, None
    fields left out, a tuple, list or ndarray as a list, a non-finite float
    as null. It walks the reader's keys, so what it writes reads back to an
    equal config."""
    if is_dataclass(obj):
        return {
            f.name: to_dict(value)
            for f in _keys(type(obj))
            if (value := getattr(obj, f.name)) is not None
        }
    if isinstance(obj, Mapping):
        return {k: to_dict(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [to_dict(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def parse_run_config(data: Any) -> RunConfig:
    return from_dict(RunConfig, data, "config")


@contextmanager
def open_utf8(path: str | Path, error: type[ConjointError] = DataError) -> Iterator[TextIO]:
    """`path` opened as UTF-8 text; a byte that does not decode is an `error` naming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            yield f
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text: {e}") from None


def parse_json_object(text: str, where: str | Path, error: type[ConjointError] = DataError) -> dict:
    """`text` as one JSON object. Text the parser refuses (a syntax fault, an
    integer literal past Python's digit limit, nesting past its depth), or a
    value that is not an object, is an `error` opening with `where`."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise error(f"{where}: not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise error(f"{where}: not a JSON object")
    return data


def read_json_object(path: str | Path, error: type[ConjointError] = DataError) -> dict:
    """The JSON object in the UTF-8 file at `path`."""
    with open_utf8(path, error) as f:
        return parse_json_object(f.read(), path, error)


def load_run_config(path: str | Path) -> RunConfig:
    return parse_run_config(read_json_object(path, ConfigError))
