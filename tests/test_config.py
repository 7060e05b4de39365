"""The run-config boundary: every section is read and written the same way.

Each section refuses a missing required field, an unknown key, a value of
the wrong JSON type and an out-of-range value with a ConfigError whose
message names the section's dotted path; the CLI exits 2 with the same
message. A parsed config writes back in a fixed key order, and reading what
was written gives the same config.
"""

import copy
import json
import math
import re

import pytest

from conjoint_wtp import cli
from conjoint_wtp.config import load_run_config, parse_run_config, to_dict
from conjoint_wtp.errors import ConfigError
from conjoint_wtp.infer import NormalPrior
from tests.helpers import DEMO_CONFIG
from tests.test_cli import BASE_CONFIG

# The writer's key order, section by section (optional sections when present).
KEY_ORDER = {
    "": ["seed", "scheme", "model", "output_dir", "ground_truth", "simulation", "scenario"],
    "scheme": ["attributes", "price_attribute"],
    "scheme.attributes[]": ["name", "levels", "baseline"],
    "model": [
        "prior_mu_price",
        "prior_mu_feature",
        "prior_sigma_sd",
        "chains",
        "draws_per_chain",
        "warmup_per_chain",
        "target_accept",
        "max_treedepth",
    ],
    "model.prior_mu_price": ["mean", "sd"],
    "model.prior_mu_feature": ["mean", "sd"],
    "ground_truth": ["true_wtp", "wtp_sd", "price_coef_mean", "price_coef_sd"],
    "simulation": ["n_respondents", "tasks_per_respondent", "price_grid"],
    "scenario": ["baseline", "upgrades", "price_grid", "market_size"],
    "scenario.baseline": ["levels", "price"],
}


def write(config) -> dict:
    return to_dict(config)


def document():
    doc = copy.deepcopy(BASE_CONFIG)
    doc["model"].update(
        prior_mu_price={"mean": -1.0, "sd": 1.0},
        prior_mu_feature={"mean": 0.0, "sd": 2.0},
        prior_sigma_sd=1.0,
    )
    doc["output_dir"] = "runs/x"
    return doc


def section(doc, path: str):
    """The JSON object at a dotted path such as "scheme.attributes[1]"."""
    node = doc
    for part in filter(None, path.split(".")):
        name, _, index = part.partition("[")
        node = node[name]
        if index:
            node = node[int(index[:-1])]
    return node


def _subset(expected, actual) -> bool:
    """Every key and value of `expected` appears in `actual` (numbers by value)."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and _subset(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return isinstance(actual, list) and len(expected) == len(actual) and all(
            _subset(e, a) for e, a in zip(expected, actual)
        )
    return expected == actual


@pytest.mark.parametrize("source", ["shipped", "base"])
def test_config_round_trips_with_its_key_order(source):
    doc = json.loads(DEMO_CONFIG.read_text(encoding="utf-8")) if source == "shipped" else BASE_CONFIG
    written = write(parse_run_config(copy.deepcopy(doc)))
    assert _subset(doc, written)
    again = write(parse_run_config(json.loads(json.dumps(written))))
    assert json.dumps(again) == json.dumps(written)  # values and key order
    for path, order in KEY_ORDER.items():
        if path.endswith("[]"):
            for item in section(written, path[:-2]):
                assert list(item) == order
        elif path.split(".")[0] in written or not path:
            assert list(section(written, path)) == [k for k in order if k in section(written, path)]
    assert list(written["model"]) == KEY_ORDER["model"]  # every model field is written


# (section path, missing required key or None, (key, wrong JSON type),
#  (key, out-of-range value, the word the message names), ...)
SECTIONS = [
    ("", "scheme", ("seed", "7"), ("seed", -1, "seed")),
    ("scheme", "price_attribute", ("price_attribute", 5), ("attributes", "duplicate", "names")),
    ("scheme.attributes[1]", "baseline", ("name", 5), ("baseline", "Ultra", "baseline")),
    (
        "ground_truth", "price_coef_mean", ("price_coef_sd", "x"), ("price_coef_mean", 0.5, "price_coef_mean"),
        ("true_wtp", {**BASE_CONFIG["ground_truth"]["true_wtp"], "camera:Pro": math.inf}, "true_wtp"),
        ("price_coef_sd", math.inf, "price_coef_sd"),
        ("price_coef_mean", -1e-5, "price_coef_mean"),  # negative, but above PRICE_COEF_CEILING
    ),
    (
        "simulation", "price_grid", ("tasks_per_respondent", 2.5),
        ("n_respondents", 0, "n_respondents"), ("price_grid", [0.0, 899.0], "price_grid"),
        ("tasks_per_respondent", 10**6, "tasks_per_respondent"),  # 10**6 tasks x 25 respondents
    ),
    (
        "model", None, ("chains", "4"), ("chains", 0, "chains"), ("draws_per_chain", 3, "draws_per_chain"),
        ("target_accept", 10**400, "target_accept"),  # an integer past the largest float
    ),
    ("model.prior_mu_price", None, ("mean", "x"), ("sd", 0.0, "sd")),
    ("model.prior_mu_feature", None, ("sd", [1]), ("sd", -2.0, "sd")),
    (
        "scenario", "upgrades", ("market_size", 2.5),
        ("market_size", 0, "market_size"), ("price_grid", [799.0, math.inf], "price_grid"),
    ),
    ("scenario.baseline", "price", ("levels", ["Pro"]), ("price", -5.0, "price"), ("price", math.inf, "price")),
]


def _cases():
    for path, missing, (type_key, type_value), *ranges in SECTIONS:
        name = f"config.{path}" if path else "config"
        if missing is not None:
            yield pytest.param(path, "del", missing, None, name, missing, id=f"{name}-missing")
        yield pytest.param(path, "set", "typo_key", 1, name, "typo_key", id=f"{name}-unknown")
        yield pytest.param(path, "set", type_key, type_value, name, type_key, id=f"{name}-type")
        for i, (range_key, range_value, named) in enumerate(ranges):
            suffix = "range" if i == 0 else f"range-{range_key}"
            yield pytest.param(path, "set", range_key, range_value, name, named, id=f"{name}-{suffix}")


def _mutate(doc, path, action, key, value):
    target = section(doc, path)
    if action == "del":
        del target[key]
    elif value == "duplicate":
        target[key].append(copy.deepcopy(target[key][0]))
    else:
        target[key] = value
    return doc


@pytest.mark.parametrize("path, action, key, value, name, field", list(_cases()))
def test_bad_value_is_refused_naming_its_path(tmp_path, capsys, path, action, key, value, name, field):
    doc = _mutate(document(), path, action, key, value)
    with pytest.raises(ConfigError) as raised:
        parse_run_config(doc)
    message = str(raised.value)
    assert name in message and field in message, message
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_partial_prior_keeps_the_default_sd():
    doc = document()
    doc["model"]["prior_mu_price"] = {"mean": -2}
    doc["model"]["prior_mu_feature"] = {"sd": 3}
    model = parse_run_config(doc).model
    assert model.prior_mu_price == NormalPrior(-2.0, 1.0)
    assert model.prior_mu_feature == NormalPrior(0.0, 3.0)


def test_absent_model_fields_take_their_defaults():
    doc = document()
    doc["model"] = {}
    model = parse_run_config(doc).model
    assert (model.chains, model.draws_per_chain, model.warmup_per_chain) == (4, 2000, 1000)
    assert (model.target_accept, model.max_treedepth) == (0.8, 10)
    assert model.seed == doc["seed"]


@pytest.mark.parametrize(
    "path, key",
    [
        ("", "output_dir"),
        ("", "ground_truth"),
        ("", "simulation"),
        ("", "model"),
        ("", "scenario"),
        ("model", "prior_mu_price"),
    ],
)
def test_null_optional_section_means_absent(path, key):
    doc = document()
    section(doc, path)[key] = None
    expected = document()
    del section(expected, path)[key]
    assert parse_run_config(doc) == parse_run_config(expected)


@pytest.mark.parametrize(
    "path, key",
    [
        ("", "seed"),
        ("model", "chains"),
        ("simulation", "n_respondents"),
        ("scenario", "market_size"),
        ("ground_truth", "price_coef_mean"),
    ],
)
def test_bool_is_not_a_number(path, key):
    doc = document()
    section(doc, path)[key] = True
    with pytest.raises(ConfigError, match=key):
        parse_run_config(doc)


def test_null_scalar_is_a_type_error():
    doc = document()
    doc["model"]["chains"] = None
    with pytest.raises(ConfigError, match="config.model.chains"):
        parse_run_config(doc)


def test_document_that_is_not_json_names_the_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError, match="config.json"):
        load_run_config(path)


def test_listed_price_attribute_exits_2_naming_the_scheme(tmp_path, capsys):
    # the scheme names the price column only; survey prices come from
    # simulation.price_grid, so listed price levels would go unread
    doc = document()
    doc["scheme"]["attributes"].append(
        {"name": "price", "levels": ["799", "899", "999", "1099", "1199"], "baseline": "799"}
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config.scheme" in err and "price attribute 'price'" in err


@pytest.mark.parametrize(
    "path, key, value",
    [
        ("scheme.attributes[0]", "levels", ["128GB", 256]),
        ("scenario", "upgrades", {"camera": 1}),
        ("scenario.baseline", "levels", {"storage": "128GB", "camera": "Standard", "frame": 0}),
    ],
)
def test_level_that_is_not_a_string_is_refused(path, key, value):
    doc = document()
    section(doc, path)[key] = value
    with pytest.raises(ConfigError, match=re.escape(f"config.{path}.{key}")):
        parse_run_config(doc)
