"""File formats: bit-exact choices CSV, posterior JSONL round-trips, and
summary emissions."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from conjoint_wtp.config import to_dict
from conjoint_wtp.dataio import (
    _atomic_write,
    choices_header,
    read_choices_csv,
    read_diagnostics_json,
    read_ground_truth_json,
    read_posterior_jsonl,
    write_choices_csv,
    write_diagnostics_json,
    write_json,
    write_posterior_jsonl,
    write_revenue_csv,
    write_wtp_draws_csv,
    write_wtp_summary_csv,
)
from conjoint_wtp.errors import CodingError, DataError
from conjoint_wtp.infer import ModelConfig, build_design, sample
from conjoint_wtp.posterior import WtpDraws, WtpSummary
from conjoint_wtp.presets import smartphone_scheme, smartphone_truth
from conjoint_wtp.revenue import revenue_curve
from tests.helpers import (
    INF_BITS,
    NAN_BITS,
    demo_scenario,
    long_int_fault,
    profiles,
    survey,
    with_long_int,
    z_text,
    z_values,
    z_with_first_bits,
)


def test_header_is_bit_exact(scheme):
    assert choices_header(scheme) == [
        "respondent_id",
        "task_id",
        "a_storage",
        "a_camera",
        "a_frame",
        "a_price",
        "b_storage",
        "b_camera",
        "b_frame",
        "b_price",
        "chose_a",
    ]


def test_choices_roundtrip(tmp_path, scheme, small_dataset):
    path = tmp_path / "choices.csv"
    write_choices_csv(path, small_dataset)
    loaded = read_choices_csv(path, scheme)
    for name in ("respondent_id", "task_id", "levels", "prices", "chose_a"):
        assert np.array_equal(getattr(loaded, name), getattr(small_dataset, name))


def test_choices_file_shape(tmp_path, scheme, small_dataset):
    path = tmp_path / "choices.csv"
    write_choices_csv(path, small_dataset)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == ",".join(choices_header(scheme))
    assert len(lines) == len(small_dataset) + 1
    assert "\r" not in text
    first = lines[1].split(",")
    assert first[-1] in ("0", "1")
    float(first[5])  # a_price parses


def test_rewrite_is_byte_identical(tmp_path, scheme, small_dataset):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_choices_csv(a, small_dataset)
    write_choices_csv(b, small_dataset)
    assert a.read_bytes() == b.read_bytes()


def test_header_mismatch_is_a_data_error(tmp_path, scheme):
    path = tmp_path / "choices.csv"
    path.write_text("respondent,task\n0,0\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        read_choices_csv(path, scheme)


def test_bad_row_names_line_number(tmp_path, scheme, small_dataset):
    path = tmp_path / "choices.csv"
    write_choices_csv(path, small_dataset)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].replace("1", "x", 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 4"):
        read_choices_csv(path, scheme)


def test_unknown_level_names_path_row_and_level(tmp_path, scheme, small_dataset):
    path = tmp_path / "choices.csv"
    write_choices_csv(path, small_dataset)
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[5].split(",")
    fields[3] = "Ultra"  # a_camera
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_choices_csv(path, scheme)
    assert str(err.value) == f"{path}: row 6: unknown level 'Ultra' for attribute 'camera'"


def test_identical_profiles_name_the_file_row(tmp_path, scheme, small_dataset):
    # checked once the whole table is in, and still reported by file row
    path = tmp_path / "choices.csv"
    write_choices_csv(path, small_dataset)
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[7].split(",")
    fields[6:10] = fields[2:6]  # B copies A
    lines[7] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_choices_csv(path, scheme)
    assert str(err.value) == f"{path}: row 8: task {fields[1]} for respondent {fields[0]} has identical profiles"


def test_no_temp_files_left_behind(tmp_path, scheme, small_dataset):
    write_choices_csv(tmp_path / "choices.csv", small_dataset)
    assert [p.name for p in tmp_path.iterdir()] == ["choices.csv"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda levels: levels.pop("frame"), "profile is missing attribute 'frame'"),
        (lambda levels: levels.update(camera="Ultra"), "unknown level 'Ultra' for attribute 'camera'"),
    ],
    ids=["missing_attribute", "unknown_level"],
)
def test_unencodable_profile_is_refused_before_writing(tmp_path, scheme, small_dataset, edit, message):
    path = tmp_path / "choices.csv"
    write_choices_csv(path, small_dataset)
    before = path.read_bytes()
    # a profile is coded where it enters the table, so a bad one never
    # reaches the writer
    a, b = profiles(small_dataset, 0)
    levels = dict(b.levels)
    edit(levels)
    with pytest.raises(CodingError) as err:
        write_choices_csv(path, survey(scheme, [(0, 0, a.levels, a.price, levels, b.price)], [True]))
    assert str(err.value) == message
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["choices.csv"]


def test_failed_streamed_write_leaves_nothing(tmp_path):
    def write(f):
        f.write("first\n")
        raise RuntimeError("source failed mid-write")

    with pytest.raises(RuntimeError):
        _atomic_write(tmp_path / "out.txt", write)
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def tiny_fit(small_design_module):
    config = ModelConfig(chains=2, draws_per_chain=60, warmup_per_chain=80, seed=9)
    return sample(small_design_module, config)


@pytest.fixture(scope="module")
def tiny_draws(tiny_fit):
    return tiny_fit[0]


@pytest.fixture(scope="module")
def small_design_module():
    from conjoint_wtp.presets import DEFAULT_PRICE_GRID
    from conjoint_wtp.simulate import generate_tasks, sample_respondents, simulate_choices

    scheme = smartphone_scheme()
    truth = smartphone_truth()
    respondents = sample_respondents(scheme, truth, 15, seed=2)
    tasks = generate_tasks(scheme, 15, 8, DEFAULT_PRICE_GRID, seed=2)
    return build_design(simulate_choices(scheme, respondents, tasks, seed=2))


def test_posterior_jsonl_roundtrip(tmp_path, tiny_draws):
    path = tmp_path / "posterior.jsonl"
    write_posterior_jsonl(path, tiny_draws)
    loaded = read_posterior_jsonl(path)
    assert loaded.columns == tiny_draws.columns
    assert loaded.respondent_ids == tiny_draws.respondent_ids
    assert np.array_equal(loaded.mu, tiny_draws.mu)
    assert np.array_equal(loaded.sigma, tiny_draws.sigma)
    assert np.array_equal(loaded.z, tiny_draws.z)
    assert np.array_equal(loaded.chain_index, tiny_draws.chain_index)
    assert np.array_equal(loaded.divergent, tiny_draws.divergent)
    assert np.array_equal(loaded.standardization.scale, tiny_draws.standardization.scale)
    assert loaded.config == tiny_draws.config
    assert loaded.seed == tiny_draws.seed


def test_streamed_posterior_matches_joined_text(tmp_path, tiny_draws):
    # the writer streams line by line; the bytes must equal one joined write
    path = tmp_path / "posterior.jsonl"
    write_posterior_jsonl(path, tiny_draws)
    d = tiny_draws
    header = {
        "format": "conjoint-wtp-posterior",
        "version": 2,
        "columns": list(d.columns),
        "price_column": d.price_column,
        "respondent_ids": list(d.respondent_ids),
        "standardization": {
            "mean": d.standardization.mean.tolist(),
            "scale": d.standardization.scale.tolist(),
        },
        "config": to_dict(d.config),
        "seed": d.seed,
        "param_layout": "params: mu, sigma; z: base64 little-endian float64, respondent-major",
    }
    lines = [json.dumps(header, separators=(",", ":"))]
    for i in range(d.n_draws):
        row = {
            "chain": int(d.chain_index[i]),
            "draw": i,
            "divergent": bool(d.divergent[i]),
            "params": np.concatenate([d.mu[i], d.sigma[i]]).tolist(),
            "z": z_text(d.z[i].reshape(-1)),
        }
        lines.append(json.dumps(row, separators=(",", ":")))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_posterior_reads_as_plain_json(tmp_path, tiny_draws):
    # perfbench's fit_ragged check and other JSON tools read the file with
    # plain json: the header's scale and columns, and each line's params[:F] as mu
    d, f = tiny_draws, len(tiny_draws.columns)
    path = tmp_path / "posterior.jsonl"
    write_posterior_jsonl(path, d)
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh]
    assert header["standardization"]["scale"] == d.standardization.scale.tolist()
    assert (header["columns"], header["price_column"]) == (list(d.columns), d.price_column)
    assert len(rows) == d.n_draws
    params = np.array([row["params"] for row in rows])
    assert params[:, :f].tobytes() == d.mu.tobytes()
    assert params[:, f : 2 * f].tobytes() == d.sigma.tobytes()
    assert np.stack([z_values(row) for row in rows]).tobytes() == d.z.tobytes()


@pytest.mark.parametrize("ids", ["in-order", "sparse"])
def test_posterior_read_writes_back_the_same_bytes(tmp_path, tiny_draws, ids):
    # the header's key order and every draw line survive a read and a write
    draws = tiny_draws
    if ids == "sparse":  # as `fit --data` allows
        sparse = tuple(1000 + 3 * i for i in range(len(draws.respondent_ids)))
        draws = dataclasses.replace(draws, respondent_ids=sparse)
    path, again = tmp_path / "posterior.jsonl", tmp_path / "again.jsonl"
    write_posterior_jsonl(path, draws)
    write_posterior_jsonl(again, read_posterior_jsonl(path))
    assert again.read_bytes() == path.read_bytes()


def test_posterior_jsonl_rejects_foreign_files(tmp_path):
    path = tmp_path / "posterior.jsonl"
    path.write_text('{"format": "something-else", "version": 9}\n', encoding="utf-8")
    with pytest.raises(DataError):
        read_posterior_jsonl(path)


def test_posterior_jsonl_rejects_short_lines(tmp_path, tiny_draws):
    path = tmp_path / "posterior.jsonl"
    write_posterior_jsonl(path, tiny_draws)
    lines = path.read_text(encoding="utf-8").splitlines()
    bad = json.loads(lines[1])
    bad["params"] = bad["params"][:-1]
    lines[1] = json.dumps(bad, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        read_posterior_jsonl(path)


class Line(str):
    """A posterior line given as text, written as it is rather than as JSON."""


def _as_line(value) -> str:
    return (value if isinstance(value, Line) else json.dumps(value)) + "\n"


def _drop(field):
    def mutate(header):
        del header[field]
        return header

    return mutate


def _one_scale(header):
    header["standardization"]["scale"] = header["standardization"]["scale"][:1]
    return header


def _zero_scale(header):
    header["standardization"]["scale"][1] = 0
    return header


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_drop("columns"), r"bad header: missing required field posterior\.columns$"),
        (_drop("standardization"), r"bad header: missing required field posterior\.standardization$"),
        (_one_scale, r"bad header: posterior\.standardization must hold one mean and one scale per column \(5\)$"),
        (_zero_scale, r"bad header: posterior\.standardization\.scale entries must be finite and > 0, got 0\.0"),
        (
            lambda header: {**header, "price_column": "cost"},
            r"bad header: posterior\.price_column 'cost' is not the last column of \[",
        ),
        (lambda header: [header], "bad header: not a JSON object$"),
        (lambda header: Line("[" * 100_000), "bad header: not valid JSON: maximum recursion depth exceeded"),
        (
            lambda header: Line(with_long_int(header, "standardization", "scale", 0)),
            "bad header: " + long_int_fault(r"posterior\.standardization\.scale\[0\] must be a number"),
        ),
        (
            lambda header: {**header, "config": {**header["config"], "bogus": 1}},
            r"posterior\.jsonl: bad header: unknown key\(s\) in posterior\.config: bogus",
        ),
        (
            lambda header: {**header, "config": {**header["config"], "chains": "two"}},
            r"posterior\.jsonl: bad header: posterior\.config\.chains",
        ),
        # the draws are read into one block the header sizes: more than
        # memory can hold, or than an array can index, is refused up front
        (
            lambda header: {**header, "config": {**header["config"], "chains": 10**12}},
            r"posterior\.jsonl: the header's chains x draws_per_chain, 60000000000000, is too many draws$",
        ),
        (
            lambda header: {**header, "config": {**header["config"], "chains": 10**30}},
            r"posterior\.jsonl: the header's chains x draws_per_chain, 6\d{31}, is too many draws$",
        ),
        # a v1 file held z as decimals in params; there is no v1 reader
        (lambda header: {**header, "version": 1}, r"posterior\.jsonl: not a conjoint-wtp-posterior v2 file$"),
    ],
    ids=[
        "no-columns", "no-standardization", "short-scale", "zero-scale", "foreign-price-column",
        "not-an-object", "nested", "long-int", "unknown-config-key", "non-integer-chains", "chains-past-memory",
        "chains-past-indexing", "v1-file",
    ],
)
def test_posterior_header_problems_name_the_field(tmp_path, tiny_draws, mutate, message):
    path = tmp_path / "posterior.jsonl"
    write_posterior_jsonl(path, tiny_draws)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = _as_line(mutate(json.loads(lines[0])))
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(DataError, match=message):
        read_posterior_jsonl(path)


def test_posterior_line_without_chain_names_the_line(tmp_path, tiny_draws):
    path = tmp_path / "posterior.jsonl"
    write_posterior_jsonl(path, tiny_draws)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[1])
    del row["chain"]
    lines[1] = json.dumps(row) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(DataError, match="line 2: 'chain'"):
        read_posterior_jsonl(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: [1, 2], "not a JSON object$"),
        (lambda row: "x", "not a JSON object$"),
        (lambda row: 7, "not a JSON object$"),
        (lambda row: None, "not a JSON object$"),
        (lambda row: Line("[" * 100_000), "not valid JSON: maximum recursion depth exceeded"),
        (lambda row: Line(with_long_int(row, "draw")), long_int_fault("draw must be 0, got 9")),
        (lambda row: {k: v for k, v in row.items() if k != "z"}, "'z' is missing$"),
        (lambda row: {**row, "params": [str(v) for v in row["params"]]}, "params must be a list of 10 numbers"),
        (lambda row: {**row, "params": [10**400, *row["params"][1:]]}, "every parameter must be finite$"),
        (lambda row: {**row, "z": "!" + row["z"][1:]}, "z must be base64 text: "),
        (lambda row: {**row, "z": z_values(row).tolist()}, "z must be base64 text: "),
        (lambda row: {**row, "z": z_text(z_values(row)[:-1])}, r"z holds 592 bytes, expected 15 x 5 float64, 600$"),
        (lambda row: {**row, "z": z_text([*z_values(row), 0.0])}, r"z holds 608 bytes, expected 15 x 5 float64, 600$"),
        (lambda row: {**row, "z": z_with_first_bits(row, NAN_BITS)}, "every parameter must be finite$"),
        (lambda row: {**row, "z": z_with_first_bits(row, INF_BITS)}, "every parameter must be finite$"),
    ],
    ids=[
        "list", "string", "number", "null", "nested", "long-int", "no-z", "string-params", "integer-past-float64",
        "z-outside-base64", "z-list", "z-one-float-short", "z-one-float-long", "z-nan-bits", "z-inf-bits",
    ],
)
def test_posterior_draw_line_problems_name_the_line(tmp_path, tiny_draws, edit, message):
    path = tmp_path / "posterior.jsonl"
    write_posterior_jsonl(path, tiny_draws)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = _as_line(edit(json.loads(lines[1])))
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(DataError, match=rf"posterior\.jsonl: line 2: {message}"):
        read_posterior_jsonl(path)


def test_ground_truth_reader_rejects_bad_json(tmp_path):
    path = tmp_path / "truth.json"
    path.write_text('{"true_wtp": ', encoding="utf-8")
    with pytest.raises(DataError, match="truth.json"):
        read_ground_truth_json(path)


def test_ground_truth_reader_names_the_file_and_the_field_once(tmp_path, truth):
    path = tmp_path / "provenance.json"
    doc = {"seed": 7, "ground_truth": to_dict(truth)}
    doc["ground_truth"]["bogus"] = 1
    write_json(path, doc)
    with pytest.raises(DataError) as raised:
        read_ground_truth_json(path)
    assert str(raised.value) == f"{path}: unknown key(s) in ground_truth: bogus"


def test_diagnostics_round_trip_is_byte_identical(tmp_path, tiny_fit):
    # a NaN R-hat or acceptance is written as null and read back as NaN
    diag = tiny_fit[1]
    first = next(iter(diag.r_hat))
    diag = dataclasses.replace(
        diag,
        r_hat={**diag.r_hat, first: math.nan},
        mean_accept_prob=(math.nan, *diag.mean_accept_prob[1:]),
    )
    path, again = tmp_path / "diagnostics.json", tmp_path / "again.json"
    write_diagnostics_json(path, diag)
    loaded = read_diagnostics_json(path)
    write_diagnostics_json(again, loaded)
    assert again.read_bytes() == path.read_bytes()
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert list(raw) == [f.name for f in dataclasses.fields(diag)]
    assert raw["r_hat"][first] is None and raw["mean_accept_prob"][0] is None
    assert math.isnan(loaded.r_hat[first]) and math.isnan(loaded.mean_accept_prob[0])
    assert loaded.step_size == diag.step_size and loaded.warnings == diag.warnings


def test_diagnostics_per_chain_field_must_hold_config_chains_entries(tmp_path, tiny_fit):
    # four chains in the config, and every per-chain field but step_size holds four entries
    raw = to_dict(tiny_fit[1])
    raw["config"]["chains"] = 4
    for field in ("mean_accept_prob", "grad_evals_warmup", "grad_evals_sampling"):
        raw[field] = raw[field] * 2
    raw["step_size"] = raw["step_size"] + raw["step_size"][:1]
    path = tmp_path / "diagnostics.json"
    write_json(path, raw)
    with pytest.raises(DataError) as raised:
        read_diagnostics_json(path)
    assert str(raised.value) == f"{path}: diagnostics.step_size must hold config.chains = 4 entries, got 3"


def test_ground_truth_readers(tmp_path, truth):
    bare = tmp_path / "truth.json"
    write_json(
        bare,
        {
            "true_wtp": dict(truth.true_wtp),
            "wtp_sd": dict(truth.wtp_sd),
            "price_coef_mean": truth.price_coef_mean,
            "price_coef_sd": truth.price_coef_sd,
        },
    )
    assert read_ground_truth_json(bare).true_wtp == truth.true_wtp

    prov = tmp_path / "provenance.json"
    write_json(prov, {"seed": 7, "ground_truth": to_dict(truth), "n_respondents": 3})
    loaded = read_ground_truth_json(prov)
    assert loaded.price_coef_mean == truth.price_coef_mean


def test_wtp_summary_csv(tmp_path, truth):
    summaries = [
        WtpSummary(feature="camera:Pro", mean=199.0, hdi_low=191.0, hdi_high=207.0),
        WtpSummary(feature="frame:Titanium", mean=80.0, hdi_low=75.0, hdi_high=85.0),
    ]
    path = tmp_path / "wtp_summary.csv"
    write_wtp_summary_csv(path, summaries, truth)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "feature,true_wtp,mean,hdi_low,hdi_high,hdi_mass,flagged_count"
    assert lines[1].startswith("camera:Pro,200.0,199.0,191.0,207.0,0.95,")
    # without truth the column stays but empties
    write_wtp_summary_csv(path, summaries, None)
    assert path.read_text(encoding="utf-8").splitlines()[1].startswith("camera:Pro,,199.0,")


def test_wtp_draws_csv(tmp_path):
    rng = np.random.default_rng(0)
    per_feature = [
        WtpDraws(feature="camera:Pro", draws=rng.normal(200, 5, 50), flagged_count=0),
        WtpDraws(feature="frame:Titanium", draws=rng.normal(80, 3, 50), flagged_count=0),
    ]
    path = tmp_path / "wtp_draws.csv"
    write_wtp_draws_csv(path, per_feature)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "camera:Pro,frame:Titanium"
    assert len(lines) == 51
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == per_feature[0].draws[0]


def test_revenue_csv(tmp_path, tiny_draws):
    curve = revenue_curve(tiny_draws, smartphone_scheme(), demo_scenario(), seed=4)
    path = tmp_path / "revenue_curve.csv"
    write_revenue_csv(path, curve)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "price,mean_revenue,hdi_low,hdi_high"
    assert len(lines) == len(curve.prices) + 1
    price, mean, low, high = (float(v) for v in lines[1].split(","))
    assert price == curve.prices[0]
    assert low <= mean <= high or low <= high


def test_table_fields_with_commas_and_quotes_survive_a_csv_reader(tmp_path):
    features = ["frame:Ti, brushed", 'storage:1"TB']
    summaries = [WtpSummary(feature=f, mean=1.0, hdi_low=0.5, hdi_high=1.5) for f in features]
    path = tmp_path / "wtp_summary.csv"
    write_wtp_summary_csv(path, summaries)
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert [len(row) for row in rows] == [7, 7, 7]
    assert [row[0] for row in rows[1:]] == features

    per_feature = [WtpDraws(feature=f, draws=np.arange(3.0), flagged_count=0) for f in features]
    path = tmp_path / "wtp_draws.csv"
    write_wtp_draws_csv(path, per_feature)
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == features
    assert [len(row) for row in rows] == [2, 2, 2, 2]
