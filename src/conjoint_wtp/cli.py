"""Command-line pipeline driver.

Subcommands mirror the pipeline stages: simulate, fit, wtp, revenue, and
pipeline (all of them in order, with --from to resume mid-way). One table,
STAGES, names each stage, the function that runs it and the files it writes.
A file read back is checked by its reader in dataio; `_check_posterior_fit`
alone ties the run, report.json and diagnostics.json to the posterior's fit.
Exit codes: 0 success, 2 validation problem, 3 sampler failure, 4 sign-safety
failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .config import RunConfig, load_run_config, read_json_object, to_dict
from .dataio import (
    read_choices_csv,
    read_diagnostics_json,
    read_fields,
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
from .errors import ConfigError, ConjointError, DataError
from .infer import build_design, sample
from .infer.diagnostics import POPULATION_PREFIXES, Diagnostics
from .infer.model import ModelConfig, parameter_names
from .posterior import MIN_HDI_SAMPLES, recovery_report, summarize_wtp, wtp_draws
from .revenue import revenue_curve
from .simulate import generate_tasks, sample_respondents, simulate_choices


def _effective_config(args) -> RunConfig:
    """The config file with the command-line overrides applied; RunConfig
    passes the seed on to the model and checks it."""
    config = load_run_config(args.config)
    flags = {"chains": "chains", "draws": "draws_per_chain", "warmup": "warmup_per_chain"}
    given = {field: getattr(args, flag, None) for flag, field in flags.items()}
    model = dataclasses.replace(config.model, **{k: v for k, v in given.items() if v is not None})
    return dataclasses.replace(
        config,
        model=model,
        seed=config.seed if args.seed is None else args.seed,
        output_dir=args.out if args.out is not None else config.output_dir,
    )


class RunState:
    """What the stages of one command produce, plus where their inputs come from.

    An input that no stage of this command produced is read from disk:
    --data, else <out>/choices.csv; --posterior, else <out>/posterior.jsonl;
    --truth, else config.ground_truth. `wtp` takes no --config, so `config`
    is None there.
    """

    def __init__(self, args):
        self.args = args
        self.config = _effective_config(args) if "config" in vars(args) else None
        output_dir = args.out if self.config is None else self.config.output_dir
        if output_dir is None:
            raise ConfigError("no output directory: set config.output_dir or pass --out")
        self.out = Path(output_dir)  # every writer makes it when it first writes
        self.written: list[str] = []
        self.timings: dict[str, float] = {}  # seconds, by stage and by step within a stage
        self.dataset = self.draws = self.diagnostics = None
        self.summaries = self.recovery = self.curve = None

    def path(self, name: str) -> Path:
        """The path of an output file in --out, recorded as written by this command."""
        self.written.append(name)
        return self.out / name

    def _input(self, flag: str, default: str) -> Path:
        given = getattr(self.args, flag, None)
        return Path(given) if given else self.out / default

    def choices(self):
        if self.dataset is None:
            self.dataset = read_choices_csv(self._input("data", "choices.csv"), self.config.scheme)
        return self.dataset

    def posterior(self):
        if self.draws is None:
            path = self._input("posterior", "posterior.jsonl")
            self.draws = read_posterior_jsonl(path)
            _check_hdi_draws(self.draws.config, f"{path}: posterior.config")  # its readers take HDIs
        return self.draws

    def truth(self):
        if getattr(self.args, "truth", None):
            return read_ground_truth_json(self.args.truth)
        return None if self.config is None else self.config.ground_truth


def _stage_simulate(state: RunState) -> None:
    config = state.config
    if config.ground_truth is None:
        raise ConfigError("config.ground_truth is required to simulate")
    if config.simulation is None:
        raise ConfigError("config.simulation is required to simulate")
    sim = config.simulation
    respondents = sample_respondents(config.scheme, config.ground_truth, sim.n_respondents, config.seed)
    tasks = generate_tasks(
        config.scheme, sim.n_respondents, sim.tasks_per_respondent, sim.price_grid, config.seed
    )
    state.dataset = simulate_choices(config.scheme, respondents, tasks, config.seed)
    write_choices_csv(state.path("choices.csv"), state.dataset)
    provenance = {"seed": config.seed, "ground_truth": to_dict(config.ground_truth), **to_dict(sim)}
    write_json(state.path("provenance.json"), provenance)
    print(f"wrote {len(state.dataset)} choice records to {state.out / 'choices.csv'}")


def _stage_fit(state: RunState) -> None:
    design = build_design(state.choices())
    steps: dict[str, float] = {}
    draws, diagnostics = sample(design, state.config.model, steps)
    t0 = time.perf_counter()
    write_posterior_jsonl(state.path("posterior.jsonl"), draws)
    steps["posterior_write"] = time.perf_counter() - t0
    state.timings.update({f"fit.{step}": seconds for step, seconds in steps.items()})
    write_diagnostics_json(state.path("diagnostics.json"), diagnostics)
    state.draws, state.diagnostics = draws, diagnostics
    max_rhat = diagnostics.max_r_hat(POPULATION_PREFIXES)
    print(
        f"fit complete: {draws.n_draws} draws, {diagnostics.divergence_count} divergences, "
        f"max population r_hat {max_rhat:.4f}"
    )
    for warning in diagnostics.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _stage_wtp(state: RunState) -> None:
    draws = state.posterior()
    truth = state.truth()
    per_feature = [wtp_draws(draws, feature) for feature in draws.columns[:-1]]
    state.summaries = [summarize_wtp(w) for w in per_feature]
    # built before any file is written: a truth that names a feature the
    # posterior lacks must leave --out as it was
    if truth is not None:
        state.recovery = recovery_report(truth, state.summaries)
    write_wtp_summary_csv(state.path("wtp_summary.csv"), state.summaries, truth)
    write_wtp_draws_csv(state.path("wtp_draws.csv"), per_feature)
    if state.recovery is not None:
        write_json(state.path("recovery.json"), to_dict(state.recovery))
    else:  # an earlier run's report would sit beside summaries it does not describe
        (state.out / "recovery.json").unlink(missing_ok=True)
    for s in state.summaries:
        print(
            f"wtp[{s.feature}]: mean ${s.mean:.2f}, {s.hdi_mass:.0%} HDI "
            f"[${s.hdi_low:.2f}, ${s.hdi_high:.2f}]"
        )
    if state.recovery is not None:
        print(f"recovery: overall_pass={state.recovery.overall_pass}")


def _stage_revenue(state: RunState) -> None:
    draws = state.posterior()
    config = state.config
    if config.scenario is None:
        raise ConfigError("config.scenario is required for the revenue stage")
    scheme = config.scheme
    if draws.columns != scheme.feature_columns:  # equal columns end in the scheme's price
        raise ConfigError(
            "posterior feature columns do not match the configured scheme: "
            f"{draws.columns} vs {scheme.feature_columns}"
        )
    curve = revenue_curve(draws, scheme, config.scenario, config.seed)
    write_revenue_csv(state.path("revenue_curve.csv"), curve)
    state.curve = curve
    if len(curve.prices) == 1:
        print("warning: price grid has a single point; argmax is trivial", file=sys.stderr)
    print(
        f"revenue-maximizing price ${curve.argmax_price:.2f} "
        f"(argmax HDI [${curve.argmax_hdi[0]:.2f}, ${curve.argmax_hdi[1]:.2f}])"
    )


class Stage(NamedTuple):
    run: Callable[[RunState], None]
    files: tuple[str, ...]  # listed in report.json whenever they are in --out
    written_only: tuple[str, ...] = ()  # listed only when this command wrote them


# The pipeline, in order. The report's "files" keys are the file stems.
STAGES = {
    "simulate": Stage(_stage_simulate, ("choices.csv", "provenance.json")),
    "fit": Stage(_stage_fit, ("posterior.jsonl", "posterior.z.f8", "diagnostics.json")),
    "wtp": Stage(_stage_wtp, ("wtp_summary.csv", "wtp_draws.csv"), ("recovery.json",)),
    "revenue": Stage(_stage_revenue, (), ("revenue_curve.csv",)),
}
PIPELINE_STAGES = tuple(STAGES)


def cmd_stage(args) -> int:
    """Run one stage standalone; `revenue` also merges into its own run's
    report.json, which it reads and checks before the stage writes."""
    state = RunState(args)
    report_path = state.out / "report.json"
    merge = args.command == "revenue"
    report = read_json_object(report_path) if merge and report_path.exists() else {}
    if report.keys() & {"seed", "config"}:  # else standalone `revenue` alone wrote it
        _check_own_report(state, report, report_path)
    STAGES[args.command].run(state)
    if merge:
        report["revenue"] = to_dict(state.curve)
        write_json(report_path, report)
    return 0


def cmd_pipeline(args) -> int:
    state = RunState(args)
    config = state.config
    stages = PIPELINE_STAGES[PIPELINE_STAGES.index(args.from_stage) :]
    if "fit" in stages:  # else the wtp stage would refuse the fit
        _check_hdi_draws(config.model, "config.model")
    else:  # the fit's files are read and checked before any stage writes
        _check_posterior_fit(state, "this run's", config.seed, config.model)
        diagnostics_path = state.out / "diagnostics.json"
        if diagnostics_path.exists():
            state.diagnostics = read_diagnostics_json(diagnostics_path)
            _check_one_fit(state, diagnostics_path)
    stages_run = []
    for name in stages:
        if name == "revenue" and config.scenario is None:
            continue  # the config names no bundle to price
        t0 = time.perf_counter()
        STAGES[name].run(state)
        state.timings[name] = time.perf_counter() - t0
        stages_run.append(name)

    files = {}
    for stage in STAGES.values():
        for name in stage.files + tuple(n for n in stage.written_only if n in state.written):
            if (state.out / name).exists():
                files[Path(name).stem] = name
    report = {
        "seed": config.seed,
        "config": config,
        "stages_run": stages_run,
        "quality": _quality_section(state.diagnostics),
        "wtp": state.summaries or [],
        "recovery": state.recovery,
        "revenue": state.curve,
        "files": files,
        "timings": {k: round(v, 3) for k, v in state.timings.items()},
    }
    write_json(state.out / "report.json", to_dict(report))
    print(f"report written to {state.out / 'report.json'}")
    return 0


def _check_hdi_draws(model: ModelConfig, field: str) -> None:
    """The wtp and revenue stages take HDIs over all of a fit's draws; `field` names `model`."""
    n = model.chains * model.draws_per_chain
    if n < MIN_HDI_SAMPLES:
        raise ConfigError(f"{field}: chains x draws_per_chain is {n}, an HDI needs {MIN_HDI_SAMPLES}")


def _check_one_fit(state: RunState, diagnostics_path: Path) -> None:
    """A resumed pipeline's diagnostics.json must describe the fit of the posterior it reads."""
    draws, diagnostics = state.posterior(), state.diagnostics
    whose = f"{diagnostics_path} is from another fit: its"
    if list(diagnostics.r_hat) != parameter_names(draws.columns, draws.respondent_ids):
        posterior_path = state._input("posterior", "posterior.jsonl")
        raise DataError(f"{whose} r_hat names other parameters than the posterior's in {posterior_path}")
    _check_posterior_fit(state, whose, diagnostics.seed, diagnostics.config, "config")


def _check_own_report(state: RunState, report: dict, path: Path) -> None:
    """The report must be this run's: its seed and config (but for output_dir
    and model) equal this run's, and its seed and model the posterior's."""
    theirs = read_fields(RunConfig, report.get("config"), "config", path)
    config = state.config
    names = [f.name for f in dataclasses.fields(RunConfig) if f.name not in ("model", "output_dir")]
    for field, value, own in [
        ("seed", report.get("seed"), config.seed),
        *((f"config.{n}", getattr(theirs, n), getattr(config, n)) for n in names),
    ]:
        if value != own:
            raise DataError(f"{path} is from another run: its {field} is not this run's")
    _check_posterior_fit(state, f"{path} is from another run: its", theirs.seed, theirs.model)


def _check_posterior_fit(
    state: RunState, whose: str, seed: int, model: ModelConfig, model_field: str = "config.model"
) -> None:
    """The one check that ties an artifact to the posterior's fit: its `seed`
    and `model` config must be the header's. `whose` opens the message, and
    `model_field` names where the artifact keeps its model config."""
    draws, path = state.posterior(), state._input("posterior", "posterior.jsonl")
    for field, value, own in [("seed", seed, draws.seed), (model_field, model, draws.config)]:
        if value != own:
            raise DataError(f"{whose} {field} is not the posterior's in {path}")


def _quality_section(diagnostics: Diagnostics | None) -> dict | None:
    """Sampler health from this command's fit, or from the diagnostics.json a
    resumed pipeline read; `to_dict` of the report writes a NaN in it as null."""
    if diagnostics is None:
        return None
    return {
        "divergence_count": diagnostics.divergence_count,
        "divergence_rate": diagnostics.divergence_rate,
        "max_population_r_hat": diagnostics.max_r_hat(POPULATION_PREFIXES),
        "population_r_hat": {k: v for k, v in diagnostics.r_hat.items() if k.startswith(POPULATION_PREFIXES)},
        "mean_accept_prob": diagnostics.mean_accept_prob,
        "warnings": diagnostics.warnings,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjoint-wtp",
        description="Conjoint survey simulation, hierarchical Bayesian WTP estimation, "
        "and revenue-curve pricing simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the run-config JSON")
        p.add_argument("--out", help="output directory (overrides config output_dir)")
        p.add_argument("--seed", type=int, help="override the top-level seed")

    def add_model_overrides(p: argparse.ArgumentParser) -> None:
        p.add_argument("--chains", type=int, help="override model.chains")
        p.add_argument("--draws", type=int, help="override model.draws_per_chain")
        p.add_argument("--warmup", type=int, help="override model.warmup_per_chain")

    p = sub.add_parser("simulate", help="generate the synthetic choice survey")
    add_common(p)
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("fit", help="fit the hierarchical model to a choices CSV")
    add_common(p)
    add_model_overrides(p)
    p.add_argument("--data", help="choices CSV (default: <out>/choices.csv)")
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("wtp", help="summarize dollar WTP from a posterior file")
    p.add_argument("--posterior", help="posterior JSONL, its .z.f8 file beside it (default: <out>/posterior.jsonl)")
    p.add_argument("--truth", help="ground-truth or provenance JSON for a recovery report")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("revenue", help="simulate the revenue curve for the configured bundle")
    add_common(p)
    p.add_argument("--posterior", help="posterior JSONL, its .z.f8 file beside it (default: <out>/posterior.jsonl)")
    p.set_defaults(func=cmd_stage)

    p = sub.add_parser("pipeline", help="run simulate -> fit -> wtp -> revenue")
    add_common(p)
    add_model_overrides(p)
    p.add_argument(
        "--from",
        dest="from_stage",
        choices=PIPELINE_STAGES,
        default="simulate",
        help="resume from this stage, reading earlier artifacts from --out",
    )
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConjointError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 5


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
