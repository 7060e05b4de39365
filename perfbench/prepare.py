"""Set-up for one benchmark run: writes a workload's inputs.

    python3 perfbench/prepare.py WORKLOAD SEED WORKDIR [--trace SPANS_JSON]

Runs in its own interpreter. Only reprice imports the program: it writes
its posterior through the program's own posterior writer.
"""

from __future__ import annotations

import sys
from pathlib import Path

import inputs

sys.path.insert(0, str(inputs.ROOT / "src"))


def prepare(workload: str, seed: int, work: Path) -> None:
    if workload == "demo_pipeline":
        inputs.write_json(work / "inputs" / "demo.json", inputs.demo_run_config())
    elif workload == "fit_ragged":
        config = inputs.load_demo_config()
        inputs.write_json(work / "inputs" / "ragged.json", inputs.ragged_run_config())
        rows = inputs.ragged_survey(inputs.RAGGED_SURVEY_SEED, config)
        inputs.write_csv(work / "inputs" / "ragged.csv", rows)
    elif workload == "reprice":
        write_reprice_inputs(seed, work / "inputs")
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def write_reprice_inputs(seed: int, dest: Path) -> None:
    import numpy as np
    from conjoint_wtp.dataio import write_posterior_jsonl
    from conjoint_wtp.infer import ModelConfig, PosteriorDraws, Standardization

    config = inputs.load_demo_config()
    for k, upgrades in enumerate(inputs.REPRICE_BUNDLES):
        inputs.write_json(dest / f"bundle{k}.json", inputs.reprice_run_config(seed, upgrades))
    d = inputs.reprice_draws(seed, config)
    columns = tuple(inputs.feature_columns(config))
    n = d.mu.shape[0]
    draws = PosteriorDraws(
        columns=columns,
        price_column=columns[-1],
        respondent_ids=tuple(range(inputs.REPRICE_RESPONDENTS)),
        mu=d.mu,
        sigma=d.sigma,
        z=d.z,
        standardization=Standardization(columns=columns, mean=np.zeros(len(columns)), scale=d.scale),
        chain_index=np.repeat(np.arange(inputs.REPRICE_CHAINS), inputs.REPRICE_DRAWS),
        divergent=np.zeros(n, dtype=bool),
        config=ModelConfig(
            chains=inputs.REPRICE_CHAINS, draws_per_chain=inputs.REPRICE_DRAWS, seed=seed
        ),
        seed=seed,
    )
    write_posterior_jsonl(dest / "posterior.jsonl", draws)


def main(argv: list[str]) -> int:
    workload, seed, work = argv[0], int(argv[1]), Path(argv[2])
    if len(argv) > 3 and argv[3] == "--trace":
        import tracer

        spans = tracer.install()
        try:
            prepare(workload, seed, work)
        finally:
            spans.dump(argv[4])
    else:
        prepare(workload, seed, work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
