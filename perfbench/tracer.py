"""Spans around calls into the program's public functions, for traced runs.

Usage:
    python3 perfbench/tracer.py SPANS_JSON cli ARGS...   # one CLI command
    python3 perfbench/tracer.py SPANS_JSON probe ARGS... # direct layer calls

`install()` wraps the public functions of each module in place (every
module attribute that is the original function is replaced, so the CLI's
own imported names are wrapped too). Each call records a span (name,
start, end, parent) in memory; the spans are written to SPANS_JSON when
the process ends. NUTS chains may run in a forked process pool: the
wrapped chain function counts gradient evaluations inside the worker and
returns them on the chain's statistics object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# (module, function) pairs that get a span; the span is named
# "<module without package prefix>.<function>" and its layer is the module.
TRACED = {
    "conjoint_wtp.cli": ["main"],
    "conjoint_wtp.simulate": ["sample_respondents", "generate_tasks", "simulate_choices"],
    "conjoint_wtp.dataio": [
        "write_choices_csv",
        "read_choices_csv",
        "write_posterior_jsonl",
        "read_posterior_jsonl",
        "write_diagnostics_json",
        "write_wtp_summary_csv",
        "write_wtp_draws_csv",
        "write_revenue_csv",
    ],
    "conjoint_wtp.infer.design": ["build_design"],
    "conjoint_wtp.infer.fit": ["sample"],
    "conjoint_wtp.infer.nuts": ["run_nuts"],
    "conjoint_wtp.infer.diagnostics": ["diagnose"],
    "conjoint_wtp.posterior": ["wtp_draws", "summarize_wtp", "recovery_report"],
    "conjoint_wtp.revenue": ["revenue_curve"],
}
POPULATION_PREFIXES = ("mu[", "sigma[")
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20
_ORIGINAL_RUN_CHAIN = []


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, annotate=None):
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                annotate(span, args, result)
            return result

        return traced

    def dump(self, path: str, **extra) -> None:
        data = {"pid": os.getpid(), "spans": self.spans, **extra}
        Path(path).write_text(json.dumps(data), encoding="utf-8")


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("conjoint_wtp") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * _PAGE_MB


def _with_peak_rss(fn):
    """Run fn and record how far resident memory rose above its start.

    A thread samples RSS every millisecond; if the process high-water mark
    rose during the call, that mark is the exact peak.
    """

    def measured(*args, **kwargs):
        start_rss = _rss_mb()
        max_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        peak = [start_rss]
        done = threading.Event()

        def sample():
            while not done.wait(0.001):
                peak[0] = max(peak[0], _rss_mb())

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            return fn(*args, **kwargs)
        finally:
            done.set()
            sampler.join()
            max_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if max_after > max_before:
                peak[0] = max(peak[0], max_after)
            measured.rise_mb = peak[0] - start_rss

    return measured


def counted_run_chain(args):
    """nuts._run_chain with gradient evaluations counted and timed.

    Runs wherever the chain runs (a pool worker or this process) and
    returns the counts on the chain's statistics object.
    """
    from conjoint_wtp.infer import nuts

    run_chain = _ORIGINAL_RUN_CHAIN[0] if _ORIGINAL_RUN_CHAIN else nuts._run_chain
    model = args[0]
    inner = model.log_posterior
    count = [0, 0.0]

    def log_posterior(theta):
        t = time.perf_counter()
        try:
            return inner(theta)
        finally:
            count[1] += time.perf_counter() - t
            count[0] += 1

    model.log_posterior = log_posterior
    start = time.perf_counter()
    try:
        out, stats = run_chain(args)
    finally:
        del model.log_posterior
    stats.trace = {
        "start": start,
        "end": time.perf_counter(),
        "pid": os.getpid(),
        "grad_evals": count[0],
        "log_posterior_s": count[1],
        "grad_evals_sampling": int(stats.n_leapfrog.sum()),
        "draws": int(stats.n_leapfrog.size),
    }
    return out, stats


def _annotate_run_nuts(span, args, result) -> None:
    span["chains"] = [s.trace for s in result.stats if hasattr(s, "trace")]


def _annotate_diagnose(span, args, result) -> None:
    ess = [
        v
        for k, v in result.effective_sample_size.items()
        if k.startswith(POPULATION_PREFIXES) and math.isfinite(v)
    ]
    span["mean_population_ess"] = sum(ess) / len(ess) if ess else 0.0


def _annotate_revenue(span, args, result) -> None:
    scenario = args[2]
    span["consumer_evals"] = result.revenue.shape[0] * scenario.market_size * len(scenario.price_grid)


def _annotate_write(measured):
    def annotate(span, args, result) -> None:
        span["rss_rise_mb"] = measured.rise_mb

    return annotate


def install() -> Tracer:
    import importlib

    tracer = Tracer()
    for module_name, names in TRACED.items():
        module = importlib.import_module(module_name)
        short = module_name.removeprefix("conjoint_wtp.")
        for name in names:
            original = getattr(module, name)
            annotate = None
            target = original
            if name == "run_nuts":
                annotate = _annotate_run_nuts
            elif name == "diagnose":
                annotate = _annotate_diagnose
            elif name == "revenue_curve":
                annotate = _annotate_revenue
            elif name == "write_posterior_jsonl":
                target = _with_peak_rss(original)
                annotate = _annotate_write(target)
            _replace_everywhere(original, tracer.wrap(f"{short}.{name}", target, annotate))

    from conjoint_wtp.infer import nuts

    _ORIGINAL_RUN_CHAIN.append(nuts._run_chain)
    nuts._run_chain = counted_run_chain
    return tracer


# ------------------------------------------------------------------ probes


def time_log_posterior(design, calls: int = 60, seed: int = 0) -> float:
    """Median milliseconds per log_posterior call on a design."""
    import numpy as np
    from conjoint_wtp.infer import HierarchicalLogitModel, ModelConfig

    model = HierarchicalLogitModel(design, ModelConfig())
    theta = 0.3 * model.initial_position(np.random.default_rng(seed))
    times = []
    for i in range(calls + 5):
        t = time.perf_counter()
        model.log_posterior(theta)
        if i >= 5:
            times.append(time.perf_counter() - t)
    times.sort()
    return 1000.0 * times[len(times) // 2]


def probe(args, work: Path) -> dict:
    """Direct calls into the layers a workload's commands do not reach.

    --simulate R T  runs the program's simulator at that size;
    --csv PATH      reads a choices CSV (else the simulated survey, written
                    and read back) and times log_posterior on its design;
    --fit           a one-chain 20 + 20 fit on that design;
    --posterior P   reads a posterior, then --wtp and --revenue CONFIG
                    summarize and price it.
    """
    from conjoint_wtp import dataio, posterior, revenue, simulate
    from conjoint_wtp.config import load_run_config
    from conjoint_wtp.infer import ModelConfig, build_design, sample
    from conjoint_wtp.presets import DEFAULT_PRICE_GRID, smartphone_scheme, smartphone_truth

    scheme = smartphone_scheme()
    out = {}
    csv_path = Path(args.csv) if args.csv else None
    if args.simulate:
        n, t = args.simulate
        people = simulate.sample_respondents(scheme, smartphone_truth(), n, args.seed)
        tasks = simulate.generate_tasks(scheme, n, t, DEFAULT_PRICE_GRID, args.seed)
        dataset = simulate.simulate_choices(scheme, people, tasks, args.seed)
        if csv_path is None:
            csv_path = work / "probe_choices.csv"
            dataio.write_choices_csv(csv_path, dataset)
    if csv_path is not None:
        design = build_design(dataio.read_choices_csv(csv_path, scheme))
        out["log_posterior_ms"] = time_log_posterior(design, seed=args.seed)
        if args.fit:
            sample(design, ModelConfig(chains=1, warmup_per_chain=20, draws_per_chain=20, seed=args.seed))
    if args.posterior:
        draws = dataio.read_posterior_jsonl(args.posterior)
        if args.wtp:
            for feature in draws.columns[:-1]:
                posterior.summarize_wtp(posterior.wtp_draws(draws, feature))
        if args.revenue:
            config = load_run_config(args.revenue)
            revenue.revenue_curve(draws, config.scheme, config.scenario, args.seed)
    return out


def main(argv: list[str]) -> int:
    spans_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = install()
    result: dict = {}
    try:
        if mode == "cli":
            from conjoint_wtp import cli

            return cli.main(rest)
        parser = argparse.ArgumentParser(prog="tracer.py probe")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--simulate", type=int, nargs=2)
        parser.add_argument("--csv")
        parser.add_argument("--fit", action="store_true")
        parser.add_argument("--posterior")
        parser.add_argument("--wtp", action="store_true")
        parser.add_argument("--revenue")
        result = probe(parser.parse_args(rest), Path(spans_path).parent)
        return 0
    finally:
        tracer.dump(spans_path, probe=result)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
