"""conjoint-wtp benchmark: three workloads through the program's CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --repeat K

One run sets up its inputs (three times; setup_s is the median), then runs
whole rounds of the workload's commands, each a child process, until S
seconds of commands have run, and checks every round's outputs against the
oracles. With --trace 0 it prints the end-to-end metrics (medians over
rounds); with --trace 1 it runs set-up and one round through tracer.py and
prints the per-layer metrics. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. --repeat K runs K seeds
from N and prints each metric's median and quartiles instead.

Every child gets one BLAS/OpenMP thread and an explicit
CONJOINT_WTP_THREADS (2 on demo_pipeline, 1 elsewhere).
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
os.environ.update({v: "1" for v in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPS = 3
IMPORT_REPS = 3
MB = 2**20

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ess_per_s": "1/s",
    "output_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "simulate.s": "s",
    "dataio.choices_read_s": "s",
    "dataio.posterior_write_s": "s",
    "dataio.posterior_read_s": "s",
    "dataio.posterior_write_rss_mb": "MB",
    "design.build_s": "s",
    "model.log_posterior_ms": "ms",
    "nuts.grad_evals_warmup": "count",
    "nuts.grad_evals_sampling": "count",
    "nuts.leapfrog_per_draw": "count",
    "nuts.overhead_us_per_leapfrog": "us",
    "nuts.ess_per_kgrad": "ess/kgrad",
    "fit.sample_s": "s",
    "diagnostics.s": "s",
    "wtp.s": "s",
    "revenue.s": "s",
    "revenue.consumer_evals_per_s": "1/s",
    "trace.wall_s": "s",
}


def program_present() -> bool:
    return (SRC / "conjoint_wtp" / "cli.py").is_file() and (ROOT / "configs" / "smartphone.json").is_file()


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["CONJOINT_WTP_THREADS"] = str(threads)
    return env


def run_child(argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run one child to its exit: (wall seconds, exit code, peak RSS MB).

    The peak RSS comes from wait4, which covers the child and every
    descendant it waited for (the sampler's pool workers).
    """
    with open(log, "wb") as f:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=f, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024 / MB


def dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / MB


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }


def set_up(workload, trace: bool) -> list[float]:
    """Write the inputs SETUP_REPS times; return each wall time."""
    walls = []
    for rep in range(1 if trace else SETUP_REPS):
        argv = [sys.executable, str(HERE / "prepare.py"), workload.name, str(workload.seed), str(workload.work)]
        if trace:
            argv += ["--trace", str(workload.work / "spans_setup.json")]
        wall, code, _ = run_child(argv, child_env(workload.threads), workload.work / f"setup{rep}.log")
        if code != 0:
            raise RuntimeError(f"set-up failed with exit code {code}; see {workload.work}/setup{rep}.log")
        walls.append(wall)
    return walls


def run_round(workload, index: int, trace: bool) -> dict:
    """Run the workload's commands once; return timings and exit codes."""
    if workload.out.exists():
        shutil.rmtree(workload.out)
    env = child_env(workload.threads)
    walls, codes, rss = [], [], []
    start = time.perf_counter()
    for i, args in enumerate(workload.commands()):
        if trace:
            argv = [sys.executable, str(HERE / "tracer.py"), str(workload.work / f"spans_cmd{i}.json"), "cli"]
        else:
            argv = [sys.executable, "-m", "conjoint_wtp.cli"]
        wall, code, peak = run_child(argv + args, env, workload.work / f"round{index}_cmd{i}.log")
        walls.append(wall)
        codes.append(code)
        rss.append(peak)
        if code != 0:
            break
    return {"wall": time.perf_counter() - start, "walls": walls, "codes": codes, "rss": rss}


def end_to_end(workload, rnd: dict) -> dict:
    return {
        "wall_s": rnd["wall"],
        "peak_rss_mb": max(rnd["rss"]),
        "ess_per_s": workload.ess_per_s(rnd["walls"], rnd["wall"]),
        "output_mb": dir_mb(workload.out),
    }


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import conjoint_wtp.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(1), capture_output=True, text=True, check=True
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def per_layer(workload, rnd: dict) -> tuple[dict, dict]:
    """Per-layer metrics and self times from the traced round's span files."""
    probe_file = workload.work / "spans_probe.json"
    argv = [sys.executable, str(HERE / "tracer.py"), str(probe_file), "probe", "--seed", str(workload.seed)]
    _, code, _ = run_child(argv + workload.probe_args(), child_env(1), workload.work / "probe.log")
    if code != 0:
        raise RuntimeError(f"trace probe failed with exit code {code}; see {workload.work}/probe.log")
    files = sorted(workload.work.glob("spans_*.json"))
    docs = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    probe_doc = next(d for d in docs if d.get("probe"))
    spans = [s for d in docs if d is not probe_doc for s in d["spans"]]
    reached = {s["name"] for s in spans}
    # The probe stands in only for layers the set-up and commands never call.
    spans += [s for s in probe_doc["spans"] if s["name"] not in reached]

    def total(*names: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    chains = [c for s in spans if s["name"] == "infer.nuts.run_nuts" for c in s["chains"]]
    evals = sum(c["grad_evals"] for c in chains)
    sampling = sum(c["grad_evals_sampling"] for c in chains)
    chain_s = sum(c["end"] - c["start"] for c in chains)
    lp_s = sum(c["log_posterior_s"] for c in chains)
    ess = sum(s["mean_population_ess"] for s in spans if s["name"] == "infer.diagnostics.diagnose")
    revenue_s = total("revenue.revenue_curve")
    consumer_evals = sum(s["consumer_evals"] for s in spans if s["name"] == "revenue.revenue_curve")
    metrics = {
        "cli.import_s": import_seconds(),
        "simulate.s": total("simulate.sample_respondents", "simulate.generate_tasks", "simulate.simulate_choices"),
        "dataio.choices_read_s": total("dataio.read_choices_csv"),
        "dataio.posterior_write_s": total("dataio.write_posterior_jsonl"),
        "dataio.posterior_read_s": total("dataio.read_posterior_jsonl"),
        "dataio.posterior_write_rss_mb": max(
            [s["rss_rise_mb"] for s in spans if s["name"] == "dataio.write_posterior_jsonl"], default=0.0
        ),
        "design.build_s": total("infer.design.build_design"),
        "model.log_posterior_ms": probe_doc["probe"]["log_posterior_ms"],
        "nuts.grad_evals_warmup": evals - sampling,
        "nuts.grad_evals_sampling": sampling,
        "nuts.leapfrog_per_draw": sampling / max(1, sum(c["draws"] for c in chains)),
        "nuts.overhead_us_per_leapfrog": 1e6 * (chain_s - lp_s) / max(1, evals),
        "nuts.ess_per_kgrad": 1000.0 * ess / max(1, evals),
        "fit.sample_s": total("infer.fit.sample"),
        "diagnostics.s": total("infer.diagnostics.diagnose"),
        "wtp.s": total("posterior.wtp_draws", "posterior.summarize_wtp", "posterior.recovery_report"),
        "revenue.s": revenue_s,
        "revenue.consumer_evals_per_s": consumer_evals / revenue_s if revenue_s else 0.0,
        "trace.wall_s": rnd["wall"],
    }
    return metrics, self_times([d for d in docs if d is not probe_doc])


def self_times(docs: list[dict]) -> dict:
    """Seconds and calls per layer (module) of the set-up and commands,
    minus time in child spans.

    Chains report their own rows, since they may run in pool workers:
    infer.model is the time inside log_posterior, infer.nuts.chain the rest
    of the chain.
    """
    layers: dict[str, dict] = {}
    chains = []
    for doc in docs:
        spans = doc["spans"]
        chains += [c for s in spans if s["name"] == "infer.nuts.run_nuts" for c in s["chains"]]
        child_s = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        for s, inner in zip(spans, child_s):
            row = layers.setdefault(s["name"].rsplit(".", 1)[0], {"self_s": 0.0, "calls": 0})
            row["self_s"] += s["end"] - s["start"] - inner
            row["calls"] += 1
    if chains:
        lp_s = sum(c["log_posterior_s"] for c in chains)
        layers["infer.model (in chains)"] = {
            "self_s": lp_s,
            "calls": sum(c["grad_evals"] for c in chains),
        }
        layers["infer.nuts.chain (in chains)"] = {
            "self_s": sum(c["end"] - c["start"] for c in chains) - lp_s,
            "calls": len(chains),
        }
    return layers


def run_once(args) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    work = RUNS / args.workload
    if work.exists():
        shutil.rmtree(work)
    (work / "inputs").mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    trace = bool(args.trace)

    setup_walls = set_up(workload, trace)
    attempted = failed = 0
    failures: list[str] = []
    rounds = []
    measured = 0.0
    while True:
        rnd = run_round(workload, len(rounds), trace)
        n_cmds = len(workload.commands())
        attempted += n_cmds
        failed += n_cmds - rnd["codes"].count(0)
        rounds.append(rnd)
        measured += rnd["wall"]
        if failed:
            break
        failures += workload.check()
        if trace or measured >= args.seconds:
            break

    info = {"workload": args.workload, **environment(args.seed), "seconds": args.seconds,
            "trace": args.trace, "rounds": len(rounds), "setup_walls": setup_walls,
            "round_walls": [r["wall"] for r in rounds], "command_walls": [r["walls"] for r in rounds],
            "check_failures": failures}
    if trace:
        values, info["layer_self_s"] = per_layer(workload, rounds[0]) if not failed else ({}, {})
        units = PER_LAYER_UNITS
    else:
        per_round = [end_to_end(workload, r) for r in rounds if r["codes"].count(0) == len(r["codes"])]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]} if per_round else {}
        values["setup_s"] = statistics.median(setup_walls)
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    (work / "result.json").write_text(json.dumps({"info": info, "result": result}, indent=2), encoding="utf-8")
    return info, result


def repeat(args) -> dict:
    """Run args.repeat seeds as separate runs; summarize each metric."""
    results = []
    for i in range(args.repeat):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed + i), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"run with seed {args.seed + i} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {args.seed + i}: " + json.dumps(result), flush=True)
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        summary[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "unit": results[0]["metrics"][name]["unit"],
            "values": values,
        }
        print(f"{name:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {summary[name]['spread']}")
    return {
        "repeat": args.repeat,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": summary,
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, help="run this many seeds and summarize")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not program_present():
        print(f"error: the program is not in this checkout ({SRC / 'conjoint_wtp'} is missing)", file=sys.stderr)
        return 2
    if args.repeat:
        print(json.dumps(repeat(args)))
        return 0
    info, result = run_once(args)
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
