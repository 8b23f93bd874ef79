"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 perfbench/baseline.py --seeds 11-20                 # every workload
    python3 perfbench/baseline.py --seeds 1-5 --workloads train-paper
    python3 perfbench/baseline.py --seeds 11-20 --write         # record baseline

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
for ``run_seconds`` from ``BENCHMARK.json``. Workloads take turns within
each seed, so a slow stretch of a shared machine lands on several workloads
rather than on consecutive runs of one. For each end-to-end metric it
prints the median and the quartile spread, (q3 - q1) / median as
``statistics.quantiles(values, n=4)`` gives them, next to the metric's
bound. A spread of at most a third of the bound is steady (setup_s is
exempt). Each run's environment is read from its result file; a run that
``run.py`` marked not comparable (the machine was loaded when it started or
ended) is listed, makes the summary not steady, and stops ``--write``.
``--write`` stores the medians and quartiles, with every run's environment,
in ``perfbench/baseline.json``. Per-layer numbers come from
``run.py --trace 1``, not from here.

Seed 7919 is held out: never use it to tune the benchmark or a change, so a
claimed gain can be checked on it afterwards.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOLDOUT_SEED = 7919


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One untraced run: its last-line result and its environment."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result_file = HERE / "out" / f"result-{workload}-seed{seed}-trace0.json"
    env = json.loads(result_file.read_text())["environment"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), env


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="11-20")
    p.add_argument("--workloads", default=None,
                   help="comma-separated; default: every workload")
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = seed_list(args.seeds)
    if HOLDOUT_SEED in seeds:
        print(f"seed {HOLDOUT_SEED} is held out", file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in names}
    failed = dict.fromkeys(names, 0)
    attempted = dict.fromkeys(names, 0)
    runs = []
    for seed in seeds:
        for workload in names:
            out, env = run_once(workload, seed, spec["run_seconds"])
            failed[workload] += out["failed"]
            attempted[workload] += out["attempted"]
            for name in bounds:
                values[workload][name].append(out["metrics"][name]["value"])
            runs.append({"workload": workload, "seed": seed, **env})
            print(f"{workload} seed {seed}: correct={out['correct']} "
                  f"comparable={env['comparable']}", file=sys.stderr,
                  flush=True)

    summary, steady = {}, True
    for workload in names:
        print(f"\n{workload}: {len(seeds)} runs, "
              f"failed {failed[workload]}/{attempted[workload]}")
        rows = {}
        for name, vals in values[workload].items():
            s = summarise(vals)
            rows[name] = s
            bound = bounds[name]
            ok = name == "setup_s" or s["spread"] <= bound / 3
            steady &= ok
            print(f"  {name:34s} median {s['median']:12.6g}  spread "
                  f"{s['spread']:7.4f}  bound {bound:5.3f}"
                  f"{'' if ok else '  <-- not steady'}")
        steady &= failed[workload] == 0
        summary[workload] = {"seeds": seeds, "failed": failed[workload],
                             "attempted": attempted[workload],
                             "metrics": rows}

    loaded = [r for r in runs if not r["comparable"]]
    for r in loaded:
        print(f"not comparable: {r['workload']} seed {r['seed']}, load "
              f"{r['loadavg_start'][0]:.2f} at start, "
              f"{r['loadavg_end'][0]:.2f} at end, {r['nproc']} CPUs")
    steady &= not loaded
    if args.write and loaded:
        print("not writing baseline.json: rerun on an idle machine",
              file=sys.stderr)
    elif args.write:
        (HERE / "baseline.json").write_text(json.dumps(
            {"run_seconds": spec["run_seconds"], "holdout_seed": HOLDOUT_SEED,
             "runs": runs, "workloads": summary}, indent=1) + "\n")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
