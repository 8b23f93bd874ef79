"""Run one mcseg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 10 --trace 0

Run from the repository root; the benchmark imports mcseg from ``src/``
there and nowhere else. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``. Lines before it print the same metrics as a table with their
sample counts, ``failed_frac`` and the run environment. The full result,
environment included, is also written to ``perfbench/out/``, and a traced
run writes its spans there too.

Workloads, metrics and their bounds are listed in ``BENCHMARK.json``; what
each workload does is in ``workloads.py``. ``--size tiny`` shrinks every
input, for the smoke test only.

BLAS runs on one thread. With two, the hand-off between threads made the
decode time of long lines swing by a fifth between identical runs, and the
threads' buffers moved peak RSS by tens of megabytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
BLAS_THREADS = 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "blas": blas_version,
        "python": sys.version.split()[0],
        "git_sha": git_sha(ROOT),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mcseg" / "__init__.py").is_file():
        print(f"perfbench: no mcseg sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    load_start = os.getloadavg()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    result = workloads.measure(args.workload, args.seed, args.seconds,
                               bool(args.trace),
                               workloads.SIZES[args.size], out_dir)

    env = environment()
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    # The run keeps one CPU busy. A 1-minute load at or above the CPU count
    # at its start or end means another job was competing for the CPUs.
    env["comparable"] = max(load_start[0], env["loadavg_end"][0]) < nproc
    result["environment"] = env
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"result-{name}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for metric, m in result["metrics"].items():
        n = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{metric:32s} {m['value']:>14.6g} {m['unit']}{n}")
    print(f"{'failed_frac':32s} {result['failed_frac']:>14.6g} ratio  "
          f"(n={result['attempted']})")
    for note in result["failures"]:
        print(f"FAILED: {note}")
    print("environment:", json.dumps(env))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
