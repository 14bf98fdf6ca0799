"""Benchmark of the afftalk CLI: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
run makes one untraced and one traced pass over the same inputs and reports
the per-layer metrics plus the tracing overhead.  The lines before it give
the provenance (machine, versions, kernel backend, commit, seeds), each
metric with its unit, the error rate, the latency sample size and the speed
calibration: every time is scaled to a reference speed by a fixed kernel
timed right after it, because other tenants of a shared host slow whole
runs down.  Compare only results whose ``kernel_backend`` matches.

All inputs derive from ``--seed``, so any seed not used while a change was
written serves as a held-out seed.  ``--workload all`` runs every workload
in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900
# One process, one client: BLAS stays single-threaded unless the caller set it.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, seed: int, derived_seeds: dict) -> dict:
    import numpy

    kernels = importlib.import_module("afftalk.kernels")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "folded_seed": seed,
        "derived_seeds": derived_seeds,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_all(args, names) -> int:
    """Each workload in its own process, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("train", "recognize", "explore", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "afftalk" / "cli.py").is_file():
        print(f"perfbench: no afftalk sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for var in BLAS_VARS:  # before workloads imports numpy
        os.environ.setdefault(var, "1")
    import workloads

    if args.seconds < 1:
        parser.error("need --seconds >= 1")
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    seed = workloads.fold_seed(args.seed)
    print("provenance " + json.dumps(provenance(args, seed, workloads.derived_seeds(seed))))
    try:
        result, notes = workloads.run(args.workload, seed, args.seconds, bool(args.trace), ROOT)
    except workloads.WorkloadError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':34s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print("\n".join(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
