"""Train the models a serving workload loads, in a process of their own.

    python3 perfbench/train_models.py --seed N --work DIR

Runs simulate -> train-bn -> train-hmm through ``afftalk.cli.main`` in
whole passes, at least two, as the train workload does, and leaves the first
pass's dataset and models under ``DIR/pass0``.  The last line of standard
output is ``{"pipeline_s": ..., "attempted": ..., "failed": ...}``, where
``pipeline_s`` sums each stage's best latency.  Training runs here, not in
the serving process, so that the serving process's peak RSS is that of
serving.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    lib = workloads.cold_start()
    ledger = workloads.Ledger()
    latencies = workloads.timed_passes(lib, workloads.pipeline_requests(args.seed), args.work, 0, ledger)
    print(json.dumps({"pipeline_s": math.fsum(latencies), "attempted": ledger.attempted, "failed": ledger.failed}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
