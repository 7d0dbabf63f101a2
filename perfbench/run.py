#!/usr/bin/env python3
"""Benchmark of autcob: one workload per invocation, run from the root of a
checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: diagram_eval, word_queries, graph_cli (see README.md).  The
inputs are generated from the seed; every output is checked against the
independent references in refs.py.  Each workload process has one thread
and one closed-loop caller.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
the median set-up time of several fresh processes, then throughput,
latency percentiles and peak memory of one process that runs whole rounds
of operations for S seconds.  With ``--trace 1`` one process runs the same
loop with spans around every layer call and reports the per-layer
metrics; its spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh processes timed for set-up before the measuring one (which is also
# timed); their median is setup_s.  Import time alone varies by tens of ms.
SETUP_PROBES = 6
DEADLINE_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_worker(mode, inputs, seconds, workdir, spans, env, deadline) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(inputs), mode,
         str(seconds), str(workdir), str(spans)],
        capture_output=True, text=True, env=env,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups, res) -> dict:
    lat = res["latencies"]
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "autcob" / "__init__.py").is_file():
        print(f"error: no autcob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    wl = workloads.WORKLOADS[args.workload]
    pool = wl.make_pool(random.Random(args.seed))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    # A fixed hash seed per --seed makes set iteration, and with it every
    # span count, repeat exactly between runs on the same seed.
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    try:
        inputs = tmp / "inputs.json"
        inputs.write_text(json.dumps({"workload": args.workload, "pool": pool}))
        common = (inputs, args.seconds, tmp, spans, env, deadline)
        if args.trace:
            res = run_worker("trace", *common)
            problems = res["problems"]
            units = dict(tracing.PER_LAYER)
            metrics = {k: (v, units[k]) for k, v in res["per_layer"].items()}
            shares = ", ".join(f"{k} {v:.1%}" for k, v in res["shares"].items())
            print(f"traced: {res['spans']} spans to {spans}; self-time shares: {shares};"
                  f" op p50 {statistics.median(res['latencies']) * 1000:.2f} ms",
                  file=sys.stderr)
        else:
            probes = [run_worker("probe", *common) for _ in range(SETUP_PROBES)]
            res = run_worker("measure", *common)
            problems = [p for r in probes for p in r["problems"]] + res["problems"]
            metrics = end_to_end([r["setup_s"] for r in probes] + [res["setup_s"]], res)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for err, count in res["errors"].items():
        print(f"failed x{count}: {err}", file=sys.stderr)
    for p in problems:
        print(f"wrong output: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
