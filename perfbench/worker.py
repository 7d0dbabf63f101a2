"""One benchmark process: set up one workload, then run whole rounds of its
operations on one thread, each operation starting when the previous one
has returned (a closed loop with one caller).

    python3 perfbench/worker.py INPUTS MODE SECONDS WORKDIR SPANS

INPUTS is the JSON written by run.py; MODE is ``probe`` (set up, then
exit), ``measure`` or ``trace``; WORKDIR takes the files the operations
write; SPANS receives the spans of a traced run.  The last line of stdout
is one JSON object.

Set-up runs from just before ``import autcob`` to the end of one untimed
warm-up operation, and covers loading every input from its text form.
Every operation runs on library objects loaded for it alone: after their
first use, inputs are loaded again from text, outside the timed region.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 20


def main(argv) -> int:
    inputs, mode, seconds, workdir, spans_path = argv
    seconds = float(seconds)
    with open(inputs, encoding="utf-8") as fh:
        data = json.load(fh)
    wl = workloads.WORKLOADS[data["workload"]]
    pool = data["pool"]
    clock = time.perf_counter

    t0 = clock()
    for name in wl.modules:
        importlib.import_module(name)
    ac = sys.modules["autcob"]
    tracer = None
    if mode == "trace":
        importlib.import_module("autcob.cli")  # so its bindings are wrapped too
        tracer = tracing.Tracer()
        tracer.install()
        tracer.op = tracing.LOAD
        tracer.enabled = True
    loaded = [wl.load(ac, item) for item in pool]
    if tracer:
        tracer.enabled = False
    warm = wl.run(ac, loaded[0], workdir)
    setup_s = clock() - t0

    problems = [f"warm-up: {p}" for p in wl.check(pool[0], warm)]
    result = {"setup_s": setup_s, "problems": problems}
    if mode == "probe":
        print(json.dumps(result))
        return 0

    def fresh(item):
        """Objects no operation has used, so nothing an earlier operation
        cached on them carries over.  Set-up traced loading once already."""
        if tracer:
            tracer.enabled = False
        x = wl.load(ac, item)
        if tracer:
            tracer.enabled = True
        return x

    loaded[0] = None  # used by the warm-up
    latencies = []
    failed = 0
    errors = {}
    if tracer:
        tracer.enabled = True
    start = clock()
    while True:  # whole rounds only, so the failed share never varies
        for i, item in enumerate(pool):
            x = loaded[i] if loaded[i] is not None else fresh(item)
            loaded[i] = None
            t = clock()
            try:
                if tracer:
                    out = tracer.run_op(len(latencies), wl.run, ac, x, workdir)
                else:
                    out = wl.run(ac, x, workdir)
            except Exception as e:  # counted as a failed operation
                out = None
                err = f"{type(e).__name__}: {e}"
            latencies.append(clock() - t)
            if out is None or wl.failed(out):
                failed += 1
                if out is not None:
                    err = f"unexpected result {out}"
                errors[err] = errors.get(err, 0) + 1
            elif len(problems) < MAX_PROBLEMS:
                problems += wl.check(item, out)
        if clock() - start >= seconds:
            break
    if tracer:
        tracer.enabled = False

    result.update(
        attempted=len(latencies),
        failed=failed,
        errors=errors,
        latencies=latencies,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer:
        result["per_layer"] = tracing.per_layer(tracer.spans, len(latencies), len(pool))
        result["shares"] = tracing.layer_shares(tracer.spans)
        result["spans"] = len(tracer.spans)
        tracer.write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
