"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED ROUND TRACE WORKDIR

The first line on stdout is ``ready``, written as soon as ``hartogs`` is
imported; the parent times set-up up to that line.  The last line is one JSON
object: wall and CPU time of the workload's calls, the peak resident set, the
check failures, a digest of the outputs, and (when TRACE is 1) the spans and
per-layer metrics.  Nothing but the standard library is imported before
``hartogs``.
"""

import json
import resource
import sys
import time
import traceback


def main(argv) -> int:
    name, seed, round_, trace, workdir = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1", argv[4]
    import hartogs  # noqa: F401  (set-up ends here)

    print("ready", flush=True)

    import tracer
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(seed, round_)
    if trace:
        tr = tracer.Tracer()
        tr.install()
    result = {"error": None, "failures": [], "digest": None}
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        outputs = wl.run(inputs, workdir)
    except Exception:  # the pass fails; the parent counts it
        outputs = None
        result["error"] = traceback.format_exc()
    t1, c1 = time.perf_counter(), time.process_time()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["wall_s"] = t1 - t0
    result["cpu_s"] = c1 - c0
    if trace:
        tr.active = False
        result["layers"] = tracer.layer_metrics(tr.spans)
        result["spans"] = tr.spans
    if outputs is not None:
        result["failures"] = wl.check(inputs, outputs)
        result["digest"] = wl.digest(outputs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
