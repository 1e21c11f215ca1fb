"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <workdir> <trace 0|1> [--setup-only]

Times ``import kbf`` plus building the inputs (set-up), then the call into
kbf (wall), and prints one JSON line with both, the process's peak RSS, the
call's in-memory result and, when traced, the per-layer figures and spans.
Just before the call it times the host probe (see ``workloads.host_probe``).
A fresh process per repetition gives every repetition a cold import and an
empty in-memory reference cache.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv):
    workload, seed, workdir, traced = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv
    # numpy is loaded before the clock starts: its import is outside kbf's
    # control, and its run-to-run variance would hide changes to kbf's own set-up
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import kbf
    import workloads

    call, top_span = workloads.prepare(kbf, workload, workloads.initial_profile(seed), workdir)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if setup_only:
        print(json.dumps(out))
        return 0

    out["probe_s"] = workloads.host_probe()
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer().install()
        top = tracer.open(top_span)
    try:
        t1 = time.perf_counter()
        result = call()
        wall_s = time.perf_counter() - t1
    finally:
        if tracer is not None:
            tracer.close(top)
            tracer.remove()
    out["wall_s"] = wall_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["result"] = [float(e).hex() for e in result] if isinstance(result, tuple) else result
    if tracer is not None:
        out["per_layer"], out["self_by_layer"], out["fft_by_span"] = tracer.metrics(wall_s)
        out["absent"] = tracer.absent
        out["spans"] = [s.as_list() for s in tracer.spans]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
