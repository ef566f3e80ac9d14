"""One workload in one fresh interpreter; started by run.py.

    python3 perfbench/child.py WORKLOAD SEED SECONDS MODE

MODE is `setup` (set up, report when set-up ended, exit), `run` (set up,
time whole passes for at least SECONDS, check the outputs) or `trace`
(set up and run one pass with every traced layer wrapped, then check).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def timed_passes(wl, seconds: float):
    """Whole passes over wl.batches until `seconds` have gone by.

    Returns the first pass's outputs, batch times, ops attempted and
    failed, elapsed seconds, and how many later passes disagreed with the
    first."""
    first, samples = None, []
    attempted = failed = unstable = 0
    perf = time.perf_counter
    start = perf()
    while True:
        outputs = []
        for batch in wl.batches:
            t0 = perf()
            for item in batch:
                try:
                    outputs.append(wl.op(item))
                except Exception as exc:  # counted, and reported below
                    outputs.append(exc)
                    failed += 1
            samples.append(perf() - t0)
            attempted += len(batch)
        if first is None:
            first = outputs
        elif outputs != first:
            unstable += 1
        if perf() - start >= seconds:
            break
    return first, samples, attempted, failed, perf() - start, unstable


def main(argv) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    import polyeig

    if Path(polyeig.__file__).resolve().parent != ROOT / "src" / "polyeig":
        print(f"polyeig imported from {polyeig.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import polyeig.oracle  # noqa: F401  (not imported by the package itself)

    tracer = None
    if mode == "trace":
        from layertrace import Tracer

        tracer = Tracer().install()
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    setup_end = time.monotonic()
    if mode == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return 0

    first, samples, attempted, failed, elapsed, unstable = timed_passes(wl, 0.0 if tracer else seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_end": setup_end,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "elapsed": elapsed,
        "rss_kb": rss_kb,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.stats()
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{name}-{seed}.jsonl")
    raised = [o for o in first if isinstance(o, Exception)]
    fails = [f"op raised {o!r}" for o in raised]
    if not raised:
        fails += wl.verify(first)
    if unstable:
        fails.append(f"{unstable} later passes gave other outputs than the first")
    result["failures"] = fails
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
