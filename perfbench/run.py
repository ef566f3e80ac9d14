"""polyeig benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload eig-q --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; polyeig is imported from its `src/`.
Every interpreter this starts runs one after the other, single-threaded:
SETUP_REPEATS set-up-only interpreters, one that sets up, times whole
passes for --seconds and checks the outputs, then SETUP_REPEATS more
set-up-only interpreters.  With --trace 1 a single
interpreter sets up and runs one pass with the layers wrapped, and the
per-layer metrics replace the end-to-end ones; the spans go to
perfbench/out/.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 3
DEADLINE_S = 170


class ChildError(RuntimeError):
    pass


def child(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    """Run child.py in a fresh interpreter; its JSON result and the
    monotonic time at which it was started."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), repr(seconds), mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - started)
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} interpreter ran past the deadline") from exc
    if proc.returncode != 0:
        raise ChildError(f"{mode} interpreter exited with {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} interpreter printed no result:\n{proc.stderr.strip()}")
    return json.loads(lines[-1]), started


def measure(workload: str, seed: int, seconds: float, deadline: float):
    setups = []

    def setup_only():
        res, started = child(workload, seed, seconds, "setup", deadline)
        setups.append(res["setup_end"] - started)

    # Set-up is sampled before and after the timed phase, so that its
    # median spans the same stretch of machine time as the timed phase.
    for _ in range(SETUP_REPEATS):
        setup_only()
    res, started = child(workload, seed, seconds, "run", deadline)
    setups.append(res["setup_end"] - started)
    for _ in range(SETUP_REPEATS):
        setup_only()
    samples = res["samples"]
    metrics = {
        "ops_per_s": res["attempted"] / res["elapsed"],
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["rss_kb"] / 1024,
    }
    note = f"{workload} seed {seed}: {len(samples)} samples, setup runs {['%.3f' % s for s in setups]}"
    if len(samples) >= 100:
        note += f", latency p90 {statistics.quantiles(samples, n=10)[-1] * 1e3:.3f} ms"
    return res, metrics, note


def trace(workload: str, seed: int, deadline: float):
    res, _ = child(workload, seed, 0.0, "trace", deadline)
    return res, res["layers"], f"{workload} seed {seed}: traced pass of {res['elapsed']:.3f} s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "polyeig").is_dir():
        print(f"no polyeig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            res, metrics, note = trace(args.workload, args.seed, deadline)
        else:
            res, metrics, note = measure(args.workload, args.seed, args.seconds, deadline)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(note)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for failure in res["failures"][:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    correct = not res["failures"]
    print(
        json.dumps(
            {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
