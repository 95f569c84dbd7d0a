"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload closed-lib --seed 1 --seconds 10 --trace 0

With --trace 0 it measures set-up time (a fresh interpreter until apery and
apery.cli are imported and the CLI parser is built; the median of several
starts after one warm-up start, each scaled by the host-speed probe run
around it, as the workload's times are), then runs the workload in a fresh process
and reports the end-to-end metrics.  With --trace 1 the workload process
adds a traced replay and reports the per-layer metrics instead.  Readable
lines come first; the last line of stdout is one JSON object.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-trace"
sys.path.insert(0, str(ROOT))

from perfbench import hostspeed  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
RUN_LIMIT_S = 170.0
READY = ("import apery, apery.cli; apery.cli.build_parser(); "
         "print('ready', flush=True)")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median time from spawning an interpreter until it is ready, scaled
    to the probe's reference speed, and the same median unscaled."""
    times, probes = [], []
    for attempt in range(SETUP_REPEATS + 1):
        if attempt:
            probes.append(hostspeed.probe())
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", READY], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE, text=True)
        with proc.stdout:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up process did not become ready")
        if attempt:  # the first start warms the bytecode cache
            times.append(ready - started)
    probes.append(hostspeed.probe())
    scaled = [t * s for t, s in zip(times, hostspeed.window_scales(probes))]
    return statistics.median(scaled), statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "apery" / "__init__.py").is_file():
        print(f"error: no apery package under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = _env()
    metrics = {}
    if not args.trace:
        setup, unscaled = setup_seconds(env)
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        command += ["--trace-out", str(
            TRACE_DIR / f"{args.workload}-{args.seed}.tsv")]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: workload process timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, (value, unit) in result["metrics"].items():
        metrics[name] = {"value": value, "unit": unit}
    attempted, failed = result["attempted"], result["failed"]
    for line in result["lines"]:
        print(line)
    if not args.trace:
        print(f"unscaled: setup_s {unscaled:.6g}")
    print(f"checks by kind (distinct requests): {result['kinds']}; "
          f"unchecked {result['kinds'].get('unchecked', 0)}")
    print(f"failed_frac {failed / attempted} ({failed} of {attempted})")
    for failure in result["failures"]:
        print(f"failure: {failure}")
    for name, metric in metrics.items():
        print(f"{name:40} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
