"""The benchmark of `singer`: four workloads of CLI operations.

    python3 perfbench/run.py --workload {planes,hughes,hyperfields,monomial}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and needs no installation: the
package is imported from `src/`.  Each round of the workload runs in a fresh
child process (worker.py) that calls `singer.cli.main(argv)` in-process, and
rounds repeat for about --seconds.  This process then checks every payload
with the independent checkers of check.py.  The seed is accepted and recorded, but no seed reaches the program: each workload is a
fixed list of parameters, so that every run does the same work.

With --trace 0 the metrics are the end-to-end ones:
  setup_s      median time for a fresh interpreter to import singer.cli,
               at the reference speed of speed.py
  wall_s       median over rounds of the time to run the whole list, at
               the reference speed of speed.py
  peak_rss_mb  median over rounds of the worker's peak resident memory
With --trace 1 they are the per-layer self times and counts of spans.py,
plus the trace's coverage and its overhead against one untraced round.

The last line of standard output is the result object; the line before it
records the backend, the rounds and the sha256 of each operation's stdout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 15
DEADLINE_S = 170
# Run in a fresh interpreter: samples the probe of speed.py for 50 ms, then
# times `import singer.cli` and prints that time at the reference speed.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import SpeedProbe, scaled
with SpeedProbe() as probe:
    t = time.perf_counter()
    while time.perf_counter() - t < 0.05:
        pass
    t = time.perf_counter()
    import singer.cli
    dt = time.perf_counter() - t
print(scaled(dt, probe.probe_s()))
"""


def measure_setup():
    """Median import time of singer.cli in fresh interpreters, at the
    reference speed of speed.py, after one untimed import that leaves the
    byte-code cache warm."""
    def probe():
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        return float(done.stdout)
    probe()
    return statistics.median(probe() for _ in range(SETUP_SAMPLES))


def run_round(workload, trace, workdir, deadline):
    """One round in a fresh worker process; returns its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--trace", str(trace),
           "--workdir", workdir]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["raw_wall_s"] = sum(report["op_s"])
    report["wall_s"] = sum(report["op_scaled_s"])
    return report


def run_rounds(workload, trace, seconds, workdir, deadline):
    """Whole rounds, ending as near to `seconds` as rounds allow: another
    round starts while it is expected to end no more than half a round
    after `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, trace, workdir, deadline))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) > seconds:
            return rounds


def check_outputs(ops, rounds, workdir):
    """(attempted, failed, correct): the stdout of each operation's last
    round is checked, and every round must have printed the same bytes."""
    attempted = len(ops) * len(rounds)
    failed = sum(rc != 0 for r in rounds for rc in r["rc"])
    correct = True
    for i, op in enumerate(ops):
        if rounds[-1]["rc"][i] != 0:
            continue
        with open(os.path.join(workdir, f"{op.name}.out"), "rb") as fh:
            text = fh.read()
        try:
            why = op.check(json.loads(text))
        except json.JSONDecodeError as exc:
            why = f"stdout is not one JSON payload: {exc}"
        digest = hashlib.sha256(text).hexdigest()
        if why is None and any(r["sha256"][i] != digest
                               for r in rounds if r["rc"][i] == 0):
            why = "the rounds printed different bytes"
        if why is not None:
            print(f"{op.name}: INCORRECT: {why}", file=sys.stderr)
            correct = False
    return attempted, failed, correct


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "singer", "cli.py")):
        print(f"error: no singer sources under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    workdir = os.path.join(OUT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    deadline = start + DEADLINE_S
    ops = WORKLOADS[args.workload]
    if args.trace:
        reference = run_round(args.workload, 0, workdir, deadline)
        rounds = run_rounds(args.workload, 1, args.seconds, workdir,
                            deadline)
        # self times at the reference speed, like wall_s; counts are exact
        # and the same in every round
        metrics = {}
        for k in rounds[0]["layers"]:
            if k.endswith("_s"):
                v = statistics.median(r["layers"][k] * r["wall_s"]
                                      / r["raw_wall_s"] for r in rounds)
                metrics[k] = {"value": v, "unit": "s"}
            else:
                v = statistics.median_low(r["layers"][k] for r in rounds)
                metrics[k] = {"value": v, "unit": "count"}
        wall = statistics.median(r["wall_s"] for r in rounds)
        metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
        covered = statistics.median(
            sum(v for k, v in r["layers"].items()
                if k.endswith("_s") and k != "cli.other_s") / r["raw_wall_s"]
            for r in rounds)
        metrics["trace.coverage"] = {"value": covered, "unit": "ratio"}
        metrics["trace.overhead"] = {
            "value": wall / reference["wall_s"], "unit": "ratio"}
    else:
        setup_s = measure_setup()
        rounds = run_rounds(args.workload, 0, args.seconds, workdir,
                            deadline)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"]
                                                  for r in rounds),
                       "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"]
                                                       for r in rounds),
                            "unit": "MB"}}
        reference = None
    checked = [reference] + rounds if reference else rounds
    attempted, failed, correct = check_outputs(ops, checked, workdir)
    if args.trace and not all(r["unwrapped"] for r in rounds):
        print("error: the trace left wrappers installed", file=sys.stderr)
        correct = False

    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "backend": rounds[0]["backend"],
            "python": platform.python_version(), "rounds": len(rounds),
            "round_wall_s": [r["wall_s"] for r in rounds],
            "round_raw_wall_s": [r["raw_wall_s"] for r in rounds],
            "op_sha256": {op.name: h
                          for op, h in zip(ops, rounds[0]["sha256"])}}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}.trace{args.trace}.json"),
              "w") as fh:
        json.dump({"info": info, "result": result, "rounds": checked}, fh,
                  indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
