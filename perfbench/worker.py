"""Run one round of a workload's operations in this process.

    python3 perfbench/worker.py --workload NAME --trace 0|1 --workdir DIR

A round is the workload's operation list, each operation one
`singer.cli.main(argv)` call with standard output and standard error
captured; only that call is timed, and its time is also scaled to the
reference speed of speed.py.  Every round gets a fresh process, as
every CLI invocation does, so nothing the program caches in memory carries
over from one round to the next.  With --trace 1 the spans of spans.py are
installed for the round and taken off again after it.  Each operation's
stdout is left in DIR as `<op>.out` for run.py to check.  The last line of
standard output is one JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import singer.cli  # noqa: E402
from singer import _backend  # noqa: E402

import spans  # noqa: E402
from speed import SpeedProbe, scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_op(op, workdir):
    """(exit code, stdout, seconds) of one operation."""
    argv = [os.path.join(workdir, "%s.%s.json" % a) if isinstance(a, tuple)
            else a for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = singer.cli.main(argv)
        except Exception as exc:  # an operation that crashes has failed
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = -1
        dt = time.perf_counter() - t0
    if rc != 0:
        print(f"{op.name}: exit {rc}: {err.getvalue().strip()[-300:]}",
              file=sys.stderr)
    return rc, out.getvalue(), dt


def run_round(ops, workdir):
    """Run every operation once; returns [(rc, sha256, seconds, scaled
    seconds)], the last scaled to the probe's reference speed (speed.py)."""
    results, spans_of_ops = [], []
    with SpeedProbe() as probe:
        for op in ops:
            start = probe.mark()
            rc, text, dt = run_op(op, workdir)
            spans_of_ops.append((start, probe.mark()))
            results.append((rc, hashlib.sha256(text.encode()).hexdigest(),
                            dt))
            if rc == 0 and op.saves:
                payload = json.loads(text)
                for key in op.saves:
                    path = os.path.join(workdir, f"{op.name}.{key}.json")
                    with open(path, "w") as fh:
                        json.dump(payload[key], fh)
            with open(os.path.join(workdir, f"{op.name}.out"), "w") as fh:
                fh.write(text)
    whole = probe.probe_s()
    if whole is None:
        raise RuntimeError("too few speed samples in the round")
    return [res + (scaled(res[2], probe.probe_s(a, b) or whole),)
            for res, (a, b) in zip(results, spans_of_ops)]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    ops = WORKLOADS[args.workload]
    out = {"backend": _backend.BACKEND}
    if args.trace:
        before = spans.snapshot()
        tracer = spans.Tracer()
        tracer.install()
        try:
            results = run_round(ops, args.workdir)
        finally:
            tracer.uninstall()
        out["unwrapped"] = spans.unchanged(before)
        out["layers"] = tracer.metrics()
    else:
        results = run_round(ops, args.workdir)
    out["rc"], out["sha256"], out["op_s"], out["op_scaled_s"] = (
        list(c) for c in zip(*results))
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
