"""One workload in one fresh process: set up, warm up, time passes, check.

Started by run.py with BLAS threads pinned to 1 and the package source on
PYTHONPATH. Prints one JSON object on its last stdout line.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|measure|trace
        --seconds S --min-passes K [--spans FILE]
"""

import time

# Set-up time starts before the package (and numpy) is imported.
_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import eigenframe  # noqa: E402
import eigenframe.cli  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _invoke(op):
    if op.survey_set is None:
        return eigenframe.cli.main(list(op.argv))
    record = eigenframe.survey_one(5, op.survey_set)
    print(json.dumps(dataclasses.asdict(record), sort_keys=True, separators=(",", ":")))
    return 0


def call(op):
    """Run one op; returns (seconds, exit code, stdout text). An op that
    raises is a failed op, not a failed run: exit code -1, traceback as stdout."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = _invoke(op)
    except Exception:
        rc, out = -1, io.StringIO(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue()


def digest(rc, stdout):
    return hashlib.sha256(f"{rc}\n".encode() + stdout.encode()).hexdigest()


class Ledger:
    """Per-op latencies and outputs across passes."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies = [[] for _ in ops]
        self.digests = [set() for _ in ops]
        self.first = [None] * len(ops)

    def run_pass(self):
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            elapsed, rc, stdout = call(op)
            self.latencies[i].append(elapsed)
            self.digests[i].add(digest(rc, stdout))
            if self.first[i] is None:
                self.first[i] = (rc, stdout)
        return time.perf_counter() - start

    def run_for(self, seconds, min_passes):
        """Timed passes until the next one would end past `seconds`."""
        walls = []
        start = time.perf_counter()
        while len(walls) < min_passes or (
            time.perf_counter() - start + walls[-1] <= seconds
        ):
            walls.append(self.run_pass())
        return walls

    def report(self):
        rows = []
        for i, op in enumerate(self.ops):
            rc, stdout = self.first[i]
            problems = workloads.check(op, rc, stdout)
            if len(self.digests[i]) > 1:
                problems.append("output changed between passes")
            rows.append({
                "key": op.key,
                "rc": rc,
                "digest": digest(rc, stdout),
                "runs": len(self.latencies[i]),
                "problems": problems,
                "latencies": self.latencies[i],
            })
        return rows


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-passes", type=int, default=1)
    p.add_argument("--spans")
    args = p.parse_args()

    ops = workloads.build(args.workload, args.seed)
    call(workloads.WARMUP[args.workload])
    result = {"setup_s": time.perf_counter() - _START}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ledger = Ledger(ops)
    budget = args.seconds / 2 if args.mode == "trace" else args.seconds
    result["walls"] = ledger.run_for(budget, args.min_passes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "trace":
        spans = tracer.Tracer()
        spans.install()
        try:
            result["traced_walls"] = ledger.run_for(budget, 1)
        finally:
            spans.uninstall()
        passes = len(result["traced_walls"])
        summary = tracer.summarize(spans.spans, passes, passes * len(ops))
        result["layers"] = summary["metrics"]
        result["xspace_xdim0_share"] = summary["xspace_xdim0_share"]
        result["absent"] = spans.absent
        result["span_count"] = len(spans.spans)
        with open(args.spans, "w") as fh:
            for sid, parent, name, start, end, _ in spans.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")
    result["ops"] = ledger.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
