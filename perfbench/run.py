"""The eigenframe benchmark.

Runs one seeded workload through the package's public entry points
(eigenframe.cli.main in-process, eigenframe.survey_one for census classes),
each time in a fresh child process with BLAS threads pinned to 1, checks every
output, prints every metric by name with its unit, and ends with one JSON line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 wraps the package's layer
functions from outside and reports per-layer metrics instead. Results, with
every op's output digest and the run's metadata, go to perfbench/results/.
--record-golden runs one pass and adds this commit's output digests to
perfbench/golden/<workload>.json.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "eigenframe"

SETUP_RUNS = 5  # fresh processes whose set-up times give setup_s
MIN_PASSES = 3  # timed passes in every untraced run; fixes the tail percentile
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("EIGENFRAME_WORKERS", None)
    return env


def run_child(args, mode, seconds=0.0, min_passes=1, spans=None):
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(seconds), "--min-passes", str(min_passes),
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata(args, n_ops):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": n_ops,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def tail(latencies, min_samples):
    """Nearest-rank percentile that leaves TAIL_BEYOND samples above it when
    there are min_samples samples; the percentile is fixed per workload."""
    q = 1 - TAIL_BEYOND / min_samples
    ordered = sorted(latencies)
    return ordered[math.ceil(q * len(ordered)) - 1], 100 * q


def grade(ops, golden):
    """(failed executions, golden-checked ops, problems) over every op."""
    failed, checked, problems = 0, 0, []
    for op in ops:
        issues = list(op["problems"])
        expected = golden.get(op["key"])
        if expected is not None:
            checked += 1
            if expected != op["digest"]:
                issues.append("output differs from its golden digest")
        if issues:
            failed += op["runs"]
            problems.append({"key": op["key"], "problems": issues})
    return failed, checked, problems


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args()

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    golden_path = HERE / "golden" / f"{args.workload}.json"
    golden = json.loads(golden_path.read_text()) if golden_path.is_file() else {}

    if args.record_golden:
        run = run_child(args, "measure")
        failed, _, problems = grade(run["ops"], {})
        if failed:
            print(json.dumps(problems, indent=1), file=sys.stderr)
            raise SystemExit("error: not recording digests of outputs that fail their checks")
        golden.update({op["key"]: op["digest"] for op in run["ops"]})
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
        print(f"recorded {len(run['ops'])} digests into {golden_path.relative_to(ROOT)}")
        return 0

    setups = [run_child(args, "setup")["setup_s"] for _ in range(SETUP_RUNS - 1)]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run = run_child(args, "trace", args.seconds, 1, spans=results / f"{stem}-spans.jsonl")
    else:
        run = run_child(args, "measure", args.seconds, MIN_PASSES)
    setups.append(run["setup_s"])

    n_ops = len(run["ops"])
    failed, checked, problems = grade(run["ops"], golden)
    attempted = sum(op["runs"] for op in run["ops"])
    if args.trace:
        untraced = statistics.fmean(run["walls"])
        metrics = dict(run["layers"])
        metrics["trace_overhead_ratio"] = (
            statistics.fmean(run["traced_walls"]) / untraced, "ratio")
        notes = {
            "trace_overhead_ratio": f"traced over untraced wall_s ({untraced:.4f} s)",
            "completability.xspace.modp_shortcut_ratio":
                f"share of exact xspace calls with x_dim 0: {run['xspace_xdim0_share']:.4f}",
            "completability._build_system.cells": "computed from arguments",
            "completability._build_system.bytes": "computed from arguments",
        }
        notes.update({f"{name}.calls": "absent" for name in run["absent"]})
    else:
        latencies = [t for op in run["ops"] for t in op["latencies"]]
        tail_s, tail_q = tail(latencies, n_ops * MIN_PASSES)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.fmean(run["walls"]), "s"),
            "call_p50_s": (statistics.median(latencies), "s"),
            "call_tail_s": (tail_s, "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "match_ratio": (1 - failed / attempted, "ratio"),
        }
        notes = {
            "wall_s": f"mean of {len(run['walls'])} passes of {n_ops} ops",
            "call_tail_s": f"p{tail_q:.1f} of {len(latencies)} op calls",
            "match_ratio": f"{failed} of {attempted} op calls failed; "
                           f"{checked} of {n_ops} ops have a golden digest",
        }

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "meta": metadata(args, n_ops),
        "setups_s": setups,
        "run": {k: v for k, v in run.items() if k not in ("ops", "layers")},
        "metrics": reported,
        "problems": problems,
        "ops": [{k: op[k] for k in ("key", "rc", "digest", "runs", "latencies")}
                for op in run["ops"]],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems:
        print(f"FAIL {problem['key']}: {'; '.join(problem['problems'])}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {n_ops} ops per pass, "
          f"{attempted} op calls, {failed} failed")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name:58s} {value:14.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
