"""Benchmark of `gtvfed run` on one named workload.

    python3 gtvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One run:
  1. derives the workload's config from --seed and computes the reference
     solution in this process (see check.py);
  2. times fresh interpreters importing gtvfed.cli (setup_s), some before
     and some after step 3;
  3. starts one experiment process (child.py) that does an untimed warm-up
     experiment, then repeats the experiment for S seconds; nothing else
     runs while it measures;
  4. checks the first report against the reference and every report's
     hash against the first.
The last line of stdout is a JSON object with correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Every subprocess runs with one BLAS thread.
"""

from __future__ import annotations

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads here or in any subprocess

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Fresh interpreters timed before and after the experiment process, so the
# import samples span the run's host-speed drift; the first is an untimed
# warm-up.
IMPORTS_BEFORE, IMPORTS_AFTER = 4, 3
IMPORT_CODE = (
    "import time; t0 = time.perf_counter(); import numpy, scipy.linalg; "
    "t1 = time.perf_counter(); import gtvfed.cli; t2 = time.perf_counter(); "
    "print(t2 - t0, t2 - t1)"
)
# Seconds allowed beyond --seconds for the experiment process to finish.
CHILD_GRACE = 100

END_TO_END = {"experiment_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _imports(env, count) -> list:
    """(total, gtvfed-only) import seconds of fresh interpreters; None on failure."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            out.append(None)
            continue
        total, own = (float(v) for v in proc.stdout.split())
        out.append((total, own))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "gtvfed", "cli.py")):
        print(f"error: no gtvfed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import numpy
    import scipy

    import check
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    w, config_seed, text = workloads.make(args.workload, args.seed)
    config = os.path.join(out_dir, "experiment.cfg")
    with open(config, "w") as fh:
        fh.write(text)
    if "trim_k" in w:
        check.check_degrees(w, config_seed)
    ref = check.reference(w, config_seed)

    env = _child_env()
    imports = _imports(env, IMPORTS_BEFORE)
    result_path = os.path.join(out_dir, "result.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--config", config,
         "--prefix", os.path.join(out_dir, "report"), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--result", result_path],
        env=env, cwd=ROOT, check=True, timeout=args.seconds + CHILD_GRACE,
    )
    imports += _imports(env, IMPORTS_AFTER)
    good_imports = [v for v in imports[1:] if v is not None]
    with open(result_path) as fh:
        result = json.load(fh)

    experiments = [result["warmup"]] + result["runs"]
    problems = []
    first = result["warmup"]["hash"]
    if first is None:
        problems.append("the warm-up experiment failed, so no report was checked")
    else:
        differing = sum(1 for e in result["runs"] if e["hash"] not in (None, first))
        if differing:
            problems.append(f"{differing} reports differ from the first report's bytes")
        try:
            check.check_files(w, config_seed, ref, os.path.join(out_dir, "first"))
        except check.CheckError as exc:
            problems.append(str(exc))
            first = None
    # An experiment fails on a non-zero exit, an exception, or a report that
    # is not the checked first report.
    failed_exp = [e for e in experiments if first is None or e["hash"] != first]
    for e in failed_exp[:3]:
        if e["error"]:
            print(f"experiment failed: {e['error']}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    ok = [e for e in result["runs"] if e["rc"] == 0]
    untraced = [e["s"] for e in ok if not e["traced"]]
    traced = [e for e in ok if e["traced"]]
    if not untraced or (args.trace and not traced) or not good_imports:
        print("error: no successful experiment or import to measure", file=sys.stderr)
        return 1

    if args.trace:
        names = sorted(traced[0]["layers"])
        metrics = {n: statistics.median(e["layers"][n] for e in traced) for n in names}
        size = sum(os.path.getsize(os.path.join(out_dir, "first" + x)) for x in (".csv", ".json"))
        metrics["harness.report_mb"] = size / 2**20
        metrics["cli.import_s"] = statistics.median(own for _, own in good_imports)
        metrics["trace.overhead_s"] = (
            statistics.median(e["s"] for e in traced) - statistics.median(untraced)
        )
        metrics = {n: {"value": v, "unit": layers.UNITS[n]} for n, v in sorted(metrics.items())}
    else:
        values = {
            "experiment_s": statistics.median(untraced),
            "setup_s": statistics.median(total for total, _ in good_imports),
            "peak_rss_mb": result["maxrss_mb"],
        }
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}

    q1, q2, q3 = statistics.quantiles(untraced, n=4) if len(untraced) > 1 else untraced * 3
    print(f"# workload={args.workload} seed={args.seed} config_seed={config_seed} "
          f"blas_threads=1 nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__}")
    print(f"# experiments attempted={len(experiments)} failed={len(failed_exp)}; "
          f"imports attempted={len(imports)} failed={imports.count(None)}")
    print(f"# untraced experiment_s n={len(untraced)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(experiments) + len(imports),
        "failed": len(failed_exp) + imports.count(None),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
