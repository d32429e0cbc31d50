"""The experiment process: imports gtvfed and runs one config repeatedly.

Each experiment is one `gtvfed.cli.main(["run", ..., "--strict"])` call,
timed from config file to CSV+JSON report written. One untimed warm-up
experiment runs first; its report is kept as `first.csv`/`first.json` and
every later report must hash to the same bytes. Garbage is collected
before each experiment, outside the timed span. With --trace 1, odd
experiments run traced and even ones untraced, so the tracing overhead is
measured in the same process.

Usage: child.py --config CFG --prefix OUT --seconds S --trace 0|1 --result R
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import time


def _report_hash(prefix: str) -> str:
    h = hashlib.sha256()
    for ext in (".csv", ".json"):
        with open(prefix + ext, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--prefix", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    from gtvfed import cli

    argv = ["run", "--config", args.config, "--out", args.prefix, "--strict"]
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        traced_main = tracer.wrap(cli.main, "cli.main")

    def experiment(index: int, traced: bool) -> dict:
        gc.collect()
        sink = io.StringIO()
        entry = {"traced": traced, "rc": None, "error": None, "hash": None}
        if traced:
            tracer.install()
            tracer.begin(index)
        run = traced_main if traced else cli.main
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    entry["rc"] = run(argv)
                finally:
                    entry["s"] = time.perf_counter() - t0
        except Exception as exc:  # an experiment that raises is a failed operation
            entry["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.uninstall()
        if entry["rc"] == 0:
            entry["hash"] = _report_hash(args.prefix)
        elif entry["error"] is None:
            entry["error"] = f"exit code {entry['rc']}: {sink.getvalue()[-2000:]}"
        if traced:
            entry["layers"] = tracer.metrics()
        return entry

    warm = experiment(-1, False)
    if warm["rc"] == 0:
        out_dir = os.path.dirname(args.prefix)
        for ext in (".csv", ".json"):
            shutil.copyfile(args.prefix + ext, os.path.join(out_dir, "first" + ext))

    runs = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        index = len(runs)
        runs.append(experiment(index, bool(args.trace) and index % 2 == 1))

    result = {
        "warmup": warm,
        "runs": runs,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump_spans(os.path.join(os.path.dirname(args.result), "spans.jsonl"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
