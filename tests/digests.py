"""Report digests of the checked-in configs, and the script that writes
their manifest, tests/configs/digests.json.

    PYTHONPATH=src python tests/digests.py

runs every tests/configs/*.cfg under --strict and rewrites the manifest.
Per config stem it records the SHA-256 of the report's CSV and JSON, a
SHA-256 of every value rounded to 9 significant digits, and each bound
check's verdict; beside them, the platform the reports were written on.
tests/test_configs.py compares every run against it.
"""

import csv
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "tests" / "configs"
MANIFEST = CONFIG_DIR / "digests.json"


def platform() -> dict:
    """What a report's float bits depend on: the numpy version, the BLAS
    build and the BLAS thread count asked for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _rounded(value):
    """value with every float, and every CSV cell that reads as one, at 9
    significant digits."""
    if isinstance(value, dict):
        return {key: _rounded(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, str):
        try:
            return format(float(value), ".9g")
        except ValueError:
            return value
    return format(value, ".9g") if isinstance(value, float) else value


def report_digests(prefix) -> dict:
    """The manifest entry of the report written to prefix.csv and prefix.json."""
    csv_bytes, json_bytes = (Path(f"{prefix}.{ext}").read_bytes() for ext in ("csv", "json"))
    report = json.loads(json_bytes)
    with open(f"{prefix}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    values = json.dumps([_rounded(rows), _rounded(report)], sort_keys=True)
    return {
        "csv": hashlib.sha256(csv_bytes).hexdigest(),
        "json": hashlib.sha256(json_bytes).hexdigest(),
        "rounded": hashlib.sha256(values.encode()).hexdigest(),
        "verdicts": [f"{check['name']}: {check['holds']}" for check in report["summary"]["bound_checks"]],
    }


def main() -> int:
    from gtvfed import cli

    os.chdir(ROOT)  # paths inside a config are relative to the repository root
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(CONFIG_DIR.glob("*.cfg")):
            prefix = Path(tmp) / config.stem
            code = cli.main(["run", "--config", os.path.relpath(config, ROOT), "--out", str(prefix), "--strict"])
            if code != 0:
                print(f"{config}: gtvfed run exited {code}", file=sys.stderr)
                return 1
            reports[config.stem] = report_digests(prefix)
    manifest = {"platform": platform(), "reports": reports}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} report digests to {os.path.relpath(MANIFEST, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
