"""Tests of the benchmark's report checker.

A small experiment runs through `gtvfed.cli.main`; its report must pass,
and doctored copies of it must each be rejected. Run from the repository
root:

    python3 -m pytest gtvbench/checker_tests.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np
import pytest

import check
import workloads
from gtvfed.cli import main

SMALL = {
    "sync": dict(
        workloads.COMMON, index=0, n=12, p=0.4, algorithm="fedgd", mode="sync",
        max_iters=400, record_every=20,
    ),
    "dp": dict(
        workloads.COMMON, index=1, n=10, p=0.4, algorithm="fedgd", mode="sync",
        max_iters=60, record_every=1, dp_sigma=0.01,
    ),
    "async": dict(
        workloads.COMMON, index=2, n=12, p=0.6, algorithm="fedrelax", mode="partial",
        B=3, max_iters=40, record_every=5, victims=1, poison_value=1e3, trim_k=1,
    ),
}


def _run(w, tmp_path, seed=3):
    config_seed, text = workloads.derive(w, seed)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    prefix = str(tmp_path / "report")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["run", "--config", str(cfg), "--out", prefix, "--strict"])
    assert rc == 0
    with open(prefix + ".csv") as fh:
        csv_text = fh.read()
    with open(prefix + ".json") as fh:
        json_text = fh.read()
    return config_seed, check.reference(w, config_seed), csv_text, json_text


def _doctor(json_text, edit):
    """Apply edit to the JSON rows and print the CSV from the edited rows."""
    data = json.loads(json_text)
    data["rows"] = edit(data["rows"])
    lines = [check.CSV_HEADER]
    for r in data["rows"]:
        lines.append(f"{r[0]},{r[1]}," + ",".join(check._fmt(v) for v in r[2:]))
    return "\n".join(lines) + "\n", json.dumps(data)


@pytest.fixture(scope="module")
def sync_report(tmp_path_factory):
    return _run(SMALL["sync"], tmp_path_factory.mktemp("sync"))


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_real_report_passes(kind, tmp_path):
    config_seed, ref, csv_text, json_text = _run(SMALL[kind], tmp_path)
    check.check_report(SMALL[kind], config_seed, ref, csv_text, json_text)


def test_reference_matches_dense_solve(sync_report):
    w = SMALL["sync"]
    config_seed, ref, _, _ = sync_report
    Q, q, cs, _, _ = check._quadratic(w, config_seed)
    dense = Q.toarray()
    w_star = np.linalg.solve(2.0 * dense, -q)
    evs = np.linalg.eigvalsh(dense)
    assert np.allclose(ref.w_star.reshape(-1), w_star, rtol=0, atol=1e-10)
    assert ref.lam_min == pytest.approx(evs[0], rel=1e-9)
    assert ref.lam_max == pytest.approx(evs[-1], rel=1e-9)
    assert ref.f_star == pytest.approx(w_star @ dense @ w_star + q @ w_star + cs.sum(), rel=1e-12)


def _shift_objective(rows):
    return [r[:2] + [r[2] + 1e-3] + r[3:] for r in rows]


def _scale_dist(rows):
    return [r[:6] + [3.0 * r[6]] for r in rows]


def _drop_last_event(rows):
    return rows[: -SMALL["sync"]["n"]]


@pytest.mark.parametrize(
    "edit", [_shift_objective, _scale_dist, _drop_last_event],
    ids=["shifted_objective", "wrong_dist_oracle", "dropped_rows"],
)
def test_doctored_report_rejected(edit, sync_report):
    config_seed, ref, _, json_text = sync_report
    csv_text, doctored = _doctor(json_text, edit)
    with pytest.raises(check.CheckError):
        check.check_report(SMALL["sync"], config_seed, ref, csv_text, doctored)


def test_csv_that_disagrees_with_json_rejected(sync_report):
    config_seed, ref, csv_text, json_text = sync_report
    lines = csv_text.split("\n")
    lines[5] = lines[5].replace(",", ",9", 1)
    with pytest.raises(check.CheckError):
        check.check_report(SMALL["sync"], config_seed, ref, "\n".join(lines), json_text)
