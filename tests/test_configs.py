"""Every checked-in config of tests/configs runs once under --strict and
writes a report that reads back; CI runs the same files twice and compares
the reports byte for byte."""

import os
from pathlib import Path

import pytest

from gtvfed import cli
from gtvfed.harness import load_report_json

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "tests" / "configs").glob("*.cfg"))


def test_the_ci_configs_are_checked_in():
    assert len(CONFIGS) == 20


@pytest.mark.filterwarnings("ignore:split leaves an empty side")
@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_config_runs_strict_and_reads_back(config, tmp_path, monkeypatch):
    # Paths inside a config are relative to the repository root.
    monkeypatch.chdir(ROOT)
    prefix = tmp_path / config.stem
    assert cli.main(["run", "--config", os.path.relpath(config, ROOT), "--out", str(prefix), "--strict"]) == 0
    report = load_report_json(f"{prefix}.json")
    assert report["summary"]["terminal"] == "max_iters"
    assert (tmp_path / f"{config.stem}.csv").stat().st_size > 0
