"""Every checked-in config of tests/configs runs once under --strict,
writes a report that reads back, and matches its digests in
tests/configs/digests.json; CI runs the same files twice and compares the
reports byte for byte."""

import json
import os
import warnings
from pathlib import Path

import pytest
from digests import MANIFEST, platform, report_digests

from gtvfed import cli
from gtvfed.harness import load_report_json

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "tests" / "configs").glob("*.cfg"))
DIGESTS = json.loads(MANIFEST.read_text())


def test_the_ci_configs_are_checked_in():
    assert len(CONFIGS) == 20


def test_the_digest_manifest_covers_exactly_the_configs():
    assert sorted(DIGESTS["reports"]) == sorted(config.stem for config in CONFIGS)


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
    # The exact bytes hold on the manifest's platform; elsewhere the values
    # at 9 significant digits and the verdicts must still hold.
    got, want = report_digests(prefix), DIGESTS["reports"][config.stem]
    if DIGESTS["platform"] == platform():
        assert (got["csv"], got["json"]) == (want["csv"], want["json"])
    else:
        warnings.warn(
            f"{config.stem}: exact report digests not compared; the manifest was written on "
            f"{DIGESTS['platform']}, this run is on {platform()}"
        )
    assert (got["rounded"], got["verdicts"]) == (want["rounded"], want["verdicts"])
