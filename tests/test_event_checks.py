"""The per-event bound checks report their worst recorded event after event 0.

At event 0 both bounds equal the measured distance, so that event only ever
gave a margin of exactly 0.
"""

import pytest

from gtvfed.cli import _summary_lines
from gtvfed.harness import parse_config, run_experiment

ER8 = """
seed = 4
data.d = 2
stop.max_iters = 30
graph.kind = erdos_renyi
graph.n = 8
graph.p = 0.6
"""
PARTIAL = ER8 + "algorithm.kind = fedrelax\nasync.mode = partial\nasync.B = 2\n"
DP = ER8 + "algorithm.kind = fedgd\ndp.kind = gaussian\ndp.sigma = 0.01\n"


def _check(rep, name):
    return next((c for c in rep.summary["bound_checks"] if c["name"] == name), None)


@pytest.mark.parametrize(("text", "name"), [(PARTIAL, "async_contraction"), (DP, "noisy_descent")])
def test_event_check_names_its_worst_event_after_the_first(text, name):
    rep = run_experiment(parse_config(text))
    row = _check(rep, name)
    events = sorted({r[0] for r in rep.rows})
    assert row["event"] in events[1:]
    assert row["holds"] and row["margin"] > 0.0
    if name == "noisy_descent":
        # The measured value is the oracle distance at that event.
        assert row["measured"] == next(r[6] for r in rep.rows if r[0] == row["event"])
    line = next(s for s in _summary_lines(rep.summary) if s.startswith(f"check {name}:"))
    assert line.endswith(f" event={row['event']}")


def test_event_check_is_left_out_when_only_event_0_is_recorded():
    rep = run_experiment(parse_config(PARTIAL + "stop.dist_tol = 1e9\n"))
    assert {r[0] for r in rep.rows} == {0}
    assert _check(rep, "async_contraction") is None
    assert _check(rep, "eig_upper") is not None


def test_checks_over_the_whole_problem_name_no_event():
    rep = run_experiment(parse_config(DP))
    assert all("event" not in c for c in rep.summary["bound_checks"] if c["name"] != "noisy_descent")
