"""Shared test plumbing: acceptance result registry and summary printing,
and hand-built async events."""

from contextlib import contextmanager

ACCEPTANCE_RESULTS = {}


@contextmanager
def acceptance(name):
    """Record a PASS/FAIL line for one acceptance criterion.

    The body's assertions decide the verdict; failures re-raise so pytest
    still reports them normally.
    """
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS[name] = "FAIL"
        raise
    ACCEPTANCE_RESULTS[name] = "PASS"


def event(active, refs):
    """An AsyncEvent from a list of active ids (repeats allowed) and a
    {node: refs} dict; a node without an entry has no refs."""
    import numpy as np

    from gtvfed.algorithms import AsyncEvent

    per_node = [tuple(refs.get(i, ())) for i in active]
    return AsyncEvent(
        np.array(active, dtype=np.int64),
        np.array([len(r) for r in per_node], dtype=np.int64),
        np.array([r for rs in per_node for r in rs], dtype=np.int64),
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{name}: {ACCEPTANCE_RESULTS[name]}")
