"""The benchmark's workloads: fixed shapes, inputs derived from one seed.

A workload is a dict of experiment parameters. `make(name, seed)` turns
the benchmark's `--seed` into a config seed and a config text for
`gtvfed run`. The checker regenerates the same inputs from the same dict,
so the dict, not the config parser, is the source of truth for both.

Seed derivation: candidate config seeds are drawn from
`numpy.random.SeedSequence([seed, workload index])`; the first candidate
whose generated graph is connected is used. Every experiment in a run uses
that one config seed, so every report of a run must be byte-identical.
"""

from __future__ import annotations

import numpy as np

from gtvfed import graph as graphmod
from gtvfed import seeds

# Shared by all workloads: per-node data layout and coupling.
COMMON = dict(d=5, m=10, noise=0.1, model="shared", split=0.2, alpha=1.0)

WORKLOADS = {
    # Dense oracle: two solve_direct calls on an nd = 1500 quadratic
    # dominate; the solver loop and the probes are cheap at record_every 50.
    "oracle_sync": dict(
        COMMON,
        index=0,
        n=300,
        p=8.0 / 299.0,
        algorithm="fedgd",
        mode="sync",
        max_iters=300,
        record_every=50,
    ),
    # Per-event probes: record_every 1 with Gaussian DP noise, so per-node
    # Python work (noise draws, metric probes, export rows) dominates.
    "probe_dp": dict(
        COMMON,
        index=1,
        n=200,
        p=8.0 / 199.0,
        algorithm="fedgd",
        mode="sync",
        max_iters=100,
        record_every=1,
        dp_sigma=0.01,
    ),
    # Defended async engine: partially-async FedRelax with poisoned
    # messages and trimmed aggregation; no batch path can run.
    "async_defended": dict(
        COMMON,
        index=2,
        n=200,
        p=0.1,
        algorithm="fedrelax",
        mode="partial",
        B=3,
        max_iters=100,
        record_every=10,
        victims=10,
        poison_value=1e3,
        trim_k=1,
    ),
}

# Candidate config seeds tried per benchmark seed before giving up.
_CANDIDATES = 64


def build_graph(w: dict, config_seed: int):
    """The graph `gtvfed run` generates for this workload and seed."""
    return graphmod.generate(
        "erdos_renyi", w["n"], weight=1.0, seed=seeds.stream(config_seed, "graph"), p=w["p"]
    )


def victims(w: dict, config_seed: int) -> list:
    """Poisoned nodes, drawn from the config seed."""
    rng = np.random.default_rng([config_seed, 7])
    return sorted(int(v) for v in rng.choice(w["n"], size=w["victims"], replace=False))


def config_text(w: dict, config_seed: int) -> str:
    lines = [
        f"seed = {config_seed}",
        f"record_every = {w['record_every']}",
        "graph.kind = erdos_renyi",
        f"graph.n = {w['n']}",
        f"graph.p = {w['p']!r}",
        f"data.d = {w['d']}",
        f"data.m_min = {w['m']}",
        f"data.m_max = {w['m']}",
        f"data.noise = {w['noise']!r}",
        f"data.model = {w['model']}",
        f"split.fraction = {w['split']!r}",
        f"algorithm.kind = {w['algorithm']}",
        f"algorithm.alpha = {w['alpha']!r}",
        f"async.mode = {w['mode']}",
        f"stop.max_iters = {w['max_iters']}",
    ]
    if w["mode"] == "partial":
        lines.append(f"async.B = {w['B']}")
    if "dp_sigma" in w:
        lines += ["dp.kind = gaussian", f"dp.sigma = {w['dp_sigma']!r}"]
    if "victims" in w:
        lines += [
            "attack.0.kind = model_poison",
            "attack.0.nodes = " + ",".join(map(str, victims(w, config_seed))),
            f"attack.0.value = {w['poison_value']!r}",
            "defense.kind = trimmed",
            f"defense.trim_k = {w['trim_k']}",
        ]
    return "\n".join(lines) + "\n"


def derive(w: dict, seed: int):
    """(config seed, config text) of workload dict w for a benchmark seed."""
    ss = np.random.SeedSequence([int(seed), w["index"]])
    for cand in ss.generate_state(_CANDIDATES, dtype=np.uint32):
        config_seed = int(cand)
        if graphmod.is_connected(build_graph(w, config_seed)):
            return config_seed, config_text(w, config_seed)
    raise RuntimeError(f"no connected graph among {_CANDIDATES} candidate seeds")


def make(name: str, seed: int):
    """(workload dict, config seed, config text) for a benchmark seed."""
    w = WORKLOADS[name]
    return (w, *derive(w, seed))
