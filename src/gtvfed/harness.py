"""Experiment orchestration: config parsing, runs, reports, and export.

Config files are flat ``key = value`` text. A ``#`` at the start of a line
or after whitespace starts a comment; elsewhere it is part of the value
(``graph.path = runs/a#b.txt``). CONFIG_KEYS states every key's parser,
default, allowed choices or range and help; ATTACK_KEYS does the same for
the ``attack.<i>.<field>`` keys, and CONFIG_RULES / ATTACK_RULES hold the
rules that tie keys together. The README's config reference mirrors them.

Exported CSV rows are ``event,node,objective,gtv,train_err,val_err,
dist_oracle``: objective is the node's local loss at its own block, gtv
and dist_oracle are run-level values repeated on each node row, and all
floats carry 12 significant digits. The JSON export mirrors the Report
with sorted keys and no timestamps, so identical (config, seed) pairs
produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from gtvfed import __version__, seeds
from gtvfed import graph as graphmod
from gtvfed import graphlearn
from gtvfed.algorithms import (
    async_bound,
    contraction_factor,
    default_step,
    fedavg_run,
    fedgd_op,
    fedprox_run,
    fedrelax_op,
    fedsgd_op,
    gen_partially_async,
    gen_totally_async,
    run_async,
    run_sync,
)
from gtvfed.graph import EmpGraph, as_blocks, is_connected
from gtvfed.gtvmin import (
    GTVMinProblem,
    SingularProblemError,
    clustered_bound,
    eig_bounds,
    objective_parts,
    ordered_total,
    quad_operator,
    sensitivity_bound,
    solve_direct,
    variation_bound,
)
from gtvfed.localmodel import (
    LocalDataset,
    NodeData,
    QuadStack,
    generate_local,
    load_dataset_csv,
)
from gtvfed.optim import DivergenceError, LRSchedule, StopRule, contraction, perturbed_bound
from gtvfed.trust import (
    AGG_KINDS,
    DATA_ATTACKS,
    MODEL_ATTACKS,
    NOISE_KINDS,
    AttackSpec,
    DPMechanism,
    RobustAgg,
    SenderRewrite,
    poison_dataset,
)

CSV_HEADER = ("event", "node", "objective", "gtv", "train_err", "val_err", "dist_oracle")

DATA_MODELS = ("shared", "clustered", "per_node")
SERVER_KINDS = ("fedavg", "fedprox")


class ConfigError(ValueError):
    """All configuration problems at once, one message per line."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class ExperimentConfig:
    seed: int = 0
    record_every: int = 1
    graph: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    algorithm: dict = field(default_factory=dict)
    async_spec: dict = field(default_factory=dict)
    stop: StopRule = field(default_factory=lambda: StopRule(max_iters=500))
    split_fraction: float = 0.2
    attacks: list = field(default_factory=list)
    defense: RobustAgg = field(default_factory=RobustAgg.mean)
    dp: DPMechanism | None = None
    text: str = ""


class EventColumns(NamedTuple):
    """A run's recorded metrics: event, gtv and dist of shape (E,), one entry
    per recorded event (dist NaN without an oracle), and objective,
    train_err and val_err of shape (E, n), one column per node."""

    event: np.ndarray
    gtv: np.ndarray
    dist: np.ndarray
    objective: np.ndarray
    train_err: np.ndarray
    val_err: np.ndarray


@dataclass(eq=False)
class Report:
    """A run's recorded metrics as EventColumns, plus a run summary and an
    environment stamp."""

    events: EventColumns
    summary: dict
    environment: dict

    @cached_property
    def rows(self) -> list:
        """One (event, node, objective, gtv, train_err, val_err, dist_oracle)
        tuple per recorded event and node, built from events on first use:
        event and node are Python ints, the five metrics Python floats."""
        e = self.events
        count, n = e.objective.shape
        event, gtv, dist = (np.repeat(col, n).tolist() for col in (e.event, e.gtv, e.dist))
        obj, e_t, e_v = (col.reshape(-1).tolist() for col in (e.objective, e.train_err, e.val_err))
        return list(zip(event, np.tile(np.arange(n), count).tolist(), obj, gtv, e_t, e_v, dist))

    def to_dict(self) -> dict:
        return {
            "rows": [list(r) for r in self.rows],
            "summary": self.summary,
            "environment": self.environment,
        }


def _float(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"must be finite, got {raw}")
    return val


def _floats(raw: str):
    return tuple(_float(v) for v in raw.split(","))


def _ints(raw: str):
    return tuple(int(v) for v in raw.split(","))


def _file(path: str) -> None:
    if not os.path.isfile(path):
        raise ValueError(f"no such file {path!r}")


def _dir(path: str) -> None:
    if not os.path.isdir(path):
        raise ValueError(f"no such directory {path!r}")


def _in_bounds(bounds: str, val) -> bool:
    if bounds[0] in "[(":
        lo, hi = (float(b) for b in bounds[1:-1].split(","))
        above = lo < val if bounds[0] == "(" else lo <= val
        return above and (val < hi if bounds[-1] == ")" else val <= hi)
    op, lo = bounds.split()
    return val > float(lo) if op == ">" else val >= float(lo)


@dataclass(frozen=True)
class Key:
    """One config key: parser, default (None: absent unless set), help text,
    and what an explicit value must satisfy: one of choices, bounds (">= 1",
    "> 0" or an interval such as "[0, 1)"), and check, which raises
    ValueError; for keys whose rule a constructor holds, check is that
    constructor."""

    parse: object
    default: object = None
    help: str = ""
    choices: tuple = ()
    bounds: str = ""
    check: object = None

    def read(self, raw: str):
        return self.accept(self.parse(raw))

    def accept(self, val):
        """val if it satisfies the key's choices, bounds and check."""
        if self.choices and val not in self.choices:
            raise ValueError(f"expected one of {', '.join(self.choices)}; got {val!r}")
        if self.bounds and not _in_bounds(self.bounds, val):
            verb = "lie in" if self.bounds[0] in "[(" else "be"
            raise ValueError(f"must {verb} {self.bounds}, got {val}")
        if self.check is not None:
            self.check(val)
        return val


CONFIG_KEYS = {
    "seed": Key(int, 0, "master seed; every random stream derives from it", bounds=">= 0"),
    "record_every": Key(int, 1, "metric sampling stride (rows, not stop checks)", bounds=">= 1"),
    "graph.kind": Key(str, None, "where the graph comes from", choices=graphmod.GENERATORS + ("file", "learned")),
    "graph.n": Key(int, None, "node count (generator kinds)", bounds=">= 1"),
    "graph.p": Key(_float, 0.3, "edge probability (erdos_renyi)", bounds="[0, 1]"),
    "graph.p_in": Key(_float, 0.8, "within-cluster probability (two_cluster)", bounds="[0, 1]"),
    "graph.p_out": Key(_float, 0.05, "between-cluster probability (two_cluster)", bounds="[0, 1]"),
    "graph.weight": Key(_float, 1.0, "edge weight for generators", bounds="> 0"),
    "graph.path": Key(str, None, "edge-list file (kind = file)", check=_file),
    "graph.discrepancies": Key(str, None, "discrepancy CSV (kind = learned)", check=_file),
    "graph.method": Key(str, "budget", "how a learned graph is fitted", choices=("budget", "degree")),
    "graph.budget": Key(_float, None, "ordered-pair weight budget (method = budget)", bounds=">= 0"),
    "graph.d_max": Key(_float, None, "target row sum (method = degree)", bounds=">= 0"),
    "data.kind": Key(str, "synthetic", "where the node datasets come from", choices=("synthetic", "csv")),
    "data.d": Key(int, None, "feature dimension (synthetic)", bounds=">= 1"),
    "data.m_min": Key(int, 10, "fewest samples per node (synthetic)", bounds=">= 1"),
    "data.m_max": Key(int, 10, "most samples per node (synthetic)"),
    "data.noise": Key(_float, 0.1, "label noise level (synthetic)", bounds=">= 0"),
    "data.model": Key(str, "shared", "truth layout (synthetic)", choices=DATA_MODELS),
    "data.dir": Key(str, None, "directory of node_<i>.csv files (kind = csv)", check=_dir),
    "data.ridge": Key(_float, 0.0, "ridge term added to every local loss", bounds=">= 0"),
    "algorithm.kind": Key(str, None, "solver", choices=("fedgd", "fedsgd", "fedrelax") + SERVER_KINDS),
    "algorithm.alpha": Key(_float, 1.0, "coupling strength", bounds=">= 0"),
    "algorithm.penalty": Key(str, "sq_norm", "coupling penalty the solvers implement", choices=("sq_norm",)),
    "algorithm.eta": Key(_float, None, "step size; default 1/(2 * upper eigenvalue bound)", bounds="> 0"),
    "algorithm.schedule": Key(str, "constant", "step-size schedule", choices=("constant", "diminishing")),
    "algorithm.batch": Key(int, None, "per-node batch size (fedsgd)", bounds=">= 1"),
    "algorithm.local_steps": Key(int, 1, "local steps per round (fedavg)", bounds=">= 1"),
    "algorithm.sample_size": Key(int, None, "clients per round, default all (fedavg/fedprox)", bounds=">= 1"),
    "async.mode": Key(str, "sync", "event schedule (fedgd/fedsgd/fedrelax)", choices=("sync", "partial", "total")),
    "async.B": Key(int, 5, "staleness/activity bound (partial)", bounds=">= 1"),
    "async.horizon": Key(int, None, "event count; default stop.max_iters", bounds=">= 1"),
    "async.p_active": Key(_float, 0.5, "activation probability per event", bounds="(0, 1]"),
    "stop.max_iters": Key(int, 500, "iteration budget", check=StopRule),
    "stop.obj_tol": Key(_float, None, "stop on objective change", check=lambda v: StopRule(0, obj_tol=v)),
    "stop.dist_tol": Key(_float, None, "stop on distance to the direct solution", check=lambda v: StopRule(0, dist_tol=v)),
    "split.fraction": Key(_float, 0.2, "held-out validation share per node", bounds="[0, 1)"),
    "defense.kind": Key(str, "mean", "aggregation rule (fedgd/fedrelax)", choices=AGG_KINDS),
    "defense.tau_l": Key(_float, 0.0, "lower clipping bound (clipped)"),
    "defense.tau_u": Key(_float, 0.0, "upper clipping bound (clipped)"),
    "defense.trim_k": Key(int, 1, "entries trimmed from each end (trimmed)", check=RobustAgg.trimmed),
    "dp.kind": Key(str, "none", "noise mechanism", choices=("none",) + NOISE_KINDS),
    "dp.sigma": Key(_float, 0.0, "noise scale (gaussian)", check=lambda v: DPMechanism("gaussian", sigma=v)),
    "dp.b": Key(_float, 0.0, "noise scale (laplace)", check=lambda v: DPMechanism("laplace", b=v)),
}

# The fields of attack.<i>.<field> keys.
ATTACK_KEYS = {
    "kind": Key(str, None, "attack type", choices=DATA_ATTACKS + MODEL_ATTACKS),
    "nodes": Key(_ints, None, "comma-separated victim ids"),
    "fraction": Key(_float, 0.0, "poisoned row share (data attacks)", bounds="[0, 1]"),
    "label_delta": Key(_float, 0.0, "label shift"),
    "feature_delta": Key(_floats, None, "comma-separated feature-row shift (feature_poison)"),
    "trigger_delta": Key(_floats, None, "comma-separated backdoor trigger pattern"),
    "target_label": Key(_float, 0.0, "backdoor target"),
    "value": Key(_float, None, "replacement block value (model_poison)"),
}


@dataclass(frozen=True)
class Rule:
    """A rule tying keys together. It applies where every `when` key holds
    one of its listed values; then holds(values) must be true, or key is
    reported with message. holds None means key must be set; a ValueError
    from holds supplies the message."""

    key: str
    when: dict = field(default_factory=dict)
    holds: object = None
    message: str = ""


CONFIG_RULES = (
    Rule("graph.kind"),
    Rule("algorithm.kind"),
    Rule("graph.n", {"graph.kind": graphmod.GENERATORS}),
    Rule("graph.path", {"graph.kind": ("file",)}),
    Rule("graph.discrepancies", {"graph.kind": ("learned",)}),
    Rule("graph.budget", {"graph.kind": ("learned",), "graph.method": ("budget",)}),
    Rule("graph.d_max", {"graph.kind": ("learned",), "graph.method": ("degree",)}),
    Rule("data.d", {"data.kind": ("synthetic",)}),
    Rule("data.dir", {"data.kind": ("csv",)}),
    Rule("data.m_max", {}, lambda v: v["data.m_max"] >= v["data.m_min"], "must be >= data.m_min"),
    Rule("algorithm.batch", {"algorithm.kind": ("fedsgd",)}),
    Rule("algorithm.eta", {"algorithm.kind": SERVER_KINDS}),
    Rule("algorithm.eta", {"algorithm.schedule": ("diminishing",)}),
    Rule(
        "async.mode", {"algorithm.kind": SERVER_KINDS}, lambda v: v["async.mode"] == "sync",
        "fedavg and fedprox are server algorithms and run sync only",
    ),
    Rule(
        "algorithm.schedule", {"algorithm.kind": ("fedprox",)},
        lambda v: v["algorithm.schedule"] == "constant", "fedprox takes one fixed proximal step",
    ),
    Rule(
        "defense.kind", {"algorithm.kind": ("fedsgd",) + SERVER_KINDS},
        lambda v: v["defense.kind"] == "mean", "robust aggregation applies to fedgd and fedrelax only",
    ),
    Rule(
        "defense.tau_l", {"defense.kind": ("clipped",)},
        lambda v: RobustAgg.clipped(v["defense.tau_l"], v["defense.tau_u"]),
    ),
)

ATTACK_RULES = (
    Rule("kind"),
    Rule("nodes"),
    Rule("feature_delta", {"kind": ("feature_poison",)}),
    Rule("value", {"kind": ("model_poison",)}),
)

_ATTACK_KEY = re.compile(r"^attack\.(\d+)\.([a-z_]+)$")
# A comment starts at a '#' that begins the line or follows whitespace, so
# values such as paths may contain '#'.
_COMMENT = re.compile(r"(?:^|\s)#")


def _broken(rules, v, prefix="", failed=()):
    """The errors of the rules that apply to the values v and fail. A key in
    failed already has an error for its line, so it is not also missing."""
    errors = []
    for rule in rules:
        if any(v[k] not in allowed for k, allowed in rule.when.items()):
            continue
        message = rule.message
        if rule.holds is None:
            ok = v[rule.key] is not None or prefix + rule.key in failed
            message = " and ".join(f"{prefix}{k} = {v[k]}" for k in rule.when)
            message = f"required for {message}" if message else "required"
        else:
            try:
                ok = rule.holds(v)
            except ValueError as exc:
                ok, message = False, str(exc)
        if not ok:
            errors.append(f"{prefix}{rule.key}: {message}")
    return errors


def parse_config(text: str) -> ExperimentConfig:
    """Validated config from flat key-value text; collects every error."""
    errors, values, failed = [], {}, set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        m = _ATTACK_KEY.match(key)
        if m:
            key = f"attack.{int(m.group(1))}.{m.group(2)}"
        spec = ATTACK_KEYS.get(m.group(2)) if m else CONFIG_KEYS.get(key)
        if not eq:
            problem = "expected 'key = value'"
        elif not val:
            problem = f"key {key!r} has no value"
        elif spec is None:
            problem = f"unknown attack field {m.group(2)!r}" if m else f"unknown key {key!r}"
        elif key in values:
            problem = f"duplicate key {key!r}"
        else:
            try:
                values[key] = spec.read(val)
                continue
            except ValueError as exc:
                problem = f"{key}: {exc}"
        errors.append(f"line {lineno}: {problem}")
        failed.add(key)

    v = {key: values.get(key, spec.default) for key, spec in CONFIG_KEYS.items()}
    errors += _broken(CONFIG_RULES, v, failed=failed)
    attacks = []
    for idx in sorted({int(m.group(1)) for m in map(_ATTACK_KEY.match, values) if m}):
        a = {f: values.get(f"attack.{idx}.{f}", spec.default) for f, spec in ATTACK_KEYS.items()}
        errors += _broken(ATTACK_RULES, a, f"attack.{idx}.", failed)
        attacks.append(a)
    if errors:
        raise ConfigError(errors)

    group = lambda prefix: {
        k.split(".", 1)[1]: val for k, val in v.items() if k.startswith(prefix + ".")
    }
    return ExperimentConfig(
        seed=v["seed"],
        record_every=v["record_every"],
        graph=group("graph"),
        data=group("data"),
        algorithm=group("algorithm"),
        async_spec=group("async"),
        stop=StopRule(**group("stop")),
        split_fraction=v["split.fraction"],
        attacks=attacks,
        defense=RobustAgg(**group("defense")),
        dp=None if v["dp.kind"] == "none" else DPMechanism(**group("dp"), seed=v["seed"]),
        text=text,
    )


def build_graph(cfg: ExperimentConfig) -> EmpGraph:
    g = cfg.graph
    kind = g["kind"]
    if kind == "file":
        return graphmod.load_edge_list(g["path"])
    if kind == "learned":
        D = graphlearn.load_discrepancy_csv(g["discrepancies"])
        if g["method"] == "budget":
            return graphlearn.learn_graph_budget(D, g["budget"])
        return graphlearn.learn_graph_degree(D, g["d_max"])
    return graphmod.generate(
        kind,
        g["n"],
        weight=g["weight"],
        seed=seeds.stream(cfg.seed, "graph"),
        p=g["p"],
        p_in=g["p_in"],
        p_out=g["p_out"],
    )


def _check_trim_degrees(cfg: ExperimentConfig, g: EmpGraph) -> None:
    """Reject a trimmed defence that some aggregating node cannot apply.

    Trimming trim_k values from each end needs more than 2 trim_k neighbour
    blocks. Nodes without neighbours never aggregate, and no node does
    without coupling (alpha = 0).
    """
    if cfg.defense.kind != "trimmed" or cfg.algorithm["alpha"] == 0.0:
        return
    k = cfg.defense.trim_k
    counts = np.diff(g.indptr)
    short = np.flatnonzero((counts > 0) & (counts <= 2 * k))
    if short.size:
        i = int(short[0])
        more = f" ({short.size - 1} more nodes too)" if short.size > 1 else ""
        raise ConfigError([
            f"defense.trim_k: node {i} has {counts[i]} neighbours, but "
            f"trim_k = {k} needs more than {2 * k} at every node that aggregates{more}"
        ])


def gen_node_datasets(n, dim, m_min, m_max, noise, model, seed):
    """Seeded per-node linear datasets under a truth layout.

    model picks the ground-truth vectors: shared (one for all nodes),
    clustered (one per half, first ceil(n/2) nodes form cluster A), or
    per_node. Returns (datasets, truth vectors).
    """
    if model not in DATA_MODELS:
        raise ValueError(f"unknown data model {model!r}; expected one of {DATA_MODELS}")
    rng = seeds.stream(seed, "data")
    if model == "shared":
        shared = rng.standard_normal(dim)
        wbars = [shared] * n
    elif model == "clustered":
        half = (n + 1) // 2
        wa = rng.standard_normal(dim)
        wb = rng.standard_normal(dim)
        wbars = [wa if i < half else wb for i in range(n)]
    else:
        wbars = [rng.standard_normal(dim) for _ in range(n)]
    ms = rng.integers(int(m_min), int(m_max) + 1, size=n)
    datasets = [
        generate_local(wbars[i], int(ms[i]), noise, node_rng)
        for i, node_rng in enumerate(seeds.streams(seed, "data", n))
    ]
    return datasets, wbars


def gen_node_data(n, dim, m_min, m_max, noise, model, seed):
    """gen_node_datasets as stacks: (NodeData, (n, dim) truth rows).

    The draws are those of gen_node_datasets in the same order: the truth
    vectors and sample counts from the data stream, then each node's
    features and noise from its own stream, written straight into its
    group's rows. The labels X w_bar + noise are one stacked product per
    group, whose slices take the gemv a per-node product makes.
    """
    if model not in DATA_MODELS:
        raise ValueError(f"unknown data model {model!r}; expected one of {DATA_MODELS}")
    rng = seeds.stream(seed, "data")
    if model == "shared":
        wbars = np.tile(rng.standard_normal(dim), (n, 1))
    elif model == "clustered":
        wa = rng.standard_normal(dim)
        wb = rng.standard_normal(dim)
        wbars = np.where((np.arange(n) < (n + 1) // 2)[:, None], wa, wb)
    else:
        # One call draws the values of n calls of dim each.
        wbars = rng.standard_normal((n, dim))
    ms = rng.integers(int(m_min), int(m_max) + 1, size=n)
    if (ms < 0).any():
        raise ValueError(f"sample count must be nonnegative, got {ms.min()}")
    if float(noise) < 0.0:
        raise ValueError(f"noise level must be nonnegative, got {noise}")
    data = NodeData.allocate(dim, ms)
    for (X, y), node_rng in zip(data.rows(), seeds.streams(seed, "data", n)):
        node_rng.standard_normal(out=X)
        node_rng.standard_normal(out=y)
    for _, idx, X, y in data.groups:
        y[...] = (X @ wbars[idx][:, :, None])[:, :, 0] + y * float(noise)
    return data, wbars


def build_data(cfg: ExperimentConfig, n: int):
    """Every node's dataset as a NodeData, plus generator metadata (truth
    vectors, noise)."""
    d = cfg.data
    if d["kind"] == "csv":
        datasets = []
        for i in range(n):
            path = os.path.join(d["dir"], f"node_{i}.csv")
            if not os.path.isfile(path):
                raise ConfigError([f"data.dir: missing dataset file {path!r}"])
            datasets.append(load_dataset_csv(path))
        try:
            data = NodeData.from_datasets(datasets)
        except ValueError:
            raise ConfigError(["data: node datasets disagree on the feature dimension"]) from None
        return data, {"model": None, "noise": None, "wbars": None}
    data, wbars = gen_node_data(
        n, d["d"], d["m_min"], d["m_max"], d["noise"], d["model"], cfg.seed
    )
    return data, {"model": d["model"], "noise": d["noise"], "wbars": wbars}


def split_dataset(ds: LocalDataset, fraction: float, seed):
    """Seeded (train, validation) split with floor(fraction * m) held out."""
    fraction = float(fraction)
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"split fraction must lie in [0, 1), got {fraction}")
    rng = seeds.as_rng(seed)
    m_val = int(math.floor(fraction * ds.m))
    perm = rng.permutation(ds.m)
    val_idx = np.sort(perm[:m_val])
    train_idx = np.sort(perm[m_val:])
    return (
        LocalDataset(ds.X[train_idx], ds.y[train_idx]),
        LocalDataset(ds.X[val_idx], ds.y[val_idx]),
    )


def split_data(data: NodeData, fraction: float, seed):
    """split_dataset at every node, as (train, validation) NodeData.

    Node i's permutation comes from stream(seed, "data", i, 1), drawn in
    node order as the per-node splits draw it; the kept rows are then
    gathered per sample-count group, and sides of equal size share a group.
    """
    fraction = float(fraction)
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"split fraction must lie in [0, 1), got {fraction}")
    perms = [np.empty((idx.shape[0], m), dtype=np.int64) for m, idx, _, _ in data.groups]
    rows = [None] * data.n
    for (_, idx, _, _), perm in zip(data.groups, perms):
        for i, row in zip(idx.tolist(), perm):
            rows[i] = row
    for row, rng in zip(rows, seeds.streams(seed, "data", data.n, 1)):
        row[:] = rng.permutation(row.shape[0])
    train, val = [], []
    for (m, idx, X, y), perm in zip(data.groups, perms):
        m_val = int(math.floor(fraction * m))
        for side, cols in ((val, perm[:, :m_val]), (train, perm[:, m_val:])):
            cols = np.sort(cols, axis=1)
            gathered = (np.take_along_axis(X, cols[:, :, None], axis=1), np.take_along_axis(y, cols, axis=1))
            side.append((cols.shape[1], idx, *gathered))
    return NodeData(data.d, train), NodeData(data.d, val)


def _warn_empty_sides(train: NodeData, val: NodeData, fraction: float) -> None:
    """One warning for the nodes whose split leaves the training side, or at
    a positive fraction the validation side, empty: those metrics read NaN."""
    empty = np.flatnonzero((train.sizes == 0) | ((val.sizes == 0) & (fraction > 0.0)))
    if empty.size:
        message = f"at {empty.size} of {train.n} nodes (first: node {empty[0]}); metrics absent"
        warnings.warn("split leaves an empty side " + message, stacklevel=3)


def _sq_err(ds: LocalDataset, w) -> float:
    # Reference kernel of SqErrors, kept for the tests.
    if ds.m == 0:
        return float("nan")
    r = ds.X @ w - ds.y
    return float(r @ r / ds.m)


class SqErrors:
    """Mean squared error of every node's dataset at the node's own block.

    The datasets, a NodeData or a sequence stacked into one, are grouped
    by sample count, so one call costs a few batched products. Entry i
    equals _sq_err(datasets[i], W[i]) bit for bit: numpy's matmul hands
    each stacked slice to the same BLAS gemv and dot the per-node products
    call. An empty dataset reads NaN.
    """

    def __init__(self, datasets):
        if not isinstance(datasets, NodeData):
            datasets = NodeData.from_datasets(datasets)
        self.n = datasets.n
        self.groups = [group for group in datasets.groups if group[0] > 0]

    def __call__(self, W) -> np.ndarray:
        W = np.asarray(W, dtype=float)
        out = np.full(self.n, np.nan)
        for m, idx, X, y in self.groups:
            r = (X @ W.take(idx, axis=0)[:, :, None])[:, :, 0] - y
            out[idx] = (r[:, None, :] @ r[:, :, None])[:, 0, 0] / m
        return out


def train_val_report(datasets, blocks, split: float, seed=0):
    """Per-node average squared errors on a seeded train/validation split.

    blocks is an (n, d) array, or one 1-D block that every node shares.
    Returns (E_t, E_v) arrays; a split that leaves one side of some node
    empty raises a warning and marks that side's entry NaN.
    """
    split = float(split)
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must lie in (0, 1), got {split}")
    data = NodeData.from_datasets(datasets)
    if np.ndim(blocks) == 1:
        blocks = np.tile(blocks, (data.n, 1))
    blocks = as_blocks(blocks)
    if data.n != blocks.shape[0]:
        raise ValueError(f"got {data.n} datasets for {blocks.shape[0]} blocks")
    train, val = split_data(data, split, seed)
    _warn_empty_sides(train, val, split)
    return SqErrors(train)(blocks), SqErrors(val)(blocks)


def _attack_seed(master: int, idx: int, node: int) -> int:
    return int(seeds.stream(master, "attacks", idx, node).integers(0, 2**63))


def _apply_data_attacks(cfg: ExperimentConfig, train: NodeData) -> None:
    """Poison the victims' rows of the training stacks in place."""
    for idx, a in enumerate(cfg.attacks):
        if a["kind"] not in DATA_ATTACKS:
            continue
        for node in a["nodes"]:
            if not 0 <= node < train.n:
                raise ConfigError([f"attack.{idx}.nodes: node {node} out of range"])
            for key in ("feature_delta", "trigger_delta"):
                if a[key] is not None and len(a[key]) != train.d:
                    raise ConfigError([
                        f"attack.{idx}.{key}: needs {train.d} values, one per "
                        f"feature, got {len(a[key])}"
                    ])
            spec = AttackSpec(
                kind=a["kind"],
                victims=(node,),
                fraction=a["fraction"],
                label_delta=a["label_delta"],
                feature_delta=a["feature_delta"],
                trigger_delta=a["trigger_delta"],
                target_label=a["target_label"],
                seed=_attack_seed(cfg.seed, idx, node),
            )
            rows = train.dataset(node)
            poisoned = poison_dataset(rows, spec)
            rows.X[...], rows.y[...] = poisoned.X, poisoned.y


def _message_rewrite(cfg: ExperimentConfig, d: int, n: int):
    """The run's message attacks as one SenderRewrite, None without any."""
    specs = []
    for idx, a in enumerate(cfg.attacks):
        if a["kind"] not in MODEL_ATTACKS:
            continue
        bad = [v for v in a["nodes"] if not 0 <= v < n]
        if bad:
            raise ConfigError([f"attack.{idx}.nodes: node {bad[0]} out of range"])
        replacement = None
        if a["kind"] == "model_poison":
            replacement = np.full(d, float(a["value"]))
        specs.append(AttackSpec(kind=a["kind"], victims=tuple(a["nodes"]), replacement=replacement))
    return SenderRewrite.from_specs(specs, n, d) if specs else None


def _dp_hook(mech: DPMechanism):
    def noise(k, blocks):
        Z = mech.draw_block(k, *blocks.shape)
        blocks += Z
        # Per-node z @ z through the same dot kernel, summed in node order.
        return math.sqrt(ordered_total((Z[:, None, :] @ Z[:, :, None]).reshape(-1)))

    return noise


def _check_row(name, measured, bound, slack=None, lower=False):
    """A check's report row; slack defaults to 1e-9 relative to the bound."""
    measured, bound = float(measured), float(bound)
    if slack is None:
        slack = 1e-9 * (1.0 + abs(bound))
    margin = measured - bound if lower else bound - measured
    return {
        "name": name,
        "measured": measured,
        "bound": bound,
        "margin": margin,
        "holds": bool(margin >= -slack),
    }


def _worst(rows):
    """The row with the smallest margin, the first of equals; None for none."""
    return min(rows, key=lambda row: row["margin"], default=None)


def _accepted(measure, *args):
    """measure(*args), or None where a bound function rejects the problem
    (ValueError, which GraphError and SingularProblemError subclass)."""
    try:
        return measure(*args)
    except ValueError:
        return None


def _consensus_dev(blocks) -> float:
    mean = blocks.mean(axis=0)
    return float(np.sum((blocks - mean) ** 2))


def _noise_sq(data: NodeData, wbars) -> np.ndarray:
    """Per node, np.sum((y - X @ wbars[i]) ** 2) of its rows; a stacked
    row sum adds pairwise as np.sum of one node's vector does."""
    out = np.zeros(data.n)
    for _, idx, X, y in data.groups:
        r = y - (X @ wbars[idx][:, :, None])[:, :, 0]
        out[idx] = np.sum(r**2, axis=1)
    return out


def _bound_checks(cfg, g, p, oracle_w, trace, train, meta, eta):
    """One row per analytic check that applies to the run, in report order.

    Each check's bound function owns its scope (alpha > 0, n >= 2, lam2 > 0,
    sample counts, a positive-definite average loss, a contraction factor
    below 1) and a check it rejects is left out. The conditions tested here
    are the run-level ones no bound function sees. train is the training
    NodeData and eta the constant step size, None under a diminishing
    schedule.
    """
    quad = quad_operator(p)
    lam_min, lam_max = quad.extreme_eigenvalues()
    b = eig_bounds(p)
    sizes = train.sizes
    filled = bool((sizes >= 1).all())
    oracle = oracle_w is not None
    # The consensus bounds assume the oracle fits the truth model's data unridged.
    truth = meta["model"] if oracle and cfg.data["ridge"] == 0.0 else None
    kind, mode = cfg.algorithm["kind"], cfg.async_spec["mode"]
    clean = oracle and not cfg.attacks and cfg.defense.kind == "mean"

    def noise_sq(nodes):
        return _noise_sq(train, meta["wbars"])[nodes].tolist()

    def eig_upper():
        return _check_row("eig_upper", lam_max, b.upper)

    def eig_lower():
        return _check_row("eig_lower", lam_min, b.lower, lower=True)

    def variation():
        bound = variation_bound(p, noise_sq(slice(None)), sizes)
        return _check_row("variation", _consensus_dev(oracle_w), bound)

    def cluster_row(cluster, radius):
        wbar = meta["wbars"][cluster[0]]
        sub_sizes = sizes[cluster]
        bound = clustered_bound(p, cluster, noise_sq(cluster), sub_sizes, float(wbar @ wbar), radius)
        return _check_row("clustered_variation", _consensus_dev(oracle_w[cluster]), bound)

    def clustered_variation():
        half = (p.n + 1) // 2
        radius = float(np.max(np.linalg.norm(oracle_w, axis=1)))
        # Cluster A is the first ceil(n/2) nodes; with n = 1, B is empty.
        clusters = [c for c in (list(range(half)), list(range(half, p.n))) if c]
        rows = [_accepted(cluster_row, c, radius) for c in clusters]
        return _worst(row for row in rows if row is not None)

    def label_sensitivity():
        # One draw gives the values of one draw per node in node order.
        perts = 0.1 * seeds.stream(cfg.seed, "attacks", 2**20).standard_normal(int(sizes.sum()))
        starts = np.cumsum(sizes) - sizes
        bound = sensitivity_bound(p, np.split(perts, starts[1:]))
        # Shifted labels keep X, hence every Q_i: only the linear terms
        # -2/m X'y move (as QuadStack.from_data computes them).
        shifted = np.empty((p.n, p.d))
        for m, idx, X, y in train.groups:
            e = perts[starts[idx][:, None] + np.arange(m)]
            shifted[idx] = -2.0 / m * (np.swapaxes(X, 1, 2) @ (y + e)[:, :, None])[:, :, 0]
        moved = quad.solve(shifted)
        return _check_row("label_sensitivity", np.sum((moved - oracle_w) ** 2), bound)

    # At event 0 both event bounds equal the measured distance, so these
    # checks take the worst later event and name it in the row.
    def async_contraction():
        kappa, B, dists = contraction_factor(p), cfg.async_spec["B"], trace.extras["maxdist"]
        return _worst(
            dict(_check_row("async_contraction", dist, async_bound(kappa, B, k, dists[0]), 1e-6), event=k)
            for k, dist in zip(trace.ks[1:], dists[1:])
        )

    def noisy_descent():
        kappa, norms = contraction(eta, lam_min, lam_max), trace.extras["noise_norms"]
        return _worst(
            dict(_check_row("noisy_descent", dist, perturbed_bound(kappa, trace.dists[0], norms[:k])), event=k)
            for k, dist in zip(trace.ks[1:], trace.dists[1:])
        )

    table = (
        (True, eig_upper),
        (b.lower is not None, eig_lower),
        (truth == "shared", variation),
        (
            truth == "clustered" and cfg.graph["kind"] == "two_cluster" and filled
            and is_connected(g),
            clustered_variation,
        ),
        (oracle and filled, label_sensitivity),
        (clean and cfg.dp is None and kind == "fedrelax" and mode == "partial", async_contraction),
        (
            clean and cfg.dp is not None and kind == "fedgd" and mode == "sync"
            and cfg.record_every == 1 and eta is not None
            and bool(trace.extras.get("noise_norms")),
            noisy_descent,
        ),
    )
    rows = (_accepted(measure) for applies, measure in table if applies)
    return [row for row in rows if row is not None]


def _nanmean(values) -> float:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or np.all(np.isnan(arr)):
        return float("nan")
    return float(np.nanmean(arr))


class _Probes:
    """The per-event probes of a run, vectorized over the nodes; a server
    run probes its global block repeated at every node.

    objective(blocks) evaluates the node losses and the coupling penalty;
    metrics(k, blocks) reuses them when it sees the same block values,
    which _Recorder.observe passes right after on every sampled event.
    """

    def __init__(self, p, train, val, oracle_blocks):
        self.p = p
        self.train_err = SqErrors(train)
        self.val_err = SqErrors(val)
        self.oracle = oracle_blocks
        self._last = None

    def objective(self, blocks) -> float:
        objs, gtv, total = objective_parts(self.p, blocks)
        self._last = (np.array(blocks, dtype=float), objs, gtv)
        return total

    def metrics(self, k, blocks) -> dict:
        last = self._last
        if last is not None and np.array_equal(last[0], blocks):
            _, objs, gtv = last
        else:
            objs, gtv, _ = objective_parts(self.p, blocks)
        out = {
            "node_objs": objs,
            "gtv": gtv,
            "train_err": self.train_err(blocks),
            "val_err": self.val_err(blocks),
        }
        if self.oracle is not None:
            out["maxdist"] = float(np.max(np.linalg.norm(blocks - self.oracle, axis=1)))
        return out


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Build the configured problem, run the algorithm, report metrics.

    The summary marks the run converged when a tolerance rule stopped it or
    the final distance-to-oracle is at most 1e-6, flags overfitting when the
    mean validation error exceeds five times the mean training error, and
    carries one row per analytic check whose preconditions held. A run the
    engine stops with DivergenceError still yields a report: its rows up to
    the blow-up, terminal "diverged", no bound checks, and a "divergence"
    entry naming the event and node (null for the server's global block).
    """
    g = build_graph(cfg)
    _check_trim_degrees(cfg, g)
    data, meta = build_data(cfg, g.n)
    frac = cfg.split_fraction
    train, val = split_data(data, frac, cfg.seed)
    _warn_empty_sides(train, val, frac)
    _apply_data_attacks(cfg, train)
    stack = QuadStack.from_data(train, cfg.data["ridge"])

    server = cfg.algorithm["kind"] in SERVER_KINDS
    # A server run evaluates every node at the one global block. That state
    # is a consensus, so the probes at alpha = 0 give the sum of the node
    # losses and a zero gtv.
    p = GTVMinProblem(g, stack, 0.0 if server else cfg.algorithm["alpha"])
    run = _run_server if server else _run_graph
    checks, divergence = [], None
    try:
        trace, checks = run(cfg, p, _schedule(cfg.algorithm, p), train, val, meta)
    except DivergenceError as exc:
        # The server's one row is the global block, not a node.
        trace, divergence = exc.trace, {"event": exc.event, "node": None if server else exc.node}
    return _make_report(cfg, trace, checks, meta, g.n, divergence)


def _schedule(algo, p) -> LRSchedule:
    """The configured step schedule; without algorithm.eta, which only a
    constant schedule may omit, the step is algorithms.default_step(p)."""
    eta = algo["eta"]
    return LRSchedule(algo["schedule"], default_step(p) if eta is None else eta)


def _run_graph(cfg, p, sched, train, val, meta):
    """Run a message-passing solver on p; returns (trace, check rows)."""
    kind, g, n, d = cfg.algorithm["kind"], p.graph, p.n, p.d
    agg = None if cfg.defense.kind == "mean" else cfg.defense
    if kind == "fedgd":
        ops = fedgd_op(p, sched=sched, agg=agg)
    elif kind == "fedsgd":
        ops = fedsgd_op(p, cfg.algorithm["batch"], cfg.seed, sched=sched)
    else:
        ops = fedrelax_op(p, agg=agg)

    try:
        oracle_w = solve_direct(p)
    except (SingularProblemError, ValueError):
        oracle_w = None
    probes = _Probes(p, train, val, oracle_w)
    common = dict(
        objective=probes.objective,
        oracle=oracle_w,
        metrics=probes.metrics,
        rewrite=_message_rewrite(cfg, d, n),
        noise=_dp_hook(cfg.dp) if cfg.dp is not None else None,
        record_every=cfg.record_every,
    )
    w0 = np.zeros((n, d))
    mode = cfg.async_spec["mode"]
    if mode == "sync":
        _, trace = run_sync(ops, w0, cfg.stop, **common)
    else:
        horizon = cfg.async_spec["horizon"] or max(cfg.stop.max_iters, 1)  # one event at least
        if mode == "partial":
            # No partial event depends on the horizon: draw only those that run.
            schedule = gen_partially_async(
                g, cfg.async_spec["B"], max(min(horizon, cfg.stop.max_iters), 1),
                seeds.stream(cfg.seed, "schedule"), p_active=cfg.async_spec["p_active"],
            )
        else:
            # The last event of a total schedule forces never-seen nodes active.
            schedule = gen_totally_async(
                g, horizon, seeds.stream(cfg.seed, "schedule"),
                p_active=cfg.async_spec["p_active"],
            )
        _, trace = run_async(ops, w0, schedule, stop=cfg.stop, **common)
    const_eta = sched.eta if sched.kind == "constant" else None
    return trace, _bound_checks(cfg, g, p, oracle_w, trace, train, meta, const_eta)


def _run_server(cfg, p, sched, train, val, meta):
    """Run FedAvg or FedProx on p's losses; returns (trace, no check rows).

    The server adds no noise and sends no graph messages, so a DP mechanism
    or a message attack, which it would ignore, is rejected.
    """
    algo = cfg.algorithm
    kind, n, d = algo["kind"], p.n, p.d
    sample = algo["sample_size"] or n
    errors = [f"algorithm.sample_size: {sample} exceeds the {n} nodes"] if sample > n else []
    ignored = [("dp.kind", cfg.dp.kind)] if cfg.dp is not None else []
    ignored += [
        (f"attack.{i}.kind", a["kind"]) for i, a in enumerate(cfg.attacks) if a["kind"] in MODEL_ATTACKS
    ]
    for key, value in ignored:
        errors.append(f"{key}: {value} applies to fedgd, fedsgd and fedrelax only; {kind} would ignore it")
    if errors:
        raise ConfigError(errors)

    Qp, qp = ordered_total(p.stack.Qs), ordered_total(p.stack.qs)
    oracle = np.linalg.solve(2.0 * Qp, -qp) if float(np.linalg.eigvalsh(Qp)[0]) > 1e-10 else None
    probes = _Probes(p, train, val, None)
    spread = lambda w: np.repeat(np.reshape(w, (1, d)), n, axis=0)
    common = dict(
        objective=lambda w: probes.objective(spread(w)),
        oracle=oracle,
        w0=np.zeros(d),
        metrics=lambda k, w: probes.metrics(k, spread(w)),
        record_every=cfg.record_every,
    )
    if kind == "fedavg":
        _, trace = fedavg_run(
            p.losses, n, algo["local_steps"], sample, sched, cfg.stop, cfg.seed, **common
        )
    else:
        _, trace = fedprox_run(p.losses, n, sample, sched.eta, cfg.stop, cfg.seed, **common)
    return trace, []


def _make_report(cfg, trace, checks, meta, n, divergence):
    """The report of a run: its recorded metrics as EventColumns, converted
    from the trace, and its summary. events is the last event run: the last
    recorded one, or the divergence event of a run that blew up; the
    final_* values are those of the last recorded event."""
    count = len(trace.ks)
    per_node = lambda key: np.asarray(trace.extras.get(key, ()), dtype=float).reshape(count, n)
    columns = EventColumns(
        event=np.asarray(trace.ks, dtype=np.int64),
        gtv=np.asarray(trace.extras.get("gtv", ()), dtype=float),
        dist=np.array([np.nan if dist is None else dist for dist in trace.dists], dtype=float),
        objective=per_node("node_objs"),
        train_err=per_node("train_err"),
        val_err=per_node("val_err"),
    )
    if divergence is not None:
        events = int(divergence["event"])
    else:
        events = int(trace.ks[-1]) if trace.ks else 0
    final_dist = trace.dists[-1] if trace.dists else None
    final_obj = trace.objectives[-1] if trace.objectives else None
    train_mean = _nanmean(columns.train_err[-1:])
    val_mean = _nanmean(columns.val_err[-1:])
    overfit = bool(
        np.isfinite(train_mean)
        and np.isfinite(val_mean)
        and val_mean > 5.0 * train_mean + 1e-9
    )
    converged = trace.terminal in ("dist_tol", "obj_tol") or (
        final_dist is not None and final_dist <= 1e-6
    )
    baseline = None
    if meta.get("noise") is not None and cfg.data["kind"] == "synthetic":
        baseline = float(meta["noise"]) ** 2
    summary = {
        "algorithm": cfg.algorithm["kind"],
        "baseline_err": baseline,
        "bound_checks": checks,
        "converged": bool(converged),
        "events": events,
        "final_dist": None if final_dist is None else float(final_dist),
        "final_objective": None if final_obj is None else float(final_obj),
        "final_train_err": train_mean,
        "final_val_err": val_mean,
        "n": int(n),
        "overfit": overfit,
        "terminal": trace.terminal,
    }
    if divergence is not None:
        summary["divergence"] = divergence
    environment = {
        "config_sha256": hashlib.sha256(cfg.text.encode("utf-8")).hexdigest(),
        "package_version": __version__,
        "seed": int(cfg.seed),
    }
    return Report(events=columns, summary=summary, environment=environment)


# The rows of one event share its event, gtv and dist: export fills one
# template with them per event, so a row formats only its node id and its
# own three floats. In JSON the layout is that of json.dump(..., indent=2)
# two levels deep, and a number is its repr except for nan and +-inf, which
# json spells NaN, Infinity and -Infinity.
_CSV_RUN = "%d,%%d,%%.11e,%.11e,%%.11e,%%.11e,%.11e\n"
_JSON_RUN = "    [\n      %d,\n      %%d,\n      %%s,\n      %s,\n      %%s,\n      %%s,\n      %s\n    ]"
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(value) -> str:
    text = repr(value)
    return _JSON_WORDS.get(text, text)


def _event_lines(events: EventColumns, json_layout: bool):
    """Each recorded event's formatted rows, one list per event."""
    nodes = range(events.objective.shape[1])
    shared = zip(events.event.tolist(), events.gtv.tolist(), events.dist.tolist())
    for (event, gtv, dist), *own_rows in zip(shared, events.objective, events.train_err, events.val_err):
        # Python floats: repr of an np.float64 is not its JSON number.
        own = [row.tolist() for row in own_rows]
        if json_layout:
            template = _JSON_RUN % (event, _json_number(gtv), _json_number(dist))
            for row, values in zip(own_rows, own):
                for i in np.flatnonzero(~np.isfinite(row)).tolist():
                    values[i] = _json_number(values[i])
        else:
            template = _CSV_RUN % (event, gtv, dist)
        yield [template % row for row in zip(nodes, *own)]


def _json_nested(value) -> str:
    # A value one level down in an indent-2 document; JSON strings escape
    # their newlines, so every raw newline here is layout.
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def export(report: Report, fmt: str, path) -> str:
    """Write the report as CSV rows or a JSON mirror; returns the path.

    The JSON bytes are those of json.dump(report.to_dict(), sort_keys=True,
    indent=2) plus a newline. Both formats write report.events one event at
    a time through a row template holding the event's shared values,
    instead of the pure-Python encoder.
    """
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for lines in _event_lines(report.events, json_layout=False):
                fh.write("".join(lines))
        return str(path)
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write('{\n  "environment": ' + _json_nested(report.environment))
            fh.write(',\n  "rows": ')
            sep = "[\n"
            for lines in _event_lines(report.events, json_layout=True):
                fh.write(sep + ",\n".join(lines))
                sep = ",\n"
            fh.write("[]" if sep == "[\n" else "\n  ]")
            fh.write(',\n  "summary": ' + _json_nested(report.summary) + "\n}\n")
        return str(path)
    raise ValueError(f"unknown export format {fmt!r}; expected csv or json")


def load_report_json(path) -> dict:
    """A JSON report as export writes it: an object whose summary is an
    object whose bound_checks lists rows with a name, holds and numbers
    measured, bound and margin, and whose divergence, unless absent or
    null, holds an int event and an int or null node; else ValueError naming path."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None
    summary = data.get("summary") if isinstance(data, dict) else None
    checks = summary.get("bound_checks") if isinstance(summary, dict) else None
    if not isinstance(checks, list):
        raise ValueError(f"{path}: not a report: no summary object holding a bound_checks list")
    for i, row in enumerate(checks):
        row = row if isinstance(row, dict) else {}
        numbers = [row.get(k) for k in ("measured", "bound", "margin")]
        if not ({"name", "holds"} <= row.keys() and all(isinstance(v, (int, float)) for v in numbers)):
            raise ValueError(f"{path}: bound check {i} needs name, holds and numeric measured, bound, margin")
    div = summary.get("divergence")
    if div is not None and not (
        isinstance(div, dict) and type(div.get("event")) is int and type(div.get("node", "")) in (int, type(None))
    ):
        raise ValueError(f"{path}: divergence needs an integer event and an integer or null node")
    return data
