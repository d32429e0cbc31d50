"""Experiment orchestration: config parsing, runs, reports, and export.

Config files are flat ``key = value`` text. A ``#`` at the start of a line
or after whitespace starts a comment; elsewhere it is part of the value
(``graph.path = runs/a#b.txt``). The full key set, with defaults in
brackets:

  seed [0]                      master seed; every random element derives
                                from it through fixed named streams
  record_every [1]              metric row sampling stride

  graph.kind                    erdos_renyi | star | chain | two_cluster
                                | file | learned
  graph.n                       node count (generator kinds)
  graph.p [0.3]                 edge probability (erdos_renyi)
  graph.p_in [0.8]              in-cluster probability (two_cluster)
  graph.p_out [0.05]            cross-cluster probability (two_cluster)
  graph.weight [1.0]            generated edge weight
  graph.path                    edge-list file (kind = file)
  graph.discrepancies           discrepancy CSV (kind = learned)
  graph.method [budget]         budget | degree (kind = learned)
  graph.budget                  ordered-pair weight budget (method = budget)
  graph.d_max                   target row sum (method = degree)

  data.kind [synthetic]         synthetic | csv
  data.d                        feature dimension (synthetic)
  data.m_min [10]               per-node sample count range (synthetic)
  data.m_max [10]
  data.noise [0.1]              label noise level (synthetic)
  data.model [shared]           shared | clustered | per_node truth layout
  data.dir                      directory with node_<i>.csv files (csv)
  data.ridge [0.0]              ridge added to every local loss

  algorithm.kind                fedgd | fedsgd | fedrelax | fedavg | fedprox
  algorithm.alpha [1.0]         coupling strength (graph algorithms)
  algorithm.penalty [sq_norm]   coupling penalty (sq_norm only for solvers)
  algorithm.eta                 step size; graph algorithms default to
                                1/(2 U) from the eigenvalue bounds
  algorithm.schedule [constant] constant | diminishing
  algorithm.batch               minibatch size (fedsgd)
  algorithm.local_steps [1]     local steps per round (fedavg)
  algorithm.sample_size         clients per round (fedavg/fedprox)

  async.mode [sync]             sync | partial | total
  async.B [5]                   staleness bound (partial)
  async.horizon                 event count (defaults to stop.max_iters)
  async.p_active [0.5]          per-event activation probability

  stop.max_iters [500]
  stop.obj_tol                  optional objective-change tolerance
  stop.dist_tol                 optional distance-to-oracle tolerance

  split.fraction [0.2]          validation share in [0, 1)

  attack.<i>.kind               label_poison | feature_poison | backdoor
                                | model_poison | dos
  attack.<i>.nodes              comma-separated victim ids
  attack.<i>.fraction [0.0]     poisoned row share (data attacks)
  attack.<i>.label_delta [0.0]
  attack.<i>.feature_delta      comma-separated floats
  attack.<i>.trigger_delta      comma-separated floats
  attack.<i>.target_label [0.0]
  attack.<i>.value              replacement entry value (model_poison)

  defense.kind [mean]           mean | clipped | trimmed | geomedian
  defense.tau_l [0.0]           (clipped)
  defense.tau_u [0.0]
  defense.trim_k [1]            (trimmed)

  dp.kind [none]                none | gaussian | laplace
  dp.sigma [0.0]                (gaussian)
  dp.b [0.0]                    (laplace)

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

import numpy as np

from gtvfed import __version__, seeds
from gtvfed import graph as graphmod
from gtvfed import graphlearn
from gtvfed.algorithms import (
    async_bound,
    contraction_factor,
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
from gtvfed.graph import EmpGraph, GraphError, is_connected
from gtvfed.gtvmin import (
    GTVMinProblem,
    SingularProblemError,
    StackedParams,
    clustered_bound,
    eig_bounds,
    eig_summaries,
    objective_parts,
    ordered_sum,
    quad_operator,
    sensitivity_bound,
    solve_direct,
    variation_bound,
)
from gtvfed.localmodel import (
    LocalDataset,
    QuadStack,
    from_dataset,
    generate_local,
    load_dataset_csv,
)
from gtvfed.optim import DivergenceError, LRSchedule, StopRule, contraction, perturbed_bound
from gtvfed.trust import AttackSpec, DPMechanism, RobustAgg, SenderRewrite, poison_dataset

CSV_HEADER = ("event", "node", "objective", "gtv", "train_err", "val_err", "dist_oracle")

GRAPH_KINDS = ("erdos_renyi", "star", "chain", "two_cluster", "file", "learned")
DATA_KINDS = ("synthetic", "csv")
DATA_MODELS = ("shared", "clustered", "per_node")
ALGO_KINDS = ("fedgd", "fedsgd", "fedrelax", "fedavg", "fedprox")
ASYNC_MODES = ("sync", "partial", "total")
ATTACK_KINDS = ("label_poison", "feature_poison", "backdoor", "model_poison", "dos")
DEFENSE_KINDS = ("mean", "clipped", "trimmed", "geomedian")
DP_KINDS = ("none", "gaussian", "laplace")


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


@dataclass
class Report:
    """Per-event metric rows plus a run summary and environment stamp.

    rows holds one (event, node, objective, gtv, train_err, val_err,
    dist_oracle) tuple of Python ints and floats per recorded event and node.
    """

    rows: list
    summary: dict
    environment: dict

    def to_dict(self) -> dict:
        return {
            "rows": [list(r) for r in self.rows],
            "summary": self.summary,
            "environment": self.environment,
        }


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_floats(raw: str):
    return tuple(float(v) for v in raw.split(","))


def _parse_ints(raw: str):
    return tuple(int(v) for v in raw.split(","))


def _choice(options):
    def parse(raw):
        val = raw.strip()
        if val not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {val!r}")
        return val

    return parse


# key -> (parser, default); None default means "absent unless set".
_SCHEMA = {
    "seed": (int, 0),
    "record_every": (int, 1),
    "graph.kind": (_choice(GRAPH_KINDS), None),
    "graph.n": (int, None),
    "graph.p": (float, 0.3),
    "graph.p_in": (float, 0.8),
    "graph.p_out": (float, 0.05),
    "graph.weight": (float, 1.0),
    "graph.path": (str, None),
    "graph.discrepancies": (str, None),
    "graph.method": (_choice(("budget", "degree")), "budget"),
    "graph.budget": (float, None),
    "graph.d_max": (float, None),
    "data.kind": (_choice(DATA_KINDS), "synthetic"),
    "data.d": (int, None),
    "data.m_min": (int, 10),
    "data.m_max": (int, 10),
    "data.noise": (float, 0.1),
    "data.model": (_choice(DATA_MODELS), "shared"),
    "data.dir": (str, None),
    "data.ridge": (float, 0.0),
    "algorithm.kind": (_choice(ALGO_KINDS), None),
    "algorithm.alpha": (float, 1.0),
    "algorithm.penalty": (_choice(("sq_norm", "norm")), "sq_norm"),
    "algorithm.eta": (float, None),
    "algorithm.schedule": (_choice(("constant", "diminishing")), "constant"),
    "algorithm.batch": (int, None),
    "algorithm.local_steps": (int, 1),
    "algorithm.sample_size": (int, None),
    "async.mode": (_choice(ASYNC_MODES), "sync"),
    "async.B": (int, 5),
    "async.horizon": (int, None),
    "async.p_active": (float, 0.5),
    "stop.max_iters": (int, 500),
    "stop.obj_tol": (float, None),
    "stop.dist_tol": (float, None),
    "split.fraction": (float, 0.2),
    "defense.kind": (_choice(DEFENSE_KINDS), "mean"),
    "defense.tau_l": (float, 0.0),
    "defense.tau_u": (float, 0.0),
    "defense.trim_k": (int, 1),
    "dp.kind": (_choice(DP_KINDS), "none"),
    "dp.sigma": (float, 0.0),
    "dp.b": (float, 0.0),
}

_ATTACK_FIELDS = {
    "kind": _choice(ATTACK_KINDS),
    "nodes": _parse_ints,
    "fraction": float,
    "label_delta": float,
    "feature_delta": _parse_floats,
    "trigger_delta": _parse_floats,
    "target_label": float,
    "value": float,
}

_ATTACK_KEY = re.compile(r"^attack\.(\d+)\.([a-z_]+)$")
# A comment starts at a '#' that begins the line or follows whitespace, so
# values such as paths may contain '#'.
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config(text: str) -> ExperimentConfig:
    """Validated config from flat key-value text; collects every error."""
    errors = []
    values = {}
    attacks_raw = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not val:
            errors.append(f"line {lineno}: key {key!r} has no value")
            continue
        m = _ATTACK_KEY.match(key)
        if m:
            idx, fld = int(m.group(1)), m.group(2)
            if fld not in _ATTACK_FIELDS:
                errors.append(f"line {lineno}: unknown attack field {fld!r}")
                continue
            slot = attacks_raw.setdefault(idx, {})
            if fld in slot:
                errors.append(f"line {lineno}: duplicate key {key!r}")
                continue
            try:
                slot[fld] = _ATTACK_FIELDS[fld](val)
            except ValueError as exc:
                errors.append(f"{key}: {exc}")
            continue
        if key not in _SCHEMA:
            errors.append(f"unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            errors.append(f"{key}: {exc}")

    cfg_vals = {k: (values[k] if k in values else d) for k, (_, d) in _SCHEMA.items()}

    def need(key, why):
        if cfg_vals.get(key) is None:
            errors.append(f"{key}: required {why}")
            return False
        return True

    def check(cond, msg):
        if not cond:
            errors.append(msg)
        return cond

    if cfg_vals["seed"] < 0:
        errors.append(f"seed: must be nonnegative, got {cfg_vals['seed']}")
    if cfg_vals["record_every"] < 1:
        errors.append(f"record_every: must be at least 1, got {cfg_vals['record_every']}")

    gkind = cfg_vals["graph.kind"]
    if gkind is None:
        errors.append("graph.kind: required")
    elif gkind in ("erdos_renyi", "star", "chain", "two_cluster"):
        if need("graph.n", f"for graph.kind = {gkind}"):
            check(cfg_vals["graph.n"] >= 1, f"graph.n: must be >= 1, got {cfg_vals['graph.n']}")
        for pk in ("graph.p", "graph.p_in", "graph.p_out"):
            v = cfg_vals[pk]
            check(0.0 <= v <= 1.0, f"{pk}: must lie in [0, 1], got {v}")
        check(cfg_vals["graph.weight"] > 0.0, f"graph.weight: must be positive, got {cfg_vals['graph.weight']}")
    elif gkind == "file":
        if need("graph.path", "for graph.kind = file"):
            check(os.path.isfile(cfg_vals["graph.path"]), f"graph.path: no such file {cfg_vals['graph.path']!r}")
    elif gkind == "learned":
        if need("graph.discrepancies", "for graph.kind = learned"):
            check(
                os.path.isfile(cfg_vals["graph.discrepancies"]),
                f"graph.discrepancies: no such file {cfg_vals['graph.discrepancies']!r}",
            )
        if cfg_vals["graph.method"] == "budget":
            need("graph.budget", "for graph.method = budget")
        else:
            need("graph.d_max", "for graph.method = degree")

    if cfg_vals["data.kind"] == "synthetic":
        if need("data.d", "for data.kind = synthetic"):
            check(cfg_vals["data.d"] >= 1, f"data.d: must be >= 1, got {cfg_vals['data.d']}")
        check(cfg_vals["data.m_min"] >= 1, f"data.m_min: must be >= 1, got {cfg_vals['data.m_min']}")
        check(
            cfg_vals["data.m_max"] >= cfg_vals["data.m_min"],
            f"data.m_max: must be >= data.m_min, got {cfg_vals['data.m_max']}",
        )
        check(cfg_vals["data.noise"] >= 0.0, f"data.noise: must be nonnegative, got {cfg_vals['data.noise']}")
    else:
        if need("data.dir", "for data.kind = csv"):
            check(os.path.isdir(cfg_vals["data.dir"]), f"data.dir: no such directory {cfg_vals['data.dir']!r}")
    check(cfg_vals["data.ridge"] >= 0.0, f"data.ridge: must be nonnegative, got {cfg_vals['data.ridge']}")

    akind = cfg_vals["algorithm.kind"]
    check(cfg_vals["algorithm.alpha"] >= 0.0, f"algorithm.alpha: must be nonnegative, got {cfg_vals['algorithm.alpha']}")
    if cfg_vals["algorithm.eta"] is not None:
        check(cfg_vals["algorithm.eta"] > 0.0, f"algorithm.eta: must be positive, got {cfg_vals['algorithm.eta']}")
    if cfg_vals["algorithm.penalty"] == "norm":
        errors.append("algorithm.penalty: the implemented solvers require sq_norm")
    if akind is None:
        errors.append("algorithm.kind: required")
    else:
        if akind == "fedsgd":
            if need("algorithm.batch", "for algorithm.kind = fedsgd"):
                check(cfg_vals["algorithm.batch"] >= 1, f"algorithm.batch: must be >= 1, got {cfg_vals['algorithm.batch']}")
        if akind in ("fedavg", "fedprox"):
            need("algorithm.eta", f"for algorithm.kind = {akind}")
            if cfg_vals["async.mode"] != "sync":
                errors.append(f"async.mode: {akind} is a server algorithm and runs sync only")
        if akind == "fedavg":
            check(cfg_vals["algorithm.local_steps"] >= 1, f"algorithm.local_steps: must be >= 1, got {cfg_vals['algorithm.local_steps']}")
        if cfg_vals["algorithm.sample_size"] is not None:
            check(cfg_vals["algorithm.sample_size"] >= 1, f"algorithm.sample_size: must be >= 1, got {cfg_vals['algorithm.sample_size']}")
        if cfg_vals["algorithm.schedule"] == "diminishing" and cfg_vals["algorithm.eta"] is None:
            errors.append("algorithm.eta: required for algorithm.schedule = diminishing")
        if cfg_vals["defense.kind"] != "mean" and akind not in ("fedgd", "fedrelax"):
            errors.append("defense.kind: robust aggregation applies to fedgd and fedrelax only")

    if cfg_vals["async.mode"] == "partial":
        check(cfg_vals["async.B"] >= 1, f"async.B: must be >= 1, got {cfg_vals['async.B']}")
    if cfg_vals["async.mode"] != "sync":
        check(
            0.0 < cfg_vals["async.p_active"] <= 1.0,
            f"async.p_active: must lie in (0, 1], got {cfg_vals['async.p_active']}",
        )
        if cfg_vals["async.horizon"] is not None:
            check(cfg_vals["async.horizon"] >= 1, f"async.horizon: must be >= 1, got {cfg_vals['async.horizon']}")

    check(cfg_vals["stop.max_iters"] >= 0, f"stop.max_iters: must be nonnegative, got {cfg_vals['stop.max_iters']}")
    for tk in ("stop.obj_tol", "stop.dist_tol"):
        if cfg_vals[tk] is not None:
            check(cfg_vals[tk] > 0.0, f"{tk}: must be positive, got {cfg_vals[tk]}")
    check(
        0.0 <= cfg_vals["split.fraction"] < 1.0,
        f"split.fraction: must lie in [0, 1), got {cfg_vals['split.fraction']}",
    )

    if cfg_vals["defense.kind"] == "clipped" and not cfg_vals["defense.tau_l"] <= cfg_vals["defense.tau_u"]:
        errors.append(
            f"defense.tau_l: clipping needs tau_l <= tau_u, got "
            f"({cfg_vals['defense.tau_l']}, {cfg_vals['defense.tau_u']})"
        )
    if cfg_vals["defense.kind"] == "trimmed":
        check(cfg_vals["defense.trim_k"] >= 0, f"defense.trim_k: must be nonnegative, got {cfg_vals['defense.trim_k']}")
    if cfg_vals["dp.kind"] == "gaussian":
        check(cfg_vals["dp.sigma"] >= 0.0, f"dp.sigma: must be nonnegative, got {cfg_vals['dp.sigma']}")
    if cfg_vals["dp.kind"] == "laplace":
        check(cfg_vals["dp.b"] >= 0.0, f"dp.b: must be nonnegative, got {cfg_vals['dp.b']}")

    attacks = []
    for idx in sorted(attacks_raw):
        a = attacks_raw[idx]
        kind = a.get("kind")
        if kind is None:
            errors.append(f"attack.{idx}.kind: required")
            continue
        if not a.get("nodes"):
            errors.append(f"attack.{idx}.nodes: required")
            continue
        if kind in ("label_poison", "feature_poison", "backdoor"):
            frac = a.get("fraction", 0.0)
            if not 0.0 <= frac <= 1.0:
                errors.append(f"attack.{idx}.fraction: must lie in [0, 1], got {frac}")
            if kind == "feature_poison" and "feature_delta" not in a:
                errors.append(f"attack.{idx}.feature_delta: required for feature_poison")
        elif kind == "model_poison" and "value" not in a:
            errors.append(f"attack.{idx}.value: required for model_poison")
        attacks.append(a)

    if errors:
        raise ConfigError(errors)

    group = lambda prefix: {
        k.split(".", 1)[1]: v for k, v in cfg_vals.items() if k.startswith(prefix + ".")
    }
    dp = None
    if cfg_vals["dp.kind"] != "none":
        dp = DPMechanism(
            kind=cfg_vals["dp.kind"],
            sigma=cfg_vals["dp.sigma"],
            b=cfg_vals["dp.b"],
            seed=cfg_vals["seed"],
        )
    dkind = cfg_vals["defense.kind"]
    if dkind == "mean":
        defense = RobustAgg.mean()
    elif dkind == "clipped":
        defense = RobustAgg.clipped(cfg_vals["defense.tau_l"], cfg_vals["defense.tau_u"])
    elif dkind == "trimmed":
        defense = RobustAgg.trimmed(cfg_vals["defense.trim_k"])
    else:
        defense = RobustAgg.geomedian()
    return ExperimentConfig(
        seed=cfg_vals["seed"],
        record_every=cfg_vals["record_every"],
        graph=group("graph"),
        data=group("data"),
        algorithm=group("algorithm"),
        async_spec={k.split(".", 1)[1]: v for k, v in cfg_vals.items() if k.startswith("async.")},
        stop=StopRule(
            max_iters=cfg_vals["stop.max_iters"],
            obj_tol=cfg_vals["stop.obj_tol"],
            dist_tol=cfg_vals["stop.dist_tol"],
        ),
        split_fraction=cfg_vals["split.fraction"],
        attacks=attacks,
        defense=defense,
        dp=dp,
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
        return graphlearn.learn_graph_degree(
            D, g["d_max"], seed=seeds.stream(cfg.seed, "graph")
        )
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
    blocks. Nodes without neighbours never aggregate, and neither does
    FedRelax without coupling.
    """
    if cfg.defense.kind != "trimmed":
        return
    if cfg.algorithm["kind"] == "fedrelax" and cfg.algorithm["alpha"] == 0.0:
        return
    k = cfg.defense.trim_k
    short = [i for i in range(g.n) if 0 < len(g.neighbors(i)) <= 2 * k]
    if short:
        i = short[0]
        more = f" ({len(short) - 1} more nodes too)" if len(short) > 1 else ""
        raise ConfigError([
            f"defense.trim_k: node {i} has {len(g.neighbors(i))} neighbours, but "
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
        generate_local(wbars[i], int(ms[i]), noise, seeds.stream(seed, "data", i))
        for i in range(n)
    ]
    return datasets, wbars


def build_data(cfg: ExperimentConfig, n: int):
    """Per-node datasets plus generator metadata (truth vectors, noise)."""
    d = cfg.data
    if d["kind"] == "csv":
        datasets = []
        for i in range(n):
            path = os.path.join(d["dir"], f"node_{i}.csv")
            if not os.path.isfile(path):
                raise ConfigError([f"data.dir: missing dataset file {path!r}"])
            datasets.append(load_dataset_csv(path))
        return datasets, {"model": None, "noise": None, "wbars": None}
    datasets, wbars = gen_node_datasets(
        n, d["d"], d["m_min"], d["m_max"], d["noise"], d["model"], cfg.seed
    )
    return datasets, {"model": d["model"], "noise": d["noise"], "wbars": wbars}


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


def _sq_err(ds: LocalDataset, w) -> float:
    # Reference kernel of SqErrors, kept for the tests.
    if ds.m == 0:
        return float("nan")
    r = ds.X @ w - ds.y
    return float(r @ r / ds.m)


class SqErrors:
    """Mean squared error of every node's dataset at the node's own block.

    The datasets are stacked once, grouped by sample count, so one call
    costs a few batched products. Entry i equals _sq_err(datasets[i], W[i])
    bit for bit: numpy's matmul hands each stacked slice to the same BLAS
    gemv and dot the per-node products call. An empty dataset reads NaN.
    """

    def __init__(self, datasets):
        datasets = list(datasets)
        by_size = {}
        for i, ds in enumerate(datasets):
            by_size.setdefault(ds.m, []).append(i)
        self.n = len(datasets)
        self.groups = [
            (
                m,
                np.array(idx, dtype=np.intp),
                np.stack([datasets[i].X for i in idx]),
                np.stack([datasets[i].y for i in idx]),
            )
            for m, idx in sorted(by_size.items())
            if m > 0
        ]

    def __call__(self, W) -> np.ndarray:
        W = np.asarray(W, dtype=float)
        out = np.full(self.n, np.nan)
        for m, idx, X, y in self.groups:
            r = (X @ W[idx][:, :, None])[:, :, 0] - y
            out[idx] = (r[:, None, :] @ r[:, :, None])[:, 0, 0] / m
        return out


def train_val_report(datasets, blocks, split: float, seed=0):
    """Per-node average squared errors on a seeded train/validation split.

    Returns (E_t, E_v) arrays; a split that leaves one side of some node
    empty raises a warning and marks that side's entry NaN.
    """
    split = float(split)
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must lie in (0, 1), got {split}")
    blocks = np.asarray(getattr(blocks, "blocks", blocks), dtype=float)
    datasets = list(datasets)
    if blocks.ndim == 1:
        blocks = np.tile(blocks, (len(datasets), 1))
    if len(datasets) != blocks.shape[0]:
        raise ValueError(f"got {len(datasets)} datasets for {blocks.shape[0]} blocks")
    splits = [
        split_dataset(ds, split, seeds.stream(seed, "data", i, 1))
        for i, ds in enumerate(datasets)
    ]
    for i, (train, val) in enumerate(splits):
        if train.m == 0 or val.m == 0:
            warnings.warn(f"node {i}: split leaves an empty side, metrics absent")
    e_t = SqErrors([t for t, _ in splits])(blocks)
    e_v = SqErrors([v for _, v in splits])(blocks)
    return e_t, e_v


def _attack_seed(master: int, idx: int, node: int) -> int:
    return int(seeds.stream(master, "attacks", idx, node).integers(0, 2**63))


def _apply_data_attacks(cfg: ExperimentConfig, trains):
    out = list(trains)
    for idx, a in enumerate(cfg.attacks):
        if a["kind"] not in ("label_poison", "feature_poison", "backdoor"):
            continue
        for node in a["nodes"]:
            if not 0 <= node < len(out):
                raise ConfigError([f"attack.{idx}.nodes: node {node} out of range"])
            spec = AttackSpec(
                kind=a["kind"],
                victims=(node,),
                fraction=a.get("fraction", 0.0),
                label_delta=a.get("label_delta", 0.0),
                feature_delta=a.get("feature_delta"),
                trigger_delta=a.get("trigger_delta"),
                target_label=a.get("target_label", 0.0),
                seed=_attack_seed(cfg.seed, idx, node),
            )
            out[node] = poison_dataset(out[node], spec)
    return out


def _model_interceptor(cfg: ExperimentConfig, d: int, n: int):
    """The run's message attacks as one SenderRewrite, None without any."""
    specs = []
    for idx, a in enumerate(cfg.attacks):
        if a["kind"] not in ("model_poison", "dos"):
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
        return math.sqrt(ordered_sum(Z[:, None, :] @ Z[:, :, None]))

    return noise


def _check_row(name, measured, bound, slack, lower=False):
    measured, bound = float(measured), float(bound)
    if lower:
        margin = measured - bound
    else:
        margin = bound - measured
    return {
        "name": name,
        "measured": measured,
        "bound": bound,
        "margin": margin,
        "holds": bool(margin >= -slack),
    }


def _consensus_dev(blocks) -> float:
    mean = blocks.mean(axis=0)
    return float(np.sum((blocks - mean) ** 2))


def _bound_checks(cfg, g, p, oracle_sp, trace, trains, meta, run_info):
    """Every analytic check whose preconditions the run satisfies."""
    checks = []
    if p is None or not p.is_quadratic():
        return checks
    rel = lambda b: 1e-9 * (1.0 + abs(b))

    quad = quad_operator(p)
    lam_min, lam_max = quad.extreme_eigenvalues()
    b = eig_bounds(p)
    checks.append(_check_row("eig_upper", lam_max, b.upper, rel(b.upper)))
    if b.lower is not None:
        checks.append(_check_row("eig_lower", lam_min, b.lower, rel(b.lower), lower=True))

    synthetic = meta["model"] is not None
    clean = not cfg.attacks and cfg.dp is None
    ridge0 = cfg.data.get("ridge", 0.0) == 0.0
    sizes = [t.m for t in trains]
    if (
        oracle_sp is not None
        and synthetic
        and ridge0
        and p.alpha > 0.0
        and p.n >= 2
        and all(m >= 1 for m in sizes)
        and is_connected(g)
    ):
        wbars = meta["wbars"]
        noise_sq = [
            float(np.sum((t.y - t.X @ wbars[i]) ** 2)) for i, t in enumerate(trains)
        ]
        if meta["model"] == "shared":
            checks.append(
                _check_row(
                    "variation",
                    _consensus_dev(oracle_sp.blocks),
                    variation_bound(p, noise_sq, sizes),
                    rel(variation_bound(p, noise_sq, sizes)),
                )
            )
        if meta["model"] == "clustered" and cfg.graph.get("kind") == "two_cluster":
            half = (p.n + 1) // 2
            radius = float(np.max(np.linalg.norm(oracle_sp.blocks, axis=1)))
            worst = None
            for cluster in (list(range(half)), list(range(half, p.n))):
                if len(cluster) < 2:
                    continue
                try:
                    bound = clustered_bound(
                        p,
                        cluster,
                        [noise_sq[i] for i in cluster],
                        [sizes[i] for i in cluster],
                        float(wbars[cluster[0]] @ wbars[cluster[0]]),
                        radius,
                    )
                except (ValueError, GraphError):
                    continue
                row = _check_row(
                    "clustered_variation",
                    _consensus_dev(oracle_sp.blocks[cluster]),
                    bound,
                    rel(bound),
                )
                if worst is None or row["margin"] < worst["margin"]:
                    worst = row
            if worst is not None:
                checks.append(worst)

    if oracle_sp is not None and p.alpha > 0.0 and all(m >= 1 for m in sizes):
        s = eig_summaries(p)
        if s.rho is not None and s.lam_bar_min > 0.0 and is_connected(g) and p.n >= 2:
            rng = seeds.stream(cfg.seed, "attacks", 2**20)
            perts = [0.1 * rng.standard_normal(t.m) for t in trains]
            ridge = cfg.data.get("ridge", 0.0)
            # Shifted labels keep X, hence every Q_i: only the linear terms move.
            shifted = np.stack([
                from_dataset(LocalDataset(t.X, t.y + perts[i]), ridge).q
                for i, t in enumerate(trains)
            ])
            try:
                moved = quad.solve(shifted)
                bound = sensitivity_bound(p, perts)
            except (SingularProblemError, ValueError, GraphError):
                moved = None
            if moved is not None:
                measured = float(np.sum((moved.blocks - oracle_sp.blocks) ** 2))
                checks.append(_check_row("label_sensitivity", measured, bound, rel(bound)))

    maxdists = trace.extras.get("maxdist")
    if (
        run_info.get("mode") == "partial"
        and run_info.get("kind") == "fedrelax"
        and oracle_sp is not None
        and clean
        and cfg.defense.kind == "mean"
        and maxdists
    ):
        try:
            kappa = contraction_factor(p)
        except ValueError:
            kappa = None
        if kappa is not None and kappa < 1.0:
            B = cfg.async_spec["B"]
            r0 = maxdists[0]
            worst = None
            for idx, k in enumerate(trace.ks):
                bnd = async_bound(kappa, B, k, r0)
                row = _check_row("async_contraction", maxdists[idx], bnd, 1e-6)
                if worst is None or row["margin"] < worst["margin"]:
                    worst = row
            checks.append(worst)

    norms = trace.extras.get("noise_norms")
    if (
        cfg.dp is not None
        and run_info.get("kind") == "fedgd"
        and run_info.get("mode") == "sync"
        and cfg.record_every == 1
        and run_info.get("eta") is not None
        and oracle_sp is not None
        and not cfg.attacks
        and cfg.defense.kind == "mean"
        and norms
        and trace.dists
        and trace.dists[0] is not None
        and lam_min > 0.0
    ):
        kappa = contraction(run_info["eta"], lam_min, lam_max)
        if kappa < 1.0:
            worst = None
            for idx, k in enumerate(trace.ks):
                bnd = perturbed_bound(kappa, trace.dists[0], norms[:k])
                row = _check_row(
                    "noisy_descent", trace.dists[idx], bnd, 1e-9 * (1.0 + bnd)
                )
                if worst is None or row["margin"] < worst["margin"]:
                    worst = row
            checks.append(worst)
    return checks


def _nanmean(values) -> float:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or np.all(np.isnan(arr)):
        return float("nan")
    return float(np.nanmean(arr))


def _rows_from_trace(trace, n, node_objs, gtvs, e_ts, e_vs):
    """One (event, node, objective, gtv, train_err, val_err, dist) tuple per
    recorded event and node, built column by column from the (events, n)
    probe arrays; a missing oracle distance reads NaN."""
    if not trace.ks:
        return []
    per_node = lambda values: np.asarray(values, dtype=float).reshape(-1).tolist()
    per_event = lambda values: np.repeat(np.asarray(values, dtype=float), n).tolist()
    dists = [float("nan") if dist is None else dist for dist in trace.dists]
    return list(
        zip(
            np.repeat(np.asarray(trace.ks, dtype=np.int64), n).tolist(),
            np.tile(np.arange(n, dtype=np.int64), len(trace.ks)).tolist(),
            per_node(node_objs),
            per_event(gtvs),
            per_node(e_ts),
            per_node(e_vs),
            per_event(dists),
        )
    )


class _Probes:
    """The per-event probes of a graph run, vectorized over the nodes.

    objective(blocks) evaluates the node losses and the coupling penalty;
    metrics(k, blocks) reuses them when it sees the same block values,
    which _Recorder.observe passes right after on every sampled event.
    """

    def __init__(self, p, trains, vals, oracle_blocks):
        self.p = p
        self.train_err = SqErrors(trains)
        self.val_err = SqErrors(vals)
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
    n = g.n
    datasets, meta = build_data(cfg, n)
    frac = cfg.split_fraction
    splits = [
        split_dataset(ds, frac, seeds.stream(cfg.seed, "data", i, 1))
        for i, ds in enumerate(datasets)
    ]
    trains = [t for t, _ in splits]
    vals = [v for _, v in splits]
    for i, (t, v) in enumerate(splits):
        if t.m == 0 or (frac > 0.0 and v.m == 0):
            warnings.warn(f"node {i}: split leaves an empty side, metrics absent")
    trains = _apply_data_attacks(cfg, trains)
    ridge = cfg.data["ridge"]
    losses = [from_dataset(t, ridge) for t in trains]
    dims = {loss.d for loss in losses}
    if len(dims) != 1:
        raise ConfigError(["data: node datasets disagree on the feature dimension"])
    d = dims.pop()

    kind = cfg.algorithm["kind"]
    if kind in ("fedavg", "fedprox"):
        return _run_server(cfg, g, losses, trains, vals, d, meta)
    return _run_graph(cfg, g, losses, trains, vals, d, meta)


def _run_graph(cfg, g, losses, trains, vals, d, meta):
    algo = cfg.algorithm
    kind = algo["kind"]
    p = GTVMinProblem(g, losses, algo["alpha"], algo["penalty"])
    eta = algo["eta"]
    if eta is None:
        upper = eig_bounds(p).upper
        eta = 1.0 / (2.0 * upper) if upper > 0.0 else 1.0
        sched = LRSchedule.constant(eta)
    elif algo["schedule"] == "diminishing":
        sched = LRSchedule.diminishing(eta)
    else:
        sched = LRSchedule.constant(eta)
    agg = None if cfg.defense.kind == "mean" else cfg.defense
    if kind == "fedgd":
        ops = fedgd_op(p, sched=sched, agg=agg)
    elif kind == "fedsgd":
        ops = fedsgd_op(p, algo["batch"], cfg.seed, sched=sched)
    else:
        ops = fedrelax_op(p, agg=agg)

    try:
        oracle_sp = solve_direct(p)
    except (SingularProblemError, ValueError):
        oracle_sp = None
    oracle_blocks = oracle_sp.blocks if oracle_sp is not None else None

    n = g.n
    probes = _Probes(p, trains, vals, oracle_blocks)
    interceptor = _model_interceptor(cfg, d, n)
    noise = _dp_hook(cfg.dp) if cfg.dp is not None else None
    w0 = StackedParams.zeros(n, d)
    mode = cfg.async_spec["mode"]
    run_info = {"kind": kind, "mode": mode, "eta": eta if sched.kind == "constant" else None}
    common = dict(
        objective=probes.objective,
        oracle=oracle_sp,
        metrics=probes.metrics,
        interceptor=interceptor,
        noise=noise,
        record_every=cfg.record_every,
    )
    if mode == "sync":
        schedule = None
    else:
        horizon = cfg.async_spec["horizon"] or cfg.stop.max_iters
        if mode == "partial":
            schedule = gen_partially_async(
                g,
                cfg.async_spec["B"],
                horizon,
                seeds.stream(cfg.seed, "schedule"),
                p_active=cfg.async_spec["p_active"],
            )
        else:
            schedule = gen_totally_async(
                g, horizon, seeds.stream(cfg.seed, "schedule"),
                p_active=cfg.async_spec["p_active"],
            )
    divergence = None
    try:
        if schedule is None:
            _, trace = run_sync(ops, w0, cfg.stop, **common)
        else:
            _, trace = run_async(ops, w0, schedule, stop=cfg.stop, **common)
    except DivergenceError as exc:
        trace, divergence = exc.trace, {"event": exc.event, "node": exc.node}

    checks = []
    if divergence is None:
        checks = _bound_checks(cfg, g, p, oracle_sp, trace, trains, meta, run_info)
    probes = [trace.extras.get(key, []) for key in ("node_objs", "gtv", "train_err", "val_err")]
    rows = _rows_from_trace(trace, n, *probes)
    return _make_report(cfg, trace, rows, checks, meta, n, divergence)


def _run_server(cfg, g, losses, trains, vals, d, meta):
    algo = cfg.algorithm
    kind = algo["kind"]
    n = g.n
    sample = algo["sample_size"] or n
    if sample > n:
        raise ConfigError([f"algorithm.sample_size: {sample} exceeds the {n} nodes"])

    Qp = sum(loss.Q for loss in losses)
    qp = sum(loss.q for loss in losses)
    oracle = None
    if float(np.linalg.eigvalsh(Qp)[0]) > 1e-10:
        oracle = np.linalg.solve(2.0 * Qp, -qp)

    stack = QuadStack(losses)
    # The one global block, repeated so every node is evaluated at it.
    spread = lambda w: np.repeat(np.reshape(w, (1, d)), n, axis=0)
    objective = lambda blocks: float(sum(stack.values(spread(blocks)).tolist()))
    # The global block of every sampled round, plus the latest one, which
    # may end the run.
    stride = cfg.record_every
    ws = {0: np.zeros(d)}

    def on_round(k, w):
        if k % stride:
            del ws[k]
        ws[k + 1] = w.copy()

    common = dict(
        objective=objective, oracle=oracle, w0=np.zeros(d), on_round=on_round,
        record_every=stride,
    )
    divergence = None
    try:
        if kind == "fedavg":
            sched = LRSchedule.constant(algo["eta"])
            if algo["schedule"] == "diminishing":
                sched = LRSchedule.diminishing(algo["eta"])
            _, trace = fedavg_run(
                losses, n, algo["local_steps"], sample, sched, cfg.stop, cfg.seed, **common
            )
        else:
            _, trace = fedprox_run(
                losses, n, sample, algo["eta"], cfg.stop, cfg.seed, **common
            )
    except DivergenceError as exc:
        # The server's one row is the global block, not a node.
        trace, divergence = exc.trace, {"event": exc.event, "node": None}
    train_err, val_err = SqErrors(trains), SqErrors(vals)
    node_objs, e_ts, e_vs = [], [], []
    for k in trace.ks:
        W = spread(ws[k])
        node_objs.append(stack.values(W))
        e_ts.append(train_err(W))
        e_vs.append(val_err(W))
    rows = _rows_from_trace(trace, n, node_objs, np.zeros(len(trace.ks)), e_ts, e_vs)
    return _make_report(cfg, trace, rows, [], meta, n, divergence)


def _make_report(cfg, trace, rows, checks, meta, n, divergence=None):
    final_dist = trace.dists[-1] if trace.dists else None
    final_obj = trace.objectives[-1] if trace.objectives else None
    last_train = [r[4] for r in rows[-n:]] if rows else []
    last_val = [r[5] for r in rows[-n:]] if rows else []
    train_mean = _nanmean(last_train)
    val_mean = _nanmean(last_val)
    overfit = bool(
        np.isfinite(train_mean)
        and np.isfinite(val_mean)
        and val_mean > 5.0 * train_mean + 1e-9
    )
    converged = trace.terminal in ("dist_tol", "obj_tol") or (
        final_dist is not None and final_dist <= 1e-6
    )
    baseline = None
    if meta.get("noise") is not None and cfg.data.get("kind", "synthetic") == "synthetic":
        baseline = float(meta["noise"]) ** 2
    summary = {
        "algorithm": cfg.algorithm.get("kind"),
        "baseline_err": baseline,
        "bound_checks": checks,
        "converged": bool(converged),
        "events": int(trace.ks[-1]) if trace.ks else 0,
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
    return Report(rows=rows, summary=summary, environment=environment)


# One report row in each format. The JSON template is the layout
# json.dump(..., indent=2) gives a row two levels deep; %r of a float is
# the repr json writes, except for non-finite values (see _json_rows).
_CSV_ROW = "%d,%d" + ",%.11e" * 5 + "\n"
_JSON_ROW = "    [\n      %d,\n      %d" + ",\n      %r" * 5 + "\n    ]"
# Rows formatted and written per chunk, so no whole file is held as one string.
_EXPORT_CHUNK = 4096


def _chunks(rows):
    for start in range(0, len(rows), _EXPORT_CHUNK):
        yield rows[start : start + _EXPORT_CHUNK]


def _json_nested(value) -> str:
    # A value one level down in an indent-2 document; JSON strings escape
    # their newlines, so every raw newline here is layout.
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def _json_rows(fh, rows) -> None:
    if not rows:
        fh.write("[]")
        return
    fh.write("[\n")
    sep = ""
    for chunk in _chunks(rows):
        text = sep + ",\n".join([_JSON_ROW % tuple(row) for row in chunk])
        # Rows hold only numbers, so these words come from nan and +-inf;
        # json spells them NaN, Infinity and -Infinity.
        fh.write(text.replace("nan", "NaN").replace("inf", "Infinity"))
        sep = ",\n"
    fh.write("\n  ]")


def export(report: Report, fmt: str, path) -> str:
    """Write the report as CSV rows or a JSON mirror; returns the path.

    The JSON bytes are those of json.dump(report.to_dict(), sort_keys=True,
    indent=2) plus a newline; rows are written in chunks through a row
    template instead of the pure-Python encoder.
    """
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for chunk in _chunks(report.rows):
                fh.write("".join([_CSV_ROW % tuple(row) for row in chunk]))
        return str(path)
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write('{\n  "environment": ' + _json_nested(report.environment))
            fh.write(',\n  "rows": ')
            _json_rows(fh, report.rows)
            fh.write(',\n  "summary": ' + _json_nested(report.summary) + "\n}\n")
        return str(path)
    raise ValueError(f"unknown export format {fmt!r}; expected csv or json")


def load_report_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
