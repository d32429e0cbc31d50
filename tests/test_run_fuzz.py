"""Seeded configs through the whole run path: each is rejected with a
ConfigError or gives a report whose CSV and JSON bytes a second run
reproduces."""

import warnings

import numpy as np

from gtvfed.graph import GENERATORS
from gtvfed.harness import DATA_MODELS, SERVER_KINDS, ConfigError, export, parse_config, run_experiment
from gtvfed.trust import AGG_KINDS, DATA_ATTACKS, MODEL_ATTACKS, NOISE_KINDS

SOLVERS = ("fedgd", "fedsgd", "fedrelax") + SERVER_KINDS
MODES = ("sync", "partial", "total")
DP_KINDS = ("none",) + NOISE_KINDS
ATTACK_KINDS = DATA_ATTACKS + MODEL_ATTACKS
CONFIGS = 150


def draw_config(rng) -> dict:
    """One config as key -> value text: n <= 10, d <= 4, at most 25 events.
    Most draws are valid; a few break a rule on purpose (server solvers run
    async or sample more clients than nodes, robust rules under FedSGD,
    victims out of range, vectors of the wrong length)."""
    pick = lambda options: options[int(rng.integers(len(options)))]
    rare = lambda: rng.random() < 0.08
    n, d = int(rng.integers(1, 11)), int(rng.integers(1, 5))
    kind = pick(SOLVERS)
    m_min = int(rng.integers(1, 8))
    cfg = {
        "seed": int(rng.integers(2**33)),
        "record_every": int(rng.integers(1, 5)),
        "graph.kind": pick(GENERATORS),
        "graph.n": n,
        "graph.p": pick([0.0, 0.3, 0.7, 1.0]),
        "graph.weight": pick([0.3, 1.0, 2.5]),
        "data.d": d,
        "data.m_min": m_min,
        "data.m_max": m_min + int(rng.integers(0, 6)),
        "data.noise": pick([0.0, 0.1, 1.0]),
        "data.model": pick(DATA_MODELS),
        "data.ridge": pick([0.0, 0.1]),
        "split.fraction": pick([0.0, 0.2, 0.5]),
        "algorithm.kind": kind,
        "algorithm.alpha": pick([0.0, 0.5, 2.0]),
        "stop.max_iters": int(rng.integers(0, 26)),
    }
    if kind in SERVER_KINDS or rng.random() < 0.3:
        cfg["algorithm.eta"] = pick([0.01, 0.1, 0.5, 20.0])  # 20 can diverge
        cfg["algorithm.schedule"] = pick(["constant", "diminishing"])
    if kind == "fedsgd":
        cfg["algorithm.batch"] = int(rng.integers(1, 10))
    if kind in SERVER_KINDS:
        cfg["algorithm.sample_size"] = int(rng.integers(1, n + 1 + rare()))
        cfg["algorithm.local_steps"] = int(rng.integers(1, 3))
    if kind not in SERVER_KINDS or rare():
        cfg["async.mode"] = pick(MODES)
        cfg["async.B"] = int(rng.integers(1, 4))
        cfg["async.horizon"] = int(rng.integers(1, 26))
        cfg["async.p_active"] = pick([0.2, 0.5, 1.0])
    if kind in ("fedgd", "fedrelax") or rare():
        cfg["defense.kind"] = pick(AGG_KINDS)
        cfg["defense.tau_l"], cfg["defense.tau_u"] = -0.5, pick([0.5, 3.0])
        cfg["defense.trim_k"] = int(rng.integers(0, 3))
    cfg["dp.kind"] = pick(DP_KINDS)
    cfg["dp.sigma"] = cfg["dp.b"] = pick([0.0, 0.05])
    for idx in range(int(rng.integers(0, 3))):
        attack = pick(ATTACK_KINDS)
        width = d + 1 if rare() else d
        cfg |= {
            f"attack.{idx}.kind": attack,
            f"attack.{idx}.nodes": ",".join(str(v) for v in rng.integers(0, n + rare(), size=2)),
            f"attack.{idx}.fraction": pick([0.0, 0.5, 1.0]),
            f"attack.{idx}.label_delta": 3.0,
            f"attack.{idx}.feature_delta": ",".join(["0.5"] * width),
            f"attack.{idx}.trigger_delta": ",".join(["1.0"] * width),
            f"attack.{idx}.value": pick([-40.0, 50.0]),
        }
    return cfg


def run_bytes(text, tmp_path):
    """The CSV and JSON bytes of one run, or the ConfigError it raised."""
    try:
        report = run_experiment(parse_config(text))
    except ConfigError as exc:
        return exc
    out = []
    for fmt in ("csv", "json"):
        path = tmp_path / f"run.{fmt}"
        export(report, fmt, path)
        out.append(path.read_bytes())
    return out


def test_seeded_configs_are_rejected_or_reproduced(tmp_path):
    rng = np.random.default_rng(20240611)
    ran = set()
    for _ in range(CONFIGS):
        cfg = draw_config(rng)
        text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # batch and split warnings
            first = run_bytes(text, tmp_path)
            second = run_bytes(text, tmp_path)
        if isinstance(first, ConfigError):
            assert isinstance(second, ConfigError) and second.errors == first.errors, text
            continue
        assert first == second, text
        ran |= {value for key, value in cfg.items() if key.endswith("kind")}
        ran.add(cfg.get("async.mode", "sync"))
    # Every solver, schedule, rule, mechanism and attack ran to a report.
    assert set(SOLVERS + MODES + AGG_KINDS + DP_KINDS + ATTACK_KINDS) <= ran
