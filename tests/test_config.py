"""The config boundary: the key table, the cross-key rules, error texts,
the CLI options drawn from the table, and the README's config reference."""

import dataclasses
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvfed import cli
from gtvfed.harness import (
    ATTACK_KEYS,
    ATTACK_RULES,
    CONFIG_KEYS,
    CONFIG_RULES,
    ConfigError,
    parse_config,
)

BASE = {"graph.kind": "chain", "graph.n": "4", "data.d": "2", "algorithm.kind": "fedgd"}
ATTACK = {"attack.0.kind": "label_poison", "attack.0.nodes": "1"}


def text_of(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items() if v is not None)


def errors_of(text: str) -> list:
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value.errors


def test_base_configs_parse():
    parse_config(text_of(BASE))
    cfg = parse_config(text_of(BASE | ATTACK))
    assert cfg.attacks[0]["fraction"] == ATTACK_KEYS["fraction"].default


def test_attack_index_is_a_number():
    cfg = parse_config(text_of(BASE | {"attack.00.kind": "dos", "attack.0.nodes": "1"}))
    assert [a["kind"] for a in cfg.attacks] == ["dos"]
    errors = errors_of(text_of(BASE | ATTACK | {"attack.00.kind": "dos"}))
    assert errors == ["line 7: duplicate key 'attack.0.kind'"]


# ------------------------------------------------------- non-finite floats


@pytest.mark.parametrize("key", ["algorithm.alpha", "data.noise", "data.ridge"])
@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "1e999"])
def test_non_finite_float_names_key_and_line(key, value):
    errors = errors_of(text_of(BASE | {key: value}))
    assert errors == [f"line 5: {key}: must be finite, got {value}"]


def test_repeated_victim_is_rejected_on_its_line():
    # Poisoning applies once per listed id, so a repeat would poison twice.
    errors = errors_of(text_of(BASE | ATTACK | {"attack.0.nodes": "2,1,2,1"}))
    assert errors == ["line 6: attack.0.nodes: node 2 is listed twice"]


def test_non_finite_attack_floats_rejected():
    errors = errors_of(text_of(BASE | ATTACK | {"attack.0.trigger_delta": "1,nan"}))
    assert errors == ["line 7: attack.0.trigger_delta: must be finite, got nan"]


# ---------------------------------------------------------- line numbers


def test_unknown_key_and_bad_literal_name_their_lines():
    errors = errors_of("graph.kind = chain\ngraph.n = four\nbogus = 1\n"
                       "algorithm.kind = fedgd\ndata.d = 1\n")
    assert errors[0].startswith("line 2: graph.n: invalid literal")
    assert errors[1] == "line 3: unknown key 'bogus'"


def test_cli_run_names_config_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text_of(BASE) + "bogus = 1\nalgorithm.alpha = inf\n")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"config error: {bad}: line 5: unknown key 'bogus'",
        f"config error: {bad}: line 6: algorithm.alpha: must be finite, got inf",
    ]
    assert not (tmp_path / "x.csv").exists()


# ------------------------------------------------------ per-key ranges

# One out-of-range value for every key with a range or a constructor check.
OUT_OF_RANGE = {
    "seed": "-1",
    "record_every": "0",
    "graph.n": "0",
    "graph.p": "1.5",
    "graph.p_in": "-0.1",
    "graph.p_out": "2",
    "graph.weight": "0",
    "graph.path": "/nonexistent/edges.txt",
    "graph.discrepancies": "/nonexistent/d.csv",
    "graph.budget": "-1",
    "graph.d_max": "-0.5",
    "data.d": "0",
    "data.m_min": "0",
    "data.noise": "-0.1",
    "data.dir": "/nonexistent/dir",
    "data.ridge": "-1",
    "algorithm.alpha": "-2",
    "algorithm.eta": "0",
    "algorithm.batch": "0",
    "algorithm.local_steps": "0",
    "algorithm.sample_size": "0",
    "async.B": "0",
    "async.horizon": "0",
    "async.p_active": "0",
    "stop.max_iters": "-1",
    "stop.obj_tol": "0",
    "stop.dist_tol": "-1e-3",
    "split.fraction": "1",
    "defense.trim_k": "-1",
    "dp.sigma": "-0.5",
    "dp.b": "-1",
    "attack.0.fraction": "1.5",
    "attack.0.nodes": "1,1",
}


def test_every_table_range_has_a_case():
    ranged = {k for k, spec in CONFIG_KEYS.items() if spec.bounds or spec.check}
    ranged |= {f"attack.0.{f}" for f, spec in ATTACK_KEYS.items() if spec.bounds or spec.check}
    assert set(OUT_OF_RANGE) == ranged


@pytest.mark.parametrize("key", sorted(OUT_OF_RANGE))
def test_out_of_range_value_rejected(key):
    # Out-of-range values are rejected even where the run would not read them.
    lines = BASE | ATTACK | {key: OUT_OF_RANGE[key]}
    lineno = list(lines).index(key) + 1
    errors = errors_of(text_of(lines))
    assert [e for e in errors if e.startswith(f"line {lineno}: {key}: ")], errors


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "0"),
        ("record_every", "1"),
        ("graph.p", "0"),
        ("graph.p", "1"),
        ("async.p_active", "1"),
        ("split.fraction", "0"),
        ("algorithm.eta", "1e-300"),
        ("stop.max_iters", "0"),
        ("defense.trim_k", "0"),
        ("dp.sigma", "0"),
    ],
)
def test_range_edges_accepted(key, value):
    parse_config(text_of(BASE | {key: value}))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("graph.kind", "ring", "expected one of erdos_renyi, star, chain, two_cluster, file, learned; got 'ring'"),
        ("algorithm.penalty", "norm", "expected one of sq_norm; got 'norm'"),
        ("stop.max_iters", "-1", "max_iters must be nonnegative, got -1"),
        ("defense.trim_k", "-1", "trim count must be nonnegative, got -1"),
        ("dp.b", "-1", "scale b must be nonnegative, got -1.0"),
        ("split.fraction", "1", "must lie in [0, 1), got 1.0"),
        ("algorithm.eta", "0", "must be > 0, got 0.0"),
    ],
)
def test_value_messages(key, value, message):
    errors = errors_of(text_of(BASE | {key: value}))
    assert f"{key}: {message}" in [e.split(": ", 1)[1] for e in errors]


# ------------------------------------------------------- cross-key rules

# (rule key, rule `when` keys, overrides of BASE, expected error prefix)
RULE_CASES = [
    ("graph.kind", (), {"graph.kind": None}, "graph.kind: required"),
    ("algorithm.kind", (), {"algorithm.kind": None}, "algorithm.kind: required"),
    ("graph.n", ("graph.kind",), {"graph.n": None},
     "graph.n: required for graph.kind = chain"),
    ("graph.path", ("graph.kind",), {"graph.kind": "file"},
     "graph.path: required for graph.kind = file"),
    ("graph.discrepancies", ("graph.kind",), {"graph.kind": "learned", "graph.budget": "2"},
     "graph.discrepancies: required for graph.kind = learned"),
    ("graph.budget", ("graph.kind", "graph.method"), {"graph.kind": "learned"},
     "graph.budget: required for graph.kind = learned and graph.method = budget"),
    ("graph.d_max", ("graph.kind", "graph.method"),
     {"graph.kind": "learned", "graph.method": "degree"},
     "graph.d_max: required for graph.kind = learned and graph.method = degree"),
    ("data.d", ("data.kind",), {"data.d": None}, "data.d: required for data.kind = synthetic"),
    ("data.dir", ("data.kind",), {"data.kind": "csv"}, "data.dir: required for data.kind = csv"),
    ("data.m_max", (), {"data.m_min": "12", "data.m_max": "11"},
     "data.m_max: must be >= data.m_min"),
    ("algorithm.batch", ("algorithm.kind",), {"algorithm.kind": "fedsgd"},
     "algorithm.batch: required for algorithm.kind = fedsgd"),
    ("algorithm.eta", ("algorithm.kind",), {"algorithm.kind": "fedprox"},
     "algorithm.eta: required for algorithm.kind = fedprox"),
    ("algorithm.eta", ("algorithm.schedule",), {"algorithm.schedule": "diminishing"},
     "algorithm.eta: required for algorithm.schedule = diminishing"),
    ("async.mode", ("algorithm.kind",),
     {"algorithm.kind": "fedavg", "algorithm.eta": "0.1", "async.mode": "total"},
     "async.mode: fedavg and fedprox are server algorithms and run sync only"),
    ("algorithm.schedule", ("algorithm.kind",),
     {"algorithm.kind": "fedprox", "algorithm.eta": "0.5", "algorithm.schedule": "diminishing"},
     "algorithm.schedule: fedprox takes one fixed proximal step"),
    ("defense.kind", ("algorithm.kind",),
     {"algorithm.kind": "fedsgd", "algorithm.batch": "2", "defense.kind": "geomedian"},
     "defense.kind: robust aggregation applies to fedgd and fedrelax only"),
    ("defense.tau_l", ("defense.kind",),
     {"defense.kind": "clipped", "defense.tau_l": "1", "defense.tau_u": "-1"},
     "defense.tau_l: clipping needs tau_l <= tau_u, got (1.0, -1.0)"),
    # attack.<i> rules
    ("kind", (), {"attack.0.nodes": "1"}, "attack.0.kind: required"),
    ("nodes", (), {"attack.0.kind": "dos"}, "attack.0.nodes: required"),
    ("feature_delta", ("kind",), {"attack.0.kind": "feature_poison", "attack.0.nodes": "1"},
     "attack.0.feature_delta: required for attack.0.kind = feature_poison"),
    ("value", ("kind",), {"attack.0.kind": "model_poison", "attack.0.nodes": "1"},
     "attack.0.value: required for attack.0.kind = model_poison"),
]


def test_every_rule_has_a_case():
    rules = {(r.key, tuple(r.when)) for r in CONFIG_RULES + ATTACK_RULES}
    assert rules == {(key, when) for key, when, _, _ in RULE_CASES}
    assert len(RULE_CASES) == len(CONFIG_RULES) + len(ATTACK_RULES)


@pytest.mark.parametrize(
    "overrides, expected", [case[2:] for case in RULE_CASES], ids=[c[3] for c in RULE_CASES]
)
def test_rule_rejects(overrides, expected):
    errors = errors_of(text_of(BASE | overrides))
    # A rule ties keys together, so its error names no single line.
    assert [e for e in errors if e.startswith(expected)], errors


def test_rule_needing_a_value_is_quiet_when_set(tmp_path):
    disc = tmp_path / "d.csv"
    disc.write_text("0,1\n1,0\n")
    cfg = parse_config(text_of(BASE | {
        "graph.kind": "learned", "graph.n": None, "graph.discrepancies": disc,
        "graph.method": "degree", "graph.d_max": "1.0",
    }))
    assert cfg.graph["d_max"] == 1.0


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"graph.n": "four"}, "graph.n"),
        ({"graph.kind": "ring"}, "graph.kind"),
        ({"graph.n": None, "graph.kind": "learned", "graph.discrepancies": __file__,
          "graph.budget": "-1"}, "graph.budget"),
        (ATTACK | {"attack.0.nodes": "one"}, "attack.0.nodes"),
        (ATTACK | {"attack.0.kind": "rowhammer"}, "attack.0.kind"),
    ],
)
def test_failed_required_line_is_reported_once(overrides, key):
    # The key's line already failed, so no rule adds "required" for it.
    lines = BASE | overrides
    lineno = [k for k, v in lines.items() if v is not None].index(key) + 1
    errors = errors_of(text_of(lines))
    assert len(errors) == 1 and errors[0].startswith(f"line {lineno}: {key}: "), errors


# ------------------------------------------------------------------- fuzz

_KEYS = sorted(CONFIG_KEYS) + [f"attack.0.{f}" for f in ATTACK_KEYS]
# Values no key accepts: non-finite or unparseable for numbers, off the
# choice lists, and not an existing file or directory.
_JUNK = ["inf", "-inf", "nan", "NaN", "1e999", "-1e999", "", "#", "é", "∞", "😀", "1,,2", "0x1g"]
_PLAIN = ["0", "1", "0.5", "-1", "3", "sync", "fedgd", "chain", "1,2"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_KEYS + ["bogus", "attack.x.kind", "attack.0.oops", "", "graph"]),
            st.sampled_from(_JUNK + _PLAIN),
            st.sampled_from([" = ", "=", " ", " == "]),
        ),
        max_size=12,
    )
)
def test_fuzzed_lines_raise_only_config_errors(lines):
    text = "\n".join(f"{key}{sep}{val}" for key, val, sep in lines)
    try:
        parse_config(text)
        return
    except ConfigError as exc:
        errors = exc.errors
    numbered = [int(m.group(1)) for m in map(re.compile(r"line (\d+): ").match, errors) if m]
    assert all(1 <= n <= len(lines) for n in numbered)
    for i, (key, val, sep) in enumerate(lines, start=1):
        if key in _KEYS and val in _JUNK and sep.strip() == "=":
            assert i in numbered, (i, errors)


# ------------------------------------------------ parse, write, parse


def written(cfg) -> str:
    """A parsed config as key = value text: floats by repr, tuples
    comma-joined, unset keys left out."""
    sections = {
        "graph": cfg.graph,
        "data": cfg.data,
        "algorithm": cfg.algorithm,
        "async": cfg.async_spec,
        "stop": dataclasses.asdict(cfg.stop),
        "split": {"fraction": cfg.split_fraction},
        "defense": dataclasses.asdict(cfg.defense),
        "dp": {"kind": "none"} if cfg.dp is None else dataclasses.asdict(cfg.dp),
    }
    values = {"seed": cfg.seed, "record_every": cfg.record_every}
    # RobustAgg's tol and max_iter and DPMechanism's seed have no key.
    values |= {
        f"{s}.{k}": v for s, fields in sections.items() for k, v in fields.items()
        if f"{s}.{k}" in CONFIG_KEYS
    }
    values |= {f"attack.{i}.{k}": v for i, a in enumerate(cfg.attacks) for k, v in a.items()}

    def text(v):
        if isinstance(v, tuple):
            return ",".join(map(text, v))
        return repr(v) if isinstance(v, float) else str(v)

    return "".join(f"{k} = {text(v)}\n" for k, v in values.items() if v is not None)


def round_trip_configs(tmp_path):
    """Configs that together set every key and every attack field."""
    (tmp_path / "edges.txt").write_text("0 1 1.0\n1 2 0.5\n")
    (tmp_path / "d.csv").write_text("0,1,4\n1,0,1\n4,1,0\n")
    (tmp_path / "data").mkdir()
    attack = {
        "attack.0.kind": "feature_poison", "attack.0.nodes": "2,0", "attack.0.fraction": "0.3",
        "attack.0.label_delta": "-1.5", "attack.0.feature_delta": "0.1,-2e-3",
        "attack.0.trigger_delta": "1,0.25", "attack.0.target_label": "7", "attack.0.value": "1e-7",
        "attack.3.kind": "model_poison", "attack.3.nodes": "1", "attack.3.value": "50",
    }
    return [
        {
            "seed": "4294967301", "record_every": "3", "graph.kind": "two_cluster", "graph.n": "7",
            "graph.p": "0.1", "graph.p_in": "0.9", "graph.p_out": "0.01", "graph.weight": "0.3",
            "data.kind": "synthetic", "data.d": "2", "data.m_min": "4", "data.m_max": "9",
            "data.noise": "0.07", "data.model": "clustered", "data.ridge": "1e-4",
            "algorithm.kind": "fedsgd", "algorithm.alpha": "0.3", "algorithm.penalty": "sq_norm",
            "algorithm.eta": "0.01", "algorithm.schedule": "diminishing", "algorithm.batch": "3",
            "async.mode": "partial", "async.B": "2", "async.horizon": "40", "async.p_active": "0.7",
            "stop.max_iters": "30", "stop.obj_tol": "1e-9", "stop.dist_tol": "0.001",
            "split.fraction": "0.3", "dp.kind": "gaussian", "dp.sigma": "0.05", "dp.b": "0.2",
        } | attack,
        {
            "graph.kind": "file", "graph.path": str(tmp_path / "edges.txt"), "data.kind": "csv",
            "data.dir": str(tmp_path / "data"), "algorithm.kind": "fedavg", "algorithm.eta": "0.1",
            "algorithm.local_steps": "2", "algorithm.sample_size": "2", "dp.kind": "laplace",
            "dp.b": "0.5",
        },
        {
            "graph.kind": "learned", "graph.discrepancies": str(tmp_path / "d.csv"),
            "graph.method": "budget", "graph.budget": "2.5", "graph.d_max": "1", "data.d": "1",
            "algorithm.kind": "fedrelax", "defense.kind": "clipped", "defense.tau_l": "-0.5",
            "defense.tau_u": "0.75", "defense.trim_k": "2",
        },
        {
            "graph.kind": "chain", "graph.n": "5", "data.d": "3", "algorithm.kind": "fedgd",
            "async.mode": "total", "defense.kind": "trimmed", "defense.trim_k": "0",
        },
    ]


def test_written_configs_parse_back_to_the_same_config(tmp_path):
    configs = round_trip_configs(tmp_path)
    keys = set().union(*configs)
    assert set(CONFIG_KEYS) <= keys
    assert {k.split(".", 2)[2] for k in keys if k.startswith("attack.")} == set(ATTACK_KEYS)
    for values in configs:
        cfg = parse_config(text_of(values))
        again = parse_config(written(cfg))
        for f in dataclasses.fields(cfg):
            if f.name != "text":
                assert getattr(again, f.name) == getattr(cfg, f.name), f.name


# -------------------------------------------------------- CLI and README


def test_cli_options_come_from_the_table():
    ap = cli.build_parser()
    args = ap.parse_args(["gen-graph", "--kind", "chain", "--n", "3", "--out", "g.txt"])
    for key in ("graph.p", "graph.p_in", "graph.p_out", "graph.weight", "seed"):
        assert getattr(args, key.rsplit(".", 1)[-1]) == CONFIG_KEYS[key].default
    args = ap.parse_args(["gen-data", "--n", "3", "--d", "2", "--out", "d"])
    for key in ("data.m_min", "data.m_max", "data.noise", "data.model"):
        assert getattr(args, key.rsplit(".", 1)[-1]) == CONFIG_KEYS[key].default
    args = ap.parse_args(["learn-graph", "--discrepancies", "d.csv", "--out", "g.txt"])
    assert args.method == CONFIG_KEYS["graph.method"].default
    with pytest.raises(SystemExit):
        ap.parse_args(["gen-data", "--n", "3", "--d", "2", "--model", "ring", "--out", "d"])


def test_cli_node_count_out_of_range_names_its_option(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert cli.main(["gen-graph", "--kind", "erdos_renyi", "--n", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: --n: must be >= 1, got 0"]
    assert not out.exists()


def test_cli_learn_graph_budget_out_of_range_names_its_option(tmp_path, capsys):
    disc = tmp_path / "d.csv"
    disc.write_text("0,1\n1,0\n")
    out = tmp_path / "g.txt"
    base = ["learn-graph", "--discrepancies", str(disc), "--out", str(out)]
    assert cli.main(base + ["--method", "budget", "--budget", "-1"]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: --budget: must be >= 0, got -1.0"]
    # The two required-key rules of CONFIG_RULES, in the CLI's own words.
    assert cli.main(base + ["--method", "budget"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: --budget is required for --method budget"
    ]
    assert cli.main(base + ["--method", "degree", "--budget", "3"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: --d-max is required for --method degree"
    ]
    assert not out.exists()
    assert cli.main(base + ["--method", "budget", "--budget", "2"]) == 0
    assert out.exists()


def _readme_block():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Config reference", 1)[1]
    return section.split("```", 2)[1]


def test_readme_config_reference_matches_the_table():
    entries = {}
    for line in _readme_block().splitlines():
        if "=" not in line.split("#", 1)[0]:
            continue
        setting, _, comment = line.partition(" #")
        key, _, value = (part.strip() for part in setting.partition("="))
        entries[key] = (value, comment.strip())
    table = dict(CONFIG_KEYS)
    table.update({f"attack.0.{f}": spec for f, spec in ATTACK_KEYS.items()})
    assert set(entries) == set(table)
    for key, spec in table.items():
        value, comment = entries[key]
        parsed = spec.parse(value)
        if spec.default is not None:
            assert parsed == spec.default, key
        if spec.choices:
            assert parsed in spec.choices, key
            listed = re.match(r"\w+(?: \| \w+)*", comment).group(0).split(" | ")
            assert tuple(listed) == spec.choices, key
