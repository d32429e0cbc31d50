"""Command line front end.

Subcommands: gen-graph writes a seeded edge list, gen-data writes per-node
dataset CSVs, learn-graph fits edge weights to a discrepancy matrix, run
executes a config file and exports CSV/JSON reports, report prints a saved
report's summary. Exit codes: 0 success, 1 validation or I/O error, 2 a
bound check failed under --strict, 3 the run diverged (run still writes
its report, with terminal "diverged").
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from gtvfed import __version__, seeds
from gtvfed import graph as graphmod
from gtvfed import graphlearn
from gtvfed.graph import GraphError
from gtvfed.harness import (
    CONFIG_KEYS,
    CONFIG_RULES,
    ConfigError,
    export,
    gen_node_data,
    load_report_json,
    parse_config,
    run_experiment,
)
from gtvfed.localmodel import save_dataset_csv


def _dest(key: str) -> str:
    return key.rsplit(".", 1)[-1]


def _flag(key: str) -> str:
    return "--" + _dest(key).replace("_", "-")


def _key_options(parser, *keys, required=False) -> None:
    """One --flag per config key, named after the key's last part, with the
    key's parser, default, choices and help from CONFIG_KEYS. The parser
    records the keys; _option_errors checks their values after parsing."""
    for key in keys:
        spec = CONFIG_KEYS[key]
        parser.add_argument(
            _flag(key),
            type=spec.parse,
            default=spec.default,
            choices=spec.choices or None,
            required=required,
            help=spec.help,
        )
    parser.set_defaults(table_keys=(parser.get_default("table_keys") or ()) + keys)


def _option_errors(args) -> list:
    """Each given table option checked against its key's range, and each
    CONFIG_RULES entry that requires one of the options; errors name the
    option. args.fixed holds keys the subcommand itself sets."""
    keys = getattr(args, "table_keys", ())
    values = dict(getattr(args, "fixed", {}))
    values.update((key, getattr(args, _dest(key))) for key in keys)
    errors = []
    for key in keys:
        if values[key] is not None:
            try:
                CONFIG_KEYS[key].accept(values[key])
            except ValueError as exc:
                errors.append(f"{_flag(key)}: {exc}")
    for rule in CONFIG_RULES:
        if rule.key not in keys or rule.holds is not None or values[rule.key] is not None:
            continue
        if all(values.get(k) in allowed for k, allowed in rule.when.items()):
            given = " and ".join(f"{_flag(k)} {values[k]}" for k in rule.when if k in keys)
            errors.append(f"{_flag(rule.key)} is required" + (f" for {given}" if given else ""))
    return errors


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gtvfed",
        description="Networked federated learning over empirical graphs.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    gg = sub.add_parser("gen-graph", help="write a seeded generated edge list")
    gg.add_argument("--kind", required=True, choices=graphmod.GENERATORS)
    _key_options(gg, "graph.n", required=True)
    _key_options(gg, "graph.p", "graph.p_in", "graph.p_out", "graph.weight", "seed")
    gg.add_argument("--out", required=True, help="edge-list path")

    gd = sub.add_parser("gen-data", help="write per-node dataset CSVs")
    _key_options(gd, "graph.n", "data.d", required=True)
    _key_options(gd, "data.m_min", "data.m_max", "data.noise", "data.model", "seed")
    gd.add_argument("--out", required=True, help="output directory")

    lg = sub.add_parser("learn-graph", help="fit edge weights to discrepancies")
    _key_options(lg, "graph.discrepancies", required=True)
    _key_options(lg, "graph.method", "graph.budget", "graph.d_max")
    lg.set_defaults(fixed={"graph.kind": "learned"})
    lg.add_argument("--out", required=True, help="edge-list path")

    rn = sub.add_parser("run", help="run a config file and export reports")
    rn.add_argument("--config", required=True, help="config file path")
    rn.add_argument("--out", required=True, help="output path prefix")
    rn.add_argument("--seed", type=int, default=None, help="override the config seed")
    rn.add_argument("--format", choices=("csv", "json", "both"), default="both")
    rn.add_argument(
        "--strict",
        action="store_true",
        help="exit with code 2 when any bound check fails",
    )

    rp = sub.add_parser("report", help="print the summary of a saved JSON report")
    rp.add_argument("--in", dest="path", required=True, help="report JSON path")
    rp.add_argument("--out", default=None, help="also write the summary text here")
    rp.add_argument(
        "--strict",
        action="store_true",
        help="exit with code 2 when any bound check failed",
    )
    return ap


def _cmd_gen_graph(args) -> int:
    g = graphmod.generate(
        args.kind,
        args.n,
        weight=args.weight,
        seed=seeds.stream(args.seed, "graph"),
        p=args.p,
        p_in=args.p_in,
        p_out=args.p_out,
    )
    graphmod.save_edge_list(g, args.out)
    print(f"wrote {args.out} ({g.n} nodes, {g.num_edges} edges)")
    return 0


def _cmd_gen_data(args) -> int:
    data, _ = gen_node_data(
        args.n, args.d, args.m_min, args.m_max, args.noise, args.model, args.seed
    )
    os.makedirs(args.out, exist_ok=True)
    for i, ds in enumerate(data.datasets()):
        save_dataset_csv(ds, os.path.join(args.out, f"node_{i}.csv"))
    print(f"wrote {args.n} dataset files under {args.out}")
    return 0


def _cmd_learn_graph(args) -> int:
    D = graphlearn.load_discrepancy_csv(args.discrepancies)
    if args.method == "budget":
        g = graphlearn.learn_graph_budget(D, args.budget)
    else:
        g = graphlearn.learn_graph_degree(D, args.d_max)
    graphmod.save_edge_list(g, args.out)
    print(f"wrote {args.out} ({g.n} nodes, {g.num_edges} edges)")
    return 0


def _summary_lines(summary: dict) -> list:
    lines = [
        f"algorithm: {summary.get('algorithm')}",
        f"nodes: {summary.get('n')}",
        f"events: {summary.get('events')}",
        f"terminal: {summary.get('terminal')}",
        f"converged: {summary.get('converged')}",
        f"final objective: {summary.get('final_objective')}",
        f"final dist to oracle: {summary.get('final_dist')}",
        f"final train err: {summary.get('final_train_err')}",
        f"final val err: {summary.get('final_val_err')}",
        f"overfit: {summary.get('overfit')}",
    ]
    if summary.get("divergence") is not None:
        div = summary["divergence"]
        node = "" if div["node"] is None else f" at node {div['node']}"
        lines.append(f"diverged: event {div['event']}{node}")
    if summary.get("baseline_err") is not None:
        lines.append(f"baseline err (noise^2): {summary['baseline_err']}")
    checks = summary.get("bound_checks") or []
    if not checks:
        lines.append("bound checks: none applicable")
    for c in checks:
        state = "ok" if c["holds"] else "FAILED"
        lines.append(
            f"check {c['name']}: {state} measured={c['measured']:.6e} "
            f"bound={c['bound']:.6e} margin={c['margin']:.6e}"
            + (f" event={c['event']}" if "event" in c else "")
        )
    return lines


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        text = fh.read()
    cfg = parse_config(text)
    if args.seed is not None:
        cfg.seed = int(args.seed)
        if cfg.dp is not None:
            cfg.dp = dataclasses.replace(cfg.dp, seed=cfg.seed)
    report = run_experiment(cfg)
    written = []
    if args.format in ("csv", "both"):
        written.append(export(report, "csv", args.out + ".csv"))
    if args.format in ("json", "both"):
        written.append(export(report, "json", args.out + ".json"))
    for line in _summary_lines(report.summary):
        print(line)
    for path in written:
        print(f"wrote {path}")
    if report.summary["terminal"] == "diverged":
        return 3
    if args.strict and any(not c["holds"] for c in report.summary["bound_checks"]):
        return 2
    return 0


def _cmd_report(args) -> int:
    data = load_report_json(args.path)
    summary = data.get("summary", {})
    lines = _summary_lines(summary)
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    checks = summary.get("bound_checks") or []
    if args.strict and any(not c["holds"] for c in checks):
        return 2
    return 0


_COMMANDS = {
    "gen-graph": _cmd_gen_graph,
    "gen-data": _cmd_gen_data,
    "learn-graph": _cmd_learn_graph,
    "run": _cmd_run,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        errors = _option_errors(args)
        if errors:
            raise ConfigError(errors)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        where = f"{args.config}: " if args.command == "run" else ""
        for line in exc.errors:
            print(f"config error: {where}{line}", file=sys.stderr)
        return 1
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
