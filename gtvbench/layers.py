"""Per-layer tracing of `gtvfed run` from outside the package.

`Tracer.install()` replaces public functions and module attributes of the
`gtvfed` modules with timing or counting wrappers, in every module that
holds a reference to them; `uninstall()` puts the originals back. Nothing
inside the package changes. Four wrapper kinds:

  span   times the call and keeps a span (name, start, end, parent) in memory
  timed  times the call into per-experiment sums without keeping a span
  leaf   as timed, with less bookkeeping, for hot calls that trace nothing inside
  count  counts calls; for per-message hooks where timing would cost more
         than the work

Self time of a call is its duration minus the time of traced calls made
inside it. A group's inclusive time counts outermost calls only, so
`laplacian` calling `adjacency` is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

SPAN, TIMED, LEAF, COUNT = "span", "timed", "leaf", "count"


def _assembled_bytes(args, kwargs):
    p = args[0] if args else kwargs["p"]
    return (p.n * p.d) ** 2 * 8


# (module:attribute, metric group, wrapper kind, extra-counter hook)
TARGETS = (
    ("gtvfed.graph:generate", "graph.generate", SPAN, None),
    ("gtvfed.graph:EmpGraph.adjacency", "graph.dense", SPAN, None),
    ("gtvfed.graph:laplacian", "graph.dense", SPAN, None),
    ("gtvfed.graph:spectrum", "graph.dense", SPAN, None),
    ("gtvfed.gtvmin:solve_direct", "gtvmin.solve_direct", SPAN, None),
    ("gtvfed.gtvmin:assemble", "gtvmin.assemble", SPAN, _assembled_bytes),
    ("gtvfed.gtvmin:eig_bounds", "gtvmin.eig_bounds", SPAN, None),
    ("gtvfed.gtvmin:objective", "gtvmin.objective", SPAN, None),
    ("gtvfed.algorithms:run_sync", "algorithms.engine", SPAN, None),
    ("gtvfed.algorithms:run_async", "algorithms.engine", SPAN, None),
    ("gtvfed.algorithms:gen_partially_async", "algorithms.schedule", SPAN, None),
    ("gtvfed.algorithms:AsyncSchedule.validate", "algorithms.schedule", SPAN, None),
    ("gtvfed.algorithms:_Recorder.observe", "algorithms.observe", SPAN, None),
    ("gtvfed.localmodel:QuadLoss.value", "localmodel.loss_value", LEAF, None),
    ("gtvfed.localmodel:generate_local", "localmodel.build", SPAN, None),
    ("gtvfed.localmodel:from_dataset", "localmodel.build", SPAN, None),
    ("gtvfed.trust:DPMechanism.draw", "trust.dp_draw", TIMED, None),
    ("gtvfed.trust:aggregate", "trust.aggregate", LEAF, None),
    ("gtvfed.seeds:stream", "seeds.stream", LEAF, None),
    ("gtvfed.harness:build_graph", "harness.build", SPAN, None),
    ("gtvfed.harness:build_data", "harness.build", SPAN, None),
    ("gtvfed.harness:split_dataset", "harness.build", SPAN, None),
    ("gtvfed.harness:_bound_checks", "harness.bound_checks", SPAN, None),
    ("gtvfed.harness:_sq_err", "harness.sq_err", COUNT, None),
    ("gtvfed.harness:export", "harness.export", SPAN, None),
    ("gtvfed.harness:run_experiment", "harness.run_experiment", SPAN, None),
)

# Factories whose products are wrapped: every per-node operator's update
# and every message interceptor the harness builds are counted.
OPERATOR_FACTORIES = ("fedgd_op", "fedrelax_op")

# Per-layer metric -> (accumulator, group). Inclusive times unless "self".
METRICS = {
    "graph.generate_s": ("incl", "graph.generate"),
    "graph.dense_s": ("incl", "graph.dense"),
    "gtvmin.solve_direct_s": ("incl", "gtvmin.solve_direct"),
    "gtvmin.solve_direct_calls": ("calls", "gtvmin.solve_direct"),
    "gtvmin.assemble_s": ("incl", "gtvmin.assemble"),
    "gtvmin.eig_bounds_s": ("incl", "gtvmin.eig_bounds"),
    "gtvmin.objective_s": ("incl", "gtvmin.objective"),
    "algorithms.engine_self_s": ("self", "algorithms.engine"),
    "algorithms.node_updates": ("calls", "algorithms.node_update"),
    "algorithms.schedule_s": ("incl", "algorithms.schedule"),
    "algorithms.observe_s": ("incl", "algorithms.observe"),
    "localmodel.loss_value_calls": ("calls", "localmodel.loss_value"),
    "localmodel.loss_value_s": ("incl", "localmodel.loss_value"),
    "localmodel.build_s": ("incl", "localmodel.build"),
    "trust.dp_draw_calls": ("calls", "trust.dp_draw"),
    "trust.dp_draw_s": ("incl", "trust.dp_draw"),
    "trust.aggregate_calls": ("calls", "trust.aggregate"),
    "trust.aggregate_s": ("incl", "trust.aggregate"),
    "trust.messages_intercepted": ("calls", "trust.intercept"),
    "seeds.stream_calls": ("calls", "seeds.stream"),
    "seeds.stream_s": ("incl", "seeds.stream"),
    "harness.build_s": ("incl", "harness.build"),
    "harness.bound_checks_s": ("incl", "harness.bound_checks"),
    "harness.sq_err_calls": ("calls", "harness.sq_err"),
    "harness.export_s": ("incl", "harness.export"),
}

# Units of every per-layer metric a traced run prints, including those the
# benchmark driver adds from outside the tracer.
UNITS = {name: "count" if acc == "calls" else "s" for name, (acc, _) in METRICS.items()}
UNITS.update({
    "gtvmin.assembled_mb": "MiB_computed",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "harness.report_mb": "MiB",
    "trace.overhead_s": "s",
})


def _resolve(target):
    modname, attr = target.split(":")
    mod = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(mod, cls_name)
        return [(owner, meth)], owner.__dict__[meth]
    original = getattr(mod, attr)
    holders = [
        (m, name)
        for mname, m in list(sys.modules.items())
        if mname == "gtvfed" or mname.startswith("gtvfed.")
        for name, value in vars(m).items()
        if value is original
    ]
    return holders, original


class Tracer:
    """Wrappers plus per-experiment sums; spans stay in memory until dumped."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self._next_id = 0
        self.exp = -1
        self._reset()

    def _reset(self):
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self.calls = defaultdict(int)
        self.extra = defaultdict(float)

    def wrap(self, fn, group, kind=SPAN, hook=None, label=None):
        label = label or group
        stack, perf = self._stack, time.perf_counter

        if kind == COUNT:

            def counted(*args, **kwargs):
                self.calls[group] += 1
                return fn(*args, **kwargs)

            return counted

        if kind == LEAF:
            # A leaf makes no traced calls and never nests in its own group.
            def leaf(*args, **kwargs):
                t0 = perf()
                out = fn(*args, **kwargs)
                d = perf() - t0
                self.incl[group] += d
                self.self_[group] += d
                self.calls[group] += 1
                if stack:
                    stack[-1][2] += d
                return out

            return leaf

        keep = kind == SPAN

        def timed(*args, **kwargs):
            if hook is not None:
                self.extra[group] += hook(args, kwargs)
            nested = any(f[1] == group for f in stack)
            parent = stack[-1][0] if stack else None
            self._next_id += 1
            frame = [self._next_id, group, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                self.calls[group] += 1
                self.self_[group] += d - frame[2]
                if not nested:
                    self.incl[group] += d
                if stack:
                    stack[-1][2] += d
                if keep:
                    self.spans.append((self.exp, frame[0], parent, label, t0, t1))

        return timed

    def _patch(self, holders, original, replacement):
        for owner, name in holders:
            setattr(owner, name, replacement)
            self._patched.append((owner, name, original))

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for target, group, kind, hook in TARGETS:
            holders, original = _resolve(target)
            label = target.split(":")[0].split(".")[-1] + "." + target.split(":")[1]
            self._patch(holders, original, self.wrap(original, group, kind, hook, label))
        for factory in OPERATOR_FACTORIES:
            holders, original = _resolve("gtvfed.algorithms:" + factory)
            self._patch(holders, original, self._operator_factory(original))
        holders, original = _resolve("gtvfed.trust:model_interceptor")
        self._patch(holders, original, self._interceptor_factory(original))

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _operator_factory(self, factory):
        def build(*args, **kwargs):
            ops = factory(*args, **kwargs)
            for op in ops:
                op.update = self.wrap(op.update, "algorithms.node_update", COUNT)
            return ops

        return build

    def _interceptor_factory(self, factory):
        def build(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), "trust.intercept", COUNT)

        return build

    def begin(self, exp: int):
        self.exp = exp
        self._reset()

    def metrics(self) -> dict:
        """This experiment's per-layer metrics, as in METRICS plus cli.self_s."""
        sums = {"incl": self.incl, "self": self.self_, "calls": self.calls}
        out = {name: sums[acc][group] for name, (acc, group) in METRICS.items()}
        out["gtvmin.assembled_mb"] = self.extra["gtvmin.assemble"] / 2**20
        out["cli.self_s"] = (
            self.incl["cli.main"] - self.incl["harness.run_experiment"] - self.incl["harness.export"]
        )
        return out

    def dump_spans(self, path):
        with open(path, "w") as fh:
            for exp, sid, parent, label, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"exp": exp, "id": sid, "parent": parent, "name": label, "start": t0, "end": t1}
                    )
                    + "\n"
                )
