"""Independent checks of `gtvfed run` reports.

The reference is computed without `gtvfed.gtvmin`: the inputs are
regenerated through the public seeded generators (`graph.generate`,
`harness.gen_node_datasets`, `harness.split_dataset`), the coupled
quadratic f(w) = w'Qw + q'w + c is assembled sparse, its minimizer w* is
found by preconditioned CG and its extreme eigenvalues by `eigsh`.

A report passes when, besides its shape and finiteness,
  * every recorded event satisfies lam_min dist^2 <= F - f* <= lam_max dist^2
    with F = sum of node objectives + alpha * gtv (true for any iterate);
  * event 0 (the zero start) reads F = sum c_i, gtv = 0, dist = |w*|;
  * each node objective equals its train error (ridge 0, clean data);
  * clean synchronous FedGD never increases F;
  * with Gaussian DP noise, dist obeys the perturbed-descent recursion
    d_{k+1} <= kappa (d_k + |z_k|), the noise regenerated from its stream key;
  * the CSV is the JSON rows printed to 12 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gtvfed import seeds
from gtvfed.harness import gen_node_datasets, split_dataset

import workloads

CSV_HEADER = "event,node,objective,gtv,train_err,val_err,dist_oracle"
REL = 1e-9


class CheckError(AssertionError):
    """A report failed an independent check; the message lists every failure."""


@dataclass
class Reference:
    n: int
    d: int
    alpha: float
    w_star: np.ndarray
    f_star: float
    c_total: float
    lam_min: float
    lam_max: float
    kappa: float | None
    noise_norms: np.ndarray | None


def _quadratic(w: dict, config_seed: int):
    g = workloads.build_graph(w, config_seed)
    n, d, m = w["n"], w["d"], w["m"]
    datasets, _ = gen_node_datasets(n, d, m, m, w["noise"], w["model"], config_seed)
    trains = [
        split_dataset(ds, w["split"], seeds.stream(config_seed, "data", i, 1))[0]
        for i, ds in enumerate(datasets)
    ]
    Qs = np.stack([t.X.T @ t.X / t.m for t in trains])
    q = np.concatenate([-2.0 / t.m * (t.X.T @ t.y) for t in trains])
    cs = np.array([t.y @ t.y / t.m for t in trains])
    ii, jj, ww = (np.array(col) for col in zip(*g.edges))
    A = sp.coo_matrix((ww, (ii.astype(int), jj.astype(int))), shape=(n, n))
    A = (A + A.T).tocsr()
    deg = np.asarray(A.sum(axis=1)).ravel()
    L = sp.diags(deg) - A
    Q = (sp.block_diag(list(Qs)) + w["alpha"] * sp.kron(L, sp.identity(d))).tocsr()
    return Q, q, cs, Qs, deg


def reference(w: dict, config_seed: int) -> Reference:
    n, d, alpha = w["n"], w["d"], w["alpha"]
    Q, q, cs, Qs, deg = _quadratic(w, config_seed)
    # Block-Jacobi preconditioner: inverse of each node's diagonal block.
    blocks = Qs + alpha * deg[:, None, None] * np.eye(d)
    M = sp.block_diag(list(np.linalg.inv(blocks))).tocsr()
    rhs = -q / 2.0
    x, info = spla.cg(Q, rhs, rtol=1e-14, atol=0.0, maxiter=20 * n * d, M=M)
    resid = float(np.max(np.abs(Q @ x - rhs)))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(rhs)))):
        raise CheckError(f"reference CG did not converge (info {info}, residual {resid:.3e})")
    c_total = float(cs.sum())
    f_star = float(x @ (Q @ x) + q @ x + c_total)
    lam_max = float(spla.eigsh(Q, k=1, which="LA", return_eigenvectors=False)[0])
    lam_min = float(spla.eigsh(Q, k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0])

    kappa = norms = None
    if "dp_sigma" in w:
        # The run's step is the documented default 1/(2U) with
        # U = max_i lambda_max(Q_i) + 2 alpha max degree.
        upper = float(max(np.linalg.eigvalsh(Qi)[-1] for Qi in Qs)) + 2.0 * alpha * float(deg.max())
        eta = 1.0 / (2.0 * upper)
        kappa = max(abs(1.0 - 2.0 * eta * lam_min), abs(1.0 - 2.0 * eta * lam_max))
        key = seeds.STREAMS["noise"]
        norms = np.empty(w["max_iters"])
        for k in range(w["max_iters"]):
            total = 0.0
            for i in range(n):
                ss = np.random.SeedSequence(config_seed, spawn_key=(key, i, k))
                z = np.random.default_rng(ss).normal(0.0, w["dp_sigma"], size=d)
                total += float(z @ z)
            norms[k] = math.sqrt(total)
    return Reference(
        n=n,
        d=d,
        alpha=alpha,
        w_star=x.reshape(n, d),
        f_star=f_star,
        c_total=c_total,
        lam_min=lam_min,
        lam_max=lam_max,
        kappa=kappa,
        noise_norms=norms,
    )


def expected_events(w: dict) -> list:
    ks = list(range(0, w["max_iters"] + 1, w["record_every"]))
    if ks[-1] != w["max_iters"]:
        ks.append(w["max_iters"])
    return ks


def _fmt(v) -> str:
    return "{:.11e}".format(float(v))


def check_report(w: dict, config_seed: int, ref: Reference, csv_text: str, json_text: str) -> None:
    """Raise CheckError listing every way the report is wrong."""
    bad = []
    data = json.loads(json_text)
    rows = data["rows"]
    lines = csv_text.rstrip("\n").split("\n")

    if lines[0] != CSV_HEADER:
        bad.append(f"CSV header {lines[0]!r}")
    if len(lines) - 1 != len(rows):
        bad.append(f"CSV has {len(lines) - 1} rows, JSON {len(rows)}")
    for t, (line, r) in enumerate(zip(lines[1:], rows)):
        want = f"{r[0]},{r[1]}," + ",".join(_fmt(v) for v in r[2:])
        if line != want:
            bad.append(f"CSV row {t} {line!r} is not the JSON row {want!r}")
            break

    n, ks = ref.n, expected_events(w)
    if len(rows) != n * len(ks):
        bad.append(f"{len(rows)} rows, expected {len(ks)} events x {n} nodes")
        raise CheckError("\n".join(bad))
    arr = np.array(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        bad.append("non-finite value in the rows")
        raise CheckError("\n".join(bad))
    arr = arr.reshape(len(ks), n, 7)
    if not np.array_equal(arr[:, :, 0], np.repeat(np.array(ks, float)[:, None], n, 1)):
        bad.append(f"event column is not {ks[:4]}... per node")
    if not np.array_equal(arr[:, :, 1], np.tile(np.arange(n, dtype=float), (len(ks), 1))):
        bad.append("node column is not 0..n-1 per event")
    for col, name in ((3, "gtv"), (6, "dist_oracle")):
        if not np.all(arr[:, :, col] == arr[:, :1, col]):
            bad.append(f"{name} differs between the rows of one event")

    obj = arr[:, :, 2]
    gtv = arr[:, 0, 3]
    dist = arr[:, 0, 6]
    F = obj.sum(axis=1) + ref.alpha * gtv
    scale = np.abs(obj).sum(axis=1) + ref.alpha * np.abs(gtv) + abs(ref.f_star) + 1.0

    if np.any(np.abs(obj - arr[:, :, 4]) > REL * (1.0 + np.abs(obj))):
        bad.append("a node objective differs from its train error")
    if abs(F[0] - ref.c_total) > REL * scale[0] or gtv[0] != 0.0:
        bad.append(f"event 0: F = {F[0]:.12g}, gtv = {gtv[0]:.12g}; expected F = {ref.c_total:.12g}, gtv = 0")
    wnorm = float(np.linalg.norm(ref.w_star))
    if abs(dist[0] - wnorm) > 1e-8 * (1.0 + wnorm):
        bad.append(f"event 0: dist_oracle {dist[0]:.12g}, expected |w*| = {wnorm:.12g}")

    # The program's oracle and w* agree to ~1e-12; allow that in dist.
    eps = 1e-9 * (1.0 + wnorm)
    gap = F - ref.f_star
    lo = ref.lam_min * np.maximum(dist - eps, 0.0) ** 2
    hi = ref.lam_max * (dist + eps) ** 2
    tol = REL * scale
    for t, k in enumerate(ks):
        if not lo[t] - tol[t] <= gap[t] <= hi[t] + tol[t]:
            bad.append(
                f"event {k}: F - f* = {gap[t]:.6e} outside "
                f"[lam_min dist^2, lam_max dist^2] = [{lo[t]:.6e}, {hi[t]:.6e}]"
            )
            break

    if w["mode"] == "sync" and "dp_sigma" not in w and "victims" not in w:
        rises = np.nonzero(F[1:] > F[:-1] + tol[:-1])[0]
        if rises.size:
            t = int(rises[0])
            bad.append(f"clean FedGD objective rose from {F[t]:.12g} to {F[t + 1]:.12g} at event {ks[t + 1]}")

    if ref.noise_norms is not None:
        if w["record_every"] != 1:
            raise ValueError("the perturbed-descent check needs every event recorded")
        bound = dist[0]
        for k in range(1, len(ks)):
            bound = ref.kappa * (bound + ref.noise_norms[k - 1])
            if dist[k] > bound * (1.0 + REL) + eps:
                bad.append(f"event {k}: dist {dist[k]:.12g} exceeds the perturbed-descent bound {bound:.12g}")
                break

    s = data["summary"]
    want = {"events": w["max_iters"], "terminal": "max_iters", "n": n, "algorithm": w["algorithm"]}
    for key, val in want.items():
        if s.get(key) != val:
            bad.append(f"summary {key} = {s.get(key)!r}, expected {val!r}")
    if data["environment"].get("seed") != config_seed:
        bad.append(f"environment seed {data['environment'].get('seed')!r}, expected {config_seed}")
    failed = [c["name"] for c in s.get("bound_checks", []) if not c["holds"]]
    if failed:
        bad.append(f"bound checks failed: {failed}")
    fo, fd = s.get("final_objective"), s.get("final_dist")
    if fo is None or abs(fo - F[-1]) > REL * scale[-1]:
        bad.append(f"summary final_objective {fo!r} is not the last event's F {F[-1]:.12g}")
    if fd is None or abs(fd - dist[-1]) > REL * (1.0 + abs(dist[-1])):
        bad.append(f"summary final_dist {fd!r} is not the last event's dist {dist[-1]:.12g}")
    if bad:
        raise CheckError("\n".join(bad))


def check_files(w: dict, config_seed: int, ref: Reference, prefix: str) -> None:
    with open(prefix + ".csv") as fh:
        csv_text = fh.read()
    with open(prefix + ".json") as fh:
        json_text = fh.read()
    check_report(w, config_seed, ref, csv_text, json_text)


def check_degrees(w: dict, config_seed: int) -> None:
    """Trimmed aggregation needs more than 2 trim_k neighbours at every node."""
    g = workloads.build_graph(w, config_seed)
    need = 2 * w["trim_k"]
    low = [i for i in range(g.n) if len(g.neighbors(i)) <= need]
    if low:
        raise CheckError(
            f"nodes {low[:5]} have at most {need} neighbours; "
            f"trim_k = {w['trim_k']} cannot aggregate there"
        )
