"""Weighted undirected graphs over devices: Laplacians, spectra, generators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gtvfed.seeds import as_rng

# Eigenvalues this close to zero count as zero when deciding connectivity.
ZERO_EIG_TOL = 1e-8

PENALTIES = ("sq_norm", "norm")
GENERATORS = ("erdos_renyi", "star", "chain", "two_cluster")


class GraphError(ValueError):
    """Invalid graph structure or graph input."""


class EmpGraph:
    """Undirected weighted graph over ``n`` nodes with ids ``0..n-1``.

    Edges are stored as a sorted tuple of ``(i, j, weight)`` with ``i < j``.
    Weights are strictly positive and each unordered pair appears at most
    once. The sorted layout makes iteration order (and everything downstream,
    e.g. message schedules) stable.

    The graph is also held, once, as read-only arrays that every solver
    reads: the CSR adjacency ``indptr``/``indices``/``weights``, with node
    i's neighbours in ``indices[indptr[i]:indptr[i + 1]]`` in ascending
    order, and ``degree``, the weighted degrees. Node i's degree adds its
    neighbour weights left to right in that order, which is also edge order.
    The ``edges`` tuple is built from those arrays on first use.
    """

    __slots__ = (
        "n", "indptr", "indices", "weights", "degree", "_ends", "_edges", "_adj", "_spectrum", "_lam2",
    )

    def __init__(self, n, edges=()):
        n = _node_count(n)
        ii, jj, ww = [], [], []
        for edge in edges:
            if len(edge) == 2:
                i, j = edge
                w = 1.0
            else:
                i, j, w = edge
            ii.append(int(i))
            jj.append(int(j))
            ww.append(float(w))
        self._build(n, ii, jj, ww)

    @classmethod
    def from_arrays(cls, n, ii, jj, ww) -> "EmpGraph":
        """The graph of the edges (ii[e], jj[e], ww[e]), validated as the
        constructor validates an edge list, without a Python object per edge."""
        g = cls.__new__(cls)
        g._build(_node_count(n), ii, jj, ww)
        return g

    def _build(self, n, ii, jj, ww):
        """Validate the edges in bulk and lay out the arrays. The error names
        the first bad edge in input order, with the first check it fails:
        self-loop, endpoint range, duplicate pair, finite weight, positive
        weight."""
        ends = [_ids(ii, n), _ids(jj, n)]
        ww = np.array(ww, dtype=float).reshape(-1)
        lo, hi = np.minimum(*ends), np.maximum(*ends)
        order = np.lexsort((hi, lo))  # stable: a repeated pair's first copy leads
        dup = np.zeros(ww.shape[0], dtype=bool)
        dup[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
        fails = (
            ends[0] == ends[1],
            (lo < 0) | (hi >= n),
            dup,
            ~np.isfinite(ww),
            ~(ww > 0.0),
        )
        bad = np.logical_or.reduce(fails)
        if bad.any():
            k = int(np.argmax(bad))
            i, j, w = int(ii[k]), int(jj[k]), float(ww[k])
            a, b = min(i, j), max(i, j)
            messages = (
                f"self-loop at node {i}",
                f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}",
                f"duplicate edge ({a}, {b})",
                f"edge ({a}, {b}) has non-finite weight {w}",
                f"edge ({a}, {b}) has non-positive weight {w}",
            )
            raise GraphError(next(msg for msg, fail in zip(messages, fails) if fail[k]))
        self.n = n
        ii, jj, ww = lo[order].astype(np.intp), hi[order].astype(np.intp), ww[order]
        rows, cols = np.concatenate([ii, jj]), np.concatenate([jj, ii])
        order = np.lexsort((cols, rows))
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        self.indices = cols[order]
        self.weights = np.concatenate([ww, ww])[order]
        self.degree = np.bincount(rows[order], self.weights, minlength=n)
        self._ends = (ii, jj, ww)
        for arr in (self.indptr, self.indices, self.weights, self.degree, *self._ends):
            arr.flags.writeable = False
        self._edges = None
        self._adj = None
        self._spectrum = None
        self._lam2 = None

    @property
    def edges(self) -> tuple:
        if self._edges is None:
            self._edges = tuple(zip(*(arr.tolist() for arr in self._ends)))
        return self._edges

    @property
    def num_edges(self) -> int:
        return self._ends[0].shape[0]

    def neighbors(self, i) -> tuple:
        """Sorted tuple of (neighbor id, weight) pairs of node i."""
        ids, wts = self.neighbor_arrays(i)
        return tuple(zip(ids.tolist(), wts.tolist()))

    def neighbor_arrays(self, i):
        """Neighbor ids and weights of node i: read-only slices of the CSR."""
        s = slice(self.indptr[i], self.indptr[i + 1])
        return self.indices[s], self.weights[s]

    def adjacency(self) -> np.ndarray:
        """Dense symmetric weight matrix with zero diagonal."""
        if self._adj is None:
            A = np.zeros((self.n, self.n))
            ii, jj, ww = self._ends
            A[ii, jj] = ww
            A[jj, ii] = ww
            self._adj = A
        return self._adj

    def edge_arrays(self):
        """Edge endpoints and weights as three aligned read-only arrays (ii, jj, ww)."""
        return self._ends

    def __repr__(self):
        return f"EmpGraph(n={self.n}, edges={self.num_edges})"


def _node_count(n) -> int:
    n = int(n)
    if n < 1:
        raise GraphError("node count must be at least 1")
    return n


def _ids(values, n) -> np.ndarray:
    """Node ids as int64; an id beyond int64 becomes n, which is out of range too."""
    try:
        return np.array(values, dtype=np.int64).reshape(-1)
    except OverflowError:
        return np.array([min(max(int(v), -1), n) for v in values], dtype=np.int64)


@dataclass(frozen=True)
class Spectrum:
    """Laplacian eigenvalues in nondecreasing order.

    Eigenvalues within ZERO_EIG_TOL of zero are clamped to exactly zero, so
    ``multiplicity_zero`` equals the number of connected components.
    """

    eigenvalues: np.ndarray
    multiplicity_zero: int

    @property
    def lam2(self) -> float:
        """Second-smallest eigenvalue (algebraic connectivity for n >= 2)."""
        if len(self.eigenvalues) < 2:
            raise GraphError("lam2 undefined for a single-node graph")
        return float(self.eigenvalues[1])


@dataclass(frozen=True)
class ConsensusSplit:
    """Orthogonal split of stacked parameters into shared mean and deviations."""

    mean_block: np.ndarray
    deviations: np.ndarray


def degrees(g: EmpGraph):
    """The graph's weighted degree array (read-only) and the maximum degree."""
    return g.degree, float(g.degree.max())


def laplacian(g: EmpGraph) -> np.ndarray:
    """Graph Laplacian: degree matrix minus weight matrix."""
    return np.diag(g.degree) - g.adjacency()


def spectrum(g: EmpGraph) -> Spectrum:
    """Eigenvalues of the Laplacian, clamped near zero (see Spectrum).

    Computed once per graph and kept on it; the eigenvalue array is
    read-only because every caller shares it.
    """
    if g._spectrum is None:
        L = laplacian(g)
        try:
            vals = np.linalg.eigvalsh(L)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise GraphError(f"Laplacian eigensolver failed: {exc}") from exc
        vals = np.where(np.abs(vals) <= ZERO_EIG_TOL, 0.0, vals)
        vals.flags.writeable = False
        g._spectrum = Spectrum(eigenvalues=vals, multiplicity_zero=int(np.sum(vals == 0.0)))
    return g._spectrum


def algebraic_connectivity(g: EmpGraph) -> float:
    """lam2 of the Laplacian as spectrum(g).lam2 gives it, kept on the graph.

    A disconnected graph has lam2 = 0, read from components with no
    eigensolve (its clamped spectrum holds exactly 0.0 there); only a
    connected graph pays for the dense spectrum.
    """
    if g.n < 2:
        raise GraphError("lam2 undefined for a single-node graph")
    if g._lam2 is None:
        g._lam2 = 0.0 if len(components(g)) > 1 else spectrum(g).lam2
    return g._lam2


def components(g: EmpGraph):
    """Connected components as sorted node lists, ordered by smallest member."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in indices[indptr[u] : indptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def is_connected(g: EmpGraph) -> bool:
    return len(components(g)) == 1


def as_blocks(params, n=None, d=None, name="parameters") -> np.ndarray:
    """params as a float (n, d) array, not copied. The one rule for every
    parameter argument: an (n, d) array, or a 1-D array of n entries when
    d = 1. n or d None leaves that size free; d None reads 1-D as d = 1."""
    arr = np.asarray(params, dtype=float)
    if arr.ndim == 1 and d in (None, 1):
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or (n is not None and arr.shape[0] != n) or (d is not None and arr.shape[1] != d):
        n, d = ("n" if n is None else n), ("d" if d is None else d)
        raise ValueError(f"{name} must be ({n}, {d}), got shape {arr.shape}")
    return arr


def gtv_value(g: EmpGraph, params, penalty: str = "sq_norm") -> float:
    """Total variation of node parameters over the graph.

    sq_norm sums weight * ||w_i - w_j||^2 over edges; norm uses the plain
    Euclidean norm instead of its square.
    """
    if penalty not in PENALTIES:
        raise GraphError(f"unknown penalty {penalty!r}; expected one of {PENALTIES}")
    W = as_blocks(params, g.n)
    if not g.num_edges:
        return 0.0
    ii, jj, ww = g.edge_arrays()
    diffs = W.take(ii, axis=0) - W.take(jj, axis=0)
    sq = np.einsum("ed,ed->e", diffs, diffs)
    if penalty == "sq_norm":
        return float(ww @ sq)
    return float(ww @ np.sqrt(sq))


def consensus_split(params) -> ConsensusSplit:
    """Split stacked blocks into their mean and per-node deviations."""
    arr = as_blocks(params)
    mean = arr.mean(axis=0)
    return ConsensusSplit(mean_block=mean, deviations=arr - mean)


def induced(g: EmpGraph, nodes):
    """Subgraph on the given nodes plus the total boundary weight.

    Returns (subgraph, boundary) where the subgraph relabels the kept nodes
    as 0..|C|-1 in sorted order and boundary sums weights of edges with
    exactly one endpoint inside the set.
    """
    keep = sorted(set(int(v) for v in nodes))
    if not keep:
        raise GraphError("cannot induce a subgraph on an empty node set")
    if keep[0] < 0 or keep[-1] >= g.n:
        raise GraphError("induced node set contains ids outside the graph")
    relabel = {v: t for t, v in enumerate(keep)}
    sub_edges = []
    boundary = 0.0
    for i, j, w in g.edges:
        ins_i, ins_j = i in relabel, j in relabel
        if ins_i and ins_j:
            sub_edges.append((relabel[i], relabel[j], w))
        elif ins_i or ins_j:
            boundary += w
    return EmpGraph(len(keep), sub_edges), boundary


def lambda2_degree_check(g: EmpGraph):
    """Algebraic connectivity against its minimum-degree upper bound.

    Returns (lam2, bound, holds) with bound = n/(n-1) * min_i degree(i).
    """
    if g.n < 2:
        raise GraphError("degree bound needs at least 2 nodes")
    lam2 = algebraic_connectivity(g)
    bound = g.n / (g.n - 1) * float(g.degree.min())
    return lam2, bound, bool(lam2 <= bound + 1e-9)


def generate(
    kind: str,
    n: int,
    weight: float = 1.0,
    seed=0,
    p: float | None = None,
    p_in: float | None = None,
    p_out: float | None = None,
) -> EmpGraph:
    """Seeded graph generator.

    Kinds: erdos_renyi(p), star (center node 0), chain, and
    two_cluster(p_in, p_out) with the first ceil(n/2) nodes in cluster A.
    Pairs are visited in lexicographic order with one uniform draw each
    (see _pair_hits), so the same seed always yields the same graph.
    """
    n = int(n)
    if n < 1:
        raise GraphError("node count must be at least 1")
    if not float(weight) > 0.0:
        raise GraphError(f"edge weight must be positive, got {weight}")
    rng = as_rng(seed)
    weight = float(weight)
    if kind == "erdos_renyi":
        probs = _check_prob(p, "p")
    elif kind == "two_cluster":
        pi = _check_prob(p_in, "p_in")
        po = _check_prob(p_out, "p_out")
        in_a = np.arange(n) < (n + 1) // 2
        probs = lambda i, j: np.where(in_a[i] == in_a[j], pi, po)
    elif kind == "star":
        ii, jj = np.zeros(n - 1, dtype=np.intp), np.arange(1, n)
        return EmpGraph.from_arrays(n, ii, jj, np.full(n - 1, weight))
    elif kind == "chain":
        ii = np.arange(n - 1)
        return EmpGraph.from_arrays(n, ii, ii + 1, np.full(n - 1, weight))
    else:
        raise GraphError(
            f"unknown graph kind {kind!r}; expected one of {', '.join(GENERATORS)}"
        )
    ii, jj = _pair_hits(rng, n, probs)
    return EmpGraph.from_arrays(n, ii, jj, np.full(ii.shape[0], weight))


# Uniforms drawn per call when sampling node pairs: bounds generate's memory.
_PAIR_CHUNK = 1 << 20


def _pair_hits(rng, n, probs):
    """Endpoints (ii, jj) of the pairs i < j whose uniform falls below
    probs, a probability or a map from endpoint arrays to probabilities.

    The n(n-1)/2 pairs take one uniform each in lexicographic order, drawn
    in chunks of at most _PAIR_CHUNK: Generator.random fills each value
    from the stream on its own, so one call for many pairs gives the values
    of several calls for fewer, such as one per row.
    """
    starts = np.cumsum(np.arange(n, 0, -1)) - n  # flat index of pair (i, i + 1)
    total = n * (n - 1) // 2

    def ends(flat, i):
        return i, flat - starts[i] + i + 1

    hits = []
    for lo in range(0, total, _PAIR_CHUNK):
        u = rng.random(min(_PAIR_CHUNK, total - lo))
        if callable(probs):
            # Every pair of the chunk: rows first to last, each cut to the chunk.
            first, last = np.searchsorted(starts, [lo, lo + u.shape[0] - 1], side="right") - 1
            cuts = np.clip(starts[first : last + 2], lo, lo + u.shape[0])
            flat = np.arange(lo, lo + u.shape[0])
            i, j = ends(flat, np.repeat(np.arange(first, last + 1), np.diff(cuts)))
            keep = u < probs(i, j)
            hits.append((i[keep], j[keep]))
        else:
            flat = np.flatnonzero(u < probs) + lo
            hits.append(ends(flat, np.searchsorted(starts, flat, side="right") - 1))
    if not hits:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    return tuple(np.concatenate(col) for col in zip(*hits))


def _check_prob(value, name):
    if value is None:
        raise GraphError(f"graph kind requires parameter {name}")
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise GraphError(f"{name} must lie in [0, 1], got {value}")
    return value


def save_edge_list(g: EmpGraph, path) -> None:
    """Write the graph as '# nodes: n' plus one 'i j weight' line per edge.

    Node ids in the file are 1-based; the header comment preserves isolated
    nodes across a round-trip.
    """
    lines = [f"# nodes: {g.n}"]
    for i, j, w in g.edges:
        lines.append(f"{i + 1} {j + 1} {w!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path, n: int | None = None) -> EmpGraph:
    """Read an edge list with 1-based node ids and optional # comments.

    The node count is taken from an optional '# nodes: n' comment, an
    explicit argument, or the largest id seen, in that priority order.
    Duplicate pairs and self-loops are rejected.
    """
    edges = []
    max_id = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("nodes:") and n is None:
                    try:
                        n = int(body.split(":", 1)[1])
                    except ValueError:
                        raise GraphError(
                            f"{path}:{lineno}: malformed nodes header {line!r}"
                        ) from None
                continue
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(
                    f"{path}:{lineno}: expected 'i j weight', got {line!r}"
                )
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise GraphError(
                    f"{path}:{lineno}: non-numeric edge entry in {line!r}"
                ) from None
            if i < 1 or j < 1:
                raise GraphError(f"{path}:{lineno}: node ids are 1-based, got {line!r}")
            max_id = max(max_id, i, j)
            edges.append((i - 1, j - 1, w))
    if n is None:
        n = max_id
    if n < 1:
        raise GraphError(f"{path}: empty edge list with no nodes header")
    try:
        return EmpGraph(n, edges)
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from exc
