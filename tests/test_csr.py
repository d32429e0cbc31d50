"""The graph's one CSR adjacency and one weighted-degree array.

The CSR rows are pinned against the dense adjacency, the degree against a
sequential edge-order loop, and every solver that weighs by degree against
that one array.
"""

import numpy as np
import pytest

from gtvfed.algorithms import contraction_factor, fedgd_op, fedrelax_op
from gtvfed.graph import EmpGraph, degrees, generate, laplacian
from gtvfed.gtvmin import GTVMinProblem, batch_gradient_fn, eig_bounds, eig_summaries, quad_operator
from gtvfed.localmodel import from_dataset, generate_local
from gtvfed.optim import LRSchedule
from gtvfed.trust import RobustAgg, aggregate


def _edge_order_degrees(g):
    # The reference: each edge adds its weight to both ends, in edge order.
    d = np.zeros(g.n)
    for i, j, w in g.edges:
        d[i] += w
        d[j] += w
    return d


def _weighted(n, p, seed):
    """ER(n, p) with lognormal weights, so sums of weights round."""
    rng = np.random.default_rng(seed)
    g = generate("erdos_renyi", n, seed=seed, p=p)
    return EmpGraph(n, [(i, j, float(rng.lognormal(0.0, 1.0))) for i, j, _ in g.edges])


GRAPHS = {
    "one_node": EmpGraph(1),
    "no_edges": EmpGraph(4),
    "isolated": EmpGraph(6, [(4, 1, 0.25), (1, 3, 2.0), (0, 3, 1e-3)]),
    "star_weighted": EmpGraph(5, [(0, k, 0.1 * k) for k in range(1, 5)]),
    "two_cluster": generate("two_cluster", 12, weight=0.3, seed=2, p_in=0.9, p_out=0.2),
    "er_lognormal": _weighted(40, 0.4, 7),
}


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_csr_rows_are_the_dense_rows(name):
    g = GRAPHS[name]
    A = g.adjacency()
    assert g.indptr.shape == (g.n + 1,) and g.indptr[0] == 0
    assert g.indptr[-1] == 2 * g.num_edges == g.indices.shape[0] == g.weights.shape[0]
    for i in range(g.n):
        nz = np.flatnonzero(A[i])
        ids, wts = g.neighbor_arrays(i)
        assert np.array_equal(g.indices[g.indptr[i] : g.indptr[i + 1]], nz)
        assert np.array_equal(ids, nz) and _same_bits(wts, A[i, nz])
        pairs = g.neighbors(i)
        assert isinstance(pairs, tuple) and all(isinstance(pair, tuple) for pair in pairs)
        assert pairs == tuple((int(j), float(A[i, j])) for j in nz)
        assert all(type(j) is int and type(w) is float for j, w in pairs)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_shared_graph_arrays_are_read_only(name):
    g = GRAPHS[name]
    ids, wts = g.neighbor_arrays(0)
    shared = [g.indptr, g.indices, g.weights, g.degree, ids, wts, *g.edge_arrays()]
    for arr in shared:
        with pytest.raises(ValueError):
            arr[...] = 0


@pytest.mark.parametrize("seed", range(30))
def test_degree_bit_equals_the_edge_order_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    g = _weighted(n, float(rng.uniform(0.05, 0.9)), seed)
    assert _same_bits(g.degree, _edge_order_degrees(g))
    d, d_max = degrees(g)
    assert d is g.degree and d_max == float(g.degree.max())
    assert _same_bits(np.diag(laplacian(g)), g.degree)


def test_every_solver_weighs_by_the_one_degree():
    # Degrees near 15 with weight 0.1: numpy's pairwise sum of a node's
    # weights differs from the edge-order sum at most nodes.
    g = generate("erdos_renyi", 300, weight=0.1, seed=3, p=0.05)
    pairwise = np.array([g.neighbor_arrays(i)[1].sum() for i in range(g.n)])
    assert (pairwise != g.degree).sum() > 100
    rng = np.random.default_rng(0)
    d, alpha = 3, 0.7
    losses = [
        from_dataset(generate_local(rng.standard_normal(d), 8, 0.1, seed=i), ridge=0.05)
        for i in range(g.n)
    ]
    p = GTVMinProblem(g, losses, alpha)
    deg = g.degree

    s = eig_summaries(p)
    assert eig_bounds(p).upper == s.lam_max + 2.0 * alpha * float(deg.max())

    W = rng.standard_normal((g.n, d))
    Qs = np.stack([loss.Q for loss in losses])
    mean = RobustAgg.mean()
    want = []
    for i, loss in enumerate(losses):
        ids, wts = g.neighbor_arrays(i)
        coupling = 2.0 * alpha * float(deg[i]) * (W[i] - aggregate(W[ids], wts, mean))
        want.append(loss.gradient(W[i]) + coupling)
    assert _same_bits(batch_gradient_fn(p)(W), np.array(want))

    pre = np.linalg.inv(Qs + alpha * deg[:, None, None] * np.eye(d))
    assert _same_bits(quad_operator(p)._preconditioner(), pre)

    ops, eta = fedrelax_op(p), 0.03
    gd_ops = fedgd_op(p, sched=LRSchedule.constant(eta))
    for i in range(g.n):
        ids, wts = g.neighbor_arrays(i)
        rho = 2.0 * alpha * float(deg[i])
        P = np.linalg.inv(2.0 * losses[i].Q + rho * np.eye(d))
        avg = aggregate(W[ids], wts, mean)
        want = P @ (rho * avg - losses[i].q)
        assert _same_bits(ops[i].update(W[i], W[ids], 0), want), i
        want = W[i] - eta * (losses[i].gradient(W[i]) + rho * (W[i] - avg))
        assert _same_bits(gd_ops[i].update(W[i], W[ids], 0), want), i

    kappas = [1.0 / (1.0 + loss.sigma / (2.0 * alpha * float(di))) for loss, di in zip(losses, deg)]
    assert contraction_factor(p) == max(kappas)
