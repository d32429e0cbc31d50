import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvfed import graph as graphmod
from gtvfed import seeds
from gtvfed.graph import (
    ConsensusSplit,
    EmpGraph,
    GraphError,
    components,
    consensus_split,
    degrees,
    generate,
    gtv_value,
    induced,
    is_connected,
    lambda2_degree_check,
    laplacian,
    load_edge_list,
    save_edge_list,
    spectrum,
)

# 3 nodes, edges {0,1} and {0,2}: the running example for L and the GTV.
STAR3 = EmpGraph(3, [(0, 1), (0, 2)])


def test_edges_normalized_and_sorted():
    g = EmpGraph(4, [(3, 1, 2.0), (2, 0)])
    assert g.edges == ((0, 2, 1.0), (1, 3, 2.0))
    assert g.num_edges == 2
    assert g.neighbors(1) == ((3, 2.0),)


def test_bad_edges_rejected():
    with pytest.raises(GraphError):
        EmpGraph(2, [(0, 0)])
    with pytest.raises(GraphError):
        EmpGraph(2, [(0, 2)])
    with pytest.raises(GraphError):
        EmpGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        EmpGraph(2, [(0, 1, 0.0)])
    with pytest.raises(GraphError):
        EmpGraph(0)


def test_laplacian_three_node_example():
    L = laplacian(STAR3)
    assert np.array_equal(L, [[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    sp = spectrum(STAR3)
    assert np.allclose(sp.eigenvalues, [0, 1, 3], atol=1e-12)
    assert sp.multiplicity_zero == 1


def test_laplacian_two_node_cases():
    sp = spectrum(EmpGraph(2, [(0, 1)]))
    assert np.allclose(sp.eigenvalues, [0, 2], atol=1e-12)
    L = laplacian(EmpGraph(2, [(0, 1, 2.0)]))
    assert np.array_equal(L, [[2, -2], [-2, 2]])


def test_gtv_value_three_node_example():
    w = [1.0, 2.0, 4.0]
    assert gtv_value(STAR3, w, "sq_norm") == pytest.approx(10.0, abs=1e-12)
    assert gtv_value(STAR3, w, "norm") == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(GraphError):
        gtv_value(STAR3, w, "abs")


def test_gtv_zero_for_constant_blocks():
    g = generate("erdos_renyi", 6, seed=3, p=0.7)
    W = np.tile([1.5, -2.0], (6, 1))
    assert gtv_value(g, W) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9), st.integers(1, 3))
def test_gtv_equals_laplacian_quadratic_form(seed, n, d):
    """Edge-wise GTV equals the stacked Laplacian quadratic form."""
    rng = np.random.default_rng(seed)
    g = generate("erdos_renyi", n, seed=seed, p=0.6)
    W = rng.standard_normal((n, d))
    big = np.kron(laplacian(g), np.eye(d))
    quad = float(W.reshape(-1) @ big @ W.reshape(-1))
    assert gtv_value(g, W) == pytest.approx(quad, abs=1e-10, rel=1e-10)


def test_components_match_zero_eigenvalues():
    g = EmpGraph(5, [(0, 1), (2, 3)])
    comps = components(g)
    assert comps == [[0, 1], [2, 3], [4]]
    assert spectrum(g).multiplicity_zero == 3
    assert not is_connected(g)


def test_consensus_split_two_blocks():
    split = consensus_split(np.array([[1.0, 0.0], [3.0, 0.0]]))
    assert isinstance(split, ConsensusSplit)
    assert np.array_equal(split.mean_block, [2.0, 0.0])
    assert np.array_equal(split.deviations, [[-1.0, 0.0], [1.0, 0.0]])


def test_consensus_split_energy_decomposition():
    # ||w||^2 = n ||mean||^2 + sum ||dev||^2 for blocks (0), (0), (3).
    w = np.array([0.0, 0.0, 3.0])
    split = consensus_split(w)
    n_mean = 3 * float(split.mean_block @ split.mean_block)
    dev = float(np.sum(split.deviations**2))
    assert n_mean == pytest.approx(3.0)
    assert dev == pytest.approx(6.0)
    assert n_mean + dev == pytest.approx(9.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 4))
def test_consensus_split_orthogonal_and_exact(seed, n, d):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, d))
    split = consensus_split(W)
    rebuilt = split.mean_block + split.deviations
    assert np.max(np.abs(rebuilt - W)) <= 1e-12
    # Deviations are orthogonal to the replicated mean.
    inner = float(np.sum(split.deviations @ split.mean_block))
    assert abs(inner) <= 1e-10 * max(1.0, float(np.abs(W).max()) ** 2 * n)


def test_induced_boundary_cases():
    sub, boundary = induced(STAR3, [0])
    assert sub.n == 1 and sub.num_edges == 0
    assert boundary == pytest.approx(2.0)
    sub, boundary = induced(STAR3, [0, 1, 2])
    assert boundary == 0.0
    assert sub.edges == STAR3.edges
    sub, boundary = induced(STAR3, [1, 2])
    assert sub.num_edges == 0 and boundary == pytest.approx(2.0)
    with pytest.raises(GraphError):
        induced(STAR3, [])
    with pytest.raises(GraphError):
        induced(STAR3, [0, 5])


def test_induced_relabels_nodes():
    g = EmpGraph(5, [(1, 3, 2.5), (3, 4), (0, 1)])
    sub, boundary = induced(g, [1, 3, 4])
    assert sub.edges == ((0, 1, 2.5), (1, 2, 1.0))
    assert boundary == pytest.approx(1.0)


def test_generate_complete_star_chain():
    assert generate("erdos_renyi", 4, seed=0, p=1.0).num_edges == 6
    star = generate("star", 4)
    assert star.num_edges == 3
    d, d_max = degrees(star)
    assert d[0] == 3.0 and d_max == 3.0
    chain = generate("chain", 5)
    assert chain.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0))


def test_generate_two_cluster_extremes():
    g = generate("two_cluster", 6, seed=1, p_in=1.0, p_out=0.0)
    comps = components(g)
    assert comps == [[0, 1, 2], [3, 4, 5]]
    for comp in comps:
        sub, _ = induced(g, comp)
        assert sub.num_edges == 3


def test_generate_deterministic_and_validated():
    a = generate("erdos_renyi", 12, seed=7, p=0.4)
    b = generate("erdos_renyi", 12, seed=7, p=0.4)
    assert a.edges == b.edges
    with pytest.raises(GraphError):
        generate("erdos_renyi", 4, p=1.5)
    with pytest.raises(GraphError):
        generate("two_cluster", 4, p_in=0.5)
    with pytest.raises(GraphError):
        generate("ring", 4)
    with pytest.raises(GraphError):
        generate("chain", 3, weight=0.0)


# SHA-256 of repr(edges) for seeded graphs, recorded when generate still made
# one rng.random() call per node pair: the seeded-graph contract pins them.
# "bench" stands for seeds.stream(11, "graph"), the kind of generator the
# harness passes; ER 300 with p = 8/299 is the oracle_sync workload's shape.
GENERATED_DIGESTS = [
    (
        "erdos_renyi", 1, dict(p=0.5), 0,
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    ),
    (
        "erdos_renyi", 7, dict(p=0.4), 3,
        "327ab524335c6fe77c3811829ab95c26651ce90a393eff992c26a87d8e7401a6",
    ),
    (
        "erdos_renyi", 50, dict(p=0.1), 11,
        "717ee384031f4aff65da6d84909d0a03a8b013738a22fe9514a1c2ce693230f1",
    ),
    (
        "erdos_renyi", 300, dict(p=8.0 / 299.0), "bench",
        "298ede97c9e304a0c6a70ed9a3ef379b1f2af04655eea81e2c2e4a30f261cbcc",
    ),
    (
        "two_cluster", 1, dict(p_in=0.8, p_out=0.05), 0,
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    ),
    (
        "two_cluster", 7, dict(p_in=0.9, p_out=0.2), 3,
        "8ace150a42a001c5a09a72dde18fbd106d6c1f856edd4ea5a659154340be6e0d",
    ),
    (
        "two_cluster", 50, dict(p_in=0.5, p_out=0.05), 11,
        "02b301e37b9e10f469d599c9f001fa292838e2ee9c44ff5a3933f0d9d033d459",
    ),
    (
        "two_cluster", 300, dict(p_in=0.1, p_out=0.01), 5,
        "7f7db3f31fedc84ad8bd31259f78bd88225f85c7ea9856b689e94d425d9410c1",
    ),
]


@pytest.mark.parametrize("kind,n,probs,seed,digest", GENERATED_DIGESTS)
def test_generate_matches_pinned_edge_lists(kind, n, probs, seed, digest):
    if seed == "bench":
        seed = seeds.stream(11, "graph")
    g = generate(kind, n, seed=seed, **probs)
    assert hashlib.sha256(repr(g.edges).encode()).hexdigest() == digest


@pytest.mark.parametrize("kind,n,probs,seed,digest", GENERATED_DIGESTS)
def test_generate_draws_the_same_graph_in_small_chunks(monkeypatch, kind, n, probs, seed, digest):
    # Chunks of 7 uniforms cut rows and clusters at many places.
    monkeypatch.setattr(graphmod, "_PAIR_CHUNK", 7)
    test_generate_matches_pinned_edge_lists(kind, n, probs, seed, digest)


def test_lambda2_degree_check_path_and_clique():
    lam2, bound, holds = lambda2_degree_check(generate("chain", 3))
    assert lam2 == pytest.approx(1.0, abs=1e-9)
    assert bound == pytest.approx(1.5)
    assert holds
    lam2, bound, holds = lambda2_degree_check(generate("erdos_renyi", 3, seed=0, p=1.0))
    assert lam2 == pytest.approx(3.0, abs=1e-9)
    assert bound == pytest.approx(3.0)
    assert holds


def test_lambda2_degree_check_disconnected():
    lam2, bound, holds = lambda2_degree_check(EmpGraph(4, [(0, 1), (2, 3)]))
    assert lam2 == 0.0
    assert holds
    with pytest.raises(GraphError):
        lambda2_degree_check(EmpGraph(1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10))
def test_lambda_max_degree_bound(seed, n):
    g = generate("erdos_renyi", n, seed=seed, p=0.5)
    _, d_max = degrees(g)
    lam_n = float(spectrum(g).eigenvalues[-1])
    assert lam_n <= 2.0 * d_max + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 8))
def test_adding_edge_never_decreases_lambda2(seed, n):
    rng = np.random.default_rng(seed)
    g = generate("erdos_renyi", n, seed=seed, p=0.5)
    present = {(i, j) for i, j, _ in g.edges}
    missing = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present]
    if not missing:
        return
    i, j = missing[rng.integers(len(missing))]
    grown = EmpGraph(n, list(g.edges) + [(i, j, 1.0)])
    assert spectrum(grown).lam2 >= spectrum(g).lam2 - 1e-9


def test_edge_list_round_trip(tmp_path):
    g = EmpGraph(4, [(0, 2, 1.5), (1, 3), (0, 1, 0.25)])
    path = tmp_path / "g.txt"
    save_edge_list(g, path)
    text = path.read_text()
    # Stored ids are 1-based.
    assert "1 2 0.25" in text.splitlines()
    back = load_edge_list(path)
    assert back.n == g.n
    assert back.edges == g.edges


def test_edge_list_loader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 1.0\n2 1 3.0\n")
    with pytest.raises(GraphError):
        load_edge_list(path)
    path.write_text("1 one 1.0\n")
    with pytest.raises(GraphError):
        load_edge_list(path)


def test_edge_list_comments_and_n_override(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n1 2 2.0\n\n")
    g = load_edge_list(path, n=5)
    assert g.n == 5
    assert g.edges == ((0, 1, 2.0),)


def test_non_finite_edge_weight_rejected_with_the_edge():
    with pytest.raises(GraphError, match=r"edge \(0, 1\) has non-finite weight inf"):
        EmpGraph(3, [(0, 1, float("inf")), (1, 2, 1.0)])
    with pytest.raises(GraphError, match=r"edge \(1, 2\) has non-finite weight nan"):
        EmpGraph(3, [(0, 1, 1.0), (2, 1, float("nan"))])


def test_edge_list_with_infinite_weight_names_file_and_edge(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# nodes: 3\n1 2 1.0\n2 3 inf\n")
    with pytest.raises(GraphError, match=r"g\.txt: edge \(1, 2\) has non-finite weight"):
        load_edge_list(path)


def test_spectrum_computed_once_per_graph(monkeypatch):
    import gtvfed.graph as graphmod

    g = generate("erdos_renyi", 12, p=0.4, seed=1)
    calls = []
    real = graphmod.laplacian
    monkeypatch.setattr(graphmod, "laplacian", lambda h: calls.append(h) or real(h))
    first = spectrum(g)
    assert spectrum(g) is first and spectrum(g).lam2 == first.lam2
    assert len(calls) == 1
    with pytest.raises(ValueError):
        first.eigenvalues[0] = 1.0
    assert np.allclose(first.eigenvalues, np.linalg.eigvalsh(real(g)), atol=1e-8)
