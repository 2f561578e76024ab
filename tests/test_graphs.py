import numpy as np
import pytest

from epidelay import graphs
from epidelay.graphs import (MAX_GRAPH_STUBS, ContactGraph, _ba_attach, _csr_from_edges,
                             _ws_rewire, generate_graph, sorted_unique)
from epidelay.params import ModelError


def neighbors(g: ContactGraph, v: int) -> np.ndarray:
    return g.indices[g.indptr[v]: g.indptr[v + 1]]


def assert_simple_symmetric(g: ContactGraph):
    seen = set()
    for u in range(g.node_count):
        row = neighbors(g, u)
        assert u not in row, "self-loop"
        assert len(set(row.tolist())) == len(row), "duplicate edge"
        for v in row.tolist():
            seen.add((min(u, v), max(u, v)))
    # symmetry: every directed slot pairs up
    assert len(g.indices) == 2 * len(seen)
    for u, v in list(seen)[:200]:
        assert u in neighbors(g, v)


@pytest.mark.parametrize("kind", ["config-poisson", "barabasi-albert", "watts-strogatz"])
class TestAllGenerators:
    def test_simple_and_symmetric(self, kind):
        g = generate_graph(kind, 800, 4.0, 123)
        assert_simple_symmetric(g)
        assert np.array_equal(g.degrees, np.diff(g.indptr))

    def test_mean_degree_within_two_percent(self, kind):
        g = generate_graph(kind, 20_000, 4.0, 9)
        mu, _ = g.census
        assert abs(mu - 4.0) <= 0.08

    def test_deterministic_from_seed(self, kind):
        a = generate_graph(kind, 2000, 4.0, 77)
        b = generate_graph(kind, 2000, 4.0, 77)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)
        c = generate_graph(kind, 2000, 4.0, 78)
        assert not np.array_equal(a.indices, c.indices)


class TestConfigPoisson:
    def test_poisson_variance(self):
        g = generate_graph("config-poisson", 100_000, 4.0, 2)
        mu, var = g.census
        assert 3.8 <= var <= 4.2
        assert abs(mu - 4.0) < 0.08

    def test_odd_stub_total_resample(self):
        # several seeds; the parity fix path triggers on ~half of them
        for seed in range(8):
            g = generate_graph("config-poisson", 501, 3.0, seed)
            assert len(g.indices) % 2 == 0


class TestBarabasiAlbert:
    def test_heavy_tail(self):
        g = generate_graph("barabasi-albert", 50_000, 4.0, 4)
        mu, var = g.census
        assert abs(mu - 4.0) < 0.08
        assert np.sqrt(var) / mu > 1.0
        assert g.degrees.max() > 50
        assert g.degrees.min() >= 2

    def test_unattainable_mean_rejected(self):
        with pytest.raises(ModelError):
            generate_graph("barabasi-albert", 1000, 5.0, 1)


class TestWattsStrogatz:
    def test_unrewired_ring_is_regular(self, monkeypatch):
        monkeypatch.setattr(graphs, "WS_REWIRE", 0.0)
        g = generate_graph("watts-strogatz", 1000, 4.0, 3)
        assert np.all(g.degrees == 4)

    def test_rewire_preserves_edge_count(self, monkeypatch):
        g1 = generate_graph("watts-strogatz", 5000, 4.0, 3)
        monkeypatch.setattr(graphs, "WS_REWIRE", 0.0)
        g0 = generate_graph("watts-strogatz", 5000, 4.0, 3)
        assert g1.edge_count == g0.edge_count == 10_000
        assert g1.census[1] > 0.0

    def test_bad_ring_parameters(self):
        with pytest.raises(ModelError):
            generate_graph("watts-strogatz", 100, 1.0, 0)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ModelError):
            generate_graph("erdos-renyi", 1000, 4.0, 0)

    def test_too_few_nodes(self):
        with pytest.raises(ModelError):
            generate_graph("config-poisson", 50, 4.0, 0)

    def test_low_mean_degree(self):
        with pytest.raises(ModelError):
            generate_graph("config-poisson", 1000, 0.5, 0)

    @pytest.mark.parametrize("kind", ["config-poisson", "barabasi-albert"])
    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_non_finite_mean_degree(self, kind, mu):
        with pytest.raises(ModelError):
            generate_graph(kind, 1000, mu, 0)

    @pytest.mark.parametrize("kind", ["config-poisson", "barabasi-albert", "watts-strogatz"])
    @pytest.mark.parametrize("n,mu", [(100, 99.5), (1000, 1000.0), (5000, 1e9)])
    def test_mean_degree_above_node_count_minus_one(self, kind, n, mu):
        with pytest.raises(ModelError, match="node_count - 1"):
            generate_graph(kind, n, mu, 0)

    @pytest.mark.parametrize("kind", ["config-poisson", "barabasi-albert", "watts-strogatz"])
    @pytest.mark.parametrize("n,mu", [(100_000_000_000, 4.0), (200_000, 150_000.0),
                                      (MAX_GRAPH_STUBS // 10 + 1, 10.0), (10 ** 30, 1.0)])
    def test_oversized_request(self, kind, n, mu):
        # rejected before anything is allocated: each request needs gigabytes
        with pytest.raises(ModelError, match="exceeds"):
            generate_graph(kind, n, mu, 0)

    def test_complete_graph_accepted(self, monkeypatch):
        # mean_degree = node_count - 1 is the largest request allowed
        monkeypatch.setattr(graphs, "WS_REWIRE", 0.0)
        g = generate_graph("watts-strogatz", 101, 100.0, 0)
        assert g.edge_count == 101 * 100 // 2

    def test_degree_distribution_export(self):
        g = generate_graph("config-poisson", 5000, 4.0, 6)
        dist = g.degree_distribution()
        assert dist.population == 5000

    @pytest.mark.parametrize("kind", ["config-poisson", "barabasi-albert", "watts-strogatz"])
    def test_edge_list_matches_row_loop(self, kind, tmp_path):
        g = generate_graph(kind, 2000, 4.0, 8)
        path = tmp_path / "edges.txt"
        g.write_edge_list(path)
        ref = tmp_path / "ref.txt"
        _ref_write_edge_list(g, ref)
        assert path.read_bytes() == ref.read_bytes()

    def test_edge_list_export(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs, "WS_REWIRE", 0.0)
        g = generate_graph("watts-strogatz", 200, 4.0, 5)
        path = tmp_path / "edges.txt"
        g.write_edge_list(path)
        lines = path.read_text().splitlines()
        assert len(lines) == g.edge_count
        u, v = map(int, lines[0].split())
        assert v in neighbors(g, u)


# --- reference: the sequential definitions the vectorised code reproduces


def _ref_write_edge_list(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(g.node_count):
            row = g.indices[g.indptr[u]: g.indptr[u + 1]]
            for v in row[row > u]:
                fh.write(f"{u} {v}\n")


def _ref_dedupe(n, u, v):
    keep = u != v
    u, v = u[keep], v[keep]
    lo = np.minimum(u, v).astype(np.int64)
    hi = np.maximum(u, v).astype(np.int64)
    keys = np.unique(lo * n + hi)
    return keys // n, keys % n


def _ref_csr(n, lo, hi):
    ends = np.concatenate([lo, hi])
    other = np.concatenate([hi, lo])
    order = np.argsort(ends, kind="stable")
    indices = np.ascontiguousarray(other[order], dtype=np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    return indptr, indices


def _ref_ba_attach(m, n, uniforms):
    """The repeated-nodes loop one draw at a time; (edges_u, edges_v, draws
    consumed), or (None, None, -1) when the buffer runs out."""
    repeated = np.empty(2 * m * (n - m), dtype=np.int64)
    targets = list(range(m))
    edges_u, edges_v = [], []
    rep_len = ptr = 0
    for t in range(m, n):
        for j in range(m):
            edges_u.append(t)
            edges_v.append(targets[j])
            repeated[rep_len] = targets[j]
            repeated[rep_len + 1] = t
            rep_len += 2
        filled = 0
        while filled < m:
            if ptr >= uniforms.shape[0]:
                return None, None, -1
            cand = int(repeated[int(uniforms[ptr] * rep_len)])
            ptr += 1
            if cand not in targets[:filled]:
                targets[filled] = cand
                filled += 1
    return np.array(edges_u, dtype=np.int64), np.array(edges_v, dtype=np.int64), ptr


def _ref_ws_rewire(n, u, v, rewire_idx, rng):
    edge_set = set((min(a, b) * n + max(a, b)) for a, b in zip(u.tolist(), v.tolist()))
    buf = rng.random(4 * rewire_idx.size + 64)
    ptr = 0
    for i in rewire_idx.tolist():
        a, b = int(u[i]), int(v[i])
        old_key = min(a, b) * n + max(a, b)
        for _ in range(1000):
            if ptr >= buf.size:
                buf = rng.random(buf.size)
                ptr = 0
            w = int(buf[ptr] * n)
            ptr += 1
            new_key = min(a, w) * n + max(a, w)
            if w != a and new_key not in edge_set:
                edge_set.discard(old_key)
                edge_set.add(new_key)
                v[i] = w
                break


def _ref_graph(kind, n, mu, seed, rewire_p):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if kind == "config-poisson":
        deg = rng.poisson(mu, n)
        idx = int(rng.integers(n))
        while int(deg.sum()) % 2 == 1:
            deg[idx] = rng.poisson(mu)
        stubs = np.repeat(np.arange(n, dtype=np.int64), deg)
        stubs = stubs[rng.permutation(stubs.size)]
        u, v = stubs[0::2], stubs[1::2]
    elif kind == "barabasi-albert":
        m = max(1, int(round(mu / 2.0)))
        overdraw = int(2.5 * m * (n - m)) + 1024
        while True:
            u, v, used = _ref_ba_attach(m, n, rng.random(overdraw))
            if used >= 0:
                break
            overdraw *= 2
    else:
        half = int(round(mu / 2.0))
        u = np.repeat(np.arange(n, dtype=np.int64), half)
        v = (u + np.tile(np.arange(1, half + 1, dtype=np.int64), n)) % n
        if rewire_p > 0.0:
            decide = rng.random(u.size)
            _ref_ws_rewire(n, u, v, np.flatnonzero(decide < rewire_p), rng)
    indptr, indices = _ref_csr(n, *_ref_dedupe(n, u, v))
    return indptr, indices, np.diff(indptr).astype(np.int32)


def _assert_bitwise_equal(g: ContactGraph, ref):
    for got, want in zip((g.indptr, g.indices, g.degrees), ref):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


ORACLE_GRID = [
    (kind, n, mu, p)
    for n in (100, 2000, 100_000)
    for mu in (4.0, 6.0, 10.0)
    for kind, rewires in (("config-poisson", (0.1,)), ("barabasi-albert", (0.1,)),
                          ("watts-strogatz", (0.0, 0.1, 0.5, 1.0)))
    for p in rewires
]


class TestGeneratorOracle:
    """The vectorised generators, sort-based dedupe and CSR assembly give the
    same graph as the sequential definitions, draw for draw."""

    @pytest.mark.parametrize("kind,n,mu,p", ORACLE_GRID)
    def test_grid_matches_reference(self, kind, n, mu, p, monkeypatch):
        seed = 1000 + n + int(10 * mu) + int(100 * p)
        monkeypatch.setattr(graphs, "WS_REWIRE", p)
        _assert_bitwise_equal(generate_graph(kind, n, mu, seed),
                              _ref_graph(kind, n, mu, seed, p))

    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_saturated_ring(self, p, monkeypatch):
        # k = 98 on 101 nodes: most draws collide and some edges exhaust
        # their 1000 tries, so the buffer is refilled mid-edge
        monkeypatch.setattr(graphs, "WS_REWIRE", p)
        for seed in (3, 4):
            _assert_bitwise_equal(generate_graph("watts-strogatz", 101, 98.0, seed),
                                  _ref_graph("watts-strogatz", 101, 98.0, seed, p))

    def test_crowded_node_rewire(self):
        # node 0 of 2000 is joined to 1990 others, so each of its rewired
        # edges has 9 free targets: most need over 16 draws, about 2% exhaust
        # their 1000, and the draw buffer is refilled many times
        n = 2000
        u = np.zeros(1990, dtype=np.int64)
        v0 = np.arange(1, 1991, dtype=np.int64)
        rewire_idx = np.arange(0, 1990, 2)
        want, got = v0.copy(), v0.copy()
        _ref_ws_rewire(n, u, want, rewire_idx, np.random.default_rng(5))
        _ws_rewire(n, u, got, rewire_idx, np.random.default_rng(5))
        assert np.array_equal(got, want)
        assert np.count_nonzero(want != v0) > 900

    @pytest.mark.parametrize("seed", range(4))
    def test_flag_after_partial_chunk_near_buffer_end(self, seed):
        # 290 clean rewires, one edge of a node joined to every other node,
        # then 10 clean rewires: 301 rewires buffer 1268 draws, the third
        # chunk (edges 192..300) starts with 1076 left and stops at edge 290
        # with 978 left, so the saturated edge's 1000 draws cross the refill
        n, lead, tail = 2000, 290, 10
        path = np.arange(1, lead + tail + 1, dtype=np.int64)
        u = np.concatenate([np.zeros(n - 1, dtype=np.int64), path])
        v0 = np.concatenate([np.arange(1, n, dtype=np.int64), path + 1])
        rewire_idx = np.concatenate([n - 1 + np.arange(lead), [0],
                                     n - 1 + lead + np.arange(tail)])
        want, got = v0.copy(), v0.copy()
        _ref_ws_rewire(n, u, want, rewire_idx, np.random.default_rng(seed))
        _ws_rewire(n, u, got, rewire_idx, np.random.default_rng(seed))
        assert np.array_equal(got, want)
        assert want[0] == v0[0] and np.count_nonzero(want != v0) > 280

    def test_duplicate_heavy_attach(self):
        # m = 5 on 300 nodes: early rows reject draws again and again
        for seed in range(5):
            _assert_bitwise_equal(generate_graph("barabasi-albert", 300, 10.0, seed),
                                  _ref_graph("barabasi-albert", 300, 10.0, seed, 0.1))

    @pytest.mark.parametrize("m,n", [(1, 200), (2, 500), (5, 300)])
    def test_attach_buffer_exhaustion(self, m, n):
        uniforms = np.random.default_rng(m * n).random(3 * m * n)
        ref_u, ref_v, used = _ref_ba_attach(m, n, uniforms)
        assert used > 0
        # the last draw belongs to the set drawn after the last node, so a
        # buffer one short runs out there; the others run out part way
        for size in (used, used + 1, used - 1, used - m, used // 2, 3 * m, m - 1, 0):
            table, got = _ba_attach(m, n, uniforms[:size])
            want = _ref_ba_attach(m, n, uniforms[:size])[2]
            assert got == want, size
            if got >= 0:
                assert np.array_equal(table[: n - m].ravel(), ref_v)
                assert np.array_equal(np.repeat(np.arange(m, n), m), ref_u)


def test_dedupe_matches_unique():
    # raw pairs with self-loops and repeats give the CSR of their distinct edges
    rng = np.random.default_rng(11)
    n = 500
    for size in (0, 1, 2, 50, 20_000):
        u = rng.integers(0, n, size)
        v = np.where(rng.random(size) < 0.1, u, rng.integers(0, n, size))
        # repeat some pairs, in both orientations
        again = rng.integers(0, max(size, 1), size // 5)
        u, v = np.concatenate([u, v[again], u[again]]), np.concatenate([v, u[again], v[again]])
        got = _csr_from_edges(n, u, v)
        want = _ref_csr(n, *_ref_dedupe(n, u, v))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    keys = rng.integers(0, 40, 1000)
    assert np.array_equal(sorted_unique(keys), np.unique(keys))
