"""Random contact-graph generators on a compact CSR representation.

Three families, all reproducible from an integer seed and sized for
ensembles of 1e5..1e6-node graphs:

  config-poisson:   configuration model with Poisson(mu) degrees, uniform
                    stub pairing, self-loops and multi-edges erased
  barabasi-albert:  preferential attachment with m = round(mu/2) edges per
                    new node
  watts-strogatz:   ring lattice of even degree k = round(mu) with each
                    edge rewired independently with probability WS_REWIRE = 0.1

Generated graphs are undirected and simple; the empirical mean degree must
land within 2% of the request or generation fails. Each generator returns
its raw endpoint pairs; CSR assembly drops self-loops, and its one sort of
composite keys both drops repeated pairs and lays out the rows.

Barabási–Albert uses the repeated-nodes method (Batagelj & Brandes, Phys.
Rev. E 71, 036113, 2005): each new node attaches to m distinct nodes drawn
uniformly from the list of all edge endpoints so far, a repeated draw being
rejected and redrawn. Watts–Strogatz rewires the chosen ring edges in ring
order, each to the first uniform draw that is neither the node itself nor
an existing neighbour, giving up after 1000 draws. Both are defined as that
sequential loop over one stream of uniform draws, and both are computed in
numpy chunks that assume no draw is rejected, check the assumption, and
resolve the first rejecting row or edge alone by the sequential rule. The
output equals the sequential definition draw for draw, so a seed gives the
same graph either way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import DegreeDistribution, ModelError

GRAPH_KINDS = ("config-poisson", "barabasi-albert", "watts-strogatz")

# Largest node_count * mean_degree a build may ask for: far above any graph
# in use (1e6 nodes x mean degree 10), while a build's transient arrays
# (about 38 bytes per unit, measured at 1e5-2e5 nodes, so 3.8 GB at the
# limit) still fit in memory.
MAX_GRAPH_STUBS = 100_000_000

# Watts–Strogatz rewiring probability, read by generate_graph at each call.
WS_REWIRE = 0.1


@dataclass(frozen=True)
class ContactGraph:
    """Undirected simple graph in CSR form (indptr/indices), with degrees."""

    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    seed_key: tuple

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.degrees):
            arr.setflags(write=False)

    @property
    def node_count(self) -> int:
        return len(self.degrees)

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @functools.cached_property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    @functools.cached_property
    def census(self) -> tuple[float, float]:
        """Empirical (mean, variance) of the degree sequence."""
        d = self.degrees.astype(np.float64)
        return float(d.mean()), float(d.var())

    def degree_distribution(self) -> DegreeDistribution:
        counts = np.bincount(self.degrees)
        return DegreeDistribution({k: int(c) for k, c in enumerate(counts) if c > 0})

    def write_edge_list(self, path) -> None:
        """Plain `u v` text rows, each undirected edge once (u < v)."""
        u = np.repeat(np.arange(self.node_count), self.degrees)
        keep = self.indices > u
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(map("{} {}\n".format, u[keep].tolist(), self.indices[keep].tolist()))


def run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of the sorted, non-empty 1-d array `a` that start
    a run of equal values: the first, and each that differs from the one
    before it."""
    first = np.empty(a.size, dtype=bool)
    first[0] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) for a 1-d integer array, by a sort and run_starts (np.unique
    hashes integer input on numpy >= 2.3, which is slower)."""
    a = np.sort(a)
    return a[run_starts(a)] if a.size > 1 else a


def _csr_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the simple graph on the int64 endpoint pairs (u, v), given in
    any orientation; self-loops and repeated pairs are dropped. Row r lists
    its neighbours above r ascending, then those below r ascending: edge
    lo < hi has key lo*2n + hi in row lo and hi*2n + n + lo in row hi, and
    the distinct keys, sorted, give that order."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    key = sorted_unique(np.concatenate([lo * (2 * n) + hi, hi * (2 * n) + n + lo]))
    indices = np.ascontiguousarray(key % n, dtype=np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // (2 * n), minlength=n), out=indptr[1:])
    return indptr, indices


def _config_poisson(n: int, mu: float, rng: np.random.Generator):
    deg = rng.poisson(mu, n)
    idx = int(rng.integers(n))
    while int(deg.sum()) % 2 == 1:
        deg[idx] = rng.poisson(mu)
    stubs = np.repeat(np.arange(n, dtype=np.int64), deg)
    stubs = stubs[rng.permutation(stubs.size)]
    return stubs[0::2], stubs[1::2]


def _ba_attach(m: int, n: int, uniforms: np.ndarray) -> tuple[np.ndarray, int]:
    """Attachment sets of the repeated-nodes method, from a buffer of U(0,1)
    draws. Returns (table, draws consumed), or (table, -1) if the buffer
    ran out.

    table[r] holds the m distinct targets of node m + r; row 0 is 0..m-1
    and row n - m is the set drawn after the last node. Before row r is
    drawn the repeated list holds, for each earlier row b, the pairs
    (table[b, j], m + b), so position p is node m + p // 2m when p is odd
    and table[p // 2m, (p % 2m) // 2] when p is even. Each draw picks
    position int(u * 2m*r); a draw equal to one already in the row is
    rejected and the next draw is taken.

    Rows are drawn a chunk at a time on the guess that none rejects: m draws
    per row, even positions inside the chunk resolved by pointer jumping.
    Rows before the first one holding a duplicate are then exact; that row
    is redrawn one draw at a time, and the next chunk starts after it.
    """
    rows = n - m + 1
    two_m = 2 * m
    table = np.empty((rows, m), dtype=np.int64)
    table[0] = np.arange(m)
    ptr, r, chunk = 0, 1, 16
    while r < rows:
        c = min(chunk, rows - r, (uniforms.shape[0] - ptr) // m)
        k = 0
        if c > 1:
            rep_len = np.arange(two_m * r, two_m * (r + c), two_m, dtype=np.float64)
            pos = (uniforms[ptr: ptr + c * m].reshape(c, m) * rep_len[:, None]).astype(np.int64).ravel()
            block, slot = np.divmod(pos, two_m)
            val = m + block
            even = slot % 2 == 0
            col = slot // 2
            known = even & (block < r)
            val[known] = table[block[known], col[known]]
            pend = np.flatnonzero(even & (block >= r))
            ref = np.full(c * m, -1, dtype=np.int64)
            ref[pend] = (block[pend] - r) * m + col[pend]
            # references point to earlier rows only, so jumping ends
            while pend.size:
                to = ref[pend]
                nxt = ref[to]
                done = nxt < 0
                val[pend[done]] = val[to[done]]
                ref[pend[done]] = -1
                pend = pend[~done]
                ref[pend] = nxt[~done]
            val = val.reshape(c, m)
            k = c
            if m > 1:
                srt = np.sort(val, axis=1)
                dup = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
                if dup.any():
                    k = int(dup.argmax())
            table[r: r + k] = val[:k]
            ptr += k * m
            r += k
            if k == c:
                chunk = 2 * c
                continue
        chunk = max(16, 2 * k)
        # row r redrawn with the rejection rule, one draw at a time
        rep_len = two_m * r
        got: list[int] = []
        while len(got) < m:
            if ptr >= uniforms.shape[0]:
                return table, -1
            block, slot = divmod(int(uniforms[ptr] * rep_len), two_m)
            ptr += 1
            cand = m + block if slot % 2 else int(table[block, slot // 2])
            if cand not in got:
                got.append(cand)
        table[r] = got
        r += 1
    return table, ptr


def _barabasi_albert(n: int, mu: float, rng: np.random.Generator):
    m = max(1, int(round(mu / 2.0)))
    if m >= n:
        raise ModelError(f"attachment count m={m} must be below node count {n}")
    overdraw = int(2.5 * m * (n - m)) + 1024
    while True:
        uniforms = rng.random(overdraw)
        table, used = _ba_attach(m, n, uniforms)
        if used >= 0:
            break
        overdraw *= 2
    edges_u = np.repeat(np.arange(m, n, dtype=np.int64), m)
    return edges_u, table[: n - m].ravel()


class _EdgeKeys:
    """A set of edge keys lo*n + hi: a sorted base with a removed mask, plus
    a sorted array of the keys added since the base was last rebuilt.

    Only ring keys are removed, each once, when its edge is rewired; until
    then it stays in the base, so a removal only marks the base. The added
    keys are folded into the base once they reach an eighth of it, which
    bounds both the insert cost and the number of rebuilds.
    """

    def __init__(self, n: int, keys: np.ndarray):
        self.n = n
        self.base = np.sort(keys)
        self.gone = np.zeros(self.base.size, dtype=bool)
        self.added = np.empty(0, dtype=np.int64)

    def contains(self, q: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(self.base, q), self.base.size - 1)
        found = (self.base[at] == q) & ~self.gone[at]
        if self.added.size:
            at = np.minimum(np.searchsorted(self.added, q), self.added.size - 1)
            found |= self.added[at] == q
        return found

    def free(self, a, w: np.ndarray) -> np.ndarray:
        """Mask of the draws w that would give node a a new neighbour."""
        return (w != a) & ~self.contains(np.minimum(a, w) * self.n + np.maximum(a, w))

    def replace(self, old: np.ndarray, new: np.ndarray) -> None:
        """Remove the base keys `old` and add the absent, distinct keys `new`."""
        self.gone[np.searchsorted(self.base, old)] = True
        new = np.sort(new)
        self.added = np.insert(self.added, np.searchsorted(self.added, new), new)
        if self.added.size * 8 > self.base.size:
            self.base = np.sort(np.concatenate((self.base[~self.gone], self.added)))
            self.gone = np.zeros(self.base.size, dtype=bool)
            self.added = self.added[:0]


def _ws_rewire(n: int, u: np.ndarray, v: np.ndarray, rewire_idx: np.ndarray,
               rng: np.random.Generator) -> None:
    """Rewire the edges rewire_idx in order, in place: edge i = (a, b) moves
    to (a, w) for the first draw w = int(U * n) with w != a and (a, w) not
    already an edge, or keeps b after 1000 rejected draws. The draws come
    from a buffer of 4 * len(rewire_idx) + 64 uniforms, refilled with
    another buffer of the same size when it runs out.

    A chunk of edges is tried on the guess that each accepts its first
    draw. Every edge before the first flagged one (w == a, the new key
    already present, or repeated within the chunk) is then exact, and the
    flagged edge is resolved alone over its next 1000 draws, all tested
    against the same set. A chunk with no flag doubles the next one; a flag
    after k clean edges sets it to max(1, 2k).
    """
    size = 4 * rewire_idx.size + 64
    buf = rng.random(size)
    ptr = 0
    a_all = u[rewire_idx]
    old_all = np.minimum(a_all, v[rewire_idx]) * n + np.maximum(a_all, v[rewire_idx])
    edges = _EdgeKeys(n, np.minimum(u, v) * n + np.maximum(u, v))
    e, chunk = 0, 64
    while e < rewire_idx.size:
        c = min(chunk, rewire_idx.size - e)
        if buf.size - ptr < c + 1000:
            # the chunk and then a flagged edge's 1000 draws must be buffered;
            # the buffers are consecutive pieces of one stream, so drawing
            # more at once gives the same values as refilling one by one
            buf = np.concatenate((buf[ptr:], rng.random(size + 1000)))
            ptr = 0
        a = a_all[e: e + c]
        w = (buf[ptr: ptr + c] * n).astype(np.int64)
        keys = np.minimum(a, w) * n + np.maximum(a, w)
        flag = ~edges.free(a, w)
        srt = np.sort(keys)
        if (srt[1:] == srt[:-1]).any():
            order = np.argsort(keys, kind="stable")
            flag[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
        k = int(flag.argmax()) if flag.any() else c
        if k:
            v[rewire_idx[e: e + k]] = w[:k]
            edges.replace(old_all[e: e + k], keys[:k])
            ptr += k
            e += k
        if k == c:
            chunk = 2 * c
            continue
        chunk = max(1, 2 * k)
        a = a_all[e]
        w = (buf[ptr: ptr + 1000] * n).astype(np.int64)
        ok = edges.free(a, w)
        if ok.any():
            j = int(ok.argmax())
            v[rewire_idx[e]] = w[j]
            edges.replace(old_all[e: e + 1], np.array([min(a, w[j]) * n + max(a, w[j])]))
            ptr += j + 1
        else:
            ptr += 1000  # a saturated node keeps its edge; only possible at k ~ n
        e += 1


def _watts_strogatz(n: int, mu: float, rewire_p: float, rng: np.random.Generator):
    k = int(round(mu / 2.0)) * 2
    if k < 2 or k >= n:
        raise ModelError(f"ring degree k={k} invalid for {n} nodes (need 2 <= k < n)")
    half = k // 2
    u = np.repeat(np.arange(n, dtype=np.int64), half)
    v = (u + np.tile(np.arange(1, half + 1, dtype=np.int64), n)) % n
    if rewire_p > 0.0:
        decide = rng.random(u.size)
        _ws_rewire(n, u, v, np.flatnonzero(decide < rewire_p), rng)
    return u, v


def generate_graph(kind: str, node_count: int, mean_degree: float, seed) -> ContactGraph:
    """Build one of the three graph families, reproducibly from `seed`.

    seed is an int or a numpy SeedSequence. The request must have
    1 <= mean_degree <= node_count - 1 and node_count * mean_degree at most
    MAX_GRAPH_STUBS. The empirical mean degree is checked against the
    request: 2% tolerance, widened to the degree-sampling noise floor on
    small graphs.
    """
    if kind not in GRAPH_KINDS:
        raise ModelError(f"unknown graph kind {kind!r}; choose from {GRAPH_KINDS}")
    if node_count < 100:
        raise ModelError(f"node_count must be >= 100, got {node_count}")
    if not 1.0 <= mean_degree < math.inf:
        raise ModelError(f"mean_degree must be finite and >= 1, got {mean_degree}")
    if mean_degree > node_count - 1:
        raise ModelError(f"mean_degree {mean_degree} exceeds node_count - 1 = {node_count - 1}")
    if node_count * mean_degree > MAX_GRAPH_STUBS:
        raise ModelError(f"node_count x mean_degree = {node_count:g} x {mean_degree:g} "
                         f"exceeds {MAX_GRAPH_STUBS}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    if kind == "config-poisson":
        u, v = _config_poisson(node_count, mean_degree, rng)
    elif kind == "barabasi-albert":
        u, v = _barabasi_albert(node_count, mean_degree, rng)
    else:
        u, v = _watts_strogatz(node_count, mean_degree, WS_REWIRE, rng)
    indptr, indices = _csr_from_edges(node_count, u, v)
    degrees = np.diff(indptr).astype(np.int32)
    graph = ContactGraph(
        indptr=indptr,
        indices=indices,
        degrees=degrees,
        seed_key=tuple(ss.entropy if isinstance(ss.entropy, (list, tuple)) else [ss.entropy])
        + tuple(ss.spawn_key),
    )
    mean = graph.census[0]
    tol = max(0.02 * mean_degree, 5.0 * math.sqrt(mean_degree / node_count))
    if abs(mean - mean_degree) > tol:
        raise ModelError(
            f"{kind}: empirical mean degree {mean:.3f} misses request {mean_degree} "
            "(unattainable constructor parameters)"
        )
    return graph
