import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epidelay import graphs, netsim
from epidelay.graphs import generate_graph
from epidelay.netsim import (
    _JUMP_COST,
    INFECTIOUS,
    ISOLATED,
    REMOVED,
    SUSCEPTIBLE,
    GraphSpec,
    NetworkEnsembleStats,
    _exposures,
    _pull,
    _push,
    _uniform_at,
    infection_prob_table,
    init_state,
    metrics_from_state,
    run_ensemble,
    run_single,
    seed_infections,
    step_day,
    write_aggregate_csv,
    write_runs_csv,
)
from epidelay.params import EpidemicParams, ModelError


def base_params(**kw):
    defaults = dict(rho=0.2, gamma=0.1, alpha=0.0, t_delay=0.0)
    defaults.update(kw)
    return EpidemicParams(**defaults)


def _alive(status: np.ndarray) -> np.ndarray:
    """Ascending indices of the infectious and isolated nodes."""
    return np.flatnonzero((status == INFECTIOUS) | (status == ISOLATED))


class TestInfectionProbabilities:
    def test_single_contact(self):
        table = infection_prob_table(0.2, 4)
        assert table[0] == 0.0
        assert table[1] == pytest.approx(0.2, abs=1e-15)

    def test_two_contacts(self):
        assert infection_prob_table(0.2, 4)[2] == pytest.approx(0.36, abs=1e-15)

    def test_zero_rho_never_infects(self):
        g = generate_graph("config-poisson", 1000, 4.0, 3)
        rng = np.random.default_rng(0)
        seeds = seed_infections(g, 10, "uniform", rng)
        state = init_state(g, seeds, base_params(rho=0.0), rng)
        for _ in range(10):
            step_day(g, state, base_params(rho=0.0), rng)
        infected_ever = np.sum(state.status != SUSCEPTIBLE)
        assert infected_ever == 10


    def test_table_is_memoized_and_read_only(self):
        table = infection_prob_table(0.2, 4)
        assert infection_prob_table(0.2, 4) is table
        assert not table.flags.writeable


class TestSeeding:
    def test_exhaustive_seeding(self):
        g = generate_graph("config-poisson", 500, 4.0, 3)
        rng = np.random.default_rng(1)
        seeds = seed_infections(g, 500, "uniform", rng)
        assert sorted(seeds.tolist()) == list(range(500))

    def test_too_many_seeds(self):
        g = generate_graph("config-poisson", 500, 4.0, 3)
        with pytest.raises(ModelError):
            seed_infections(g, 501, "uniform", np.random.default_rng(1))

    def test_degree_proportional_mean_is_size_biased(self):
        g = generate_graph("config-poisson", 50_000, 4.0, 5)
        mu, var = g.census
        rng = np.random.default_rng(8)
        means = [g.degrees[seed_infections(g, 10, "degree", rng)].mean()
                 for _ in range(2000)]
        expected = mu + var / mu
        assert np.mean(means) == pytest.approx(expected, abs=0.05)

    def test_unknown_mode(self):
        g = generate_graph("config-poisson", 500, 4.0, 3)
        with pytest.raises(ModelError):
            seed_infections(g, 5, "hubs", np.random.default_rng(1))


class TestStepSemantics:
    def test_zero_delay_full_isolation_blocks_all_transmission(self):
        g = generate_graph("config-poisson", 2000, 4.0, 9)
        p = base_params(alpha=1.0, t_delay=0.0)
        rng = np.random.default_rng(2)
        seeds = seed_infections(g, 20, "uniform", rng)
        state = init_state(g, seeds, p, rng)
        assert np.sum(state.status == ISOLATED) == 20
        for _ in range(15):
            step_day(g, state, p, rng)
        assert np.sum(state.status != SUSCEPTIBLE) == 20

    def test_delayed_isolation_schedule(self):
        g = generate_graph("config-poisson", 2000, 4.0, 9)
        p = base_params(alpha=1.0, t_delay=3.0)
        rng = np.random.default_rng(3)
        seeds = seed_infections(g, 10, "uniform", rng)
        state = init_state(g, seeds, p, rng)
        assert pending(state) == {4: sorted(seeds.tolist())}
        assert np.sum(state.status == ISOLATED) == 0
        # infection day of each node, read off its move out of susceptible,
        # and the day each scheduled node's cohort falls due
        inf_day = np.full(2000, -1)
        inf_day[seeds] = 1
        iso_day = np.full(2000, -1)
        iso_day[seeds] = 4

        def step():
            before = state.status == SUSCEPTIBLE
            m = step_day(g, state, p, rng)
            inf_day[before & (state.status != SUSCEPTIBLE)] = state.day
            for day, cohort in state.due.items():
                iso_day[cohort] = day
            return m

        m1 = step()  # day 2
        m2 = step()  # day 3
        assert m1.isolated == 0 and m2.isolated == 0
        m3 = step()  # day 4: survivors of the seed cohort move
        survivors = np.isin(np.arange(2000), seeds) & (state.status == ISOLATED)
        assert m3.isolated == survivors.sum() > 0
        assert 4 not in state.due
        # every scheduled node respects iso = inf + delay
        scheduled = iso_day >= 0
        assert np.count_nonzero(scheduled) > 10
        assert np.all(iso_day[scheduled] == inf_day[scheduled] + 3)
        assert np.array_equal(scheduled, inf_day >= 0)

    def test_cohorts_scheduled_under_two_delays_meet(self):
        # the delay drops from 3 days to 2 between days, so the nodes
        # infected on days 2 and 3 both fall due on day 5
        g = generate_graph("config-poisson", 2000, 4.0, 9)
        p3 = base_params(rho=0.5, gamma=1e-3, alpha=1.0, t_delay=3.0)
        p2 = base_params(rho=0.5, gamma=1e-3, alpha=1.0, t_delay=2.0)
        rng = np.random.default_rng(3)
        state = init_state(g, seed_infections(g, 20, "uniform", rng), p3, rng)
        cohorts = []
        for p in (p3, p2):
            before = state.status == SUSCEPTIBLE
            step_day(g, state, p, rng)
            cohorts.append(np.flatnonzero(before & (state.status != SUSCEPTIBLE)))
        assert all(len(c) > 0 for c in cohorts)
        assert pending(state)[5] == sorted(np.concatenate(cohorts).tolist())
        step_day(g, state, p2, rng)  # day 4
        assert np.all(state.status[np.concatenate(cohorts)] != ISOLATED)
        step_day(g, state, p2, rng)  # day 5
        assert 5 not in state.due
        for cohort in cohorts:
            assert np.all(np.isin(state.status[cohort], (ISOLATED, REMOVED)))
            assert np.any(state.status[cohort] == ISOLATED)

    def test_half_day_delay_rounds_half_to_even(self):
        # round(2.5) is 2: the seeds, infected on day 1, fall due on day 3,
        # and the cases infected on day d on day d + 2
        g = generate_graph("config-poisson", 2000, 4.0, 9)
        p = base_params(rho=0.5, alpha=1.0, t_delay=2.5)
        rng = np.random.default_rng(3)
        seeds = seed_infections(g, 10, "uniform", rng)
        state = init_state(g, seeds, p, rng)
        assert pending(state) == {3: sorted(seeds.tolist())}
        for _ in range(4):
            before = state.status == SUSCEPTIBLE
            step_day(g, state, p, rng)
            new = np.flatnonzero(before & (state.status != SUSCEPTIBLE))
            assert len(new) > 0 and np.all(state.status[new] == INFECTIOUS)
            assert pending(state)[state.day + 2] == new.tolist()
            if state.day == 3:
                assert 3 not in state.due
                assert np.all(np.isin(state.status[seeds], (ISOLATED, REMOVED)))
                assert np.any(state.status[seeds] == ISOLATED)
        assert sorted(pending(state)) == [6, 7]

    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("t_delay", [0.0, 0.4, 0.5, 2.0, 2.5])
    def test_init_state_matches_dense_scan(self, alpha, t_delay):
        # init_state works from its seeds alone; the dense reference scans
        # every node, and both must leave the generator in the same place
        g = generate_graph("config-poisson", 2000, 4.0, 9)
        p = base_params(alpha=alpha, t_delay=t_delay)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        seeds = seed_infections(g, 50, "uniform", rng)
        ref_seeds = seed_infections(g, 50, "uniform", ref_rng)
        state = init_state(g, seeds, p, rng)
        status, iso_day, alive = dense_init_state(g, ref_seeds, p, ref_rng)
        assert np.array_equal(state.status, status)
        assert pending(state) == dense_pending(iso_day, 1)
        assert all(len(cohort) > 0 for cohort in state.due.values())
        assert state.alive.dtype == alive.dtype and np.array_equal(state.alive, alive)
        assert np.array_equal(state.alive, _alive(state.status))
        assert (state.day, state.removed) == (1, 0)
        assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
        # seeds are isolated at once only when the delay rounds to 0 days
        isolated = np.count_nonzero(status == ISOLATED)
        if alpha == 0.0 or round(t_delay) != 0:
            assert isolated == 0
        elif alpha == 1.0:
            assert isolated == 50
        else:
            assert 0 < isolated < 50

    def test_conservation_and_monotone_compartments(self):
        g = generate_graph("config-poisson", 5000, 4.0, 10)
        p = base_params(alpha=0.5, t_delay=2.0)
        rng = np.random.default_rng(4)
        seeds = seed_infections(g, 10, "uniform", rng)
        state = init_state(g, seeds, p, rng)
        prev_status = state.status.copy()
        prev_removed = 0
        allowed = {
            (SUSCEPTIBLE, INFECTIOUS),
            (INFECTIOUS, ISOLATED),
            (INFECTIOUS, REMOVED),
            (ISOLATED, REMOVED),
        }
        for _ in range(25):
            m = step_day(g, state, p, rng)
            assert m.s + m.i + m.r + m.isolated == 5000
            assert m.r >= prev_removed
            prev_removed = m.r
            changed = prev_status != state.status
            for a, b in zip(prev_status[changed].tolist(), state.status[changed].tolist()):
                assert (a, b) in allowed
            prev_status = state.status.copy()


def dense_init_state(graph, seeds, params, rng):
    """Reference day-1 state: every node whose isolation falls due on day 1
    is found by a full-length mask, and alive by a scan of all nodes.
    Returns (status, iso_day, alive)."""
    status = np.zeros(graph.node_count, dtype=np.int8)
    iso_day = np.full(graph.node_count, -1, dtype=np.int64)
    status[seeds] = INFECTIOUS
    picked = rng.random(len(seeds)) < params.alpha
    iso_day[seeds[picked]] = 1 + int(round(params.t_delay))
    status[(status == INFECTIOUS) & (iso_day == 1)] = ISOLATED
    return status, iso_day, _alive(status)


def pending(state):
    """state.due as {day: ascending node list}."""
    return {day: sorted(cohort.tolist()) for day, cohort in state.due.items()}


def dense_pending(iso_day, day):
    """The reference's pending isolations after `day`, as pending() gives
    them: every node whose isolation day is later, grouped by that day."""
    later = np.flatnonzero(iso_day > day)
    return {d: later[iso_day[later] == d].tolist() for d in np.unique(iso_day[later]).tolist()}


@dataclass
class DenseState:
    """The dense reference's own state: compartment codes, each node's
    isolation day (-1 when unscheduled) and the day number."""

    status: np.ndarray
    iso_day: np.ndarray
    day: int


def dense_step_day(graph, state, params, rng):
    """Reference day sweep over the whole graph, on a DenseState: a cumsum
    over every CSR entry counts each node's infectious neighbors, and every
    transition is a full-length mask. Returns (s, i, r, isolated,
    mean_inf_degree)."""
    n = graph.node_count
    u_inf = rng.random(n)
    u_rec = rng.random(n)
    u_iso = rng.random(n)
    p_table = 1.0 - np.power(1.0 - params.rho,
                             np.arange(graph.degrees.max() + 1, dtype=np.float64))
    p_rec = -math.expm1(-params.gamma)
    status, day = state.status, state.day
    transmitting = (status == INFECTIOUS).astype(np.int64)
    cs = np.concatenate(([0], np.cumsum(transmitting[graph.indices])))
    counts = cs[graph.indptr[1:]] - cs[graph.indptr[:-1]]
    recover = ((status == INFECTIOUS) | (status == ISOLATED)) & (u_rec < p_rec)
    infect = (status == SUSCEPTIBLE) & (counts > 0) & (u_inf < p_table[counts])
    status[recover] = REMOVED
    status[infect] = INFECTIOUS
    schedule = infect & (u_iso < params.alpha)
    state.iso_day[schedule] = day + 1 + int(round(params.t_delay))
    due = (status == INFECTIOUS) & (state.iso_day == day + 1)
    status[due] = ISOLATED
    state.day += 1
    tally = np.bincount(status, minlength=4)
    alive = (status == INFECTIOUS) | (status == ISOLATED)
    mean_deg = float(graph.degrees[alive].mean()) if alive.any() else math.nan
    return (int(tally[SUSCEPTIBLE]), int(tally[INFECTIOUS]), int(tally[REMOVED]),
            int(tally[ISOLATED]), mean_deg)


def same_state(a, b):
    """Equality of two bit_generator.state values (dicts holding ints,
    strings and, for MT19937, an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


class DrawLog(np.random.Generator):
    """A Generator that records the size of every random() call: an int for
    a dense draw, None for a scalar draw taken after a jump. days holds the
    sizes drawn by each step_day call that assert_matches_dense makes."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.sizes = []
        self.days = []

    def random(self, size=None, *args, **kwargs):
        self.sizes.append(size)
        return super().random(size, *args, **kwargs)


def assert_matches_dense(graph, params, seeds=None, days=30, bit_generator=np.random.PCG64):
    """Run step_day and the dense reference side by side on one stream each,
    both seeded through seed_infections (which leaves PCG64 holding a
    buffered uint32); `seeds`, when given, replaces the drawn seed nodes.
    Returns the per-day infectious counts and the stepping generator."""
    rng = DrawLog(bit_generator(8))
    ref_rng = np.random.Generator(bit_generator(8))
    drawn = seed_infections(graph, 20, "uniform", rng)
    seed_infections(graph, 20, "uniform", ref_rng)
    seeds = drawn if seeds is None else seeds
    state = init_state(graph, seeds, params, rng)
    status, iso_day, _ = dense_init_state(graph, seeds, params, ref_rng)
    ref = DenseState(status, iso_day, 1)
    assert np.array_equal(state.status, ref.status)
    assert pending(state) == dense_pending(ref.iso_day, ref.day)
    assert np.array_equal(state.alive, _alive(state.status))
    rng.sizes.clear()
    infectious = []
    for _ in range(days):
        start = len(rng.sizes)
        m = step_day(graph, state, params, rng)
        rng.days.append(rng.sizes[start:])
        s, i, r, iso, mean_deg = dense_step_day(graph, ref, params, ref_rng)
        assert (m.day, m.s, m.i, m.r, m.isolated) == (ref.day, s, i, r, iso)
        assert (np.float64(m.mean_inf_degree).view(np.int64)
                == np.float64(mean_deg).view(np.int64))
        assert np.array_equal(state.status, ref.status)
        assert pending(state) == dense_pending(ref.iso_day, ref.day)
        assert np.array_equal(state.alive, _alive(state.status))
        assert state.removed == np.count_nonzero(state.status == REMOVED)
        assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
        infectious.append(i)
    return infectious, rng


class TestFrontierSweepOracle:
    """step_day touches only the frontier and draws only the entries it
    tests, yet must give the same day, bit for bit, and leave the generator
    in the same state as sweeping every node on three dense draws."""

    @pytest.mark.parametrize("kind", ["config-poisson", "barabasi-albert",
                                      "watts-strogatz"])
    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("t_delay", [0.0, 1.0, 3.0])
    def test_identical_to_dense_sweep(self, kind, alpha, t_delay, monkeypatch):
        # at 20k nodes the jump cut-off is 39 entries, so small frontiers
        # jump and grown ones draw densely
        g = generate_graph(kind, 20_000, 4.0, 21)
        p = base_params(alpha=alpha, t_delay=t_delay)
        taken = set()
        for way in (_push, _pull):
            monkeypatch.setattr(netsim, way.__name__,
                                lambda *a, way=way: taken.add(way) or way(*a))
        # Watts-Strogatz first reads the susceptible side on day 48
        infectious, rng = assert_matches_dense(g, p, days=60 if alpha == 0.0 else 30)
        assert None in rng.sizes
        # the recovery test reads every infectious node, so a frontier past
        # the cut-off draws densely; without isolation it always gets there
        grown = max(infectious) * _JUMP_COST >= 20_000
        if grown:
            assert 20_000 in rng.sizes
        if alpha == 0.0:
            # the grown epidemic's dense days read the susceptible side
            assert grown and taken == {_push, _pull}
        if alpha == 1.0 and t_delay == 0.0:
            # every seed is isolated on day 1, so the frontier stays empty
            assert max(infectious) == 0

    @pytest.mark.parametrize("kind", ["config-poisson", "barabasi-albert",
                                      "watts-strogatz"])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_certain_isolation_draws_nothing(self, kind, alpha):
        # at alpha 0 or 1 the isolation test's outcome is certain, so a
        # grown day draws densely for infection and recovery alone
        g = generate_graph(kind, 20_000, 4.0, 21)
        _, rng = assert_matches_dense(g, base_params(alpha=alpha, t_delay=3.0))
        assert max(sum(size is not None for size in day) for day in rng.days) == 2

    def test_degree_zero_nodes_infectious(self):
        g = generate_graph("config-poisson", 2000, 4.0, 21)
        isolated_nodes = np.flatnonzero(g.degrees == 0)
        assert len(isolated_nodes) >= 5
        seeds = np.concatenate((isolated_nodes[:5], np.flatnonzero(g.degrees > 0)[:15]))
        assert_matches_dense(g, base_params(alpha=0.6, t_delay=1.0), seeds)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64DXSM, np.random.Philox,
                                               np.random.MT19937, np.random.SFC64])
    def test_other_bit_generators(self, bit_generator):
        g = generate_graph("config-poisson", 20_000, 4.0, 21)
        _, rng = assert_matches_dense(g, base_params(alpha=0.6, t_delay=1.0),
                                      bit_generator=bit_generator)
        # only the PCG64 family can jump; every other generator draws densely
        assert (None in rng.sizes) == (bit_generator is np.random.PCG64DXSM)


@functools.lru_cache(maxsize=None)
def small_graph(kind):
    return generate_graph(kind, 300, 4.0, 5)


class TestPushPull:
    """Both directions of the day sweep find the same exposed nodes, in the
    same order, with the same count of infectious neighbors."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["config-poisson", "barabasi-albert", "watts-strogatz"]),
           weights=st.tuples(*[st.integers(0, 4)] * 4).filter(any),
           seed=st.integers(0, 2**32 - 1))
    @example(kind="config-poisson", weights=(0, 1, 1, 1), seed=0)   # no susceptible node
    @example(kind="config-poisson", weights=(1, 0, 1, 1), seed=0)   # no spreader
    @example(kind="barabasi-albert", weights=(1, 1, 0, 0), seed=1)
    def test_directions_agree(self, kind, weights, seed):
        g = small_graph(kind)
        w = np.array(weights, dtype=np.float64)
        status = np.random.default_rng(seed).choice(4, g.node_count, p=w / w.sum())
        status = status.astype(np.int8)
        spreaders = np.flatnonzero(status == INFECTIOUS)
        exposed, hits = _push(g, status, spreaders)
        susceptible = np.flatnonzero(status == SUSCEPTIBLE)
        for got in (_pull(g, status, susceptible, g.degrees[susceptible]),
                    _exposures(g, status, spreaders)):
            assert np.array_equal(got[0], exposed) and np.array_equal(got[1], hits)
        # hits indexes the infection table, whose last entry is the max degree
        assert np.all((hits >= 1) & (hits <= g.degrees[exposed]))

    def test_graph_has_degree_zero_nodes(self):
        # the property above runs over rows of length 0 on config-poisson
        assert np.count_nonzero(small_graph("config-poisson").degrees == 0) > 0


class TestUniformAt:
    """_uniform_at(rng, n, pos) is rng.random(n)[pos], and leaves the
    generator where rng.random(n) leaves it, buffered uint32 included."""

    N = 10_000

    @pytest.mark.parametrize("pos", [
        [],
        [0],
        [N - 1],
        [0, 1, 2, N - 1],
        list(range(0, 15 * (N // 15), N // 15)),    # 15 entries: below the cut-off
        list(range(0, 25 * (N // 25), N // 25)),    # 25 entries: above it
        list(range(N)),
    ])
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM,
                                               np.random.Philox, np.random.MT19937,
                                               np.random.SFC64])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_matches_dense_draw(self, pos, bit_generator, buffered):
        pos = np.array(pos, dtype=np.int64)
        rng, ref = DrawLog(bit_generator(3)), np.random.Generator(bit_generator(3))
        if buffered:
            for g in (rng, ref):
                g.integers(0, 100, dtype=np.uint32)
            assert rng.bit_generator.state.get("has_uint32", 1) == 1
        rng.sizes.clear()
        got = _uniform_at(rng, self.N, pos)
        jumps = (bit_generator in (np.random.PCG64, np.random.PCG64DXSM)
                 and len(pos) * _JUMP_COST < self.N)
        assert rng.sizes == ([None] * len(pos) if jumps else [self.N])
        want = ref.random(self.N)[pos]
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)
        assert np.array_equal(rng.random(5), ref.random(5))
        assert np.array_equal(rng.integers(0, 2**32, 5, dtype=np.uint32),
                              ref.integers(0, 2**32, 5, dtype=np.uint32))

    def test_cut_off_sides(self):
        # the 15- and 25-entry lists above fall on either side of the cut-off
        assert 15 * _JUMP_COST < self.N <= 25 * _JUMP_COST


class TestEnsemble:
    def spec(self):
        return GraphSpec("config-poisson", 2000, 4.0)

    def test_single_run_reproduced_by_ensemble(self):
        p = base_params()
        stats = run_ensemble(self.spec(), p, runs=1, days=12, base_seed=5)
        graph = self.spec().build(np.random.SeedSequence(5, spawn_key=(0, 0)))
        rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(0, 1)))
        solo = run_single(graph, p, "uniform", 10, 12, rng)
        assert np.array_equal(stats.i[0], solo.i)
        assert np.array_equal(stats.mean_inf_degree[0], solo.mean_inf_degree,
                              equal_nan=True)

    def test_deterministic_and_thread_invariant(self):
        p = base_params(alpha=0.4, t_delay=1.0)
        a = run_ensemble(self.spec(), p, runs=6, days=10, base_seed=11, threads=1)
        b = run_ensemble(self.spec(), p, runs=6, days=10, base_seed=11, threads=4)
        assert np.array_equal(a.i, b.i)
        assert np.array_equal(a.mean_inf_degree, b.mean_inf_degree, equal_nan=True)
        c = run_ensemble(self.spec(), p, runs=6, days=10, base_seed=12)
        assert not np.array_equal(a.i, c.i)

    def test_reuse_graph_flag(self):
        p = base_params()
        shared = run_ensemble(self.spec(), p, runs=4, days=5, base_seed=3, reuse_graph=True)
        assert np.all(shared.census_mu == shared.census_mu[0])
        fresh = run_ensemble(self.spec(), p, runs=4, days=5, base_seed=3)
        assert len(np.unique(fresh.census_mu)) > 1

    def test_regular_graph_mean_degree_constant(self, monkeypatch):
        monkeypatch.setattr(graphs, "WS_REWIRE", 0.0)
        spec = GraphSpec("watts-strogatz", 1000, 4.0)
        stats = run_ensemble(spec, base_params(), runs=3, days=15, base_seed=1)
        m = stats.mean_inf_degree
        assert np.all(np.isclose(m[~np.isnan(m)], 4.0))

    def test_single_run_needs_a_day(self):
        g = generate_graph("config-poisson", 200, 4.0, 3)
        with pytest.raises(ModelError, match="days must be >= 1"):
            run_single(g, base_params(), "uniform", 5, 0, np.random.default_rng(1))

    @pytest.mark.parametrize("kind", ["config-poisson", "barabasi-albert", "watts-strogatz"])
    def test_census_measured_once(self, kind):
        # generate_graph measures the census for its mean-degree check, and
        # every run on the graph reports that measurement
        g = generate_graph(kind, 2000, 4.0, 4)
        assert "census" in vars(g)
        mu, var = vars(g)["census"]
        d = g.degrees.astype(np.float64)
        assert (mu, var) == (float(d.mean()), float(d.var()))
        res = run_single(g, base_params(), "uniform", 10, 3, np.random.default_rng(1))
        assert (res.census_mu, res.census_var) == (mu, var)

    @pytest.mark.parametrize("runs", [1, 2, 3, 7])
    def test_aggregates_match_nan_reductions(self, runs):
        # the same doubles as np.nanmean and np.nanstd(ddof=1), which warn on
        # days with no (or, for the deviation, one) run left
        rng = np.random.default_rng(runs)
        for missing_share in (0.0, 0.3, 0.8, 1.0):
            m = rng.uniform(1.0, 12.0, (runs, 40))
            if missing_share:
                m[rng.random(m.shape) < missing_share] = np.nan
                m[:, 0] = np.nan
                m[1:, 1] = np.nan
            stats = NetworkEnsembleStats(
                days=np.arange(1, 41), s=m, i=m, r=m, isolated=m, mean_inf_degree=m,
                census_mu=np.zeros(runs), census_var=np.zeros(runs), base_seed=0,
                run_count=runs)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want_mean = np.nanmean(m, axis=0)
                want_sd = np.nanstd(m, axis=0, ddof=1) if runs > 1 else np.zeros(40)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got_mean = stats.ensemble_mean_inf_degree()
                got_sd = stats.stddev_inf_degree()
            assert np.array_equal(got_mean.view(np.int64), want_mean.view(np.int64))
            assert np.array_equal(got_sd.view(np.int64), want_sd.view(np.int64))

    def test_csv_schemas(self, tmp_path):
        stats = run_ensemble(self.spec(), base_params(), runs=2, days=4, base_seed=9)
        runs_path = tmp_path / "runs.csv"
        agg_path = tmp_path / "agg.csv"
        write_runs_csv(stats, runs_path)
        write_aggregate_csv(stats, agg_path)
        runs_lines = runs_path.read_text().splitlines()
        assert runs_lines[0] == "day,run,S,I,R,isolated,mean_inf_degree"
        assert len(runs_lines) == 1 + 2 * 4
        agg_lines = agg_path.read_text().splitlines()
        assert agg_lines[0] == ("day,mean_S,mean_I,mean_R,mean_isolated,"
                                "mean_inf_degree,stddev_inf_degree")
        assert len(agg_lines) == 1 + 4


class TestSizeBiasBound:
    @pytest.mark.parametrize("kind", ["config-poisson", "barabasi-albert",
                                      "watts-strogatz"])
    def test_mean_infectious_degree_below_size_biased_mean(self, kind):
        spec = GraphSpec(kind, 20_000, 4.0)
        stats = run_ensemble(spec, base_params(), seeding="uniform", runs=20,
                             days=25, base_seed=31)
        mu = stats.census_mu.mean()
        sb = mu + stats.census_var.mean() / mu
        peak = np.nanmax(stats.ensemble_mean_inf_degree())
        assert peak <= 1.05 * sb
