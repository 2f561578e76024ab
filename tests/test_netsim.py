import numpy as np
import pytest

from epidelay.graphs import generate_graph
from epidelay.netsim import (
    INFECTIOUS,
    ISOLATED,
    REMOVED,
    SUSCEPTIBLE,
    GraphSpec,
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
        mu, var = g.census()
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
        assert np.all(state.iso_day[seeds] == 4)
        assert np.sum(state.status == ISOLATED) == 0
        m1 = step_day(g, state, p, rng)  # day 2
        m2 = step_day(g, state, p, rng)  # day 3
        assert m1.isolated == 0 and m2.isolated == 0
        m3 = step_day(g, state, p, rng)  # day 4: survivors of the seed cohort move
        survivors = np.isin(np.arange(2000), seeds) & (state.status == ISOLATED)
        assert m3.isolated == survivors.sum() > 0
        # every scheduled node respects iso = inf + delay
        scheduled = state.iso_day >= 0
        assert np.all(state.iso_day[scheduled] == state.inf_day[scheduled] + 3)

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

    def test_regular_graph_mean_degree_constant(self):
        spec = GraphSpec("watts-strogatz", 1000, 4.0, ws_rewire=0.0)
        stats = run_ensemble(spec, base_params(), runs=3, days=15, base_seed=1)
        m = stats.mean_inf_degree
        assert np.all(np.isclose(m[~np.isnan(m)], 4.0))

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
