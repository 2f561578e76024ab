import math
import re
from dataclasses import replace

import numpy as np
import pytest

from epidelay.params import (
    DegreeDistribution,
    DegreeStats,
    EpidemicParams,
    HeterogeneityMode,
    ModelError,
    compute_stats,
    effective_beta,
    load_distribution,
    write_csv,
)
from epidelay.stability import heterogeneous_delay_bound, homogeneous_delay_bound


def moments_oracle(counts: dict[int, int]) -> tuple[float, float, float]:
    """Independent moment computation by direct weighted summation."""
    ks = np.array(sorted(counts), dtype=np.float64)
    ns = np.array([counts[int(k)] for k in ks], dtype=np.float64)
    total = ns.sum()
    mu = float((ks * ns).sum() / total)
    var = float((ks**2 * ns).sum() / total - mu**2)
    k3 = float((ks**3 * ns).sum() / total)
    return mu, var, k3


class TestComputeStats:
    def test_degenerate_single_degree(self):
        stats = compute_stats(DegreeDistribution({4: 1000}))
        assert stats.mu == 4.0
        assert stats.sigma == 0.0
        assert stats.cv == 0.0
        assert stats.h == 1.0

    def test_two_point_hand_values(self):
        stats = compute_stats(DegreeDistribution({1: 500, 7: 500}))
        assert stats.mu == pytest.approx(4.0, abs=1e-12)
        assert stats.sigma == pytest.approx(3.0, abs=1e-12)
        assert stats.cv == pytest.approx(0.75, abs=1e-12)
        assert stats.h == pytest.approx(1.5625, abs=1e-12)
        assert stats.k3 == pytest.approx(172.0, abs=1e-12)

    def test_truncated_poisson_matches_oracle(self):
        mu = 4.0
        counts = {}
        for k in range(0, 16):
            counts[k] = int(round(1e6 * math.exp(-mu) * mu**k / math.factorial(k)))
        stats = compute_stats(DegreeDistribution(counts))
        mu_o, var_o, k3_o = moments_oracle(counts)
        assert stats.mu == pytest.approx(mu_o, rel=1e-12)
        assert stats.sigma**2 == pytest.approx(var_o, rel=1e-12)
        assert stats.k3 == pytest.approx(k3_o, rel=1e-12)
        # Poisson: variance ~ mean, so h ~ 1 + 1/mu = 1.25
        assert stats.h == pytest.approx(1.25, abs=0.01)

    def test_scaling_counts_leaves_moments_unchanged(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            ks = rng.integers(0, 15, size=6)
            ns = rng.integers(1, 50, size=6)
            counts = {}
            for k, n in zip(ks.tolist(), ns.tolist()):
                counts[k] = counts.get(k, 0) + n
            if all(k == 0 for k in counts):
                counts[3] = 5
            a = compute_stats(DegreeDistribution(counts))
            b = compute_stats(DegreeDistribution({k: 7 * n for k, n in counts.items()}))
            assert a.mu == pytest.approx(b.mu, rel=1e-13)
            assert a.sigma == pytest.approx(b.sigma, rel=1e-13, abs=1e-13)
            assert a.h == pytest.approx(b.h, rel=1e-13)

    def test_h_at_least_one_iff_sigma_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            counts = {int(k): int(n) for k, n in
                      zip(rng.integers(1, 20, 4), rng.integers(1, 100, 4))}
            stats = compute_stats(DegreeDistribution(counts))
            assert stats.h >= 1.0
            if stats.sigma > 0:
                assert stats.h > 1.0
            else:
                assert stats.h == 1.0

    def test_fixed_graph_mode(self):
        dist = DegreeDistribution({1: 500, 7: 500})
        stats = compute_stats(dist, HeterogeneityMode.FIXED_GRAPH)
        # (mu + sigma^2/mu - 1)/mu with mu=4, sigma^2=9
        assert stats.h == pytest.approx((4.0 + 9.0 / 4.0 - 1.0) / 4.0, rel=1e-12)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ModelError):
            DegreeDistribution({})
        with pytest.raises(ModelError):
            DegreeDistribution({3: 0, 5: 0})

    def test_all_degree_zero_rejected(self):
        with pytest.raises(ModelError):
            DegreeDistribution({0: 100})

    @pytest.mark.parametrize("counts", [{-1: 5, 2: 5}, {1.5: 5, 2: 5},
                                        {1: -3, 2: 5}, {1: 2.5, 2: 5}])
    def test_bad_degree_or_count_rejected(self, counts):
        with pytest.raises(ModelError, match="nonnegative integer"):
            DegreeDistribution(counts)

    def test_population_beyond_float_range_rejected(self):
        # compute_stats' s1 / n_total would raise OverflowError
        with pytest.raises(ModelError, match="population passes the float range"):
            DegreeDistribution({0: 10**400, 1: 1})


class TestEpidemicParams:
    @pytest.mark.parametrize("kwargs", [
        dict(rho=-0.1, gamma=0.1, alpha=0.5, t_delay=0.0),
        dict(rho=1.5, gamma=0.1, alpha=0.5, t_delay=0.0),
        dict(rho=0.1, gamma=0.0, alpha=0.5, t_delay=0.0),
        dict(rho=0.1, gamma=-1.0, alpha=0.5, t_delay=0.0),
        dict(rho=0.1, gamma=0.1, alpha=1.2, t_delay=0.0),
        dict(rho=0.1, gamma=0.1, alpha=0.5, t_delay=-0.5),
        dict(rho=0.1, gamma=math.inf, alpha=0.5, t_delay=0.0),
        dict(rho=0.1, gamma=math.nan, alpha=0.5, t_delay=0.0),
        dict(rho=0.1, gamma=0.1, alpha=0.5, t_delay=math.inf),
        dict(rho=0.1, gamma=0.1, alpha=0.5, t_delay=math.nan),
        # subnormal: 1/gamma overflows
        dict(rho=0.1, gamma=1e-320, alpha=0.5, t_delay=0.0),
    ])
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ModelError):
            EpidemicParams(**kwargs)


class TestFromMuCv:
    @pytest.mark.parametrize("mu, cv", [
        (0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5),
        (4.0, -0.1), (4.0, math.nan), (4.0, math.inf),
    ])
    def test_invalid_moments_rejected(self, mu, cv):
        with pytest.raises(ModelError):
            DegreeStats.from_mu_cv(mu, cv)

    @pytest.mark.parametrize("mu, cv, message", [
        (4.0, 1e200, "heterogeneity factor h = cv^2 + 1 = inf"),
        (1e308, 10.0, "degree deviation sigma = cv * mu = inf"),
        (1e200, 1e200, "heterogeneity factor h"),
    ])
    def test_non_finite_sigma_or_h_rejected(self, mu, cv, message):
        # finite mu and cv whose products pass the float range
        with pytest.raises(ModelError, match=f"^{re.escape(message)}"):
            DegreeStats.from_mu_cv(mu, cv)

    @pytest.mark.parametrize("mu, cv", [(4.0, 0.5), (1e150, 1e150), (1e300, 1.5), (1e-300, 1e3)])
    def test_finite_moments_keep_their_bits(self, mu, cv):
        stats = DegreeStats.from_mu_cv(mu, cv)
        assert (stats.mu, stats.sigma, stats.cv, stats.h) == (mu, cv * mu, cv, cv * cv + 1.0)


class TestEffectiveBeta:
    def test_homogeneous_recovers_rho_k(self):
        p = EpidemicParams(rho=0.075, gamma=0.1, alpha=0.0, t_delay=0.0)
        assert effective_beta(p, DegreeStats.from_mu_cv(4.0, 0.0)) == pytest.approx(0.3)

    def test_heterogeneous_product(self):
        p = EpidemicParams(rho=0.075, gamma=0.1, alpha=0.0, t_delay=0.0)
        assert effective_beta(p, DegreeStats.from_mu_cv(4.0, 0.5)) == pytest.approx(0.375)

    def test_zero_rho(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.0, t_delay=0.0)
        assert effective_beta(p, DegreeStats.from_mu_cv(4.0, 1.3)) == 0.0

    def test_non_finite_product_rejected(self):
        # mu and h are finite, their product with rho is not
        p = EpidemicParams(rho=0.075, gamma=0.1, alpha=0.0, t_delay=0.0)
        stats = DegreeStats.from_mu_cv(1e200, 1e100)
        with pytest.raises(ModelError, match=r"^mixing rate beta_h = inf is not finite"):
            effective_beta(p, stats)
        with pytest.raises(ModelError, match=r"^mixing rate beta_h = inf is not finite"):
            heterogeneous_delay_bound(p, stats)

    @pytest.mark.parametrize("rho, mu, cv", [(0.075, 4.0, 0.5), (1.0, 1e150, 1e75),
                                             (0.3, 1e-300, 2.0)])
    def test_finite_product_keeps_its_bits(self, rho, mu, cv):
        p = EpidemicParams(rho=rho, gamma=0.1, alpha=0.0, t_delay=0.0)
        stats = DegreeStats.from_mu_cv(mu, cv)
        assert effective_beta(p, stats) == rho * mu * (cv * cv + 1.0)

    def test_monotone_in_cv(self):
        p = EpidemicParams(rho=0.05, gamma=0.1, alpha=0.0, t_delay=0.0)
        betas = [effective_beta(p, DegreeStats.from_mu_cv(4.0, cv))
                 for cv in np.linspace(0, 2, 15)]
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))


def verdict_at(beta: float, p: EpidemicParams):
    """The verdict at mixing rate beta: rho = beta on a population whose
    every member has one contact (mu 1, cv 0, so h = 1)."""
    return heterogeneous_delay_bound(replace(p, rho=beta), DegreeStats.from_mu_cv(1.0, 0.0))


class TestReproductionNumbers:
    def test_no_isolation(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.0, t_delay=0.0)
        v = verdict_at(0.3, p)
        assert v.r0 == pytest.approx(3.0)
        assert v.re == pytest.approx(3.0)

    def test_given_r0_is_kept(self):
        # R0 -> beta_h -> R0 rounded 3 to 3.0000000000000004; the verdict
        # keeps the R0 it was given, and beta_h/gamma for a mixing rate
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.8, t_delay=0.0)
        v = homogeneous_delay_bound(p, 3.0)
        assert v.r0 == 3.0 and v.beta_h == 3.0 * 0.1
        assert v.re == 3.0 * (1.0 - 0.8)
        assert verdict_at(0.3, p).r0 == 0.3 / 0.1

    def test_zero_delay(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.8, t_delay=0.0)
        assert verdict_at(0.3, p).re == pytest.approx(0.6, abs=1e-12)

    def test_boundary_delay_gives_unit_re(self):
        t_max = math.log(1.2) / 0.1
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.8, t_delay=t_max)
        assert verdict_at(0.3, p).re == pytest.approx(1.0, abs=1e-12)

    def test_re_never_exceeds_r0(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = EpidemicParams(rho=0.0, gamma=rng.uniform(0.05, 0.5),
                               alpha=rng.uniform(0, 1), t_delay=rng.uniform(0, 10))
            v = verdict_at(rng.uniform(0.01, 1.0), p)
            assert v.re <= v.r0 + 1e-15

    def test_monotone_in_alpha_and_delay(self):
        beta = 0.3
        res_alpha = []
        for alpha in np.linspace(0, 1, 11):
            p = EpidemicParams(rho=0.0, gamma=0.1, alpha=alpha, t_delay=1.0)
            res_alpha.append(verdict_at(beta, p).re)
        assert all(b <= a + 1e-15 for a, b in zip(res_alpha, res_alpha[1:]))
        res_t = []
        for t in np.linspace(0, 10, 11):
            p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.8, t_delay=t)
            res_t.append(verdict_at(beta, p).re)
        assert all(b >= a - 1e-15 for a, b in zip(res_t, res_t[1:]))


class TestLoadDistribution:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("k,count\n1,500\n7,500\n", encoding="utf-8")
        dist = load_distribution(path)
        assert dist.counts == {1: 500, 7: 500}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("k,count\n1,500\n\n   \n7,500\n", encoding="utf-8")
        assert load_distribution(path).counts == {1: 500, 7: 500}

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_bytes(b"k,count\r\n2,10\r\n3,20\r\n")
        assert load_distribution(path).counts == {2: 10, 3: 20}

    def test_missing_header(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("1,500\n", encoding="utf-8")
        with pytest.raises(ModelError, match="line 1"):
            load_distribution(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("k,count\n1,500\nx,20\n", encoding="utf-8")
        with pytest.raises(ModelError, match="line 3"):
            load_distribution(path)

    def test_duplicate_degree_rejected(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("k,count\n1,500\n1,20\n", encoding="utf-8")
        with pytest.raises(ModelError, match="line 3"):
            load_distribution(path)


class TestWriteCsv:
    def test_exact_bytes_per_type(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("a", "b", "c"), [
            (7, np.int64(-12), 0.1),
            (float("nan"), float("inf"), -0.0),
            ("stable_up_to", np.float64(1.0) / 3.0, -float("inf")),
        ])
        assert path.read_bytes() == (b"a,b,c\n"
                                     b"7,-12,0.10000000000000001\n"
                                     b"nan,inf,-0\n"
                                     b"stable_up_to,0.33333333333333331,-inf\n")

    def test_floats_read_back_exactly(self, tmp_path):
        path = tmp_path / "out.csv"
        values = [math.pi, 1e-300, 5e-324, 1.7976931348623157e308, 2.0 ** 60]
        write_csv(path, ("x",), [(v,) for v in values])
        assert [float(v) for v in path.read_text().split()[1:]] == values

    def test_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("day", "run"), [])
        assert path.read_bytes() == b"day,run\n"
