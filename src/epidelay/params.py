"""Epidemiological parameters, degree distributions and derived moments.

Single source of truth for the symbols used by every other module:
transmission/recovery/isolation rates, contact-degree distributions stored
as exact integer counts, and the moment statistics (mean, variance,
coefficient of variation, third raw moment, heterogeneity factor) derived
from them. Degree files are read here, and every CSV is written here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping


class ModelError(ValueError):
    """Domain error: inputs violate a model precondition."""


class HeterogeneityMode(enum.Enum):
    """How the heterogeneity factor h maps degree variance onto the mixing rate.

    MIXED_POPULATION: stochastic re-drawn contacts, h = c_v^2 + 1 (default).
    FIXED_GRAPH: time-invariant contact graph; an infectious node cannot
    reinfect its own infector, so the effective contact count drops by one:
    h = (mu + sigma^2/mu - 1) / mu.
    """

    MIXED_POPULATION = "mixed-population"
    FIXED_GRAPH = "fixed-graph"


@dataclass(frozen=True)
class EpidemicParams:
    """Core rate parameters shared by every model variant.

    rho:     per-contact transmission rate (1/day), in [0, 1]
    gamma:   recovery rate (1/day), > 0 with 1/gamma finite
    alpha:   fraction of new cases eventually isolated, in [0, 1]
    t_delay: days between infection and isolation, finite and >= 0
    """

    rho: float
    gamma: float
    alpha: float
    t_delay: float

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ModelError(f"rho must be in [0, 1], got {self.rho}")
        if not (0.0 < self.gamma < math.inf and 1.0 / self.gamma < math.inf):
            raise ModelError(f"gamma must be finite and > 0 with 1/gamma finite, got {self.gamma}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ModelError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.t_delay < math.inf:
            raise ModelError(f"t_delay must be finite and >= 0, got {self.t_delay}")


@dataclass(frozen=True)
class DegreeDistribution:
    """Population partition sizes by contact degree, as exact integer counts.

    counts[k] is the number of individuals with k contacts per day. Degree-0
    partitions are allowed: they count toward the population size but never
    transmit or acquire infection. The population must convert to a float.
    """

    counts: Mapping[int, int]

    def __post_init__(self):
        cleaned = {}
        for k, n_k in self.counts.items():
            if k < 0 or int(k) != k:
                raise ModelError(f"degree must be a nonnegative integer, got {k}")
            if n_k < 0 or int(n_k) != n_k:
                raise ModelError(f"count for degree {k} must be a nonnegative integer, got {n_k}")
            if n_k > 0:
                cleaned[int(k)] = int(n_k)
        if not cleaned:
            raise ModelError("degree distribution is empty")
        if all(k == 0 for k in cleaned):
            raise ModelError("no partition with degree >= 1; transmission impossible")
        try:
            float(sum(cleaned.values()))
        except OverflowError:
            raise ModelError("population passes the float range") from None
        object.__setattr__(self, "counts", dict(sorted(cleaned.items())))

    @property
    def population(self) -> int:
        return sum(self.counts.values())

    @property
    def max_degree(self) -> int:
        return max(self.counts)

    def items(self):
        return self.counts.items()


@dataclass(frozen=True)
class DegreeStats:
    """Moment statistics of a degree distribution.

    mu/sigma/cv are the mean, standard deviation and coefficient of variation
    of the degree; k3 is the third raw moment; h is the heterogeneity factor
    multiplying the mixing rate (mode-dependent, see HeterogeneityMode).
    k3 is NaN for synthetic stats built from (mu, cv) alone.
    """

    mu: float
    sigma: float
    cv: float
    k3: float
    h: float

    @classmethod
    def from_mu_cv(cls, mu: float, cv: float) -> "DegreeStats":
        """Synthetic stats from mean and coefficient of variation alone
        (mixed-population h; third moment unknown). sigma = cv*mu and
        h = cv^2 + 1 must be finite too."""
        if not 0.0 < mu < math.inf:
            raise ModelError(f"mu must be finite and > 0, got {mu}")
        if not 0.0 <= cv < math.inf:
            raise ModelError(f"cv must be finite and >= 0, got {cv}")
        sigma, h = cv * mu, cv * cv + 1.0
        if not math.isfinite(h):
            raise ModelError(f"heterogeneity factor h = cv^2 + 1 = {h} is not finite (cv = {cv})")
        if not math.isfinite(sigma):
            raise ModelError(f"degree deviation sigma = cv * mu = {sigma} is not finite "
                             f"(cv = {cv}, mu = {mu})")
        return cls(mu=mu, sigma=sigma, cv=cv, k3=math.nan, h=h)


def compute_stats(
    dist: DegreeDistribution,
    mode: HeterogeneityMode = HeterogeneityMode.MIXED_POPULATION,
) -> DegreeStats:
    """Exact moments of a discrete degree distribution.

    Sums are accumulated with math.fsum so the moments do not drift for large
    populations. h follows the requested mode; in mixed-population mode
    h = c_v^2 + 1 >= 1 with equality iff sigma = 0. Moments beyond the
    float range are rejected.
    """
    n_total = sum(dist.counts.values())
    try:
        s1 = math.fsum(k * n_k for k, n_k in dist.items())
        s2 = math.fsum(k * k * n_k for k, n_k in dist.items())
        s3 = math.fsum(k**3 * n_k for k, n_k in dist.items())
    except OverflowError:
        # fsum raises on a term or partial sum beyond the float range, so
        # every moment that returns is finite
        raise ModelError("degree moments are not finite as floats; "
                         "the degrees are too large") from None
    mu = s1 / n_total
    if mu <= 0.0:
        raise ModelError("mean degree is zero; transmission impossible")
    var = max(s2 / n_total - mu * mu, 0.0)
    sigma = math.sqrt(var)
    cv = sigma / mu
    k3 = s3 / n_total
    if mode is HeterogeneityMode.MIXED_POPULATION:
        h = cv * cv + 1.0
    else:
        h = (mu + var / mu - 1.0) / mu
    return DegreeStats(mu=mu, sigma=sigma, cv=cv, k3=k3, h=h)


def effective_beta(params: EpidemicParams, stats: DegreeStats) -> float:
    """Heterogeneity-scaled mixing rate rho * mu * h (1/day), refused when
    it is not finite."""
    beta_h = params.rho * stats.mu * stats.h
    if not math.isfinite(beta_h):
        raise ModelError(f"mixing rate beta_h = {beta_h} is not finite")
    return beta_h


def load_distribution(path) -> DegreeDistribution:
    """Read a degree distribution from a two-column `k,count` text file.

    The header line `k,count` is required; UTF-8 with LF or CRLF endings.
    Parse failures report the offending line number.
    """
    counts: dict[int, int] = {}
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip().lower() != "k,count":
        raise ModelError(f"{path}: line 1: expected header 'k,count'")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ModelError(f"{path}: line {lineno}: expected 'k,count', got {line!r}")
        try:
            k = int(parts[0])
            n_k = int(parts[1])
        except ValueError:
            raise ModelError(f"{path}: line {lineno}: non-integer field in {line!r}") from None
        if k in counts:
            raise ModelError(f"{path}: line {lineno}: duplicate degree {k}")
        counts[k] = n_k
    return DegreeDistribution(counts)


# Every float the package writes, in CSVs, sidecars and machine lines, has
# 17 significant digits, enough to read back the same double.
_FLOAT_FIELD = "{:.17g}"
format_float = _FLOAT_FIELD.format


def write_csv(path, header, rows) -> None:
    """Write the column names `header`, then one line per row: floats as
    format_float, every other value as str() would."""
    # one str.format template per sequence of value types formats a whole
    # row in one call rather than one call per value
    templates = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            types = tuple(map(type, row))
            template = templates.get(types)
            if template is None:
                template = templates[types] = ",".join(
                    _FLOAT_FIELD if issubclass(t, float) else "{}" for t in types) + "\n"
            fh.write(template.format(*row))
