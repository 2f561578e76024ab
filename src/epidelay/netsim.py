"""Discrete-time stochastic SIR with delayed isolation on contact graphs.

Daily synchronous updates: a susceptible with m non-isolated infectious
neighbors becomes infectious the next day with probability 1 - (1-rho)^m;
infectious nodes (isolated or not) recover with per-day probability
1 - exp(-gamma); a newly infected node is scheduled for isolation with
probability alpha, t_delay (rounded to whole days) after the day it became
infectious, and moves to Isolated at the start of that day if still
infectious. Isolation is permanent and only blocks transmission.

Each day sweeps only the frontier: infection is tested only on susceptible
nodes with an infectious neighbor, recovery only on infectious and isolated
nodes, and isolation scheduling only on the newly infected. Scheduled nodes
wait in cohorts keyed by the day their isolation falls due, so a day
isolates only the cohort it pops, and a delay past the run isolates no one
within it. Node v's test reads entry v of that day's length-n uniform draw
(infection, recovery, isolation, in that order). When a test reads few
entries, the generator jumps to each of them instead of drawing all n
(`_uniform_at`); an isolation test at alpha 0 or 1 has a certain outcome
and reads none.

The exposed nodes and their infectious-neighbor counts come from the CSR
rows of the spreaders (push). A day with more than n/_SCAN_COST spreaders
also scans all n statuses for its susceptible nodes, and reads their rows
instead (pull) when those hold fewer entries, as direction-optimising
breadth-first search does. A day with more than n/_SCAN_COST alive nodes
rebuilds its alive list by one scan. Either scan costs at most a constant
multiple of the push work such a day does anyway. Other days scan nothing:
the state carries its alive list and removed count, so a quiet day costs
work proportional to the infected nodes' edges, whatever the graph size.

Runs within an ensemble use independently derived RNG streams; aggregation
order is fixed, so results do not depend on the thread count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graphs import ContactGraph, generate_graph, run_starts
from .params import EpidemicParams, ModelError, write_csv

SUSCEPTIBLE = 0
INFECTIOUS = 1
ISOLATED = 2
REMOVED = 3

SEEDING_MODES = ("uniform", "degree")

# Day number of the seeded initial state; each step_day adds one.
FIRST_DAY = 1

# Most worker threads an ensemble may ask for. The pool starts one thread per
# queued run up to its size, so a larger count is refused before it starts.
MAX_THREADS = 256

# Largest ensemble, refused before the pool starts: the pool queues every run
# up front, at about 1.9 KB each (190 MB at MAX_RUNS), and the series hold
# 40 bytes per run-day (400 MB at MAX_RUN_DAYS).
MAX_RUNS = 100_000
MAX_RUN_DAYS = 10_000_000


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for regenerating a graph inside an ensemble."""

    kind: str
    node_count: int
    mean_degree: float

    def build(self, seed) -> ContactGraph:
        return generate_graph(self.kind, self.node_count, self.mean_degree, seed)


@dataclass
class EpidemicState:
    """Mutable per-node epidemic state for one run.

    status holds the compartment codes. due maps each day still to come to
    the nodes whose isolation falls due at its start, those scheduled on the
    day of infection + round(t_delay); it holds no empty cohort. alive lists
    the infectious and isolated nodes ascending, and removed counts the
    removed ones; step_day keeps both in step with status.
    """

    status: np.ndarray
    due: dict[int, np.ndarray]
    day: int
    alive: np.ndarray
    removed: int


@dataclass(frozen=True)
class DayMetrics:
    day: int
    s: int
    i: int
    r: int
    isolated: int
    mean_inf_degree: float


def seed_infections(graph: ContactGraph, count: int, mode: str,
                    rng: np.random.Generator) -> np.ndarray:
    """Choose initially infectious nodes, uniformly or with probability
    proportional to degree, without replacement."""
    if mode not in SEEDING_MODES:
        raise ModelError(f"unknown seeding mode {mode!r}; choose from {SEEDING_MODES}")
    if not 0 <= count <= graph.node_count:
        raise ModelError(f"cannot seed {count} infections among {graph.node_count} nodes")
    if mode == "uniform":
        return rng.choice(graph.node_count, size=count, replace=False)
    weights = graph.degrees.astype(np.float64)
    return rng.choice(graph.node_count, size=count, replace=False, p=weights / weights.sum())


@functools.lru_cache(maxsize=64)
def infection_prob_table(rho: float, max_degree: int) -> np.ndarray:
    """p[m] = 1 - (1-rho)^m, the chance that m infectious neighbors infect.

    Memoized on (rho, max_degree); the shared table is read-only.
    """
    table = 1.0 - np.power(1.0 - rho, np.arange(max_degree + 1, dtype=np.float64))
    table.setflags(write=False)
    return table


# A test reading k entries of an n-entry draw jumps to each of them when
# k * _JUMP_COST < n: one jump plus one scalar draw (1.4-2.7 us) costs about
# as much as 500-850 entries of a dense draw (3-5 ns each), measured on a
# 2-vCPU Xeon with numpy 2.4.
_JUMP_COST = 512


def _uniform_at(rng: np.random.Generator, n: int, pos: np.ndarray) -> np.ndarray:
    """Entries `pos` (ascending, distinct) of rng.random(n), leaving rng
    exactly where rng.random(n) leaves it."""
    bg = rng.bit_generator
    # PCG64's advance(d) skips exactly d 64-bit outputs, one per double that
    # random() returns. Philox's advance counts whole 256-bit blocks, so
    # jumping there would read other numbers; MT19937 and SFC64 cannot
    # advance. (np.random is named here, not at module level: importing it
    # with this module raised isolation-grid's peak RSS by 0.8-3.6 MB.)
    if len(pos) * _JUMP_COST >= n or type(bg) not in (np.random.PCG64, np.random.PCG64DXSM):
        return rng.random(n)[pos]
    # advance() drops a buffered uint32, which random(n) would keep
    before = bg.state
    draws = []
    at = 0
    for p in pos.tolist():
        bg.advance(p - at)
        draws.append(rng.random())
        at = p + 1
    bg.advance(n - at)
    if before["has_uint32"]:
        after = bg.state
        after["has_uint32"], after["uinteger"] = 1, before["uinteger"]
        bg.state = after
    return np.array(draws, dtype=np.float64)


def _tally(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the integer array `a`, ascending, and how many
    times each occurs."""
    if a.size == 0:
        return a, a
    a = np.sort(a)
    starts = np.flatnonzero(run_starts(a))
    return a[starts], np.diff(starts, append=a.size)


def _neighbor_entries(graph: ContactGraph, rows: np.ndarray) -> np.ndarray:
    """The CSR neighbor lists of `rows`, concatenated."""
    if rows.size == 0:
        # no spreader (an extinct or fully isolated day): skip the dozen
        # numpy calls below, a seventh of such a day's cost at 1e5 nodes
        return graph.indices[:0]
    starts = graph.indptr[rows]
    lens = graph.indptr[rows + 1] - starts
    # entry j of row r sits at starts[r] + j; shift a running index so
    # each row's block begins at its own start
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return graph.indices[np.arange(len(shift)) + shift]


# A day scans all n statuses when its frontier holds more than n/_SCAN_COST
# nodes: for its susceptible nodes when that many spread, and to rebuild the
# alive list when that many are alive. Scanning costs 2-3 ns a node, and
# pushing from a spreader 70-160 ns (its row, the status lookups, the tally's
# sort), so past the cut-off a scan costs at most a third of the push work.
# 30-day runs at 1e5 nodes and alpha 0 took about as long at any cost from 4
# to 32, and 3-50% longer with no scan (Watts-Strogatz most), measured on a
# 2-vCPU Xeon with numpy 2.4.
_SCAN_COST = 8


def _push(graph: ContactGraph, status: np.ndarray,
          spreaders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The susceptible neighbors of `spreaders`, ascending, and how many
    spreaders each one has, read from the spreaders' CSR rows."""
    neighbors = _neighbor_entries(graph, spreaders)
    return _tally(neighbors[status[neighbors] == SUSCEPTIBLE])


def _pull(graph: ContactGraph, status: np.ndarray, susceptible: np.ndarray,
          lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_push's (exposed, hits), read from the CSR rows of `susceptible`
    (ascending), whose lengths are `lens`: each row counts its infectious
    entries."""
    infectious = status[_neighbor_entries(graph, susceptible)] == INFECTIOUS
    counted = np.zeros(len(infectious) + 1, dtype=np.int64)
    np.cumsum(infectious, out=counted[1:])
    ends = np.cumsum(lens)
    hits = counted[ends] - counted[ends - lens]
    exposed = hits > 0
    return susceptible[exposed], hits[exposed]


def _exposures(graph: ContactGraph, status: np.ndarray,
               spreaders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_push's (exposed, hits), read from whichever side of the frontier,
    spreaders or susceptible nodes, has fewer CSR entries. Only a day with
    more than n/_SCAN_COST spreaders looks for the susceptible side."""
    if len(spreaders) * _SCAN_COST > graph.node_count:
        susceptible = np.flatnonzero(status == SUSCEPTIBLE)
        lens = graph.degrees[susceptible]
        if lens.sum() < graph.degrees[spreaders].sum():
            return _pull(graph, status, susceptible, lens)
    return _push(graph, status, spreaders)


def init_state(graph: ContactGraph, seeds: np.ndarray, params: EpidemicParams,
               rng: np.random.Generator) -> EpidemicState:
    """Day-FIRST_DAY state with the given seed nodes infectious and the
    isolation scheme already applied to them. The seeds must be distinct,
    as seed_infections returns them."""
    status = np.zeros(graph.node_count, dtype=np.int8)
    status[seeds] = INFECTIOUS
    t_days = round(params.t_delay)
    picked = seeds[rng.random(len(seeds)) < params.alpha]
    due = {}
    if t_days == 0:
        status[picked] = ISOLATED
    elif len(picked):
        due[FIRST_DAY + t_days] = picked
    return EpidemicState(status=status, due=due, day=FIRST_DAY,
                         alive=np.sort(seeds), removed=0)


def metrics_from_state(graph: ContactGraph, state: EpidemicState) -> DayMetrics:
    alive, removed = state.alive, state.removed
    isolated = int(np.count_nonzero(state.status[alive] == ISOLATED))
    n_alive = len(alive)
    return DayMetrics(
        day=state.day,
        s=graph.node_count - n_alive - removed,
        i=n_alive - isolated,
        r=removed,
        isolated=isolated,
        mean_inf_degree=float(graph.degrees[alive].mean()) if n_alive else math.nan,
    )


def step_day(graph: ContactGraph, state: EpidemicState, params: EpidemicParams,
             rng: np.random.Generator) -> DayMetrics:
    """Advance the epidemic one day in place and return the new day's metrics.

    Node v's infection, recovery and isolation tests read entry v of three
    length-n uniform draws, taken in that order. Only the entries a test
    reads are drawn (`_uniform_at`), so testing the frontier alone gives the
    same day, and leaves the generator in the same state, as drawing all
    three arrays and testing every node.
    """
    n = graph.node_count
    p_table = infection_prob_table(params.rho, graph.max_degree)
    p_rec = -math.expm1(-params.gamma)
    status, alive, day = state.status, state.alive, state.day
    # hits counts each exposed node's infectious neighbors; the graph is
    # simple, so hits <= degree indexes p_table
    exposed, hits = _exposures(graph, status, alive[status[alive] == INFECTIOUS])
    infect = exposed[_uniform_at(rng, n, exposed) < p_table[hits]]
    recovers = _uniform_at(rng, n, alive) < p_rec
    recover = alive[recovers]

    status[recover] = REMOVED
    status[infect] = INFECTIOUS
    if 0.0 < params.alpha < 1.0:
        schedule = infect[_uniform_at(rng, n, infect) < params.alpha]
    else:
        # every entry is below 1 and none below 0: the test reads none of
        # them, and the generator still moves past the whole draw
        _uniform_at(rng, n, infect[:0])
        schedule = infect if params.alpha == 1.0 else infect[:0]
    if len(schedule):
        key = day + 1 + round(params.t_delay)
        # a cohort already due that day was scheduled under another t_delay
        if key in state.due:
            schedule = np.concatenate((state.due[key], schedule))
        state.due[key] = schedule
    alive = alive[~recovers]
    if (len(alive) + len(infect)) * _SCAN_COST > n:
        alive = np.flatnonzero((status == INFECTIOUS) | (status == ISOLATED))
    else:
        alive = np.sort(np.concatenate((alive, infect)))
    cohort = state.due.pop(day + 1, None)
    if cohort is not None:
        status[cohort[status[cohort] == INFECTIOUS]] = ISOLATED
    state.alive = alive
    state.removed += len(recover)
    state.day += 1
    return metrics_from_state(graph, state)


@dataclass(frozen=True)
class RunResult:
    """Per-day series of one simulated epidemic plus its graph census."""

    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    isolated: np.ndarray
    mean_inf_degree: np.ndarray
    census_mu: float
    census_var: float


def run_single(graph: ContactGraph, params: EpidemicParams, seeding: str,
               seed_count: int, days: int, rng: np.random.Generator) -> RunResult:
    """One epidemic over `days` days; day 1 is the seeded initial state."""
    if days < 1:
        raise ModelError(f"days must be >= 1, got {days}")
    seeds = seed_infections(graph, seed_count, seeding, rng)
    state = init_state(graph, seeds, params, rng)
    series = [metrics_from_state(graph, state)]
    series += [step_day(graph, state, params, rng) for _ in range(days - 1)]
    col = lambda name, dtype=np.int64: np.array([getattr(m, name) for m in series], dtype=dtype)
    mu, var = graph.census
    return RunResult(s=col("s"), i=col("i"), r=col("r"), isolated=col("isolated"),
                     mean_inf_degree=col("mean_inf_degree", np.float64),
                     census_mu=mu, census_var=var)


@dataclass(frozen=True)
class NetworkEnsembleStats:
    """Per-run daily series and their ensemble aggregates.

    Array shapes are (runs, days); day indices start at 1 (the seeded
    state). mean_inf_degree is NaN on days a run has no infectious node.
    Per-run RNG streams derive from base_seed as SeedSequence(base_seed,
    spawn_key=(run, 0)) for the graph and (run, 1) for the epidemic.
    """

    days: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    isolated: np.ndarray
    mean_inf_degree: np.ndarray
    census_mu: np.ndarray
    census_var: np.ndarray
    base_seed: int
    run_count: int

    def _observed_inf_degree(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """mean_inf_degree with NaN set to 0, the NaN mask, and the per-day
        count of runs with an infectious node."""
        missing = np.isnan(self.mean_inf_degree)
        return (np.where(missing, 0.0, self.mean_inf_degree), missing,
                np.count_nonzero(~missing, axis=0))

    def ensemble_mean_inf_degree(self) -> np.ndarray:
        """Per-day mean of mean_inf_degree over the runs with an infectious
        node, NaN on days with none: np.nanmean's doubles, by its own
        arithmetic, without its empty-slice warning."""
        values, _, valid = self._observed_inf_degree()
        with np.errstate(invalid="ignore"):
            return values.sum(axis=0) / valid

    def stddev_inf_degree(self) -> np.ndarray:
        """Across-run sample standard deviation of mean_inf_degree per day;
        zero for a single run, else NaN on days with fewer than two runs
        with an infectious node. These are np.nanstd(ddof=1)'s doubles, by
        its own arithmetic, without its degrees-of-freedom warning."""
        if self.run_count < 2:
            return np.zeros(len(self.days))
        values, missing, valid = self._observed_inf_degree()
        with np.errstate(invalid="ignore", divide="ignore"):
            dev = values - values.sum(axis=0) / valid
            dev[missing] = 0.0
            var = (dev * dev).sum(axis=0) / (valid - 1)
        var[valid < 2] = np.nan
        return np.sqrt(var)


def run_ensemble(
    spec: GraphSpec,
    params: EpidemicParams,
    seeding: str = "uniform",
    runs: int = 100,
    days: int = 30,
    seed_count: int = 10,
    base_seed: int = 0,
    reuse_graph: bool = False,
    threads: int = 1,
) -> NetworkEnsembleStats:
    """Run independent seeded epidemics and aggregate their daily metrics.

    By default each run regenerates its own graph realization; with
    reuse_graph one realization (run-0 graph stream) is shared. Threads, at
    most MAX_THREADS, only affect wall time, never results. At most MAX_RUNS
    runs and MAX_RUN_DAYS run-days are accepted.
    """
    if not 1 <= runs <= MAX_RUNS:
        raise ModelError(f"runs must be in [1, {MAX_RUNS}], got {runs}")
    if days < 1:
        raise ModelError(f"days must be >= 1, got {days}")
    if runs * days > MAX_RUN_DAYS:
        raise ModelError(f"runs x days = {runs} x {days} exceeds {MAX_RUN_DAYS}")
    if base_seed < 0:
        raise ModelError(f"base_seed must be >= 0, got {base_seed}")
    if not 1 <= threads <= MAX_THREADS:
        raise ModelError(f"threads must be in [1, {MAX_THREADS}], got {threads}")
    shared = spec.build(np.random.SeedSequence(base_seed, spawn_key=(0, 0))) if reuse_graph else None

    def one_run(run: int) -> RunResult:
        graph = shared if shared is not None else spec.build(
            np.random.SeedSequence(base_seed, spawn_key=(run, 0)))
        rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(run, 1)))
        return run_single(graph, params, seeding, seed_count, days, rng)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(one_run, range(runs)))

    stack = lambda attr: np.stack([getattr(res, attr) for res in results])
    return NetworkEnsembleStats(
        days=np.arange(FIRST_DAY, FIRST_DAY + days, dtype=np.int64),
        s=stack("s"),
        i=stack("i"),
        r=stack("r"),
        isolated=stack("isolated"),
        mean_inf_degree=stack("mean_inf_degree"),
        census_mu=np.array([res.census_mu for res in results]),
        census_var=np.array([res.census_var for res in results]),
        base_seed=base_seed,
        run_count=runs,
    )


def write_runs_csv(stats: NetworkEnsembleStats, path) -> None:
    """Per-run rows: day,run,S,I,R,isolated,mean_inf_degree."""
    columns = (stats.s, stats.i, stats.r, stats.isolated, stats.mean_inf_degree)
    write_csv(path, ("day", "run", "S", "I", "R", "isolated", "mean_inf_degree"), (
        (day, run, *values)
        for run in range(stats.run_count)
        for day, *values in zip(stats.days.tolist(), *(col[run].tolist() for col in columns))))


def write_aggregate_csv(stats: NetworkEnsembleStats, path) -> None:
    """Ensemble means per day plus the across-run spread of the infectious
    mean degree."""
    columns = (stats.s.mean(axis=0), stats.i.mean(axis=0), stats.r.mean(axis=0),
               stats.isolated.mean(axis=0), stats.ensemble_mean_inf_degree(),
               stats.stddev_inf_degree())
    write_csv(path, ("day", "mean_S", "mean_I", "mean_R", "mean_isolated", "mean_inf_degree",
                     "stddev_inf_degree"),
              zip(stats.days.tolist(), *(col.tolist() for col in columns)))
