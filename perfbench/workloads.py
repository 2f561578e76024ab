"""The three benchmark workloads, each a list of seeded ops grouped in cycles.

Every workload splits an op into `execute` (the timed call into the package)
and `check` (untimed: hashes the outputs and tests them against invariants,
independent closed forms and the other ops of the same pass). A check that
finds a problem makes the op a failed op.

  desk-ensemble        `epidelay netsim` commands run in-process through
                       cli.main: three graph families x two seeding modes,
                       1e5 nodes, 30 days, alpha = 0, two runs per command on
                       two threads. Both modes of a family share one base
                       seed, so they rebuild the same graph realisations.
  isolation-grid       one graph per family, then run_single over an
                       alpha x t_delay grid on each, single-threaded, 60 days.
  analytic-crosscheck  verdicts, rightmost roots on both branches, DDE
                       integration with a growth fit that must match the
                       root, partitioned/reduced pairs, and one CLI bound
                       sweep of 50k verdicts.

The traced pass runs the same ops with a span around every call into a
layer. For desk-ensemble it replaces the CLI command by its decomposition
(GraphSpec.build and run_single on run_ensemble's seed streams, then the
CSV writers), which must reproduce the command's output bit for bit.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from epidelay import cli
from epidelay.dde import (
    consistent_reduced_history,
    constant_history,
    estimate_growth_rate,
    infectious_fraction,
    integrate_homogeneous,
    integrate_partitioned,
    integrate_reduced,
)
from epidelay.graphs import generate_graph
from epidelay.netsim import (
    GraphSpec,
    NetworkEnsembleStats,
    run_single,
    write_aggregate_csv,
    write_runs_csv,
)
from epidelay.params import (
    DegreeDistribution,
    DegreeStats,
    EpidemicParams,
    compute_stats,
    effective_beta,
)
from epidelay.stability import (
    CharacteristicParams,
    heterogeneous_delay_bound,
    homogeneous_delay_bound,
    model_char_params,
    rightmost_root,
)

from tracing import Tracer, call

FAMILIES = ("config-poisson", "barabasi-albert", "watts-strogatz")
SEEDINGS = ("uniform", "degree")
MU = 4.0
SEED_COUNT = 10


def derive(seed: int, *key: int) -> int:
    """A 32-bit integer seed for one op, reproducible from the workload seed."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()[:16]


def census_tolerance(nodes: int) -> float:
    """The generators' own acceptance band for the empirical mean degree."""
    return max(0.02 * MU, 5.0 * math.sqrt(MU / nodes))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class Op:
    kind: str
    key: tuple
    args: tuple = ()


class Workload:
    """What run.py calls on a workload; see the module docstring for the three."""

    name = ""
    threads = 1
    cycle_s = 1.0  # a run of --seconds makes round(seconds / cycle_s) cycles
    golden_size: dict = {}  # constructor sizes of the golden instance

    def __init__(self, seed: int, cycles: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.cycles = [self.make_cycle(c) for c in range(cycles)]

    def make_cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def begin(self, tracer: Tracer | None) -> None:
        """Per-pass preparation inside the measured pass, outside any op."""
        self.seen: dict = {}

    def execute(self, op: Op, tracer: Tracer | None, op_id: int):
        raise NotImplementedError

    def check(self, op: Op, out, tracer: Tracer | None) -> tuple[str, list[str]]:
        """(output digest, problems found)."""
        raise NotImplementedError

    def golden_ops(self) -> list[Op]:
        return self.cycles[0]

    def golden(self) -> dict[str, str]:
        """Digests of a small fixed-seed cycle, compared with reference.json;
        also the warm-up before the measured pass."""
        small = type(self)(7, 1, self.workdir, **self.golden_size)
        small.begin(None)
        out = {}
        for op in small.golden_ops():
            d, problems = small.check(op, small.execute(op, None, -1), None)
            out["/".join(map(str, op.key))] = "; ".join(problems) if problems else d
        return out

    def verify_sample(self, records) -> list[str] | None:
        """Untimed cross-check after an untraced pass: its problems, or None
        when the workload has none."""
        return None


# --------------------------------------------------------------------------
# desk-ensemble


class DeskEnsemble(Workload):
    name = "desk-ensemble"
    threads = 2
    cycle_s = 4.2
    days = 30
    params = EpidemicParams(rho=0.2, gamma=0.1, alpha=0.0, t_delay=0.0)

    golden_size = {"nodes": 2000}

    def __init__(self, seed, cycles, workdir, nodes=100_000, runs=2):
        self.nodes, self.runs = nodes, runs
        self.out = os.path.join(workdir, "desk.csv")
        self.agg = os.path.join(workdir, "desk_aggregate.csv")
        super().__init__(seed, cycles, workdir)

    def make_cycle(self, c):
        return [Op("netsim", (c, f, mode), (fam, mode, derive(self.seed, c, f)))
                for f, fam in enumerate(FAMILIES) for mode in SEEDINGS]

    def argv(self, fam, mode, base):
        return ["netsim", "--graph", fam, "--nodes", str(self.nodes),
                "--mu", str(MU), "--days", str(self.days), "--alpha", "0",
                "--seeding", mode, "--runs", str(self.runs), "--seed", str(base),
                "--threads", str(self.threads), "--out", self.out]

    def execute(self, op, tracer, op_id):
        if tracer is None:
            return self.run_cli(*op.args)
        return self.run_decomposed(*op.args, tracer=tracer, op_id=op_id)

    def run_cli(self, fam, mode, base):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv(fam, mode, base))
        if rc != 0:
            raise RuntimeError(f"netsim exited with {rc}")
        with open(self.out + ".meta", encoding="utf-8") as fh:
            meta = dict(line.rstrip("\n").split("=", 1) for line in fh)
        return meta["census_mu_mean"], meta["census_var_mean"]

    def run_decomposed(self, fam, mode, base, tracer=None, op_id=-1):
        """run_ensemble and the netsim command, one layer call at a time."""
        spec = GraphSpec(kind=fam, node_count=self.nodes, mean_degree=MU)

        def one_run(run):
            graph = call(tracer, "graphs", f"build.{fam}", op_id, spec.build,
                         np.random.SeedSequence(base, spawn_key=(run, 0)))
            if tracer is not None:
                tracer.count("graphs.edges", graph.edge_count)
                tracer.distinct("graphs.seed_keys", graph.seed_key)
            rng = np.random.default_rng(np.random.SeedSequence(base, spawn_key=(run, 1)))
            return call(tracer, "netsim", "run", op_id, run_single,
                        graph, self.params, mode, SEED_COUNT, self.days, rng)

        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            results = list(pool.map(one_run, range(self.runs)))
        stack = lambda attr: np.stack([getattr(res, attr) for res in results])
        stats = NetworkEnsembleStats(
            days=np.arange(1, self.days + 1, dtype=np.int64),
            s=stack("s"), i=stack("i"), r=stack("r"), isolated=stack("isolated"),
            mean_inf_degree=stack("mean_inf_degree"),
            census_mu=np.array([res.census_mu for res in results]),
            census_var=np.array([res.census_var for res in results]),
            base_seed=base, run_count=self.runs,
        )
        call(tracer, "netsim", "csv", op_id, write_runs_csv, stats, self.out)
        call(tracer, "netsim", "csv", op_id, write_aggregate_csv, stats, self.agg)
        return _fmt(float(stats.census_mu.mean())), _fmt(float(stats.census_var.mean()))

    def check(self, op, out, tracer):
        nodes, runs = self.nodes, self.runs
        with open(self.out, "rb") as fh:
            runs_csv = fh.read()
        with open(self.agg, "rb") as fh:
            agg_csv = fh.read()
        problems = []
        table = np.loadtxt(io.BytesIO(runs_csv), delimiter=",", skiprows=1).reshape(-1, 7)
        if table.shape[0] != runs * self.days:
            return digest(runs_csv, agg_csv), [f"{table.shape[0]} rows, expected {runs * self.days}"]
        s, i, r, iso = (table[:, col].reshape(runs, self.days) for col in (2, 3, 4, 5))
        if np.any(s + i + r + iso != nodes):
            problems.append("S+I+R+isolated differs from the node count")
        if np.any(i[:, 0] != SEED_COUNT) or np.any(iso != 0):
            problems.append("wrong seeding or isolation at alpha = 0")
        if np.any(np.diff(s, axis=1) > 0) or np.any(np.diff(r, axis=1) < 0):
            problems.append("S increased or R decreased")
        if np.any(i[:, -1] + r[:, -1] <= SEED_COUNT):
            problems.append("epidemic did not grow at R0 >> 1")
        agg = np.loadtxt(io.BytesIO(agg_csv), delimiter=",", skiprows=1).reshape(-1, 7)
        if not np.allclose(agg[:, 1], s.mean(axis=0), rtol=1e-12, atol=0.0):
            problems.append("aggregate mean_S disagrees with the per-run rows")
        census_mu = float(out[0])
        if abs(census_mu - MU) > census_tolerance(nodes):
            problems.append(f"census mean degree {census_mu} off the requested {MU}")
        # both seeding modes of one family and cycle rebuild the same graphs
        c, f, _ = op.key
        other = self.seen.setdefault((c, f), out)
        if other != out:
            problems.append("seeding modes saw different graph censuses")
        if tracer is not None:
            tracer.count("netsim.node_days", runs * self.days * nodes)
            tracer.count("netsim.infectious_node_days", int(i.sum()))
            tracer.count("netsim.csv_bytes", len(runs_csv) + len(agg_csv))
            tracer.count("netsim.csv_ops")
        return digest(runs_csv, agg_csv), problems

    def verify_sample(self, records):
        """Recompute one op of the pass through the decomposition and require
        the command's exact output."""
        rec = records[self.seed % len(records)]
        self.begin(None)
        out = self.run_decomposed(*rec.op.args)
        d, problems = self.check(rec.op, out, None)
        if d != rec.digest:
            problems.append(f"decomposition of {rec.op.key} does not reproduce the command")
        return problems


# --------------------------------------------------------------------------
# isolation-grid


def _latin_grid(alphas, delays):
    """Every block of len(alphas) points covers each alpha and each delay once;
    with the grid below, each block spans both sides of the mean-field bound."""
    n = len(alphas)
    return [(alphas[a], delays[(a + block) % n]) for block in range(n) for a in range(n)]


class IsolationGrid(Workload):
    name = "isolation-grid"
    threads = 1
    cycle_s = 1.1
    days = 60
    rho, gamma = 0.05, 0.1
    grid = _latin_grid((0.0, 1.0, 0.8, 0.5, 0.9, 0.7), (0.0, 1.0, 2.0, 3.0, 5.0, 8.0))

    golden_size = {"nodes": 2000}

    def __init__(self, seed, cycles, workdir, nodes=100_000):
        self.nodes = nodes
        super().__init__(seed, cycles, workdir)

    def make_cycle(self, c):
        alpha, delay = self.grid[c % len(self.grid)]
        return [Op("scenario", (f, alpha, delay)) for f in range(len(FAMILIES))]

    def begin(self, tracer):
        super().begin(tracer)
        self.graphs = []
        for f, fam in enumerate(FAMILIES):
            graph = call(tracer, "graphs", f"build.{fam}", -1, generate_graph, fam,
                         self.nodes, MU, np.random.SeedSequence(self.seed, spawn_key=(f, 0)))
            if tracer is not None:
                tracer.count("graphs.edges", graph.edge_count)
                tracer.distinct("graphs.seed_keys", graph.seed_key)
            self.graphs.append(graph)

    def golden_ops(self):
        return [Op("scenario", (f, alpha, delay))
                for f in range(len(FAMILIES)) for alpha, delay in ((0.0, 0.0), (0.8, 2.0))]

    def execute(self, op, tracer, op_id):
        f, alpha, delay = op.key
        params = EpidemicParams(rho=self.rho, gamma=self.gamma, alpha=alpha, t_delay=delay)
        # common random numbers: every scenario on a graph uses one stream
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(f, 1)))
        return call(tracer, "netsim", "run", op_id, run_single,
                    self.graphs[f], params, "uniform", SEED_COUNT, self.days, rng)

    def check(self, op, res, tracer):
        f, alpha, delay = op.key
        series = np.stack([res.s, res.i, res.r, res.isolated]).astype(np.int64)
        d = digest(series.tobytes(), np.asarray(res.mean_inf_degree, np.float64).tobytes())
        s, i, r, iso = series
        n = self.graphs[f].node_count
        problems = []
        if np.any(s + i + r + iso != n):
            problems.append("S+I+R+isolated differs from the node count")
        if i[0] + iso[0] != SEED_COUNT:
            problems.append("day 1 does not hold the seeded infections")
        if np.any(np.diff(s) > 0) or np.any(np.diff(r) < 0):
            problems.append("S increased or R decreased")
        if alpha == 0.0 and np.any(iso != 0):
            problems.append("isolation at alpha = 0")
        if abs(res.census_mu - MU) > census_tolerance(n):
            problems.append(f"census mean degree {res.census_mu} off the requested {MU}")
        # at alpha = 0 the delay is never used, so on a shared stream every
        # delay gives the same epidemic; a repeated scenario must repeat
        key = (f, "alpha0") if alpha == 0.0 else op.key
        if self.seen.setdefault(key, d) != d:
            problems.append(f"scenario {op.key} does not reproduce {key}")
        if tracer is not None:
            tracer.count("netsim.node_days", n * self.days)
            tracer.count("netsim.infectious_node_days", int(i.sum()))
        return d, problems


# --------------------------------------------------------------------------
# analytic-crosscheck


def closed_form_bound(beta_h: float, gamma: float, alpha: float) -> tuple[str, float]:
    """The delay bound's verdict kind and t_max, written out independently."""
    if beta_h <= gamma:
        return "unconditionally_stable", math.inf
    if alpha <= 1.0 - gamma / beta_h:
        return "infeasible_at_zero_delay", 0.0
    return "stable_up_to", math.log(alpha * beta_h / (beta_h - gamma)) / gamma


def _growth_config(rng, r0_lo, r0_hi, horizon):
    """(params, stats) with tau half or one and a half times the bound (or
    arbitrary when the bound is not a finite positive delay), redrawn until
    the transient clears well inside the horizon."""
    while True:
        mu = float(rng.uniform(2.0, 8.0))
        cv = float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.08, 0.15))
        r0 = float(rng.uniform(r0_lo, r0_hi))
        alpha = float(rng.uniform(0.3, 1.0))
        kind, t_max = closed_form_bound(r0 * gamma, gamma, alpha)
        factor = float(rng.choice([0.5, 1.5]))
        tau = factor * t_max if kind == "stable_up_to" else float(rng.uniform(0.5, 4.0))
        if 0.2 <= tau and 5.0 * max(1.0 / gamma, tau) <= 0.6 * horizon:
            break
    rho = r0 * gamma / (mu * (1.0 + cv * cv))
    return EpidemicParams(rho=rho, gamma=gamma, alpha=alpha, t_delay=tau), \
        DegreeStats.from_mu_cv(mu, cv)


def _complex_branch(rng) -> CharacteristicParams:
    """General coefficients with branch argument below -1/e."""
    a = float(rng.uniform(-0.5, 0.5))
    tau = float(rng.uniform(0.5, 5.0))
    x = -float(rng.uniform(0.5, 20.0))
    return CharacteristicParams(a=a, b=x * math.exp(a * tau) / tau, tau=tau)


def _partition_config(rng, n):
    others = rng.choice(np.arange(1, n), size=int(rng.integers(2, 6)), replace=False)
    counts = {int(k): int(rng.integers(50, 5000)) for k in others}
    counts[n] = int(rng.integers(50, 5000))
    dist = DegreeDistribution(counts)
    stats = compute_stats(dist)
    beta_h = float(rng.uniform(0.1, 0.35))
    params = EpidemicParams(rho=beta_h / (stats.mu * stats.h), gamma=0.1,
                            alpha=float(rng.uniform(0.3, 0.9)),
                            t_delay=float(rng.uniform(0.5, 2.0)))
    return params, dist


class AnalyticCrosscheck(Workload):
    name = "analytic-crosscheck"
    threads = 1
    cycle_s = 2.1
    horizon, dt = 100.0, 0.01
    part_sizes = (20, 30, 40)
    golden_size = {"bound_rows": 250, "part_horizon": 5.0}

    def __init__(self, seed, cycles, workdir, bound_rows=12_500, part_horizon=50.0):
        self.bound_rows, self.part_horizon = bound_rows, part_horizon
        super().__init__(seed, cycles, workdir)

    def make_cycle(self, c):
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(c,)))
        ops = [Op("bound", (c,), self.bound_args(rng))] if c == 0 else []
        ops.append(Op("reduced", (c, 0), (*_growth_config(rng, 1.2, 2.5, self.horizon),
                                          _complex_branch(rng))))
        ops.append(Op("homogeneous", (c, 1), (*_growth_config(rng, 1.2, 2.0, self.horizon),
                                              _complex_branch(rng))))
        n = self.part_sizes[c % len(self.part_sizes)]
        ops.append(Op("partitioned", (c, 2), (*_partition_config(rng, n), _complex_branch(rng))))
        return ops

    def bound_args(self, rng, alphas=4):
        """An R0 sweep of bound_rows points for each of four alphas (50k verdicts)."""
        lo = round(float(rng.uniform(0.5, 0.6)), 4)
        step = 0.0005
        hi = lo + step * (self.bound_rows - 1)
        alpha_list = sorted(round(float(a), 3) for a in rng.uniform(0.5, 1.0, alphas))
        return f"{lo}:{hi:.4f}:{step}", ",".join(str(a) for a in alpha_list), 0.1

    def bound_path(self):
        return os.path.join(self.workdir, "bound.csv")

    # -- execute ---------------------------------------------------------

    def execute(self, op, tracer, op_id):
        if op.kind == "bound":
            return self.run_bound(*op.args, tracer=tracer, op_id=op_id)
        params, model, cp = op.args
        out = {"complex_root": call(tracer, "stability", "root.complex", op_id, rightmost_root, cp)}
        stats = model if isinstance(model, DegreeStats) else compute_stats(model)
        out["verdict"] = call(tracer, "stability", "verdict", op_id,
                              heterogeneous_delay_bound, params, stats)
        beta_h = effective_beta(params, stats)
        out["root"] = call(tracer, "stability", "root.real", op_id,
                           rightmost_root, model_char_params(beta_h, params))
        window = (5.0 * max(1.0 / params.gamma, params.t_delay), self.horizon)
        if op.kind == "reduced":
            i0 = 1e-5
            traj = call(tracer, "dde", "integrate.reduced", op_id, integrate_reduced, params,
                        stats, constant_history([i0, beta_h * i0]), self.horizon, self.dt)
            out["fit"] = call(tracer, "dde", "fit", op_id, estimate_growth_rate,
                              traj, "lambda", window)
            out["trajs"] = [traj]
        elif op.kind == "homogeneous":
            i0 = 1e-12
            traj = call(tracer, "dde", "integrate.homogeneous", op_id, integrate_homogeneous,
                        params, beta_h, constant_history([1.0 - i0, i0, 0.0]),
                        self.horizon, self.dt)
            out["fit"] = call(tracer, "dde", "fit", op_id, estimate_growth_rate, traj, "i", window)
            out["trajs"] = [traj]
        else:
            dist = model
            y0 = np.zeros(dist.max_degree)
            for k, cnt in dist.items():
                y0[k - 1] = 1e-4 * cnt
            part = call(tracer, "dde", "integrate.partitioned", op_id, integrate_partitioned,
                        params, dist, constant_history(y0), self.part_horizon, self.dt)
            red = call(tracer, "dde", "integrate.reduced", op_id, integrate_reduced, params,
                       stats, consistent_reduced_history(dist, y0, params.rho),
                       self.part_horizon, self.dt)
            out["gap"] = float(np.max(np.abs(infectious_fraction(part, dist) - red.component("i"))
                                      / np.abs(red.component("i"))))
            out["trajs"] = [part, red]
        return out

    def run_bound(self, r0_range, alphas, gamma, tracer=None, op_id=-1):
        if tracer is None:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["bound", "--r0-range", r0_range, "--alpha", alphas,
                               "--gamma", str(gamma), "--out", self.bound_path()])
            if rc != 0:
                raise RuntimeError(f"bound exited with {rc}")
            return None
        # the command's sweep, one layer call per verdict, and its CSV rows
        lo, hi, step = (float(tok) for tok in r0_range.split(":"))
        xs = lo + step * np.arange(int(math.floor((hi - lo) / step + 1e-9)) + 1)
        rows = ["x,alpha,T_max_days,verdict\n"]
        with tracer.span("stability", "verdict", op_id):
            for alpha in (float(tok) for tok in alphas.split(",")):
                params = EpidemicParams(rho=0.0, gamma=gamma, alpha=alpha, t_delay=0.0)
                for x in xs:
                    v = homogeneous_delay_bound(params, float(x))
                    rows.append(f"{_fmt(float(x))},{_fmt(alpha)},{_fmt(v.t_max)},{v.kind.value}\n")
        tracer.count("stability.verdicts", len(rows) - 1)
        with open(self.bound_path(), "w", encoding="utf-8") as fh:
            fh.write("".join(rows))
        return None

    # -- check -----------------------------------------------------------

    def check(self, op, out, tracer):
        if op.kind == "bound":
            return self.check_bound(op)
        params, model, cp = op.args
        problems = []
        s = out["complex_root"]
        resid = abs(s - cp.a - cp.b * cmath.exp(-s * cp.tau))
        if not (s.imag > 0.0 and resid <= 1e-9 * max(1.0, abs(cp.b))):
            problems.append(f"complex-branch root {s} has residual {resid:.2e}")
        verdict, root = out["verdict"], out["root"].real
        stats = model if isinstance(model, DegreeStats) else compute_stats(model)
        beta_h = params.rho * stats.mu * stats.h
        kind, t_max = closed_form_bound(beta_h, params.gamma, params.alpha)
        if verdict.kind.value != kind or not math.isclose(verdict.t_max, t_max, rel_tol=1e-12):
            problems.append(f"verdict {verdict.kind.value} {verdict.t_max} != {kind} {t_max}")
        if verdict.margin != root:
            problems.append("verdict margin differs from the rightmost root")
        if kind == "stable_up_to" and (root < 0.0) != (params.t_delay < t_max):
            problems.append(f"root sign {root:+.3g} disagrees with tau vs t_max")
        if "fit" in out:
            err = abs(out["fit"].rate - root)
            if err > max(0.02 * abs(root), 1e-3):
                problems.append(f"fitted rate {out['fit'].rate:+.5f} misses root {root:+.5f}")
        if "gap" in out and not out["gap"] < 1e-6:
            problems.append(f"partitioned/reduced gap {out['gap']:.2e}")
        rows = f"{verdict.kind.value},{_fmt(verdict.t_max)},{_fmt(root)},{s!r}".encode()
        d = digest(rows, *(traj.states.tobytes() for traj in out["trajs"]))
        if tracer is not None:
            tracer.count("dde.steps", sum(len(traj.times) - 1 for traj in out["trajs"]))
            tracer.count("stability.root_calls.real")
            tracer.count("stability.root_calls.complex")
            tracer.count("stability.verdicts")
        return d, problems

    def check_bound(self, op):
        r0_range, alphas, gamma = op.args
        with open(self.bound_path(), "rb") as fh:
            data = fh.read()
        lines = data.decode().splitlines()[1:]
        lo, hi, step = (float(tok) for tok in r0_range.split(":"))
        xs = lo + step * np.arange(int(math.floor((hi - lo) / step + 1e-9)) + 1)
        alpha_list = [float(tok) for tok in alphas.split(",")]
        problems = []
        if len(lines) != len(xs) * len(alpha_list):
            return digest(data), [f"{len(lines)} bound rows, expected {len(xs) * len(alpha_list)}"]
        bad = 0
        for idx, line in enumerate(lines):
            x_s, a_s, t_s, kind_s = line.split(",")
            x, alpha = float(xs[idx % len(xs)]), alpha_list[idx // len(xs)]
            kind, t_max = closed_form_bound(x * gamma, gamma, alpha)
            if (float(x_s) != x or float(a_s) != alpha or kind_s != kind
                    or not math.isclose(float(t_s), t_max, rel_tol=1e-12)):
                bad += 1
        if bad:
            problems.append(f"{bad} bound rows disagree with the closed form")
        return digest(data), problems

WORKLOADS = {cls.name: cls for cls in (DeskEnsemble, IsolationGrid, AnalyticCrosscheck)}
