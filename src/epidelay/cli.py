"""Command-line interface: stability sweeps, classification, DDE runs and
network ensembles, all emitting reproducible CSV plus a `key=value` metadata
sidecar next to each primary output.

Subcommands:
  bound      sweep the delay bound over R0 (at fixed alpha curves) or over
             the degree coefficient of variation
  classify   verdict for one parameter set or degree-distribution file
  dde        integrate one of the delayed systems, fit its growth rate
  netsim     seeded epidemic ensembles on generated random graphs

Every command is deterministic given its flags and seed; reruns produce
byte-identical CSVs. Every flag a command accepts is read: classify, bound
and dde reject a flag their mode would ignore.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .dde import (
    History,
    IntegrationError,
    consistent_reduced_history,
    default_fit_window,
    estimate_growth_rate,
    infectious_fraction,
    integrate_homogeneous,
    integrate_partitioned,
    integrate_reduced,
    partition_sizes,
)
from .graphs import GRAPH_KINDS
from .netsim import (
    SEEDING_MODES,
    GraphSpec,
    run_ensemble,
    write_aggregate_csv,
    write_runs_csv,
)
from .params import (
    DegreeStats,
    EpidemicParams,
    HeterogeneityMode,
    ModelError,
    compute_stats,
    effective_beta,
    format_float,
    load_distribution,
    write_csv,
)
from .stability import (
    NumericalError,
    VerdictKind,
    heterogeneous_delay_bound,
    homogeneous_delay_bound,
)


# Largest lo:hi:step grid a sweep may ask for; far above any plotted curve.
MAX_RANGE_POINTS = 1_000_000

# The paper's marked cv abscissas, added to every --cv-range sweep.
CV_MARKERS = (0.37, 0.67)


def _parse_range(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise ModelError(f"malformed range {spec!r}; expected lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ModelError(f"malformed range {spec!r}; bounds and step must be finite")
    if step <= 0 or hi < lo:
        raise ModelError(f"malformed range {spec!r}; need step > 0 and hi >= lo")
    if not (hi - lo) / step < MAX_RANGE_POINTS:
        raise ModelError(f"range {spec!r} has more than {MAX_RANGE_POINTS} points")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


def _parse_floats(spec: str) -> list[float]:
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ModelError(f"malformed float list {spec!r}") from None


def _parse_window(spec: str) -> tuple[float, float]:
    vals = _parse_floats(spec)
    if len(vals) != 2 or not all(map(math.isfinite, vals)) or not vals[0] < vals[1]:
        raise ModelError(f"malformed fit window {spec!r}; expected lo,hi with finite lo < hi")
    return vals[0], vals[1]


def _write_sidecar(out_path: str, args: argparse.Namespace, extra: dict | None = None) -> None:
    entries = {"artifact_version": __version__, "accel": "numpy"}
    for key, val in sorted(vars(args).items()):
        if key == "func" or val is None:
            continue
        entries[f"arg_{key}"] = val
    if extra:
        entries.update(extra)
    with open(str(out_path) + ".meta", "w", encoding="utf-8") as fh:
        for key in sorted(entries):
            fh.write(f"{key}={entries[key]}\n")


def _refuse(args: argparse.Namespace, mode: str, *flags: str) -> None:
    """Fail on any of `flags` given together with `mode`, which ignores them.
    A flag is absent when it holds None, or False for a store_true switch;
    the identity tests keep a given 0 or 0.0, which equals False, present."""
    for flag in flags:
        val = getattr(args, flag[2:].replace("-", "_"))
        if not (val is None or val is False):
            raise ModelError(f"{flag} must be left out with {mode}, which ignores it")


def _scaled_r0(r0: float, cv: float) -> float:
    """Homogeneous-equivalent R0 of a population whose degree coefficient of
    variation is cv: heterogeneity multiplies R0 by h = 1 + cv^2."""
    return r0 * DegreeStats.from_mu_cv(1.0, cv).h


def cmd_bound(args) -> int:
    alphas = _parse_floats(args.alpha)
    if not alphas:
        raise ModelError("need at least one alpha")
    if (args.r0_range is None) == (args.cv_range is None):
        raise ModelError("exactly one of --r0-range / --cv-range is required")
    if args.r0_range is not None:
        _refuse(args, "--r0-range", "--r0")
        xs = r0s = _parse_range(args.r0_range).tolist()
    else:
        if args.r0 is None:
            raise ModelError("--cv-range requires --r0")
        xs = np.unique(np.concatenate([_parse_range(args.cv_range), CV_MARKERS])).tolist()
        r0s = [_scaled_r0(args.r0, x) for x in xs]
    rows = []
    for alpha in alphas:
        params = EpidemicParams(rho=0.0, gamma=args.gamma, alpha=alpha, t_delay=0.0)
        for x, r0 in zip(xs, r0s):
            verdict = homogeneous_delay_bound(params, r0)
            rows.append((x, alpha, verdict.t_max, verdict.kind.value))
    write_csv(args.out, ("x", "alpha", "T_max_days", "verdict"), rows)
    _write_sidecar(args.out, args, {"rows": len(rows)})
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_classify(args) -> int:
    if args.dist is not None:
        _refuse(args, "--dist", "--r0", "--cv")
        if args.rho is None:
            raise ModelError("--dist requires --rho")
        params = EpidemicParams(rho=args.rho, gamma=args.gamma, alpha=args.alpha,
                                t_delay=args.t_delay)
        mode = HeterogeneityMode.FIXED_GRAPH if args.fixed_graph \
            else HeterogeneityMode.MIXED_POPULATION
        stats = compute_stats(load_distribution(args.dist), mode)
        verdict = heterogeneous_delay_bound(params, stats)
    elif args.r0 is not None:
        _refuse(args, "--r0", "--rho")
        if args.fixed_graph:
            # the fixed-graph h = (mu + sigma^2/mu - 1)/mu needs the mean
            # degree, which R0 and cv do not give
            raise ModelError("--fixed-graph must be given with --dist; --r0/--cv carry no "
                             "mean degree")
        params = EpidemicParams(rho=0.0, gamma=args.gamma, alpha=args.alpha,
                                t_delay=args.t_delay)
        verdict = homogeneous_delay_bound(params, _scaled_r0(args.r0, args.cv or 0.0))
    else:
        raise ModelError("provide either --dist with --rho, or --r0 (with optional --cv)")
    kind, root = verdict.kind, verdict.rightmost_root
    if kind is VerdictKind.UNCONDITIONALLY_STABLE:
        headline = "stable at any isolation delay"
    elif kind is VerdictKind.INFEASIBLE_AT_ZERO_DELAY:
        headline = "unstable even at zero delay (isolation fraction too small)"
    else:
        headline = f"stable for delays below {verdict.t_max:.4f} days"
    print(f"{headline}  [beta_h={verdict.beta_h:.6g}/day, R0_eff={verdict.r0:.6g}, "
          f"Re={verdict.re:.6g} at t_delay={args.t_delay}]")
    print(f"rightmost root at t_delay={args.t_delay}: {root.real:.6g} {root.imag:+.6g}i "
          f"(margin {verdict.margin:.6g}/day; secondary root at -gamma = {-args.gamma:.6g})")
    fields = {"t_max_days": verdict.t_max, "root_re": root.real, "root_im": root.imag,
              "margin": verdict.margin, "r0_eff": verdict.r0, "re": verdict.re}
    machine = " ".join([f"verdict={kind.value}"]
                       + [f"{key}={format_float(val)}" for key, val in fields.items()])
    print(machine)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(machine + "\n")
        _write_sidecar(args.out, args)
    return 0


def _partition_profile(dist, i0: float) -> np.ndarray:
    """Initial infectious counts Y_k(0), proportional to k*N_k and summing to
    i0 times the population."""
    weights = partition_sizes(dist) * np.arange(1, dist.max_degree + 1)
    return weights / weights.sum() * (i0 * dist.population)


def cmd_dde(args) -> int:
    if not 0.0 < args.i0 <= 1.0:
        raise ModelError(f"history i0 must be in (0, 1], got {args.i0}")
    params = EpidemicParams(rho=args.rho, gamma=args.gamma, alpha=args.alpha,
                            t_delay=args.t_delay)
    window = (_parse_window(args.fit_window) if args.fit_window
              else default_fit_window(params, args.horizon))
    rate = args.history_rate
    gap = None

    if args.system != "partitioned":
        _refuse(args, f"--system {args.system}", "--dynamic", "--paired")
        if args.dist is not None:
            _refuse(args, "--dist", "--mu", "--cv")
            stats = compute_stats(load_distribution(args.dist))
        else:
            # resolved into args, so the sidecar records the values used
            args.mu = 4.0 if args.mu is None else args.mu
            args.cv = 0.0 if args.cv is None else args.cv
            stats = DegreeStats.from_mu_cv(args.mu, args.cv)
        beta_h = effective_beta(params, stats)
        if args.system == "homogeneous":
            traj = integrate_homogeneous(params, beta_h,
                                         History([1.0 - args.i0, args.i0, 0.0], rate),
                                         args.horizon, args.dt)
            fit = estimate_growth_rate(traj, "i", window)
        else:
            traj = integrate_reduced(params, stats, History([args.i0, beta_h * args.i0], rate),
                                     args.horizon, args.dt)
            # lambda evolves autonomously, so its slope is exactly the dominant
            # characteristic rate; i also carries a decaying recovery mode
            fit = estimate_growth_rate(traj, "lambda", window)
        traj.to_csv(args.out)
    else:
        _refuse(args, "--system partitioned", "--mu", "--cv")
        if args.dist is None:
            raise ModelError("--system partitioned requires --dist")
        dist = load_distribution(args.dist)
        y0 = _partition_profile(dist, args.i0)
        # the dynamic state is [X_1..X_n, Y_1..Y_n], with X_k(0) = N_k - Y_k(0)
        state0 = np.concatenate((partition_sizes(dist) - y0, y0)) if args.dynamic else y0
        traj = integrate_partitioned(params, dist, History(state0, rate),
                                     args.horizon, args.dt, dynamic_susceptibles=args.dynamic)
        agg = infectious_fraction(traj, dist)
        fit = estimate_growth_rate(traj, agg, window)
        if args.paired:
            # the partitioned history's growth rate, from its consistent start
            start = consistent_reduced_history(dist, y0, args.rho).y0
            traj_r = integrate_reduced(params, compute_stats(dist), History(start, rate),
                                       args.horizon, args.dt)
            agg_r = traj_r.component("i")
            gap = float(np.max(np.abs(agg - agg_r) / np.maximum(np.abs(agg_r), 1e-300)))
            header = ("t", "i_partitioned", "i_reduced")
            columns = np.column_stack([traj.times, agg, agg_r])
        else:
            header = ("t", *traj.components, "i_aggregate")
            columns = np.column_stack([traj.times, traj.states, agg])
        write_csv(args.out, header, map(np.ndarray.tolist, columns))

    extra = {"fitted_rate_per_day": format_float(fit.rate)}
    summary = (f"fitted_rate_per_day={format_float(fit.rate)} "
               f"residual_rms={format_float(fit.residual_rms)} "
               f"fit_window={window[0]:g}:{window[1]:g}")
    if gap is not None:
        extra["max_rel_gap"] = format_float(gap)
        summary += f" max_rel_gap={format_float(gap)}"
    print(summary)
    _write_sidecar(args.out, args, extra)
    return 0


def cmd_netsim(args) -> int:
    params = EpidemicParams(rho=args.rho, gamma=args.gamma, alpha=args.alpha,
                            t_delay=args.t_delay)
    spec = GraphSpec(kind=args.graph, node_count=args.nodes, mean_degree=args.mu)
    stats = run_ensemble(spec, params, seeding=args.seeding, runs=args.runs,
                         days=args.days, seed_count=args.seed_count,
                         base_seed=args.seed, reuse_graph=args.reuse_graph,
                         threads=args.threads)
    write_runs_csv(stats, args.out)
    agg_out = args.agg_out or (os.path.splitext(args.out)[0] + "_aggregate.csv")
    write_aggregate_csv(stats, agg_out)
    if args.export_graph:
        spec.build_run(args.seed, 0).write_edge_list(args.export_graph)
    _write_sidecar(args.out, args, {
        "aggregate_out": agg_out,
        "census_mu_mean": format_float(float(stats.census_mu.mean())),
        "census_var_mean": format_float(float(stats.census_var.mean())),
    })
    print(f"wrote {args.runs} runs x {args.days} days to {args.out} and {agg_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epidelay",
        description="Stability of delayed case isolation in heterogeneous SIR populations.",
    )
    parser.add_argument("--version", action="version", version=f"epidelay {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="sweep the delay stability boundary to CSV")
    p_bound.add_argument("--r0-range", help="R0 sweep as lo:hi:step")
    p_bound.add_argument("--cv-range", help="coefficient-of-variation sweep as lo:hi:step; "
                                            "cv 0.37 and 0.67 are always added")
    p_bound.add_argument("--r0", type=float, help="homogeneous-equivalent R0 (cv mode)")
    p_bound.add_argument("--alpha", default="0.7,0.8,0.9,1.0",
                         help="comma-separated isolation fractions")
    p_bound.add_argument("--gamma", type=float, default=0.1)
    p_bound.add_argument("--out", required=True)
    p_bound.set_defaults(func=cmd_bound)

    p_cls = sub.add_parser("classify", help="stability verdict for one configuration")
    p_cls.add_argument("--dist", help="degree distribution file (k,count)")
    p_cls.add_argument("--rho", type=float, help="per-contact transmission rate (with --dist)")
    p_cls.add_argument("--r0", type=float, help="homogeneous-equivalent R0")
    p_cls.add_argument("--cv", type=float,
                       help="degree coefficient of variation (with --r0; default 0)")
    p_cls.add_argument("--fixed-graph", action="store_true",
                       help="use the fixed-graph heterogeneity correction")
    p_cls.add_argument("--alpha", type=float, required=True)
    p_cls.add_argument("--gamma", type=float, default=0.1)
    p_cls.add_argument("--t-delay", type=float, default=0.0)
    p_cls.add_argument("--out")
    p_cls.set_defaults(func=cmd_classify)

    p_dde = sub.add_parser("dde", help="integrate a delayed system and fit its growth rate")
    p_dde.add_argument("--system", choices=("homogeneous", "partitioned", "reduced"),
                       required=True)
    p_dde.add_argument("--rho", type=float, default=0.075)
    p_dde.add_argument("--gamma", type=float, default=0.1)
    p_dde.add_argument("--alpha", type=float, default=0.0)
    p_dde.add_argument("--t-delay", type=float, default=0.0)
    p_dde.add_argument("--mu", type=float,
                       help="mean degree (default 4); the mixing rate is rho*mu*(1 + cv^2). "
                            "homogeneous and reduced without --dist only")
    p_dde.add_argument("--cv", type=float,
                       help="degree coefficient of variation (default 0); "
                            "homogeneous and reduced without --dist only")
    p_dde.add_argument("--dist", help="degree distribution file; sets the mixing rate in "
                                      "place of --mu/--cv, and partitioned requires it")
    p_dde.add_argument("--i0", type=float, default=1e-5,
                       help="initial infectious proportion")
    p_dde.add_argument("--dynamic", action="store_true",
                       help="partitioned: evolve susceptibles instead of freezing them")
    p_dde.add_argument("--paired", action="store_true",
                       help="partitioned: also run the reduced system and report the gap")
    p_dde.add_argument("--history-rate", type=float, default=0.0,
                       help="initial history y(0)*exp(rate*theta) on [-t_delay, 0]; "
                            "0 holds it constant")
    p_dde.add_argument("--horizon", type=float, default=100.0)
    p_dde.add_argument("--dt", type=float, default=0.01)
    p_dde.add_argument("--fit-window", help="growth fit window lo,hi (days)")
    p_dde.add_argument("--out", required=True)
    p_dde.set_defaults(func=cmd_dde)

    p_net = sub.add_parser("netsim", help="seeded epidemic ensemble on random graphs")
    p_net.add_argument("--graph", choices=GRAPH_KINDS, required=True)
    p_net.add_argument("--nodes", type=int, default=100_000, help="default: desk scale, 1e5")
    p_net.add_argument("--mu", type=float, default=4.0)
    p_net.add_argument("--rho", type=float, default=0.2)
    p_net.add_argument("--gamma", type=float, default=0.1)
    p_net.add_argument("--alpha", type=float, default=0.0)
    p_net.add_argument("--t-delay", type=float, default=0.0)
    p_net.add_argument("--seeding", choices=SEEDING_MODES, default="uniform")
    p_net.add_argument("--seed-count", type=int, default=10)
    p_net.add_argument("--runs", type=int, default=100, help="default: desk scale, 100")
    p_net.add_argument("--days", type=int, default=30)
    p_net.add_argument("--seed", type=int, default=0)
    p_net.add_argument("--threads", type=int, default=1)
    p_net.add_argument("--reuse-graph", action="store_true",
                       help="share one graph realization across runs")
    p_net.add_argument("--export-graph", help="also write the run-0 graph as an edge list")
    p_net.add_argument("--out", required=True)
    p_net.add_argument("--agg-out", help="aggregate CSV path (default: <out> without its "
                                         "extension, then _aggregate.csv)")
    p_net.set_defaults(func=cmd_netsim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, NumericalError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
