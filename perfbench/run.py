#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for epidelay.

    python3 perfbench/run.py --workload desk-ensemble --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --write-reference

Run from the repository root; the package is imported from ./src. Each run
prints its metrics one per line (name, value, unit), an `env` line, and as
its last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with --trace 1
the run makes an untraced pass and then a traced pass over the same ops and
reports the per-layer metrics. `--workload all` runs every workload both ways
in child processes and prints everything. --write-reference regenerates
reference.json, the checksums of the small fixed-seed ops every run checks
during set-up; do that only for a change that alters results on purpose.

A run executes a fixed number of op cycles, sized from --seconds with each
workload's nominal cycle time, so two commits measure identical work. Every
interval is timed on a clock that leaves out hypervisor steal time (see
StealFreeClock); the run prints how much steal there was.
"""

import os
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


def usage() -> tuple[float, float, float]:
    """(wall, CPU time of this process, steal of all vCPUs) in seconds.

    Steal comes from /proc/stat (0 where it is not available); the process
    CPU clock leaves steal out.
    """
    try:
        with open("/proc/stat", "rb") as fh:
            steal = int(fh.readline().split()[8]) / CLK_TCK
    except (OSError, IndexError, ValueError):
        steal = 0.0
    return time.perf_counter(), time.process_time(), steal


def effective(start, end) -> float:
    """Wall time between two usage() samples, less the steal on its critical
    path. The process ran for `cpu` and was held back for `steal`, so it kept
    (cpu + steal) / wall vCPUs busy; the steal that delayed the interval is
    steal divided by that, leaving wall * cpu / (cpu + steal)."""
    wall, cpu, steal = (e - b for b, e in zip(start, end))
    return wall * cpu / (cpu + steal) if steal > 0.0 and cpu > 0.0 else wall


START = usage()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOAD_NAMES = ("desk-ensemble", "isolation-grid", "analytic-crosscheck")
SETUP_PROBES = 2  # extra fresh-process set-ups per run, for the setup_s median


class StealFreeClock:
    """A clock that advances by effective() time between readings.

    On a shared host the hypervisor takes vCPUs away in bursts that can add
    two thirds to a run's wall time; that time belongs to other guests, not
    to the code measured. Readings may come from several threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._last = usage()
        self._now = 0.0

    def __call__(self) -> float:
        with self._lock:
            sample = usage()
            self._now += effective(self._last, sample)
            self._last = sample
            return self._now


@dataclass
class Record:
    op: object
    cycle: int
    latency: float
    digest: str | None
    problems: list


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.workload is None and not args.write_reference:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_package():
    """Import the package from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "epidelay", "__init__.py")):
        raise SystemExit(f"error: epidelay sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import epidelay

    if os.path.dirname(os.path.dirname(os.path.abspath(epidelay.__file__))) != SRC:
        raise SystemExit(f"error: imported epidelay from {epidelay.__file__}, not {SRC}")
    import workloads

    return workloads


def environment() -> dict:
    import numpy

    from epidelay._accel import USE_NUMBA

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"accel": "numba" if USE_NUMBA else "numpy", "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__}


def cycles_for(wl_cls, seconds: float) -> int:
    return max(1, round(seconds / wl_cls.cycle_s))


def run_pass(wl, tracer=None):
    """One pass over every op; returns (records, wall) where wall is the
    time spent in begin() and in the ops, checks excluded."""
    clock = StealFreeClock()
    t0 = clock()
    wl.begin(tracer)
    wall = clock() - t0
    records = []
    for c, op in ((c, op) for c, cycle in enumerate(wl.cycles) for op in cycle):
        t0 = clock()
        try:
            out = wl.execute(op, tracer, len(records))
            err = None
        except Exception as exc:  # a failing op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        latency = clock() - t0
        wall += latency
        if err is None:
            try:
                d, problems = wl.check(op, out, tracer)
            except Exception as exc:
                d, problems = None, [f"check raised {type(exc).__name__}: {exc}"]
        else:
            d, problems = None, [err]
        records.append(Record(op, c, latency, d, problems))
    return records, wall


def check_golden(wl) -> tuple[int, list[str]]:
    """Compare the small fixed-seed ops with reference.json: (ops, mismatches)."""
    with open(REFERENCE, encoding="utf-8") as fh:
        expected = json.load(fh).get(wl.name, {})
    got = wl.golden()
    bad = [f"golden {key}: {val} != reference {expected.get(key)}"
           for key, val in got.items() if expected.get(key) != val]
    return len(got), bad


def tail(latencies):
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; the maximum when there are fewer than eleven samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def setup_probe(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, records, setup_main):
    setups = [setup_main] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    per_cycle = {}
    for r in records:
        per_cycle.setdefault(r.cycle, []).append(r.latency)
    lat = [r.latency for r in records]
    tail_s, tail_p = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # median over cycles of the cycle's ops per second of op time
        "ops_per_s": (statistics.median(len(c) / sum(c) for c in per_cycle.values()), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"op_tail_s": f"p{tail_p:.1f} of {len(lat)} ops",
             "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups)}
    return metrics, notes


def layer_metrics(wl, tracer, plain, plain_wall, traced_wall):
    from tracing import covered_time
    from workloads import FAMILIES

    counts = tracer.counts
    workers = wl.threads
    med = lambda xs: statistics.median(xs) if xs else 0.0
    ratio = lambda a, b: a / b if b else 0.0
    walls = lambda layer, name=None: [s.wall for s in tracer.select(layer, name)]
    busy = lambda layer: sum(walls(layer)) / (workers * traced_wall)

    m = {}
    for fam in FAMILIES:
        m[f"graphs.build_s.{fam}"] = (med(walls("graphs", f"build.{fam}")), "s")
    builds = walls("graphs")
    distinct = len(tracer.keys["graphs.seed_keys"])
    m["graphs.edges_per_s"] = (ratio(counts["graphs.edges"], sum(builds)), "1/s")
    m["graphs.busy_frac"] = (busy("graphs"), "frac")
    m["graphs.builds"] = (len(builds), "count")
    m["graphs.distinct_builds"] = (distinct, "count")
    m["graphs.distinct_ratio"] = (ratio(distinct, len(builds)), "frac")

    runs = walls("netsim", "run")
    node_days = counts["netsim.node_days"]
    m["netsim.run_s"] = (med(runs), "s")
    m["netsim.node_days_per_s"] = (ratio(node_days, sum(runs)), "1/s")
    m["netsim.busy_frac"] = (busy("netsim"), "frac")
    m["netsim.active_row_frac"] = (ratio(counts["netsim.infectious_node_days"], node_days), "frac")
    cpu = sum(s.cpu for s in tracer.spans if s.layer in ("graphs", "netsim"))
    m["netsim.parallel_eff"] = (cpu / (workers * traced_wall), "frac")
    m["netsim.csv_s"] = (ratio(sum(walls("netsim", "csv")), counts["netsim.csv_ops"]), "s")
    m["netsim.csv_bytes"] = (ratio(counts["netsim.csv_bytes"], counts["netsim.csv_ops"]), "B")
    m["netsim.node_days"] = (node_days, "count")
    m["netsim.infectious_node_days"] = (counts["netsim.infectious_node_days"], "count")

    for kind in ("reduced", "partitioned", "homogeneous"):
        m[f"dde.integrate_s.{kind}"] = (med(walls("dde", f"integrate.{kind}")), "s")
    integrate = [s.wall for s in tracer.select("dde") if s.name.startswith("integrate.")]
    m["dde.steps"] = (counts["dde.steps"], "count")
    m["dde.steps_per_s"] = (ratio(counts["dde.steps"], sum(integrate)), "1/s")
    m["dde.fit_s"] = (med(walls("dde", "fit")), "s")
    m["dde.busy_frac"] = (busy("dde"), "frac")

    real, cplx = counts["stability.root_calls.real"], counts["stability.root_calls.complex"]
    m["stability.verdict_s"] = (ratio(sum(walls("stability", "verdict")),
                                      counts["stability.verdicts"]), "s")
    m["stability.root_s.real"] = (med(walls("stability", "root.real")), "s")
    m["stability.root_s.complex"] = (med(walls("stability", "root.complex")), "s")
    m["stability.calls"] = (counts["stability.verdicts"] + real + cplx, "count")
    m["stability.root_calls.real"] = (real, "count")
    m["stability.root_calls.complex"] = (cplx, "count")
    m["stability.busy_frac"] = (busy("stability"), "frac")

    # CLI ops of the untraced pass against the layer time of the same op traced
    cli_ops = [j for j, rec in enumerate(plain) if rec.op.kind in ("netsim", "bound")]
    overhead = [plain[j].latency - covered_time([s for s in tracer.spans if s.op == j])
                for j in cli_ops]
    m["cli.overhead_s"] = (statistics.fmean(overhead) if overhead else 0.0, "s")
    m["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")
    return m


def print_metrics(metrics, notes=None):
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"{name:34s} {value:.6g} {unit}{note}")


def result_line(failed, attempted, metrics):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:  # another run still uses it
        pass


def run_one(args, workloads) -> int:
    from tracing import Tracer

    cls = workloads.WORKLOADS[args.workload]
    cycles = cycles_for(cls, args.seconds / 2 if args.trace else args.seconds)
    workdir = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = cls(args.seed, cycles, workdir)
        attempted, failures = check_golden(wl)
        setup_main = effective(START, usage())
        if args.setup_only:
            print(repr(setup_main))
            return 0
        plain, plain_wall = run_pass(wl)
        attempted += len(plain)
        failures += [f"{r.op.key}: {'; '.join(r.problems)}" for r in plain if r.problems]
        if args.trace:
            tracer = Tracer(StealFreeClock())
            traced, traced_wall = run_pass(wl, tracer)
            attempted += len(traced)
            failures += [f"{b.op.key} traced: "
                         + "; ".join(b.problems or [f"output {b.digest} != untraced {a.digest}"])
                         for a, b in zip(plain, traced) if b.problems or a.digest != b.digest]
            metrics = layer_metrics(wl, tracer, plain, plain_wall, traced_wall)
            notes = None
        else:
            sample = wl.verify_sample(plain)
            if sample is not None:
                attempted += 1
                failures += [f"sampled reference: {'; '.join(sample)}"] if sample else []
            metrics, notes = end_to_end(args, plain, setup_main)
    finally:
        remove_workdir(workdir)
    run_digest = workloads.digest(*(str(r.digest).encode() for r in plain))
    steal = (usage()[2] - START[2]) / (os.cpu_count() or 1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} ops in {cycles} cycles, output digest {run_digest}, "
          f"{steal:.2f} s of steal per vCPU during the run")
    for line in failures:
        print(f"FAILED {line}")
    print_metrics(metrics, notes)
    print(f"{'failed_frac':34s} {len(failures) / attempted:.6g} frac  "
          f"({len(failures)} of {attempted} ops)")
    print("env " + json.dumps(environment()))
    print(result_line(len(failures), attempted, metrics))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a child process."""
    failed = attempted = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]) + "\n")
            res = json.loads(lines[-1])
            failed += res["failed"]
            attempted += res["attempted"]
            metrics.update({f"{name}.{k}": (v["value"], v["unit"])
                            for k, v in res["metrics"].items()})
    print(result_line(failed, attempted, metrics))
    return 0


def write_reference(workloads) -> int:
    workdir = os.path.join(ROOT, ".perfbench_tmp", f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ref = {name: cls(0, 0, workdir).golden() for name, cls in workloads.WORKLOADS.items()}
    finally:
        remove_workdir(workdir)
    bad = [f"{name} {key}: {val}" for name, entries in ref.items()
           for key, val in entries.items() if len(val) != 16]
    if bad:
        print("golden ops fail their checks; reference not written:\n" + "\n".join(bad),
              file=sys.stderr)
        return 1
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workloads = load_package()
    if args.write_reference:
        return write_reference(workloads)
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
