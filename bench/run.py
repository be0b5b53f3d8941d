"""gradiform benchmark: fixed lists of CLI reports run in-process.

Run from the repository root:

    python3 bench/run.py --workload survey --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload survey --seed 0 --seconds 20 --trace 1
    python3 bench/run.py --compare base.jsonl [new.jsonl]
    python3 bench/run.py --workload survey --record-reference

A run repeats whole passes over the workload's report list (see
``workloads.py``) until ``--seconds`` have passed, gating every report on
correctness (``gate.py``).  Around and during each report it times a
fixed reference kernel (``calibrate.py``) and reports times without
steal, scaled to one host speed.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes
(``tracing.py``) and prints the per-layer metrics.  The last line of stdout is one JSON
object; the full record, with run metadata and per-report times, is
appended to ``--out``.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = BENCH / "reference"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10
# report_tail_s is taken at a fixed percentile: the highest with
# TAIL_BEYOND reports beyond it in the fewest whole passes holding
# TAIL_REPORTS reports, the least a run makes; so it does not move with
# the number of passes the host fits into --seconds.  At 60 the reports
# beyond it are 3.3 of survey's 29 per pass and 2.5 of the others' 18, so
# the percentile falls among one report's times; at 50, survey's would
# fall exactly in the gap between two reports' times
TAIL_REPORTS = 60
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


# -- set-up ---------------------------------------------------------------
def _child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GRADIFORM_SEED", None)
    return env


def measure_setup(system_sets):
    """Median set-up time over fresh interpreters (see setup_probe.py),
    each without steal (read over the interpreter's life, and no more
    than its set-up's off-CPU time), scaled to the reference host speed
    by the median of kernel readings taken here before and after each
    interpreter.  Returns (scaled median, raw times, kernel readings)."""
    calibrate.kernel_s()  # warm-up
    raw, unstolen, kernels = [], [], [calibrate.kernel_s()]
    for _ in range(SETUP_REPEATS):
        s0 = calibrate.steal_s()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"),
             json.dumps(system_sets)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        unstolen.append(calibrate.unstolen(
            probe["setup_s"], probe["setup_cpu_s"], calibrate.steal_s() - s0))
        kernels.append(calibrate.kernel_s())
    scale = calibrate.REFERENCE_S / _median(kernels)
    return _median(unstolen) * scale, raw, kernels


def measure_import_times():
    """Per-module cumulative import seconds from ``-X importtime``."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gradiform.cli"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=120, check=True)
        found = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("gradiform"):
                found[parts[2]] = int(parts[1]) * 1e-6
        runs.append(found)
    return {mod: _median([r.get(mod, 0.0) for r in runs])
            for mod in sorted(set().union(*runs))}


# -- passes ---------------------------------------------------------------
def run_report(cli, entry, out_path, host):
    """One ``cli.main`` call; returns (times, exit code, report, error
    text).  ``times`` holds the call's ``wall_s`` and ``cpu_s``, both
    without the kernel readings taken during it, the steal in its wall
    time, and ``scaled_s``: its wall time without steal, at the reference
    host speed."""
    if out_path.exists():
        out_path.unlink()
    argv = entry["argv"] + ["--out", str(out_path)]
    error = None
    s0 = calibrate.steal_s()
    t0, c0 = time.perf_counter(), time.process_time()
    with host.sampling():
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code, error = None, repr(exc)
    wall = time.perf_counter() - t0 - host.spent
    cpu = time.process_time() - c0 - host.spent_cpu
    unstolen = calibrate.unstolen(wall, cpu, calibrate.steal_s() - s0)
    times = {"wall_s": wall, "cpu_s": cpu, "stolen_s": wall - unstolen,
             "scaled_s": unstolen * host.factor(),
             "kernel_s": host.last}
    report = None
    if code == 0:
        report = json.loads(out_path.read_text())
    elif error is None:
        error = f"exit code {code}"
    return times, code, report, error


def run_pass(cli, entries, workdir, gate, host, full_gate=True,
             reports=None):
    """One pass; appends each report to ``reports`` when given.  Each
    row's ``scaled_s`` is its wall time at the reference host speed."""
    rows = []
    for entry in entries:
        times, code, report, error = run_report(
            cli, entry, workdir / "report.json", host)
        ok = report is not None and gate.check(entry, report, full_gate)
        if error is not None:
            gate.problems.append(f"{entry['label']}: {error}")
        if reports is not None and report is not None:
            reports.append(report)
        rows.append({"label": entry["label"], **times, "exit_code": code,
                     "failed": report is None,
                     "wrong": report is not None and not ok})
    return rows


def tail_percentile(n_min):
    """The highest percentile with at least TAIL_BEYOND of ``n_min``
    values beyond it; 100 when there are too few values."""
    if n_min <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (n_min - TAIL_BEYOND) / n_min


def percentile(values, pct):
    """The smallest value with at least ``pct`` percent of ``values`` at
    or below it.  For n values at or above the ``n_min`` that set ``pct``
    in tail_percentile, at least TAIL_BEYOND values lie beyond it."""
    xs = sorted(values)
    k = max(0, math.ceil(round(pct / 100.0 * len(xs), 9)) - 1)
    return xs[min(k, len(xs) - 1)]


def pass_time(passes, key):
    """The time of one typical pass: each report's median over the passes,
    summed over the report list."""
    return sum(_median([p[i][key] for p in passes])
               for i in range(len(passes[0])))


# -- per-layer metrics ----------------------------------------------------
def layer_metrics(tracer, passes, results, import_s, overhead):
    """Per-pass figures from a traced run, keyed by metric name;
    ``results`` are the reports of one traced pass."""
    s = tracer.stats
    obs = tracer.observed

    def stat(name, field):
        st = s.get(name)
        return getattr(st, field) / passes if st is not None else 0.0

    iters = sum(r["result"]["general"]["iterations"] for r in results
                if "general" in r["result"])
    lm_time = stat("gradientize.solve_general", "total") \
        - tracer.total_under("gradientize.consistency_check",
                             "gradientize.solve_general") / passes
    cmd_total = sum(stat(n, "total") for n in s if n.startswith("cli.cmd_"))
    trajectories = obs["rk4.trajectories"] + obs["em.trajectories"]
    m = {}
    for name in sorted(s):
        m[f"{name}.calls"] = stat(name, "calls")
        m[f"{name}.total_s"] = stat(name, "total")
        m[f"{name}.self_s"] = stat(name, "self")
    m.update({
        "fields.eval_field.us_per_call": 1e6 * _ratio(
            stat("fields.eval_field", "self"),
            stat("fields.eval_field", "calls")),
        "homotopy.potential.evals_per_call": _ratio(
            tracer.calls_under("fields.eval_field", "homotopy.potential")
            / passes, stat("homotopy.potential", "calls")),
        "homotopy.decompose.ms_per_point": 1e3 * _ratio(
            stat("homotopy.decompose", "total"),
            stat("homotopy.decompose", "calls")),
        "homotopy.gauss_legendre.max_n": obs["gauss_legendre.max_n"],
        "gradientize.solve_symmetrizer.s_per_call": _ratio(
            stat("gradientize.solve_symmetrizer", "total"),
            stat("gradientize.solve_symmetrizer", "calls")),
        "gradientize.lm.residual_sweeps_per_iter": _ratio(
            tracer.calls_under("gradientize.general_residual",
                               "gradientize.solve_general") / passes, iters),
        "gradientize.lm.s_per_iter": _ratio(lm_time, iters),
        "dynamics.rk4.us_per_step": 1e6 * _ratio(
            stat("dynamics.integrate_rk4", "total"),
            obs["rk4.steps"] / passes),
        "dynamics.em.us_per_step": 1e6 * _ratio(
            stat("dynamics.euler_maruyama", "total"),
            obs["em.steps"] / passes),
        "dynamics.csv.bytes": obs["csv.bytes"] / passes,
        "dynamics.completed_ratio": _ratio(
            obs["rk4.completed"] + obs["em.completed"], trajectories),
        "cli.overhead_s": stat("cli.main", "total") - cmd_total,
        "trace.overhead_frac": overhead,
    })
    for mod, secs in import_s.items():
        m[f"setup.import_s.{mod}"] = secs
    return m


# -- metadata -------------------------------------------------------------
def _git_sha():
    """HEAD of the checkout, or None when it is not itself a git repo."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args, entries, load_at_start):
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": load_at_start,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reports_per_pass": len(entries),
        "reference_kernel_s": calibrate.REFERENCE_S,
    }


# -- benchmark definition -------------------------------------------------
def load_definition():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args):
    load_at_start = list(os.getloadavg())
    import gradiform.cli as cli
    import workloads
    from gate import Gate

    definition = load_definition()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        entries = workloads.build(args.workload, args.seed, workdir / "traj")
        meta = metadata(args, entries, load_at_start)
        reference = None
        if args.seed == DEFAULT_SEED:
            path = REFERENCE_DIR / f"{args.workload}.json"
            reference = json.loads(path.read_text())["reports"]
        gate = Gate(reference)
        if args.trace:
            record = traced_run(args, cli, entries, workdir, gate,
                                definition)
        else:
            record = untraced_run(args, cli, entries, workdir, gate,
                                  definition)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["meta"] = meta
    record["problems"] = gate.problems[:50]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for p in gate.problems[:20]:
        print(f"gate: {p}", file=sys.stderr)
    return record


def _counts(rows):
    failed = sum(r["failed"] for r in rows)
    wrong = sum(r["wrong"] for r in rows)
    return len(rows), failed, wrong


def untraced_run(args, cli, entries, workdir, gate, definition):
    import workloads
    setup_s, setup_raw, setup_kernel = measure_setup(
        workloads.system_overrides(entries))
    tail_passes = -(-TAIL_REPORTS // len(entries))
    tail_pct = tail_percentile(tail_passes * len(entries))
    host = calibrate.HostSpeed()
    passes = []
    start = time.perf_counter()
    while len(passes) < tail_passes \
            or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(cli, entries, workdir, gate, host))
    rows = [r for p in passes for r in p]
    scaled = [r["scaled_s"] for r in rows]
    walls = [r["wall_s"] for r in rows]
    attempted, failed, wrong = _counts(rows)
    values = {
        "setup_s": setup_s,
        "wall_s": pass_time(passes, "scaled_s"),
        "report_p50_s": _median(scaled),
        "report_tail_s": percentile(scaled, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    units = {m["name"]: m["unit"] for m in definition["end_to_end"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    extra = {
        "failed_frac": failed / attempted,
        "wrong_frac": wrong / attempted,
        "report_tail_percentile": tail_pct,
        "report_tail_samples": len(scaled),
        "reports_measured": attempted,
        "passes": len(passes),
        "setup_raw_s": setup_raw,
        "setup_kernel_s": setup_kernel,
        # the same figures unscaled, as the host ran them
        "raw": {"wall_s": pass_time(passes, "wall_s"),
                "report_p50_s": _median(walls),
                "report_tail_s": percentile(walls, tail_pct)},
        "stolen_s": sum(r["stolen_s"] for r in rows),
        "kernel_s": {"median": _median([r["kernel_s"] for r in rows]),
                     "min": min(r["kernel_s"] for r in rows),
                     "max": max(r["kernel_s"] for r in rows)},
    }
    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{len(passes)}  reports {attempted}")
    for name, m in metrics.items():
        note = ""
        if name == "report_tail_s":
            note = f"  (p{tail_pct:.1f} of {len(scaled)} reports)"
        if name in extra["raw"]:
            note = f"  (unscaled {extra['raw'][name]:.6f}){note}"
        print(f"  {name:<14} {m['value']:12.6f} {m['unit']}{note}")
    print(f"  {'failed_frac':<14} {extra['failed_frac']:12.6f} 1")
    print(f"  {'wrong_frac':<14} {extra['wrong_frac']:12.6f} 1")
    k = extra["kernel_s"]
    print(f"  reference kernel {1e3 * k['median']:.3f} ms median "
          f"({1e3 * k['min']:.3f}-{1e3 * k['max']:.3f}); times above are "
          f"scaled to {1e3 * calibrate.REFERENCE_S:.3f} ms")
    return {"workload": args.workload, "trace": 0, "metrics": metrics,
            "extra": extra, "attempted": attempted, "failed": failed,
            "wrong": wrong, "reports": rows}


def traced_run(args, cli, entries, workdir, gate, definition):
    from tracing import Tracer
    import_s = measure_import_times()
    tracer = Tracer()
    host = calibrate.HostSpeed()
    untraced, traced = [], []
    results = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(run_pass(cli, entries, workdir, gate, host))
        tracer.install()
        try:
            # traced results must equal the untraced ones byte for byte
            traced.append(run_pass(cli, entries, workdir, gate, host,
                                   full_gate=False,
                                   reports=None if traced else results))
        finally:
            tracer.uninstall()
    u_wall = pass_time(untraced, "scaled_s")
    t_wall = pass_time(traced, "scaled_s")
    layers = layer_metrics(tracer, len(traced), results, import_s,
                           _ratio(t_wall - u_wall, u_wall))
    tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    units = {m["name"]: m["unit"] for m in definition["per_layer"]}
    metrics = {k: {"value": layers.get(k, 0.0), "unit": u}
               for k, u in units.items()}
    rows = [r for p in untraced + traced for r in p]
    attempted, failed, wrong = _counts(rows)
    print(f"workload {args.workload}  seed {args.seed}  traced passes "
          f"{len(traced)}  untraced {len(untraced)}  (per-pass figures)")
    for name in sorted(layers):
        print(f"  {name:<48} {layers[name]:16.6f}")
    return {"workload": args.workload, "trace": 1, "metrics": metrics,
            "layers": layers, "attempted": attempted, "failed": failed,
            "wrong": wrong, "reports": rows}


# -- reference ------------------------------------------------------------
def record_reference(args):
    import gradiform.cli as cli
    import workloads
    from gate import Invariants, normalize

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    invariants = Invariants()
    host = calibrate.HostSpeed()
    reports = {}
    try:
        for entry in workloads.build(args.workload, DEFAULT_SEED,
                                     workdir / "traj"):
            _, code, report, error = run_report(
                cli, entry, workdir / "report.json", host)
            if report is None:
                raise SystemExit(f"{entry['label']}: {error}")
            problems = invariants.check(entry, report)
            if problems:
                raise SystemExit(f"{entry['label']}: {problems}")
            reports[entry["label"]] = normalize(report["result"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps({"workload": args.workload,
                                "seed": DEFAULT_SEED, "reports": reports},
                               indent=0, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)} ({len(reports)} reports)")


# -- compare --------------------------------------------------------------
def _spread(xs):
    if len(xs) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return _ratio(q3 - q1, statistics.median(xs))


def _load_runs(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("trace") == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def compare(paths):
    """Medians, spreads and, given two files, ratios with verdicts."""
    definition = load_definition()
    metrics = definition["end_to_end"]
    sides = [_load_runs(p) for p in paths]
    workloads = [w["name"] for w in definition["workloads"]]
    head = f"{'workload':<13}{'metric':<15}"
    if len(sides) == 1:
        print(head + f"{'median':>12}{'spread':>9}{'bound':>7}{'runs':>6}")
    else:
        print(head + f"{'base':>12}{'new':>12}{'new/base':>10}"
              f"{'spread':>14}{'bound':>7}  verdict")
    for wl in workloads:
        runs = [s.get(wl, []) for s in sides]
        if not all(runs):
            continue
        for m in metrics:
            vals = [[r["metrics"][m["name"]]["value"] for r in rs]
                    for rs in runs]
            meds = [statistics.median(v) for v in vals]
            spreads = [_spread(v) for v in vals]
            row = f"{wl:<13}{m['name']:<15}"
            if len(sides) == 1:
                print(row + f"{meds[0]:12.5g}{spreads[0]:9.3f}"
                      f"{m['bound']:7.2f}{len(vals[0]):6d}")
                continue
            ratio = _ratio(meds[1], meds[0])
            worse = (ratio - 1.0) if m["better"] == "lower" else (1.0 - ratio)
            lower = m["better"] == "lower"
            all_better = all((b < a) if lower else (b > a)
                             for a in vals[0] for b in vals[1])
            enough = all(len(v) >= 2 for v in vals)
            if not enough or (max(spreads) > m["bound"] and not all_better):
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "worse"
            elif all_better:
                verdict = "better"
            else:
                verdict = "within bound"
            print(row + f"{meds[0]:12.5g}{meds[1]:12.5g}{ratio:10.3f}"
                  f"{spreads[0]:7.3f}{spreads[1]:7.3f}{m['bound']:7.2f}  "
                  f"{verdict}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[
        w["name"] for w in load_definition()["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=OUT_DIR / "results.jsonl",
                   help="JSON-lines file the run record is appended to")
    p.add_argument("--compare", nargs="+", metavar="RESULTS", type=Path,
                   help="summarize one results file, or compare two")
    p.add_argument("--record-reference", action="store_true",
                   help="record the default-seed reference for --workload")
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required")
    if args.compare is not None and len(args.compare) > 2:
        p.error("--compare takes one or two result files")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.compare is not None:
        compare(args.compare)
        return 0
    if not (SRC / "gradiform" / "cli.py").is_file():
        print(f"bench: gradiform sources not found under {SRC}",
              file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    os.environ.pop("GRADIFORM_SEED", None)
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.record_reference:
        record_reference(args)
        return 0
    record = run(args)
    correct = record["failed"] == 0 and record["wrong"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
