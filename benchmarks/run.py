"""Benchmark of the layerfield CLI: fresh processes over fixed workloads.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of closed_forms, thin_ladder, sampled_boundary (see
workloads.py and README.md).  The seed draws the inputs.  A run measures
set-up time, then repeats passes over the workload's ops for as long as
the next pass should still end within S seconds of the run's start, and
reports a pass with each op at its fastest.  Times are at reference
speed, which takes out the host's load (speed.py).  Once the passes end,
every op's exit code and output is gated, and every pass's outputs must
be byte-identical.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the ops through
tracer.py instead and prints the per-layer metrics, plus the tracing
overhead against one untraced pass.  The last line of standard output is
one JSON object {correct, attempted, failed, metrics}; the per-op table
and the environment go to standard error and, in full, to
.bench_work/results/.  Exits 2 without a result when the checkout has no
package source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import workloads
from speed import KERNELS, PERIOD_S, Probe, speed
from tracer import ENTRY_POINTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = HERE / "tracer.py"
#: the CPUs this process may use when it starts
ALL_CPUS = frozenset(os.sched_getaffinity(0))

#: runs of `import layerfield.cli` per run for setup_s, after one warm-up
SETUP_SAMPLES = 5
#: a single op that takes longer than this is killed and counted failed
OP_TIMEOUT_S = 120.0
#: no pass starts that would end after this much of the run, which must
#: end within 180 s
RUN_BUDGET_S = 150.0
#: a pass is predicted to take this many times as long as the last one
PASS_MARGIN = 1.2
#: thread pools of the numeric libraries are pinned so that the only op
#: with more than one thread is thin_ladder's `--threads 2` solve
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s", "session_s": "s", "solve_s": "s", "compare_s": "s", "verify_s": "s",
    "cpu_s": "s", "nodes_per_s": "1/s", "peak_rss_mb": "MB",
}

#: per-layer metric -> (unit, span name or None, span field); field "dur"
#: sums span durations, "self" sums self times, "calls" counts spans
PER_LAYER = {
    "import.layerfield_s": ("s", None, None),
    "import.scipy_s": ("s", None, None),
    "import.numpy_s": ("s", None, None),
    "cli.parse_s": ("s", "cli.parse", "dur"),
    "build.series_s": ("s", "build.series", "dur"),
    "build.asymptotic_s": ("s", "build.asymptotic", "dur"),
    "build.oracle_s": ("s", "build.oracle", "dur"),
    "series.terms": ("count", "build.series", "terms"),
    "series.term_evals": ("count", "grid.eval", "term_evals"),
    "asym.tv_calls": ("count", "asym.tv", "calls"),
    "asym.tv_s": ("s", "asym.tv", "dur"),
    "grid.eval_s": ("s", "grid.eval", "dur"),
    "grid.nodes": ("count", "grid.eval", "nodes"),
    "csv.write_s": ("s", "csv.write", "dur"),
    "csv.rows": ("count", "csv.write", "rows"),
    "csv.bytes": ("bytes", "csv.write", "bytes"),
    "csv.fd_write_s": ("s", "csv.fd_write", "dur"),
    "residual.report_s": ("s", "residual.report", "dur"),
    "fd.total_s": ("s", "fd.total", "dur"),
    "fd.spsolve_s": ("s", "fd.spsolve", "dur"),
    "fd.assembly_s": ("s", "fd.total", "self"),
    "fd.unknowns": ("count", "fd.spsolve", "unknowns"),
    "fd.nnz": ("count", "fd.spsolve", "nnz"),
    "fd.spsolve_share": ("ratio", None, None),
    "verify.recheck_s": ("s", "verify.recheck", "dur"),
    "verify.recheck_rows": ("count", "verify.recheck", "rows"),
    "harmonic.trace_read_s": ("s", "harmonic.trace_read", "dur"),
    "harmonic.project_s": ("s", "harmonic.project", "dur"),
    "harmonic.modes_active": ("count", "harmonic.project", "modes_active"),
    "trace.overhead_s": ("s", None, None),
    "rationale.share": ("ratio", None, None),
}

#: the layers each workload was chosen to stress; their share of the
#: traced pass is reported as rationale.share and should exceed one half
RATIONALE = {
    "closed_forms": ("import.layerfield_s", "csv.write_s"),
    "thin_ladder": ("grid.eval_s", "residual.report_s", "verify.recheck_s"),
    "sampled_boundary": ("fd.total_s", "grid.eval_s"),
}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LAYERFIELD_THREADS")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment():
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env": dict(BLAS_ENV),
        "loadavg_start": list(os.getloadavg()),
    }


def run_child(argv, cwd, env, log, probe, threads=1):
    """Run one process to completion and sample the speed of its CPUs:
    (exit code, stdout, stderr, wall, cpu, rss MB, speed samples).

    An op that asks for threads runs on every CPU; any other op on the CPU
    that is fastest when it starts, since slow phases last seconds.
    """
    if threads > 1:
        cpus = set(ALL_CPUS)
        samples = probe.sample(cpus)
    else:
        cpu, row = probe.quietest(ALL_CPUS)
        cpus, samples = {cpu}, [row]
    os.sched_setaffinity(0, cpus)  # the child inherits it
    with open(f"{log}.out", "w+b") as out, open(f"{log}.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        pid = 0
        # the pidfd turns readable when the child exits, so the poll both
        # paces the samples and ends the wall time on time
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.poll()
            exited.register(pidfd, select.POLLIN)
            while not exited.poll(PERIOD_S * 1000):
                if time.perf_counter() - start > OP_TIMEOUT_S:
                    proc.kill()
                samples += probe.sample(cpus)
            wall = time.perf_counter() - start
            pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
            if not pid:  # interrupted: leave no process behind
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, samples)


def measure_setup(work, env, probe):
    """(wall, speed samples) of each timed `import layerfield.cli`."""
    argv = [sys.executable, "-c", "import layerfield.cli"]
    runs = []
    for i in range(SETUP_SAMPLES + 1):
        code, _, err, wall, _, _, samples = run_child(argv, work, env, work / "logs" / "setup", probe)
        if code != 0:
            raise SystemExit(f"import layerfield.cli failed:\n{err}")
        if i:
            runs.append((wall, samples))
    return runs


def run_pass(ops, work, env, probe, traced, index):
    """Run every op once, in order; traced ops go through tracer.py."""
    results = []
    for op in ops:
        log = work / "logs" / f"{index}.{op.id}"
        if traced:
            argv = [sys.executable, "-X", "importtime", str(TRACER), str(SRC), f"{log}.spans", op.id, "--",
                    *op.argv()]
        else:
            argv = [sys.executable, "-m", "layerfield.cli", *op.argv()]
        results.append(workloads.Result(op, *run_child(argv, work, env, log, probe, op.threads)))
    return results


def digest(res, work):
    """Hash of an op's exit code, stdout and output files, read in chunks."""
    h = hashlib.sha256(f"{res.code}\n{res.stdout}".encode())
    for name in res.op.outputs:
        path = work / name
        if path.exists():
            with open(path, "rb") as fh:
                h.update(hashlib.file_digest(fh, "sha256").digest())
        else:
            h.update(b"<missing>")
    return h.hexdigest()


def gate_run(passes, digests, ctx):
    """Gate every op of every pass.

    The gates read the last pass's outputs, which are the files on disk; an
    earlier pass passes only if its results were byte-identical.  Gating at
    the end keeps this process small while the CLI runs: a child's max-RSS
    counts the parent's resident set at the moment it was started.
    """
    gated = []
    for res in passes[-1]:
        try:
            gated.append(res.op.gate(res, ctx))
        except Exception as exc:  # a malformed output fails its op, not the run
            gated.append((False, {"error": f"{type(exc).__name__}: {exc}"}))
    verdicts = []
    for results, ds in zip(passes, digests):
        row = []
        for res, d, last, (ok, data) in zip(results, ds, digests[-1], gated):
            if d != last:
                ok, data = False, {"error": "output differs from the last pass"}
            row.append({"op": res.op.id, "ok": bool(ok), "exit": res.code, "wall_s": res.wall_s,
                        "cpu_s": res.cpu_s, "rss_mb": res.rss_mb, **data})
        verdicts.append(row)
    return verdicts


def session_metrics(passes):
    """End-to-end metrics of a run's untraced passes.

    Times are at reference speed (speed.py).  Each op counts at its
    fastest pass: what the probe does not catch of a slow phase only ever
    adds time, so the per-op minimum is the steadiest estimate of what one
    pass costs.  Peak RSS is the largest seen.
    """
    ops = [res.op for res in passes[0]]
    wall = [min(p[i].wall_s * speed(p[i].samples) for p in passes) for i in range(len(ops))]
    by = defaultdict(float)
    for op, w in zip(ops, wall):
        by[op.command] += w
    nodes = sum(op.nodes for op in ops if op.command == "solve")
    return {
        "session_s": sum(wall),
        "solve_s": by["solve"],
        "compare_s": by["compare"],
        "verify_s": by["verify"],
        "cpu_s": sum(min(p[i].cpu_s * speed(p[i].samples) for p in passes) for i in range(len(ops))),
        "nodes_per_s": nodes / by["solve"],
        "peak_rss_mb": max(res.rss_mb for p in passes for res in p),
    }


# ---------------------------------------------------------------------------
# traced passes
# ---------------------------------------------------------------------------


def import_tree(stderr):
    """Parse `-X importtime` lines into a forest of (name, cumulative s, children)."""
    pending = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop()[1])
        pending.append((depth, (name.strip(), int(cum) / 1e6, children)))
    return [node for _, node in pending]


def top_import_s(forest, package):
    """Cumulative import time of the outermost imports of `package`."""
    total = 0.0
    for name, cum, children in forest:
        if name == package or name.startswith(package + "."):
            total += cum
        else:
            total += top_import_s(children, package)
    return total


def layer_metrics(results, work, index, workload):
    """Per-layer values of one traced pass, and the metrics not measured."""
    values = defaultdict(float)
    missing = set()
    for res in results:
        forest = import_tree(res.stderr)
        for pkg in ("layerfield", "scipy", "numpy"):
            values[f"import.{pkg}_s"] += top_import_s(forest, pkg)
        log = work / "logs" / f"{index}.{res.op.id}.spans"
        if not log.exists():  # the tracer was killed; its gate fails the op
            continue
        record = json.loads(log.read_text())
        missing |= {name for module, path, name, _ in ENTRY_POINTS if f"{module}.{path}" in record["missing"]}
        spans = record["spans"]
        child_s = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            for metric, (_, name, fld) in PER_LAYER.items():
                if s["name"] != name:
                    continue
                if fld == "dur":
                    values[metric] += s["end"] - s["start"]
                elif fld == "self":
                    values[metric] += s["end"] - s["start"] - child_s[i]
                elif fld == "calls":
                    values[metric] += 1
                else:
                    values[metric] += s.get(fld, 0)
    if values["fd.total_s"] > 0:
        values["fd.spsolve_share"] = values["fd.spsolve_s"] / values["fd.total_s"]
    not_measured = {m for m, (_, name, _) in PER_LAYER.items() if name in missing}
    if "fd.total" in missing or "fd.spsolve" in missing:
        not_measured.add("fd.spsolve_share")
    if not_measured & set(RATIONALE[workload]):
        not_measured.add("rationale.share")
    return values, not_measured


def trace_metrics(plain, traced, workload):
    """Per-layer metrics: medians over the traced passes.  Span times are
    as measured; trace.overhead_s compares passes at reference speed."""
    untraced = session_metrics(plain)["session_s"]
    not_measured = set().union(*(nm for _, _, nm in traced))
    metrics = {}
    for name, (unit, _, _) in PER_LAYER.items():
        if name in not_measured:
            metrics[name] = {"value": None, "unit": unit, "note": "not measured"}
            continue
        if name == "trace.overhead_s":
            value = statistics.median(sum(r.wall_s * speed(r.samples) for r in rs)
                                      for rs, _, _ in traced) - untraced
        elif name == "rationale.share":
            value = statistics.median(sum(v[m] for m in RATIONALE[workload]) / sum(r.wall_s for r in rs)
                                      for rs, v, _ in traced)
        else:
            value = statistics.median(v[name] for _, v, _ in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main():
    args = parse_args()
    if not (SRC / "layerfield" / "cli.py").is_file():
        print(f"no package source at {SRC / 'layerfield'}; run from a full checkout", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    env_info = environment()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    env = child_env()
    ops = workloads.build(args.workload, args.seed, work)

    probe = Probe()
    setup_runs = [] if args.trace else measure_setup(work, env, probe)

    # a traced run makes one untraced pass first, for trace.overhead_s
    passes, digests, plain, traced = [], [], [], []
    while True:
        is_traced = bool(args.trace and plain)
        results = run_pass(ops, work, env, probe, is_traced, len(passes))
        passes.append(results)
        digests.append([digest(res, work) for res in results])
        wall = sum(res.wall_s for res in results)
        if is_traced:
            traced.append((results, *layer_metrics(results, work, len(passes) - 1, args.workload)))
        else:
            plain.append(results)
        if args.trace and not traced:
            continue
        # start another pass only if the run, set-up included, should still
        # end within the measuring time
        next_end = time.perf_counter() + PASS_MARGIN * wall - t0
        if next_end > min(args.seconds, RUN_BUDGET_S):
            break

    verdicts = gate_run(passes, digests, workloads.Context(work, SRC))
    attempted = sum(len(v) for v in verdicts)
    failed = sum(not x["ok"] for v in verdicts for x in v)
    if args.trace:
        metrics = trace_metrics(plain, traced, args.workload)
    else:
        setup_s = statistics.median(wall * speed(samples) for wall, samples in setup_runs)
        values = {"setup_s": setup_s, **session_metrics(plain)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    env_info["loadavg_end"] = list(os.getloadavg())
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env_info, "probe_kernels": KERNELS,
        "setup_runs": [{"wall_s": w, "speed": speed(s), "samples": s} for w, s in setup_runs],
        "passes": [[{"op": r.op.id, "wall_s": r.wall_s, "speed": speed(r.samples), "samples": r.samples}
                    for r in p] for p in plain],
        "traced_passes": [{"wall_s": sum(r.wall_s for r in rs), **v} for rs, v, _ in traced],
        "verdicts": verdicts, "fail_ratio": failed / attempted, "metrics": metrics,
        "run_s": time.perf_counter() - t0,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    print_human(report)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def print_human(report):
    err = sys.stderr
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"run={report['run_s']:.1f}s passes={len(report['passes'])}+{len(report['traced_passes'])} traced",
          file=err)
    print(f"# environment {json.dumps(report['environment'])}", file=err)
    last = len(report["verdicts"]) - 1
    for index, verdicts in enumerate(report["verdicts"]):
        for v in verdicts:
            if index != last and v["ok"]:
                continue
            data = {k: x for k, x in v.items() if k not in ("op", "ok", "exit", "wall_s", "cpu_s", "rss_mb")}
            print(f"  {'ok  ' if v['ok'] else 'FAIL'} pass {index} {v['op']:<28} exit={v['exit']} "
                  f"wall={v['wall_s']:.3f}s cpu={v['cpu_s']:.3f}s rss={v['rss_mb']:.0f}MB {json.dumps(data)}",
                  file=err)
    for name, m in report["metrics"].items():
        value = "not measured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<24} {value} {m['unit']}", file=err)
    print(f"  {'fail_ratio':<24} {report['fail_ratio']:.6g} ratio", file=err)


if __name__ == "__main__":
    sys.exit(main())
