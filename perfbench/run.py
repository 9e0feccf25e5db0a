"""Run one fdhom benchmark workload and print its metrics.

    python3 perfbench/run.py --workload auslander_gamma --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; fdhom is imported from `src/` there. The
workload runs as a closed loop in this one process: timed passes over the
workload's job list, one after another, as many as fit in `--seconds` (at
least two). Every pass builds its inputs cold from the generated
descriptions and checks every verdict.

With `--trace 0` the result holds the end-to-end metrics. With `--trace 1`
the run makes one untraced pass, then traced passes, and the result holds the
per-layer metrics; all spans are written to `perfbench/out/`.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the line
before it records the run and its environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120


def _import_fdhom() -> None:
    src = ROOT / "src"
    if not (src / "fdhom" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fdhom package in {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import fdhom
    if Path(fdhom.__file__).resolve().parent != (src / "fdhom").resolve():
        sys.exit(f"perfbench: fdhom was imported from {fdhom.__file__}, not {src}")


def setup(workload: str, seed: int, workdir: Path):
    """Everything before the first timed pass that main() has not done:
    importing sympy and the workload, and generating the inputs."""
    import sympy  # noqa: F401  fdhom imports it lazily, inside computations
    import workloads
    return workloads.WORKLOADS[workload](seed, workdir)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def run_pass(wl, latencies: list, tracer=None):
    """One pass over the job list.

    Returns (wall seconds, failed jobs, verdicts, seconds per job)."""
    from workloads import Mismatch

    failed = 0
    verdicts, job_s = [], []
    t0 = time.perf_counter()
    wl.begin_pass()
    for job in wl.jobs:
        if tracer is not None:
            tracer.begin_job(job.name)
        j0 = time.perf_counter()
        try:
            verdict = job.run(latencies)
            ok = job.golden is None or verdict == job.golden
            if not ok:
                print(f"{wl.name}/{job.name}: verdict {verdict!r} differs from "
                      f"golden {job.golden!r}", file=sys.stderr)
        except Mismatch as e:
            verdict, ok = f"mismatch: {e}", False
            print(f"{wl.name}/{job.name}: {e}", file=sys.stderr)
        except Exception as e:  # a failed job is counted, never skipped
            verdict, ok = f"error: {type(e).__name__}: {e}", False
            print(f"{wl.name}/{job.name} raised:", file=sys.stderr)
            traceback.print_exc()
        job_s.append(time.perf_counter() - j0)
        failed += not ok
        verdicts.append(verdict)
    return time.perf_counter() - t0, failed, verdicts, job_s


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"git_commit": _git_commit(), "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "cpu_model": _cpu_model()}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _another_pass(walls: list[float], t_begin: float, seconds: int) -> bool:
    """At least MIN_PASSES; then another only if it should end within
    `seconds`, so that a run's length does not depend on the last pass."""
    if len(walls) < MIN_PASSES:
        return True
    return time.perf_counter() - t_begin + statistics.mean(walls) <= seconds


def _per_item_mean(samples: list[list[float]]) -> list[float]:
    """Each job's or query's mean time over the passes."""
    return [statistics.mean(col) for col in zip(*samples)]


def run_plain(wl, seconds: int, setup_samples: list[float]):
    walls, failed, verdicts, job_s, query_s = [], 0, [], [], []
    t_begin = time.perf_counter()
    while _another_pass(walls, t_begin, seconds):
        latencies: list[float] = []
        wall, bad, v, js = run_pass(wl, latencies)
        walls.append(wall)
        failed += bad
        verdicts.append(v)
        job_s.append(js)
        # a batch workload's query is one job: one CLI call or one Gamma
        query_s.append(latencies if wl.has_queries else js)
    attempted = len(walls) * len(wl.jobs)
    # The host's speed drifts in bursts of seconds to minutes; means over all
    # passes of the run average the most of it out. Latency quantiles are
    # taken over the queries, each one its mean over the passes.
    query_mean = _per_item_mean(query_s)
    p50, p90 = (statistics.quantiles(query_mean, n=10, method="inclusive")[i]
                for i in (4, 8))
    metrics = {
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "wall_s": _metric(statistics.mean(walls), "s"),
        "query_ms.p50": _metric(p50 * 1000, "ms"),
        "query_ms.p90": _metric(p90 * 1000, "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": _metric((attempted - failed) / attempted, "frac"),
    }
    info = {"passes": len(walls), "pass_wall_s": walls,
            "query_samples": len(query_mean), "setup_samples_s": setup_samples,
            "verdicts_sha256": _digest(verdicts[0])}
    if not wl.has_queries:
        info["pass_job_s"] = job_s
        info["job_mean_s"] = dict(zip((job.name for job in wl.jobs),
                                      _per_item_mean(job_s)))
    return attempted, failed, metrics, info, []


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "frac" if name.endswith("_frac") else "count"


def run_traced(wl, seconds: int, spans_path: Path):
    import workloads
    from tracing import Tracer, layer_metrics

    latencies: list[float] = []
    untraced, failed, verdicts, _ = run_pass(wl, latencies)
    tracer = Tracer()
    tracer.install([workloads])
    stats, walls = [], []
    t_begin = time.perf_counter()
    while _another_pass(walls, t_begin, seconds):
        tracer.new_pass()
        wall, bad, _, _ = run_pass(wl, latencies, tracer)
        stats.append(tracer.pass_stats())
        walls.append(wall)
        failed += bad
    values = layer_metrics(tracer, stats, statistics.median(walls) - untraced)
    problems = []
    counted = [{k: v for k, v in s.items() if k != "self_s"} for s in stats]
    if any(c != counted[0] for c in counted):
        problems.append("call counts differ between traced passes")
    if not tracer.spans_nest():
        problems.append("a span is not inside its parent")
    for wall, s in zip(walls, stats):
        if sum(s["self_s"]) > wall:
            problems.append(f"self times {sum(s['self_s']):.3f} s exceed "
                            f"the traced wall {wall:.3f} s")
    problems += [f"{m} reads zero" for m in wl.busy if not values[m] > 0]
    tracer.write(spans_path)
    metrics = {k: _metric(v, _unit(k)) for k, v in values.items()}
    info = {"passes": 1 + len(walls), "untraced_wall_s": untraced,
            "traced_wall_s": walls, "spans": len(tracer.span_fn),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "self_checks": problems or "ok",
            "verdicts_sha256": _digest(verdicts)}
    attempted = (1 + len(walls)) * len(wl.jobs)
    return attempted, failed, metrics, info, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _import_fdhom()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        load_start = os.getloadavg()
        setup_samples = [] if args.trace else [
            setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        wl = setup(args.workload, args.seed, workdir)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            attempted, failed, metrics, info, problems = run_traced(
                wl, args.seconds, spans)
        else:
            attempted, failed, metrics, info, problems = run_plain(
                wl, args.seconds, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs_sha256": _digest(wl.inputs), **info,
              "env": {**environment(), "loadavg_start": load_start,
                      "loadavg_end": os.getloadavg()}}
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
