"""Measurement loop, set-up timing, environment block and metrics.

A run is a single-process closed loop: the next experiment starts when the
previous one has returned, cycling through the workload's schedule.  An
untraced run (``--trace 0``) reports the end-to-end metrics; a traced run
(``--trace 1``) runs a fixed number of schedule cycles, each once untraced
and once traced, and reports the per-layer metrics and the difference in
wall time as the tracing overhead.  ``--seconds`` sets the untraced run's
length; a traced run's length is set by its fixed number of cycles, so that
its call counts repeat exactly from run to run.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import oil
import tracer as tracing
import workloads

MIN_EXPERIMENTS = 100  # so that p90 has at least ten samples beyond it
MAX_TIMED_S = 120.0  # hard stop for the timed loop, so a run ends within 180 s
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median of 5
# cycles per traced run: about 12 s of traced experiments each at the seed commit
TRACE_CYCLES = {"window-identities": 7, "lemma-trials": 4, "dilation-batch": 16, "cli-readme": 18}
LAYER_NAMES = tracing.LAYERS + ("linalg", "bench")
FUNCTION_SECONDS = (
    "hardy.multiplication_operator", "hardy.splitting_defect", "spectral.singular_values",
    "extensions.inverse_identity_residuals", "extensions.extension_sum",
    "deformation.lemma_lower_bound_report", "deformation.haar_unitary",
    "stinespring.dilation_build", "stinespring.defect_identity_residuals",
    "reporting.write_report", "linalg.svd",
)


class Tally:
    """Checks attempted and failed, with the first few failures kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, index: int, exp: workloads.Experiment, call=None):
        """Run one experiment, directly or through call(fn); count its checks."""
        try:
            checks = call(exp.run) if call else exp.run()
        except Exception:  # an operation that raises is a failed check; keep measuring
            self.attempted += 1
            self.failed += 1
            self._note(f"experiment {index} ({exp.kind}) raised:\n{traceback.format_exc()}")
            return
        self.attempted += len(checks.items)
        self.failed += checks.failed
        for name, value, ok in checks.items:
            if not ok:
                self._note(f"experiment {index} ({exp.kind}) check {name} failed: {value!r}")

    def _note(self, text: str):
        if len(self.failures) < 20:
            self.failures.append(text)


def setup(workload: str, seed: int, workdir: str, t_start: float):
    """Generate the inputs and run one untimed warm-up experiment.

    Returns the experiments and the seconds from t_start (the top of the
    entry script, before numpy and oil were imported) to the end of set-up.
    """
    experiments = workloads.WORKLOADS[workload](seed, workdir)
    warm = Tally()
    warm.run(-1, experiments[0])
    if warm.failed:
        raise RuntimeError("warm-up experiment failed:\n" + "\n".join(warm.failures))
    return experiments, time.perf_counter() - t_start


def probe_setup(argv_base: list[str]) -> float:
    """Set-up seconds measured by a fresh interpreter running the same set-up."""
    proc = subprocess.run(argv_base + ["--setup-probe"], capture_output=True, text=True, timeout=10)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def timed_loop(experiments, seconds: float, tally: Tally):
    """Closed loop over whole schedule cycles for `seconds` and at least MIN_EXPERIMENTS.

    Returns every experiment's latency and every cycle's wall time.  Stopping
    only at the end of a cycle keeps the mix of experiments the same in
    every run, whatever its length.
    """
    latencies, cycles = [], []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for i, exp in enumerate(experiments, start=len(latencies)):
            t0 = time.perf_counter()
            tally.run(i, exp)
            latencies.append(time.perf_counter() - t0)
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        elapsed = now - start
        if (elapsed >= seconds and len(latencies) >= MIN_EXPERIMENTS) or elapsed >= MAX_TIMED_S:
            return latencies, cycles


def end_to_end(experiments, seconds: float, setup_samples: list[float], tally: Tally):
    """End-to-end metrics.  Throughput is taken per cycle (experiments in a
    cycle over its wall time) and reported as the median over the run's
    cycles, so a few seconds of a faster or slower machine do not move it."""
    latencies, cycles = timed_loop(experiments, seconds, tally)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "experiments_per_s": len(experiments) / statistics.median(cycles),
        "experiment_p50_s": deciles[4],
        "experiment_p90_s": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"samples": len(latencies), "cycles": len(cycles), "timed_wall_s": sum(cycles),
            "setup_samples_s": setup_samples}
    return metrics, info


def traced(workload: str, experiments, tally: Tally, spans_path: str | None = None,
           cycles: int | None = None):
    """Per-layer metrics from a fixed number of schedule cycles.

    Each cycle runs once untraced and then once traced, so drift in machine
    speed falls on both sides alike; the traced wall time minus the
    untraced one is the tracing overhead.
    """
    tr = tracing.Tracer()
    untraced_wall = traced_wall = 0.0
    for cycle in range(cycles or TRACE_CYCLES[workload]):
        order = list(enumerate(experiments, start=cycle * len(experiments)))
        t0 = time.perf_counter()
        for i, exp in order:
            tally.run(i, exp)
        untraced_wall += time.perf_counter() - t0
        tr.install()
        try:
            t0 = time.perf_counter()
            for i, exp in order:
                tally.run(i, exp, call=lambda fn, i=i: tr.root(i, fn))
            traced_wall += time.perf_counter() - t0
        finally:
            tr.uninstall()
    if spans_path:
        tr.write_spans(spans_path)
    return layer_metrics(tr, traced_wall, untraced_wall), tr


def layer_metrics(tr: tracing.Tracer, traced_wall: float, untraced_wall: float) -> dict:
    s = tr.summary()
    c = tr.counters
    metrics = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = s["layer_calls"][layer]
        metrics[f"{layer}.self_s"] = s["layer_self"][layer]
        metrics[f"{layer}.share"] = s["layer_self"][layer] / traced_wall
    for name in FUNCTION_SECONDS:
        metrics[f"{name}_s"] = s["total"][name]
    metrics["spectral.classify_s"] = s["total"]["spectral.summability_classify"]
    metrics["hardy.nonzero_ratio"] = c["hardy.nonzero"] / c["hardy.entries"] if c["hardy.entries"] else 0.0
    metrics["spectral.rank_ratio"] = c["spectral.rank"] / c["spectral.values"] if c["spectral.values"] else 0.0
    metrics["linalg.svd_calls"] = c["linalg.svd_calls"]
    metrics["linalg.svd_flops"] = c["linalg.svd_flops"]
    metrics["reporting.report_bytes"] = c["reporting.report_bytes"]
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.self_s"] = s["layer_self"]["trace"]
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def _git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cache_bytes() -> dict:
    """Per-core data/unified cache sizes by level, from sysfs where present."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            path = os.path.join(base, entry)
            with open(os.path.join(path, "type")) as fh:
                kind = fh.read().strip()
            if kind == "Instruction":
                continue
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                size = fh.read().strip()
            units = {"K": 1024, "M": 1024**2, "G": 1024**3}
            out[f"L{level}"] = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    except (OSError, ValueError):
        pass
    return out


def environment(root: str, workload: str, experiments, thread_vars) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    max_dim = max(e.max_dim for e in experiments)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "openblas_configuration": blas.get("openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in thread_vars},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "oil_version": oil.__version__,
        "git_commit": _git_commit(root),
        "cache_bytes_per_core": _cache_bytes(),
        "workload": workload,
        "largest_matrix_dim": max_dim,
        "largest_matrix_bytes": max_dim * max_dim * 16,
    }


def run(args, root: str, out_dir: str, t_start: float, thread_vars) -> int:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        experiments, setup_s = setup(args.workload, args.seed, workdir, t_start)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tally = Tally()
        stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        if args.trace:
            metrics, tr = traced(args.workload, experiments, tally, spans_path=stem + ".spans.jsonl")
            info = {"trace_experiments": tr.summary()["layer_calls"]["bench"]}
            wanted = declared["per_layer"]
        else:
            script = os.path.join(root, declared["command"][-1])
            argv_base = [sys.executable, script, "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", "0"]
            samples = [setup_s] + [probe_setup(argv_base) for _ in range(SETUP_PROBES)]
            metrics, info = end_to_end(experiments, args.seconds, samples, tally)
            wanted = declared["end_to_end"]

    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    env = environment(root, args.workload, experiments, thread_vars)
    info.update(failed_ratio=tally.failed / max(tally.attempted, 1),
                attempted_checks=tally.attempted, failed_checks=tally.failed,
                schedule=[{"kind": e.kind, **e.params} for e in experiments])
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "info": info, "failures": tally.failures, "metrics": metrics}, fh, indent=1)
    for text in tally.failures:
        print(text, file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"summary workload={args.workload} seed={args.seed} trace={args.trace} "
          f"checks={tally.attempted} failed={tally.failed} failed_ratio={info['failed_ratio']:.3g} "
          + " ".join(f"{k}={v}" for k, v in info.items() if k in ("samples", "cycles", "trace_experiments")))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0
