"""One benchmark run of one workload: set-up, measurement, checks, result."""

from __future__ import annotations

import ctypes
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time

import numpy as np
from confrank import config as C

from tracing import Tracer, per_layer_metrics
from workloads import WORKLOADS, Scale

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 3
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms": "ms"}
OVERHEAD_METRICS = ("setup_s", "op_ms")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> tuple:
    """(BLAS name and version, threads it will use)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return name, str(getattr(handle, fn)())
    return name, threads


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    blas, threads = _blas()
    return {"cpu": _cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads, "git_commit": _git_commit()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _scale(args) -> Scale:
    if not args.tiny:
        return Scale(C.DataConfig(seed=args.seed), C.ModelConfig(seed=args.seed))
    spec = importlib.util.spec_from_file_location(
        "tiny_configs", os.path.join(ROOT, "tests", "conftest.py"))
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    return Scale(conftest.tiny_data_config(seed=args.seed),
                 conftest.tiny_model_config(seed=args.seed))


def _timed_setup(workload, fixed: set) -> float:
    """One set-up, after dropping the previous one's data (every attribute
    not in `fixed`), so the process never holds two set-ups at once."""
    for name in set(vars(workload)) - fixed:
        delattr(workload, name)
    gc.collect()
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def _line(name, value, unit, note=""):
    print(f"{name:<40} {value:>16.6g} {unit:<12} {note}".rstrip())


def run_workload(args) -> int:
    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"# environment: {json.dumps(env)}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={'tiny' if args.tiny else 'default'}")
    try:
        tracer = Tracer() if args.trace else None
        workload = WORKLOADS[args.workload](_scale(args), workdir, tracer)
        fixed = set(vars(workload))
        setups = [_timed_setup(workload, fixed) for _ in range(SETUP_REPEATS)]
        untraced = workload.measure(args.seconds, fixed_work=False)
        e2e = {"setup_s": statistics.median(setups), "peak_rss_mb": _peak_rss_mb(),
               **untraced.e2e}
        outcomes = [untraced]
        per_layer = {}
        if tracer is not None:
            tracer.install()
            traced_setup = _timed_setup(workload, fixed)
            traced = workload.measure(args.seconds, fixed_work=True)
            outcomes.append(traced)
            per_layer = per_layer_metrics(tracer, traced.requests, traced.dataset_bytes)
            traced_e2e = {"setup_s": traced_setup, **traced.e2e}
            for name in OVERHEAD_METRICS:
                if name in e2e and name in traced_e2e:
                    per_layer[f"trace.overhead.{name}"] = (traced_e2e[name] - e2e[name],
                                                           E2E_UNITS[name])
            per_layer["trace.spans"] = (len(tracer.start), "count")
            tracer.save(os.path.join(OUT_DIR, f"{tag}-spans.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for o in outcomes for f in o.failures]
    attempted = max(1, sum(o.attempted for o in outcomes))
    print("# end-to-end" + (" (untraced part of a traced run)" if args.trace else ""))
    for name, value in e2e.items():
        note = f"(median of {len(setups)})" if name == "setup_s" else ""
        _line(name, value, E2E_UNITS[name], note)
    print(f"# {args.workload} metrics")
    _line("failed_share", len(failures) / attempted, "failed/attempted",
          f"({len(failures)} of {attempted} ops and checks)")
    for name, value, unit, note in untraced.report:
        _line(name, value, unit, f"({note})")
    if per_layer:
        print("# per-layer (traced run, fixed work)")
        for name, (value, unit) in per_layer.items():
            _line(name, value, unit)
    for failure in failures:
        print(f"# FAILED: {failure}")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump({"environment": env, "args": vars(args), "result": result,
                   "end_to_end": e2e,
                   "report": [list(r) for r in untraced.report],
                   "samples": untraced.samples,
                   "failures": failures}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1
