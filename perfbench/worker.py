"""One benchmark process: import ``sdidml``, set up one workload, time it.

``run.py`` starts this script, once per set-up measurement. The script
imports ``sdidml`` from the checkout, generates the workload's inputs from
the seed, warms up, and writes ``ready`` on standard output; the parent
times set-up from process start to that line. A set-up-only process then
exits. The measuring process runs the workload's operation, through
``sdidml.cli.main``, until ``--seconds`` have passed, checks every
operation's output, and writes everything it measured to ``--result`` as
JSON. Untraced runs also run the Monte Carlo quality gate after the timed
loop; traced runs alternate traced and untraced operations.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import GATE, WORKLOADS  # noqa: E402


# -- provenance -------------------------------------------------------------------


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


# -- operations -------------------------------------------------------------------------


class Runner:
    """Runs ``sdidml.cli.main`` in-process with its console output discarded."""

    def __init__(self, cli, sink):
        self.cli = cli
        self.sink = sink

    def __call__(self, argv):
        """Exit code of the command; -1 if it raised instead of returning one."""
        try:
            with contextlib.redirect_stdout(self.sink):
                return self.cli.main(list(argv))
        except Exception:  # a crash is a failed operation, reported with its traceback
            traceback.print_exc()
            return -1

    def timed(self, argv):
        start = time.perf_counter()
        code = self(argv)
        return time.perf_counter() - start, code


def gate_key():
    """Hash of everything the gate's result depends on: code, settings, versions."""
    import numpy
    import scipy
    sdidml_dir = Path(importlib.import_module("sdidml").__file__).parent
    digest = hashlib.sha256(json.dumps(
        [GATE, sys.version, numpy.__version__, scipy.__version__,
         os.environ.get("OPENBLAS_NUM_THREADS")]).encode())
    for path in sorted(sdidml_dir.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_gate(cache_dir):
    """The ROADMAP coverage gate with a fixed seed, for the sdidml method.

    This is the study ``sdidml benchmark`` runs, without the TWFE comparator.
    Its result is a deterministic function of the code and the versions, so
    it is computed once per checkout and kept under ``cache_dir``, keyed by
    a hash of both.
    """
    cache = Path(cache_dir) / f"gate-{gate_key()[:20]}.json"
    if cache.is_file():
        with open(cache, encoding="utf-8") as fh:
            return dict(json.load(fh), cached=True)
    simulate = importlib.import_module("sdidml.simulate")
    pipeline = importlib.import_module("sdidml.pipeline")
    config = pipeline.PipelineConfig(bootstrap_reps=GATE["B"], bootstrap_mode=GATE["mode"],
                                     ci_level=GATE["ci_level"], seed=GATE["seed"])
    try:
        res = simulate.monte_carlo(simulate.scenario(GATE["scenario"]), config,
                                   GATE["reps"], GATE["seed"])
    except Exception:  # a program failure makes the run incorrect, not the benchmark
        traceback.print_exc()
        return {"ok": False}
    ok = (res.coverage is not None and math.isfinite(res.bias) and math.isfinite(res.rmse)
          and res.rmse <= GATE["max_rmse"] and res.coverage >= GATE["min_coverage"])
    gate = {"ok": ok, "bias": res.bias, "rmse": res.rmse, "coverage": res.coverage}
    partial = cache.with_suffix(f".{os.getpid()}.tmp")
    with open(partial, "w", encoding="utf-8") as fh:
        json.dump(gate, fh)
    os.replace(partial, cache)
    return dict(gate, cached=False)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import sdidml
    import_s = time.perf_counter() - start
    from sdidml import cli

    workdir = Path(args.workdir)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]
    with open(os.devnull, "w", encoding="utf-8") as sink:
        runner = Runner(cli, sink)
        inp = workload.prepare(args.seed, workdir)
        workload.warm_up(runner, workdir)
        print("ready", flush=True)
        result = {"import_s": import_s, "sdidml_file": sdidml.__file__}
        if not args.setup_only:
            result.update(measure(args, workload, inp, runner, tracer, workdir))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


def measure(args, workload, inp, runner, tracer, workdir):
    traced_s, untraced_s, checks = [], [], []
    start = time.perf_counter()
    i = 0
    # A traced run needs at least one traced and one untraced operation.
    while time.perf_counter() - start < args.seconds or (tracer and i < 2):
        traced = tracer is not None and i % 2 == 0
        if tracer is not None:
            if traced:
                tracer.install()
                tracer.recorder.phase = "op"
            else:
                tracer.uninstall()
        outdir = workdir / "out"
        duration, code = runner.timed(workload.op_argv(inp, workdir, outdir))
        (traced_s if traced else untraced_s).append(duration)
        if tracer is not None:
            tracer.recorder.phase = "check"
        checks.append(workload.check(runner, inp, outdir, code))
        i += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"untraced_s": untraced_s, "traced_s": traced_s, "checks": checks,
           "peak_rss_mb": rss_mb, "input": inp, "environment": environment()}
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = {"op": tracer.recorder.snapshot("op"),
                        "setup": tracer.recorder.snapshot("setup")}
    else:
        out["gate"] = run_gate(args.cache_dir)
    return out


if __name__ == "__main__":
    sys.exit(main())
