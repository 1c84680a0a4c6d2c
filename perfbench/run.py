"""Benchmark of the ``sdidml`` command line; see perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload s3-full --seed 1 --seconds 15 --trace 0

The script starts ``worker.py`` three times. Each worker imports
``sdidml`` from ``src/``, generates the workload's inputs from the seed and
warms up; the time from process start to the end of that set-up is one
``setup_s`` sample. The first two workers stop there; the last one times
the workload for ``--seconds`` seconds and checks every output. With
``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run. The
full record of the run, with input hashes and versions, is written under
``.perfbench_run/results/``. The exit code is 0 when the benchmark ran,
whether or not the program's outputs were correct, and 1 or 2 when the
benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import GATE, WORKLOADS  # noqa: E402

SETUPS = 3
# Import-only processes, half before and half after the workers, on top of
# the import each set-up makes.
EXTRA_IMPORTS = 4
# With two BLAS threads on a shared two-core machine every matrix product
# waits for the slower core, which made run times spread three times wider.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
# Every child is killed once the run has lasted this long, so that a hung
# program cannot keep a run going past three minutes.
RUN_LIMIT_S = 170

# Per-layer metrics: (metric, span name or prefix ending in ".", field).
# Values are per traced operation.
PER_LAYER = [
    ("panel.read_panel_csv.s", "panel.read_panel_csv", "busy_s"),
    ("panel.read_panel_csv.calls", "panel.read_panel_csv", "calls"),
    ("panel.subset_units.s", "panel.subset_units", "busy_s"),
    ("panel.subset_units.calls", "panel.subset_units", "calls"),
    ("panel.PanelDataset.s", "panel.PanelDataset", "busy_s"),
    ("panel.PanelDataset.calls", "panel.PanelDataset", "calls"),
    ("learners.fit.logistic.s", "learners.fit.logistic", "busy_s"),
    ("learners.fit.logistic.calls", "learners.fit.logistic", "calls"),
    ("learners.fit.logistic.iters", "learners.fit.logistic", "iters"),
    ("learners.fit.ridge.s", "learners.fit.ridge", "busy_s"),
    ("learners.fit.ridge.calls", "learners.fit.ridge", "calls"),
    ("learners.fit.nonconverged", "learners.fit.", "nonconverged"),
    ("learners.predict.s", "learners.predict", "busy_s"),
    ("crossfit.crossfit_nuisance.s", "crossfit.crossfit_nuisance", "busy_s"),
    ("crossfit.crossfit_nuisance.calls", "crossfit.crossfit_nuisance", "calls"),
    ("crossfit.crossfit_nuisance.self_s", "crossfit.crossfit_nuisance", "self_s"),
    ("didcore.group_time_cells.s", "didcore.group_time_cells", "busy_s"),
    ("didcore.group_time_cells.calls", "didcore.group_time_cells", "calls"),
    ("didcore.estimate_group_time.s", "didcore.estimate_group_time", "busy_s"),
    ("didcore.estimate_group_time.calls", "didcore.estimate_group_time", "calls"),
    ("didcore.twfe_baseline.s", "didcore.twfe_baseline", "busy_s"),
    ("aggregate.bootstrap.full.s", "aggregate.bootstrap.full", "busy_s"),
    ("aggregate.bootstrap.fixed_nuisance.s", "aggregate.bootstrap.fixed_nuisance", "busy_s"),
    ("aggregate.bootstrap.replicates", "aggregate.bootstrap.", "replicates"),
    ("aggregate.bootstrap.failed", "aggregate.bootstrap.", "failed"),
    ("aggregate.bootstrap.self_s", "aggregate.bootstrap.", "self_s"),
    ("aggregate.placebo_test.s", "aggregate.placebo_test", "busy_s"),
    ("aggregate.placebo_test.self_s", "aggregate.placebo_test", "self_s"),
    ("aggregate.pretrend_test.s", "aggregate.pretrend_test", "busy_s"),
    ("aggregate.aggregate_schemes.s", "aggregate.aggregate_schemes", "busy_s"),
    ("pipeline.estimate_effects.s", "pipeline.estimate_effects", "busy_s"),
    ("pipeline.estimate_effects.calls", "pipeline.estimate_effects", "calls"),
    ("simulate.generate.s", "simulate.generate", "busy_s"),
    ("simulate.generate.calls", "simulate.generate", "calls"),
    ("cli.self_s", "cli.", "self_s"),
]


class BenchmarkError(Exception):
    """The benchmark itself could not run or could not be trusted."""


def span_total(spans, name, field):
    if name.endswith("."):
        return sum(s.get(field, 0) for key, s in spans.items() if key.startswith(name))
    return spans.get(name, {}).get(field, 0)


def child_env(root):
    env = dict(os.environ, **ONE_BLAS_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def import_time(root, deadline):
    """Seconds a fresh interpreter takes to ``import sdidml``."""
    code = "import time; t = time.perf_counter(); import sdidml; print(time.perf_counter() - t)"
    timeout = max(1.0, deadline - time.monotonic())
    try:
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             cwd=root, env=child_env(root), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("import sdidml timed out") from None
    if out.returncode != 0:
        raise BenchmarkError(f"import sdidml failed:\n{out.stderr}")
    return float(out.stdout)


def spawn(root, args, workdir, result, cache_dir, setup_only, deadline):
    """Start one worker; return the seconds from start until it reported ready."""
    env = child_env(root)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--result", str(result), "--cache-dir", str(cache_dir)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=root, env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchmarkError(f"worker exited {code} (killed after {timeout:.0f} s "
                             f"if negative); see its standard error above")
    with open(result, encoding="utf-8") as fh:
        return setup_s, json.load(fh)


def end_to_end(setups, imports, last):
    checks = last["checks"]
    gate = last["gate"]
    return {
        "run_s": statistics.median(last["untraced_s"]),
        "setup_s": statistics.median(setups),
        "import_s": statistics.median(imports),
        "peak_rss_mb": last["peak_rss_mb"],
        "ok_share": sum(c["ok"] for c in checks) / len(checks),
        # None only when the gate failed, which also makes the run incorrect.
        "mc_bias_abs": None if gate.get("bias") is None else abs(gate["bias"]),
        "mc_rmse": gate.get("rmse"),
        "mc_coverage": gate.get("coverage"),
    }


def per_layer(last, workload):
    spans = last["spans"]["op"]
    n_ops = len(last["traced_s"])
    silent = [name for name in workload.spans if span_total(spans, name, "calls") == 0]
    if silent:
        raise BenchmarkError(f"predicted spans did not fire: {silent}")
    metrics = {m: span_total(spans, name, field) / n_ops for m, name, field in PER_LAYER}
    metrics["simulate.generate.setup_s"] = span_total(
        last["spans"]["setup"], "simulate.generate", "busy_s")
    metrics["trace_overhead_s"] = (statistics.median(last["traced_s"])
                                   - statistics.median(last["untraced_s"]))
    return metrics


def declared_units(metrics, spec, trace):
    """Units from BENCHMARK.json; fails unless it lists exactly these metrics."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(declared) != set(metrics):
        raise BenchmarkError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}")
    return declared


def run(args, root):
    deadline = time.monotonic() + RUN_LIMIT_S
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "sdidml" / "__init__.py").is_file() or not spec_path.is_file():
        raise BenchmarkError(f"{root} is not a checkout of the repository "
                             "(no src/sdidml or BENCHMARK.json)")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    # Byte-compile first, as an install would, so no set-up sample pays for it.
    compileall.compile_dir(str(root / "src"), quiet=1)
    base = root / ".perfbench_run"
    (base / "results").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        imports = [import_time(root, deadline) for _ in range(EXTRA_IMPORTS // 2)]
        setups = []
        for k in range(SETUPS):
            setup_s, last = spawn(root, args, tmp / f"w{k}", tmp / f"w{k}.json", base,
                                  setup_only=k < SETUPS - 1, deadline=deadline)
            setups.append(setup_s)
            imports.append(last["import_s"])
        imports += [import_time(root, deadline)
                    for _ in range(EXTRA_IMPORTS - EXTRA_IMPORTS // 2)]
    finally:
        shutil.rmtree(tmp)

    checks = last["checks"]
    failed = sum(not c["ok"] for c in checks)
    if args.trace:
        metrics = per_layer(last, workload)
        correct = failed == 0
    else:
        metrics = end_to_end(setups, imports, last)
        correct = failed == 0 and last["gate"]["ok"]
    units = declared_units(metrics, spec, args.trace)
    record = {**last, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "setup_s": setups,
              "import_s": imports, "gate_settings": GATE}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(base / "results" / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"provenance": {"environment": last["environment"],
                                     "input": last["input"],
                                     "record": f".perfbench_run/results/{name}"}}))
    return {"correct": correct, "attempted": len(checks), "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result = run(args, Path.cwd())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
