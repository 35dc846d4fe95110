"""adret benchmark: end-to-end metrics, or per-layer metrics from spans.

    python3 perfbench/run.py --workload desk-adpool --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` the same workload
runs once untraced and once traced, and the line holds the per-layer metrics.
The environment, checks, digests and spans go to ``.perfbench_out/``.
"""

import os

# BLAS threads are fixed before numpy loads; the value is recorded with
# every result. One thread keeps runs steady on a small shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BENCHMARK = ROOT / "BENCHMARK.json"

# per-layer metrics whose span has another name in tracing.summarize's output
RENAMED = {
    "training.steps": "training.adam.calls",
    "training.self_s": "training.train.self_s",
}


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_adret():
    """Import adret from this checkout's src/, never from anywhere else."""
    if not (SRC / "adret" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no adret sources under {SRC}; run from "
                         "the root of a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import adret
    if Path(adret.__file__).resolve().parent != (SRC / "adret").resolve():
        raise SystemExit(f"perfbench: imported adret from {adret.__file__}, "
                         f"not from {SRC}")


def code_id() -> str:
    """Digest of the package and benchmark sources: the identity of a commit
    for the determinism record, with or without git."""
    h = hashlib.sha256()
    for path in sorted(list((SRC / "adret").glob("*.py")) + list(HERE.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD read from .git without running git (the checkout may not be one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "code_id": code_id(),
        "seed": seed,
    }


def check_digest_store(ledger, key: str, digests: dict, path: Path) -> None:
    """Runs of one commit (code id) and seed must produce the same digests."""
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    if key in store:
        ledger.check("determinism.across_runs", store[key] == digests,
                     f"digests {digests} differ from an earlier run's {store[key]}")
        return
    store[key] = digests
    tmp = path.with_suffix(".part")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)


def run(workload: str, seed: int, seconds: float, trace: bool,
        spec=None, out_dir: Path = OUT) -> dict:
    """Run one workload and return the result object printed last."""
    import speed
    import tracing
    import workloads as wl

    spec = spec or wl.WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = str(out_dir / f"work-{workload}")
    ledger = wl.Ledger()
    env = environment(seed)
    probe = speed.SpeedProbe()
    base = wl.run(spec, seed, seconds, ledger, work_dir, probe)
    check_digest_store(ledger, f"{env['code_id']}:{spec}:{seed}", base.digests,
                       out_dir / "digests.json")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": env, "digests": base.digests,
              "samples_at_reference_s": base.samples, "samples_wall_s": base.wall,
              "probe_kernels": speed.KERNELS, "probe_factors": base.probe_factors}
    units = metric_units("per_layer" if trace else "end_to_end")
    if not trace:
        # Times are medians of samples in seconds at the speed probe's
        # reference speed (speed.py): a shared machine's speed drifts by up
        # to 1.8x for minutes, and wall-clock medians would follow it. The
        # wall-clock samples are kept in the result file.
        values = {
            "setup_s": statistics.median(base.samples["setup_s"]),
            "epoch_s": statistics.median(base.samples["epoch_s"]),
            "eval_s": statistics.median(base.samples["eval_s"]),
            "rsum": base.rsum,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: values[name] for name in units}
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = wl.run(replace(spec, setups=1, eval_repeats=1), seed, 0,
                            ledger, work_dir, probe, tracer)
        finally:
            tracer.uninstall()
        ledger.check("determinism.traced_matches_untraced",
                     traced.digests == base.digests,
                     f"traced {traced.digests} != untraced {base.digests}")
        summary = tracing.summarize(tracer)
        tracer.save(str(out_dir / f"spans-{workload}.npz"))
        k_n = summary.get("objectives.k_n", 0)
        summary["objectives.k_mean"] = summary.get("objectives.k_sum", 0) / k_n if k_n else 0.0
        summary["trace.overhead_frac"] = (traced.samples["unit_s"][0]
                                          / statistics.median(base.samples["unit_s"]) - 1.0)
        metrics = {name: summary.get(RENAMED.get(name, name), 0) for name in units}
        record["traced_samples_at_reference_s"] = traced.samples
    record["checks"] = ledger.checks
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record["result"] = result
    (out_dir / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps({"environment": env}, sort_keys=True))
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    _import_adret()
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
