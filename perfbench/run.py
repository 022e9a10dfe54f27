"""sdelab benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload metastable-exit [--seed N]
        [--seconds S] [--trace 0|1]

Workloads are defined in ``workloads.py`` and explained in ``NOTES.md``.
Each run starts a fresh worker process (``worker.py``) that imports
``sdelab`` from ``src/`` and drives ``sdelab.experiments.run`` with
``threads=1``.  ``--trace 0`` runs passes over the workload for about
``--seconds`` seconds and reports ``wall_s``, ``setup_s`` and
``peak_rss_mb``, times net of the CPU time the hypervisor stole
meanwhile; ``--trace 1`` runs an untimed warm-up operation per
experiment, one untraced and one traced pass and the fixed ``mc_exit``
probes, and reports the per-layer metrics.
Every operation's outputs are checked; ``fail_ratio`` is printed in the
summary table and carried by ``failed``/``attempted``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record, with the environment, goes
to ``perfbench/out/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is measured in this many fresh processes per run (the worker
# itself is the last one), and the median is reported.
SETUP_SAMPLES = 3
# Everything, set-up included, must end well inside three minutes.
DEADLINE_S = 170.0
# One BLAS thread: on a few shared cores extra BLAS threads only add
# noise, and thread scaling is out of scope (NOTES.md).
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not an operation failure)."""


def _start_worker(args, result: Path | None, start: float, setup_only: bool):
    """Start a worker and wait for its ``ready`` line; returns (process, set-up s)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT / f"runs-{os.getpid()}")]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if result is not None:
        cmd += ["--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    stolen, t0 = machine.stolen_s(), time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **WORKER_ENV})
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0 - (machine.stolen_s() - stolen)
    if line.strip() != "ready":
        _finish(proc, start)
        raise BenchmarkError(f"worker did not get ready (said {line!r})")
    return proc, setup


def _finish(proc, start: float) -> int:
    """Wait for ``proc`` within the deadline; kill it and wait if it overruns."""
    try:
        proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("worker overran the deadline and was stopped") from None
    return proc.returncode


def _git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of every file under ``src/``, so runs outside git are traceable."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(args) -> tuple[dict, dict]:
    """Run set-up probes and the worker; returns (summary, full record)."""
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = _start_worker(args, None, start, setup_only=True)
        if _finish(proc, start) != 0:
            raise BenchmarkError("set-up probe failed")
        setups.append(setup)

    result = OUT / f"worker-{os.getpid()}.json"
    try:
        proc, setup = _start_worker(args, result, start, setup_only=False)
        setups.append(setup)
        if _finish(proc, start) != 0:
            raise BenchmarkError(f"worker exited with status {proc.returncode}")
        record = json.loads(result.read_text(encoding="utf-8"))
    finally:
        result.unlink(missing_ok=True)
        shutil.rmtree(OUT / f"runs-{os.getpid()}", ignore_errors=True)

    passes = [record["warm_up"], *record["passes"]] if "warm_up" in record else record["passes"]
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if op["problems"])
    if args.trace:
        values = record["per_layer"]
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": statistics.median(p["own_s"] for p in record["passes"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        units = E2E_UNITS
    record["environment"]["git_sha"] = _git_sha()
    record["environment"]["src_sha256"] = _source_sha256()
    record["setup_samples_s"] = setups
    summary = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record["summary"] = summary
    return summary, record


def _report(summary: dict, record: dict) -> None:
    env = record["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    named = [(f"pass {i}", p) for i, p in enumerate(record["passes"])]
    if "warm_up" in record:
        named.insert(0, ("warm-up", record["warm_up"]))
    for name, p in named:
        for op in p["ops"]:
            status = "; ".join(op["problems"]) or "ok"
            print(f"{name:<8} {op['op']:<32} seed {op['seed']:<8} "
                  f"{op['wall_s']:8.3f} s  {status}")
        print(f"{name:<8} wall {p['wall_s']:.3f} s, stolen by the host "
              f"{p['stolen_s']:.3f} s, own {p['own_s']:.3f} s")
    print(f"{'fail_ratio':<48} {summary['failed'] / summary['attempted']:.6g} "
          f"({summary['failed']}/{summary['attempted']})")
    for name, m in summary["metrics"].items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="sdelab benchmark (see perfbench/NOTES.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="experiment seed (default: the registry seed)")
    parser.add_argument("--seconds", type=int, default=10,
                        help="how long the untraced passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sdelab" / "__init__.py").is_file():
        print(f"error: no sdelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary, record = measure(args)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _report(summary, record)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
