"""One benchmark process: set up, run a workload's passes, check every output.

Started by ``run.py`` in a fresh interpreter.  It imports ``sdelab`` from
the checkout's ``src/``, parses and validates the workload's configs,
prints ``ready`` (the end of set-up), and then runs passes.  With
``--setup-only`` it stops after ``ready``.  The raw record goes to the
``--result`` file as JSON; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
import scipy  # noqa: E402
import sdelab  # noqa: E402
from sdelab.experiments import get_experiment, parse_config, run  # noqa: E402

import machine  # noqa: E402
import spans  # noqa: E402
from workloads import SEED_STRIDE, WORKLOADS  # noqa: E402

if Path(sdelab.__file__).resolve().parent != (ROOT / "src" / "sdelab").resolve():
    raise SystemExit(f"sdelab was imported from {sdelab.__file__}, not from {ROOT / 'src'}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sample_paths_problems(summary: dict) -> list[str]:
    """Terminal moments of ``sample-paths`` within 4 standard errors."""
    n = summary["n_paths"]
    sd = summary["terminal_std_target"]
    problems = []
    for key, se in (("terminal_mean", sd / math.sqrt(n)),
                    ("terminal_std", sd / math.sqrt(2.0 * (n - 1)))):
        z = (summary[key] - summary[f"{key}_target"]) / se
        if abs(z) > 4.0:
            problems.append(f"{key} is {z:+.2f} standard errors from its closed form")
    return problems


def run_operation(op, config, seed: int, out: Path, tracer=None) -> dict:
    """One ``run()`` call, timed, with its outputs checked against the manifest."""
    record = {"op": op.label, "seed": seed, "problems": []}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = run(config, seed=seed, out=out, threads=1)
        else:
            with tracer.span("experiments.run"):
                result = run(config, seed=seed, out=out, threads=1)
    except Exception as err:  # noqa: BLE001 - a raising operation is a failed one
        record["wall_s"] = time.perf_counter() - t0
        record["problems"].append(f"raised {type(err).__name__}: {err}")
        return record
    record["wall_s"] = time.perf_counter() - t0

    summary = result.outcome.summary
    problems = record["problems"]
    if result.status != 0:
        problems.append(f"status {result.status} (flags: {list(result.outcome.flags)})")
    if summary.get("within_tolerance") is False:
        problems.append("within_tolerance is false")
    if op.experiment == "sample-paths":
        problems.extend(_sample_paths_problems(summary))
    files = sorted(p for p in result.run_dir.iterdir() if p.is_file())
    for name, digest in result.manifest.outputs.items():
        if _sha256(result.run_dir / name) != digest:
            problems.append(f"{name} does not match its manifest.json SHA-256")
    if "result.json" not in result.manifest.outputs:
        problems.append("manifest.json lists no result.json")
    record["result_sha256"] = result.manifest.outputs.get("result.json")
    record["verdict"] = summary.get("within_tolerance")
    record["bytes_written"] = sum(p.stat().st_size for p in files)
    record["files_written"] = len(files)
    shutil.rmtree(result.run_dir)
    return record


def run_pass(seeded, out: Path, tracer=None) -> dict:
    stolen = machine.stolen_s()
    ops = [run_operation(op, config, seed, out, tracer)
           for op, config, seed in seeded]
    wall = sum(r["wall_s"] for r in ops)
    stolen = machine.stolen_s() - stolen
    return {"wall_s": wall, "stolen_s": stolen, "own_s": wall - stolen, "ops": ops}


def compare_hashes(reference: dict, other: dict, what: str) -> None:
    """Mark operations of ``other`` whose ``result.json`` differs from the
    same operation (same seed, so same bytes) in ``reference``."""
    digests = {op["op"]: op.get("result_sha256") for op in reference["ops"]}
    for op in other["ops"]:
        if op["op"] in digests and digests[op["op"]] != op.get("result_sha256"):
            op["problems"].append(f"result.json SHA-256 differs from the {what}")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sdelab": sdelab.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    seeded = []
    for op in workload.operations:
        base = get_experiment(op.experiment).default_seed if args.seed is None else args.seed
        text = json.dumps({"experiment": {"name": op.experiment},
                           "parameters": op.parameters})
        seeded.append((op, parse_config(text, source=op.label),
                       base + SEED_STRIDE * op.seed_index))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "passes": []}
    if args.trace == 0:
        # the first pass pays first-call costs (lazy imports, heap growth),
        # as a user's process does
        start = time.perf_counter()
        while True:
            record["passes"].append(run_pass(seeded, args.out))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["wall_s"] for p in record["passes"])
            if elapsed + typical > args.seconds:
                break
        for later in record["passes"][1:]:
            compare_hashes(record["passes"][0], later, "first pass")
    else:
        # one untimed operation per experiment first, so first-call costs
        # fall on neither side of trace.overhead_s
        warm = {}
        for op, config, seed in seeded:
            warm.setdefault(op.experiment, (op, config, seed))
        record["warm_up"] = run_pass(warm.values(), args.out)
        plain = run_pass(seeded, args.out)
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            traced = run_pass(seeded, args.out, tracer)
        finally:
            uninstall()
        compare_hashes(record["warm_up"], plain, "warm-up operation")
        compare_hashes(plain, traced, "untraced pass")
        record["passes"] = [plain, traced]
        missing = spans.missing_spans(tracer, workload.name)
        if missing:
            raise SystemExit(
                f"self-test failed: span(s) {', '.join(missing)} recorded no call "
                f"on {workload.name}; the wiring in perfbench/spans.py is stale")
        run_span = tracer.stats["experiments.run"].total_s
        execute_span = tracer.stats["experiments.execute"].total_s
        ops = traced["ops"]
        record["per_layer"] = spans.layer_metrics(
            tracer,
            write_s=run_span - execute_span,
            bytes_written=sum(r.get("bytes_written", 0) for r in ops),
            files_written=sum(r.get("files_written", 0) for r in ops),
            overhead_s=traced["own_s"] - plain["own_s"],
            probe_tail_us=spans.probe_mc_exit(8, 4096),
            probe_bulk_us=spans.probe_mc_exit(1000, 2048),
        )
        record["spans"] = {name: vars(st) for name, st in sorted(tracer.stats.items())}
        record["span_log"] = [s for s in tracer.spans if s is not None]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
