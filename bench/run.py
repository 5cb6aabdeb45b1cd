"""Benchmark of the lsubgroups library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/`` and ``samples/``.  One
client runs the workload's operations in a closed loop.  Every timed pass
runs in a fresh interpreter (``bench/passrun.py``), because the library
keeps enumeration and closure caches that a second pass in one process
would find warm.

With ``--trace 0`` a run makes as many passes as fit in ``--seconds`` on
the reference host (at least three).  Every pass runs the same operations
in the same order; each operation's latency is its median over the run's
passes.  From those: ``wall_s`` (the sum over one pass's operations),
``op_p50_ms`` (their median), ``op_tail_ms`` (the highest percentile, over
every sample of the run, with at least ten samples beyond it, where each
sample reads as its operation's latency), ``setup_s`` (process start to
the first operation, median of at least five set-ups) and ``peak_rss_mb``.
Every time is scaled to the reference host speed by the loop timed around
it (``hostspeed``), so a slow spell of the shared host does not read as a
slower program; the raw times go to the results file.  With ``--trace 1``
one untraced and one traced pass give the per-layer metrics.

The last line of standard output is the JSON result; a results file with
the run's metadata and details goes to ``bench/results/``.  Exits 2 without
a result when the checkout does not hold the library.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from hostspeed import reference_loop, scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SETUPS = 5
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# Seconds one pass takes, set-up included, on a 2-CPU x86 host with Python
# 3.11.  A run makes a fixed number of passes, --seconds over this, so both
# commits of a comparison time the same work and the tail percentile stands
# on the same number of samples however fast the code is.
NOMINAL_PASS_S = {"verify_suite": 1.8, "frattini_ladder": 3.4, "enum_ladder": 3.4, "cli_cold": 1.4}


def run_child(workload: str, seed: int, *flags: str) -> tuple[dict, float]:
    """One fresh-interpreter pass; returns its report and its scaled set-up time."""
    argv = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed), *flags]
    ref_before = reference_loop()
    started = time.monotonic()
    # a session of its own, so a pass that overruns is stopped with the CLI processes it started
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True) as child:
        try:
            stdout, _ = child.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    if child.returncode != 0:
        raise subprocess.CalledProcessError(child.returncode, argv)
    report = json.loads(stdout.decode().splitlines()[-1])
    return report, scaled(report["ready"] - started, ref_before, report["ready_ref_s"])


def op_latencies(passes: list[dict]) -> list[float]:
    """Each operation's scaled latency: its median over the passes."""
    return [
        statistics.median(scaled(r["ops"][i][1], *r["ops"][i][3:5]) for r in passes)
        for i in range(len(passes[0]["ops"]))
    ]


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank in percent."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(workload: str, seed: int, seconds: float) -> dict:
    passes, setups = [], []
    for _ in range(max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))):
        report, setup = run_child(workload, seed)
        passes.append(report)
        setups.append(setup)
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(workload, seed, "--setup-only")[1])
    failures = [[op[0], op[2]] for report in passes for op in report["ops"] if op[2]]
    latencies = op_latencies(passes)
    samples = [latency for latency in latencies for _ in passes]
    value, rank = tail(samples)
    wall = [sum(op[1] for op in report["ops"]) for report in passes]
    metrics = {
        "wall_s": (sum(latencies), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * value, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in passes) / 1024, "MB"),
    }
    details = {
        "passes": len(passes),
        "raw_pass_wall_s": wall,
        "setups_s": setups,
        "op_samples": len(samples),
        "op_latency_s": [[op[0], latency] for op, latency in zip(passes[0]["ops"], latencies)],
        "raw_op_s": [[op[0], [r["ops"][i][1] for r in passes]] for i, op in enumerate(passes[0]["ops"])],
        "reference_loop_s": [op[3] for r in passes for op in r["ops"]],
        "op_tail_rank_pct": rank,
        "failures": failures[:20],
        "info": passes[0]["info"],
    }
    if workload == "verify_suite":
        details["tally"] = layers.verify_tally(passes[0]["tally"])
    return {"metrics": metrics, "attempted": len(samples), "failed": len(failures), "details": details}


def measure_traced(workload: str, seed: int) -> dict:
    plain, _ = run_child(workload, seed)
    traced, _ = run_child(workload, seed, "--trace")
    plain_wall = sum(op_latencies([plain]))
    traced_wall = sum(op_latencies([traced]))
    failures = [[op[0], op[2]] for r in (plain, traced) for op in r["ops"] if op[2]]
    metrics = layers.per_layer(traced, root=ROOT)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    details = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "tree": traced["trace"]["tree"],
        "spans": traced["trace"]["spans"],
        "failures": failures[:20],
    }
    return {"metrics": metrics, "attempted": len(plain["ops"]) + len(traced["ops"]),
            "failed": len(failures), "details": details}


def metadata(workload: str, seed: int, trace: bool) -> dict:
    src = ROOT / "src"
    lines = sum(
        1 for path in sorted(src.rglob("*.py")) for line in path.read_text().splitlines() if line.strip()
    )
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "workload": workload, "seed": seed, "trace": trace, "git_sha": sha, "src_lines": lines,
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lsubgroups" / "__init__.py").is_file():
        print(f"error: no lsubgroups package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            outcome = measure_traced(args.workload, args.seed)
        else:
            outcome = measure(args.workload, args.seed, args.seconds)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: a benchmark pass did not complete: {exc}", file=sys.stderr)
        return 1
    results = {
        "meta": metadata(args.workload, args.seed, bool(args.trace)),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in outcome["metrics"].items()},
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "details": outcome["details"],
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(results))
    details = outcome["details"]
    if "op_tail_rank_pct" in details:
        print(f"op_tail_ms is the p{details['op_tail_rank_pct']:.1f} of {details['op_samples']} samples"
              f" over {details['passes']} passes")
    for rejected in details.get("info", {}).get("rejected", []):
        print(f"turned away {rejected['instance']}: candidate_space_size {rejected['candidate_space_size']}")
    for label, failure in details["failures"]:
        print(f"FAILED {label}: {failure}")
    print(f"results in {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
