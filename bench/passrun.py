"""One pass of one workload, in the fresh interpreter that runs this file.

    python3 bench/passrun.py --workload NAME --seed N [--trace] [--setup-only]
    python3 bench/passrun.py --cli-one ARGV...

Prints one JSON line: the monotonic clock reading when set-up ended and
the host's reference-loop time right then, each operation's label, latency,
failure (if any) and the reference-loop times just before and just after
it (see ``hostspeed``), the peak resident memory, and with ``--trace`` the
trace.  ``--cli-one`` runs one CLI command line
in-process under the tracer and prints its exit code, stdout and trace.
Run by ``bench/run.py``, which keeps every timed pass in a fresh process so
no pass reads a cache that an earlier one warmed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from hostspeed import reference_loop  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_kb(workload: str) -> int:
    # cli_cold's operations run in child processes, the others in this one
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def merge_trace(into: dict, part: dict) -> None:
    tree = {tuple(path): node for path, *node in into["tree"]}
    for path, *node in part["tree"]:
        have = tree.setdefault(tuple(path), [0, 0.0, 0.0])
        for i, value in enumerate(node):
            have[i] += value
    into["tree"] = [[list(path), *node] for path, node in tree.items()]
    for key, value in part["counters"].items():
        into["counters"][key] = into["counters"].get(key, 0) + value


def traced_cli_runner(trace: dict):
    def run(argv: list[str]) -> tuple[int, bytes]:
        done = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), "--cli-one", *argv],
            cwd=ROOT, env=workloads.cli_env(ROOT), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=120, check=True,
        )
        out = json.loads(done.stdout.decode().splitlines()[-1])
        merge_trace(trace, out["trace"])
        trace["commands"].append([argv[0], out["main_s"]])
        return out["code"], out["stdout"].encode()

    return run


def cli_one(argv: list[str]) -> None:
    cli = workloads.module("cli")
    tracer = Tracer().install()
    buffer = io.StringIO()
    try:
        with tracer.span("bench.op"), contextlib.redirect_stdout(buffer):
            start = time.perf_counter()
            code = cli.main(argv)
            main_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    print(json.dumps({"code": code, "stdout": buffer.getvalue(), "main_s": main_s,
                      "trace": tracer.export()}))


def run_pass(name: str, seed: int, trace: bool, setup_only: bool) -> dict:
    tracer = None
    cli_trace = {"tree": [], "counters": {}, "commands": []}
    if trace:
        for layer in LAYERS:
            workloads.module(layer)
        tracer = Tracer().install()
    setup = tracer.span("bench.setup") if tracer else contextlib.nullcontext()
    with setup:
        plan = workloads.prepare(
            name, seed, ROOT,
            span=tracer.span if tracer else None,
            cli_runner=traced_cli_runner(cli_trace) if trace and name == "cli_cold" else None,
        )
    ready = time.monotonic()
    result = {"ready": ready, "ready_ref_s": reference_loop(), "ops": [], "info": plan.info}
    if setup_only:
        return result
    for op in plan.ops:
        ref_before = reference_loop()
        start = time.perf_counter()
        try:
            if tracer:
                with tracer.span("bench.op"):
                    out = op.run()
            else:
                out = op.run()
        except Exception as exc:
            elapsed = time.perf_counter() - start
            ref_after = reference_loop()
            failure = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            ref_after = reference_loop()
            failure = op.check(out)
            if name == "verify_suite":
                result.setdefault("tally", []).append(out)
            del out  # so the next operation's peak memory does not include this result
        result["ops"].append([op.label, elapsed, failure, ref_before, ref_after])
    result["peak_rss_kb"] = _peak_rss_kb(name)
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.export()
        if name == "cli_cold":
            merge_trace(result["trace"], cli_trace)
            result["trace"]["commands"] = cli_trace["commands"]
    return result


def main() -> int:
    if sys.argv[1:2] == ["--cli-one"]:
        cli_one(sys.argv[2:])
        return 0
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, args.trace, args.setup_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
