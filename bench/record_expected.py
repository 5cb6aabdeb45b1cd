"""Record the outputs the benchmark checks against, into ``bench/expected/``.

    python3 bench/record_expected.py

Records the CLI stdout of every cli_cold command line, and a digest of
every ladder operation's result.  Ladder digests are read back through the
seed's automorphism, so one record serves every seed.  The records hold
the behaviour of the commit they were made at; re-record only when a
change of behaviour is intended, never to make a failing check pass.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    out = workloads.EXPECTED
    out.mkdir(exist_ok=True)
    cli = {}
    for argv, code in workloads.CLI_COMMANDS:
        got, stdout = workloads.run_cli(ROOT, argv)
        if got != code:
            print(f"{' '.join(argv)}: exit {got}, expected {code}", file=sys.stderr)
            return 1
        cli[workloads.cli_key(argv)] = stdout.decode()
    (out / "cli_cold.json").write_text(json.dumps(cli, indent=1, sort_keys=True) + "\n")

    for kind in ("frattini_ladder", "enum_ladder"):
        admitted, _ = workloads.build_ladder(kind, 0)
        digests = {}
        for label, mu, back in admitted:
            if kind == "frattini_ladder":
                _, report = workloads.run_frattini(mu)
                digests[label] = workloads.frattini_digest(report, back)
            else:
                _, members, maximals = workloads.run_enum(mu)
                digests[label] = workloads.enum_digest(members, maximals, back)
        (out / f"{kind}.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"{kind}: {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
