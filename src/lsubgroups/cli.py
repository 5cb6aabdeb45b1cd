"""Command line front end.

Reads lattice/group/L-subset JSON documents, dispatches to the library and
prints human tables, canonical JSON, or DOT diagrams.  Exit codes: 0 on
success, 1 when a verification run reports failures, 2 on parse or
cross-validation errors (``--trials`` below 1 and ``--budget`` below 0
among them), 3 when a search budget is exceeded, and 141 (128 + SIGPIPE,
as a shell reports a process killed by a broken pipe) when the reader of
standard output goes away first, as in ``lsubgroups verify | head``.

Importing this module loads only ``lsubgroups.errors``.  Each command
imports the layers it runs when it runs, so ``hasse -l`` loads only the
lattice layer and only ``frattini`` and ``nongen`` load every layer.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import DEFAULT_BUDGET, DocumentError, InstanceTooLargeError, LSubgroupsError
from .errors import NotAnLSubgroupError

if TYPE_CHECKING:
    from .groups import FiniteGroup
    from .lattice import FiniteLattice
    from .lsets import LSubset

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise DocumentError(f"no such file: {path}")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: {exc}")
    except ValueError:  # json.load met an integer past the digit limit of int()
        raise DocumentError(f"{path}: holds an integer longer than {sys.get_int_max_str_digits():,} digits")
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply to read")


class Workspace:
    """Parsed and cross-validated documents for one invocation."""

    def __init__(self, args):
        self.args = args
        self._lattice: FiniteLattice | None = None
        self._group: FiniteGroup | None = None
        self._subsets: dict[str, LSubset] = {}

    def lattice(self) -> FiniteLattice:
        if self._lattice is None:
            if not self.args.lattice:
                raise DocumentError("this command needs a lattice document (-l)")
            from .lattice import lattice_from_document

            self._lattice = lattice_from_document(_load_json(self.args.lattice))
        return self._lattice

    def group(self) -> FiniteGroup:
        if self._group is None:
            if not self.args.group:
                raise DocumentError("this command needs a group document (-g)")
            from .groups import group_from_document

            self._group = group_from_document(_load_json(self.args.group))
        return self._group

    def subset(self, path: str | None = None) -> LSubset:
        path = path or self.args.subset
        if not path:
            raise DocumentError("this command needs an L-subset document (-s)")
        if path not in self._subsets:
            from .lsets import l_subset_from_document

            self._subsets[path] = l_subset_from_document(_load_json(path), self.group(), self.lattice())
        return self._subsets[path]


def _parent(ws: Workspace) -> LSubset:
    """The -s document of a command that needs it to be an L-subgroup."""
    from .lsets import is_l_subgroup

    mu = ws.subset()
    if not is_l_subgroup(mu):
        raise NotAnLSubgroupError("the parent L-subset (-s) is not an L-subgroup")
    return mu


def _value_table(title: str, subset: LSubset) -> str:
    lines = [title]
    width = max(len(x) for x in subset.group.elements)
    for x in subset.group.elements:
        lines.append(f"  {x:<{width}}  ->  {subset.value(x)}")
    return "\n".join(lines)


def _emit(args, payload: dict, table: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        print(table)


def _cmd_validate(ws: Workspace, args) -> int:
    payload: dict = {}
    lines = []
    if args.lattice:
        lat = ws.lattice()
        payload["lattice"] = {
            "elements": len(lat),
            "top": lat.top,
            "bottom": lat.bottom,
            "chain": lat.is_chain(),
            "distributive": lat.distributive,
        }
        lines.append(
            f"lattice: {len(lat)} elements, top={lat.top}, bottom={lat.bottom}, "
            f"chain={lat.is_chain()}, distributive={lat.distributive}"
        )
    if args.group:
        grp = ws.group()
        payload["group"] = {"order": len(grp), "identity": grp.identity}
        lines.append(f"group: order {len(grp)}, identity {grp.identity}")
    if args.subset:
        from .lsets import is_l_subgroup

        sub = ws.subset()
        ok = is_l_subgroup(sub)
        payload["subset"] = {
            "l_subgroup": ok,
            "tip": sub.tip(),
            "tail": sub.tail(),
            "values": sub.values(),
        }
        lines.append(f"subset: L-subgroup={ok}, tip={sub.tip()}, tail={sub.tail()}")
    if args.subset2:
        if not args.subset:
            raise DocumentError("-s2 needs a first L-subset to compare against")
        from .lsets import contains, is_l_subgroup, is_l_subgroup_of, is_proper_l_subgroup

        sub = ws.subset()
        second = ws.subset(args.subset2)
        member = is_l_subgroup_of(second, sub)
        payload["subset2"] = {
            "l_subgroup": is_l_subgroup(second),
            "contained_in_first": contains(sub, second),
            "member_of_first": member,
            "proper_member": is_proper_l_subgroup(second, sub),
        }
        lines.append(
            f"subset2: contained={payload['subset2']['contained_in_first']}, "
            f"member of L(first)={member}, proper={payload['subset2']['proper_member']}"
        )
    if not payload:
        raise DocumentError("nothing to validate; pass -l, -g and/or -s")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_levels(ws: Workspace, args) -> int:
    sub = ws.subset()
    lat = ws.lattice()
    levels = {a: sorted(sub.level(a), key=ws.group().index) for a in lat.elements}
    payload = {"levels": levels}
    lines = ["level subsets"]
    for a in lat.elements:
        members = ", ".join(levels[a]) or "(empty)"
        lines.append(f"  {a}: {{{members}}}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_generate(ws: Workspace, args) -> int:
    from .lsets import generate

    sub = ws.subset()
    gen = generate(sub)
    _emit(args, gen.as_document(), _value_table("generated L-subgroup", gen))
    return EXIT_OK


def _cmd_maximals(ws: Workspace, args) -> int:
    from .maximal import is_maximal, level_profile, maximal_l_subgroups, tip_relation

    mu = _parent(ws)
    maximals = maximal_l_subgroups(mu, budget=args.budget)
    payload = {"count": len(maximals), "maximals": []}
    lines = [f"{len(maximals)} maximal L-subgroup(s)"]
    for i, m in enumerate(maximals):
        profile = level_profile(m, mu)
        entry = {
            "values": m.values(),
            "tip_relation": tip_relation(m, mu, budget=args.budget).value,
            "defect_level": profile.unique_defect_level,
            "levels": {a: rel.value for a, rel in profile.witness_levels},
            "verdict": is_maximal(m, mu, budget=args.budget).maximal,
        }
        payload["maximals"].append(entry)
        lines.append(_value_table(f"[{i}] tip_relation={entry['tip_relation']} defect={entry['defect_level']}", m))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_frattini(ws: Workspace, args) -> int:
    from .frattini import frattini

    mu = _parent(ws)
    report = frattini(mu, budget=args.budget)
    table = "\n".join(
        [
            _value_table("Frattini L-subgroup", report.phi),
            f"maximal count: {report.maximal_count}",
            f"used fallback: {report.used_fallback}",
            f"non-generator subgroup equals it: {report.equality_holds}",
        ]
    )
    _emit(args, report.as_document(), table)
    return EXIT_OK


def _cmd_nongen(ws: Workspace, args) -> int:
    from .frattini import non_generator_subgroup

    mu = _parent(ws)
    lam = non_generator_subgroup(mu, budget=args.budget)
    lat = mu.lattice
    verdicts = {}
    for x in mu.group.elements:
        for a in lat.down_set(mu.value(x)):
            verdicts[f"{a}@{x}"] = lat.leq(a, lam.value(x))
    payload = {"lambda": lam.values(), "points": verdicts}
    lines = [_value_table("non-generator subgroup", lam), "non-generator points:"]
    for key, ok in verdicts.items():
        lines.append(f"  {key}: {ok}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_verify(ws: Workspace, args) -> int:
    from .harness import InstanceSpec, run_suite  # only this command loads the harness

    spec = InstanceSpec(seed=args.seed)
    report = run_suite(spec, trials=args.trials)
    if args.format == "json":
        print(json.dumps(report.as_document(), indent=2))
    else:
        for name, stats in report.properties.items():
            status = "ok" if stats.failures == 0 else "FAIL"
            print(
                f"{status:4} {name}: trials={stats.trials} skipped={stats.skipped} "
                f"failures={stats.failures}"
            )
        print("passed" if report.passed else "FAILED")
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _dot_id(name: str) -> str:
    """A DOT quoted ID: the name with backslash and double quote escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_lattice(lat: FiniteLattice) -> str:
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for name in lat.elements:
        lines.append(f"  {_dot_id(name)};")
    for lo, hi in lat.covering_pairs():
        lines.append(f"  {_dot_id(lo)} -> {_dot_id(hi)};")
    lines.append("}")
    return "\n".join(lines)


def _dot_levels(sub: LSubset) -> str:
    lat = sub.lattice
    group = sub.group
    seen: dict[frozenset, str] = {}
    for a in lat.elements:
        lv = sub.level(a)
        if lv and lv not in seen:
            seen[lv] = "{" + ",".join(sorted(lv, key=group.index)) + "}"
    sets = list(seen)
    lines = ["digraph levels {", "  rankdir=BT;"]
    for lv in sets:
        lines.append(f"  {_dot_id(seen[lv])};")
    for lo in sets:
        for hi in sets:
            if not lo < hi:
                continue
            if any(lo < mid < hi for mid in sets):
                continue
            lines.append(f"  {_dot_id(seen[lo])} -> {_dot_id(seen[hi])};")
    lines.append("}")
    return "\n".join(lines)


def _cmd_hasse(ws: Workspace, args) -> int:
    if args.format == "json":
        raise DocumentError("the hasse command prints DOT; --format json is not available for it")
    if args.subset:
        print(_dot_levels(ws.subset()))
    else:
        print(_dot_lattice(ws.lattice()))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "levels": _cmd_levels,
    "generate": _cmd_generate,
    "maximals": _cmd_maximals,
    "frattini": _cmd_frattini,
    "nongen": _cmd_nongen,
    "verify": _cmd_verify,
    "hasse": _cmd_hasse,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsubgroups",
        description="Compute with lattice-valued subgroups of finite groups.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("-l", "--lattice", help="lattice JSON document")
    parser.add_argument("-g", "--group", help="group JSON document")
    parser.add_argument("-s", "--subset", help="L-subset JSON document")
    parser.add_argument("-s2", "--subset2", help="second L-subset JSON document")
    parser.add_argument(
        "--format", choices=["table", "json", "dot"], default="table", help="output format"
    )
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="the largest answer a search may build: at most this many coatoms of L(mu)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for verify")
    parser.add_argument("--trials", type=int, default=25, help="instances for verify")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error(f"argument --trials: must be at least 1, not {args.trials}")
    if args.budget < 0:
        parser.error(f"argument --budget: must be at least 0, not {args.budget}")
    if args.format == "dot" and args.command != "hasse":
        print("error: dot output is only available for the hasse command", file=sys.stderr)
        return EXIT_BAD_INPUT
    ws = Workspace(args)
    try:
        code = _COMMANDS[args.command](ws, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: point stdout at devnull so that the flush at
        # interpreter exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DocumentError, LSubgroupsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
