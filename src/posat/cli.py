"""Command-line front end.

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage error,
3 input parse error, 4 resource limit hit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from . import digraph as dg
from . import family as fam
from . import io as pio
from . import search
from .errors import ParseError, PosatError, TooLarge
from .poset import Poset, dot_extension, dual, has_legs


def _load_poset(spec: str) -> Poset:
    """Specs containing `=` are catalog references (`name=chain:3`); anything
    else is a file path."""
    if "=" in spec:
        key, value = spec.split("=", 1)
        if key != "name":
            raise ParseError(f"bad poset spec {spec!r}")
        return pio.parse_poset_spec(value)
    return pio.parse_poset(Path(spec).read_text())


def _load_family(path: str) -> fam.SetFamily:
    return pio.parse_family(Path(path).read_text())


def _load_digraph(path: str) -> dg.Digraph:
    return pio.parse_digraph(Path(path).read_text())


def _cycle(text: str) -> list[int]:
    """Comma-separated 1-based vertices, as 0-based indices."""
    try:
        return [int(v) - 1 for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vertex list: {text!r}")


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _seconds(text: str) -> float:
    """A time limit: a finite number of seconds >= 0."""
    try:
        if 0 <= float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite number of seconds >= 0: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="posat", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-saturated", help="saturation verdict for a family")
    p.add_argument("--family", required=True)
    p.add_argument("--poset", action="append", required=True)
    p.set_defaults(run=_cmd_check_saturated)

    p = sub.add_parser("satstar", help="bounds / exact minimum saturated size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poset", action="append", required=True)
    p.add_argument("--bounds", action="store_true", help="certified bounds only, no search")
    # a string default goes through ``type`` only when satstar runs
    p.add_argument("--time-limit", type=_seconds, default=os.environ.get("POSAT_TIME_LIMIT_SECS") or None)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--stats", action="store_true", help="print the search counters after the result")
    g.add_argument("--json", action="store_true", help="print the result and the search counters as one JSON object")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_satstar)

    p = sub.add_parser("construct", help="write a named family construction")
    p.add_argument(
        "--name",
        required=True,
        choices=["unique-pairs", "y-upper", "x-upper", "wedge", "xell"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("blowup", help="lift a family from [n] to [n+1]")
    p.add_argument("--family", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_blowup)

    p = sub.add_parser("digraph", help="digraph operations")
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("aux", help="auxiliary digraph of a family")
    a.add_argument("--family", required=True)
    a.add_argument("--out")
    a.set_defaults(run=_digraph_aux)
    a = actions.add_parser("tc-check", help="transitive-cycle verdict")
    a.add_argument("--digraph", required=True)
    a.set_defaults(run=_digraph_tc_check)
    a = actions.add_parser("contract", help="contract an induced oriented cycle")
    a.add_argument("--digraph", required=True)
    a.add_argument("--cycle", type=_cycle, required=True, help="comma-separated 1-based vertices")
    a.add_argument("--out")
    a.set_defaults(run=_digraph_contract)
    a = actions.add_parser("turan", help="bipartite transitive-cycle-free digraph")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--out")
    a.set_defaults(run=_digraph_turan)
    a = actions.add_parser("brute-max", help="exact maximum transitive-cycle-free digraph")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--out")
    a.set_defaults(run=_digraph_brute_max)

    p = sub.add_parser("legs", help="legs witness of a poset")
    p.add_argument("--poset", required=True)
    p.set_defaults(run=_cmd_legs)

    p = sub.add_parser("dual", help="order-reversed poset")
    p.add_argument("--poset", required=True)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_dual)

    p = sub.add_parser("dot", help="poset plus a new maximum element")
    p.add_argument("--poset", required=True)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_dot)

    p = sub.add_parser("export-dot", help="DOT export")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--poset")
    g.add_argument("--family")
    g.add_argument("--digraph")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_export_dot)

    p = sub.add_parser("verify", help="re-run the headline checks")
    p.add_argument("--fast", action="store_true", help="only the checks tagged fast")
    p.set_defaults(run=_cmd_verify)
    return ap


def _cmd_check_saturated(args) -> int:
    F = _load_family(args.family)
    posets = [_load_poset(s) for s in args.poset]
    report = fam.is_induced_saturated(F, posets)
    print(f"saturated={str(report.saturated).lower()}")
    if report.forbidden_copy is not None:
        idx, mapping = report.forbidden_copy
        copy = " ".join(pio.format_member(F.members[j]) for j in sorted(mapping))
        print(f"violating_copy poset={idx + 1} members={copy}")
    if report.addable is not None:
        print(f"addable={pio.format_member(report.addable)}")
    return 0 if report.saturated else 1


def _cmd_satstar(args) -> int:
    posets = [_load_poset(s) for s in args.poset]
    if args.bounds:
        result = search.certified_bounds(args.n, posets)
    else:
        result = search.exact_sat_star(args.n, posets, search.SearchConfig(time_limit=args.time_limit))
    _emit(_result_json(result) if args.json else pio.format_result(result), args.out)
    if args.stats:
        sys.stdout.write(_format_stats(result.stats))
    return 0 if result.exact or args.bounds else 4


def _result_json(result) -> str:
    """The result as one JSON object: the bounds and their kinds, ``exact``,
    the witness members as lists of 1-based elements, and the
    ``SearchStats`` fields (``level_seconds`` as [k, seconds] pairs); the
    witness and the stats are null when there are none."""
    witness = result.witness
    return json.dumps({
        "n": result.n,
        "lower_bound": result.lower_bound,
        "lower_kind": result.lower_kind,
        "upper_bound": result.upper_bound,
        "upper_kind": result.upper_kind,
        "exact": result.exact,
        "witness": None if witness is None else [fam.elems_of(m) for m in witness.members],
        "stats": None if result.stats is None else result.stats._asdict(),
    }) + "\n"


def _format_stats(stats) -> str:
    """One ``key=value`` line per ``SearchStats`` field, in field order, or
    ``stats=none`` when no search ran; seconds to the microsecond, and the
    per-size seconds as ``k:seconds`` items joined by commas."""
    if stats is None:
        return "stats=none\n"
    lines = []
    for name, value in zip(stats._fields, stats):
        if isinstance(value, float):
            value = f"{value:.6f}"
        elif isinstance(value, tuple):
            value = ",".join(f"{k}:{s:.6f}" for k, s in value)
        lines.append(f"{name}={value}")
    return "\n".join(lines) + "\n"


def _cmd_construct(args) -> int:
    takes_l = args.name in ("wedge", "xell")
    if (args.l is not None) != takes_l:
        print(f"--l {'required' if takes_l else 'not taken'} for this construction", file=sys.stderr)
        return 2
    if args.name == "unique-pairs":
        F = fam.unique_pair_family(args.n)
    elif args.name == "y-upper":
        F = fam.y_upper_family(args.n)
    elif args.name == "x-upper":
        F = fam.x_upper_family(args.n)
    elif args.name == "wedge":
        F = fam.wedge_upper_family(args.n, args.l)
    else:
        F = fam.xell_upper_family(args.n, args.l)
    _emit(pio.format_family(F), args.out)
    return 0


def _cmd_blowup(args) -> int:
    _emit(pio.format_family(fam.blow_up(_load_family(args.family), args.i)), args.out)
    return 0


def _cmd_legs(args) -> int:
    w = has_legs(_load_poset(args.poset))
    if w is None:
        print("legs=none")
        return 1
    print(f"legs={w.leg1 + 1},{w.leg2 + 1} hip={w.hip + 1}")
    return 0


def _cmd_dual(args) -> int:
    _emit(pio.format_poset(dual(_load_poset(args.poset))), args.out)
    return 0


def _cmd_dot(args) -> int:
    _emit(pio.format_poset(dot_extension(_load_poset(args.poset))), args.out)
    return 0


def _cmd_export_dot(args) -> int:
    if args.poset:
        _emit(pio.poset_dot(_load_poset(args.poset)), args.out)
    elif args.family:
        _emit(pio.family_dot(_load_family(args.family)), args.out)
    else:
        _emit(pio.digraph_dot(_load_digraph(args.digraph)), args.out)
    return 0


def _digraph_aux(args) -> int:
    _emit(pio.format_digraph(dg.auxiliary_digraph(_load_family(args.family))), args.out)
    return 0


def _digraph_tc_check(args) -> int:
    D = _load_digraph(args.digraph)
    witness = dg.has_transitive_cycle(D)
    if witness is None:
        print("transitive_cycle=none")
        print(f"edges={D.edge_count()}")
        return 0
    print("transitive_cycle=" + ",".join(str(v + 1) for v in witness))
    return 1


def _digraph_contract(args) -> int:
    _emit(pio.format_digraph(dg.contract_cycle(_load_digraph(args.digraph), args.cycle)), args.out)
    return 0


def _digraph_turan(args) -> int:
    _emit(pio.format_digraph(dg.turan_bipartite(args.n)), args.out)
    return 0


def _digraph_brute_max(args) -> int:
    count, witness = dg.max_tc_free_edges_bruteforce(args.n)
    print(f"max_edges={count}")
    _emit(pio.format_digraph(witness), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import CHECKS

    checks = [c for c in CHECKS if c.fast or not args.fast]
    failed = 0
    for c in checks:
        began = time.perf_counter()
        ok, detail = c.run()
        suffix = f"  ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {c.label}{suffix}  [{time.perf_counter() - began:.2f} s]")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except TooLarge as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 3
    except PosatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
