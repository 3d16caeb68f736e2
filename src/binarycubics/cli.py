"""Command-line interface: multiplicities, tables, quiver queries,
representation decomposition, verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure
(verify only), 2 usage or parse error, 3 inconclusive (tame suite
only).  The CLI performs no arithmetic of its own; every number comes
from the library and is exact, localized characters included.
Output in json mode is stable-ordered (weights lexicographic), so runs
are byte-identical; --seed seeds only the random samplers of the verify
suites, and every other command is deterministic without it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, characters as ch, cubics, quiver as qv, verify


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binarycubics",
        description="Exact character and quiver computations for equivariant "
                    "D-modules on binary cubic forms.",
    )
    parser.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the random samplers of the verify suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mult = sub.add_parser("mult", help="multiplicity of a weight in a character")
    p_mult.add_argument("name", help=f"one of {', '.join(catalog.all_character_names())}")
    p_mult.add_argument("l1", type=int)
    p_mult.add_argument("l2", type=int)

    p_table = sub.add_parser("table", help="sparse nonzero multiplicities on a box")
    p_table.add_argument("name")
    p_table.add_argument("--lo", type=int, required=True)
    p_table.add_argument("--hi", type=int, required=True)

    p_quiver = sub.add_parser("quiver", help="path/injective/projective/ext1 queries")
    p_quiver.add_argument("query", choices=("paths", "injective", "projective", "ext1"))
    p_quiver.add_argument("quiver_name", help=f"one of {', '.join(cubics.NAMED_QUIVERS)}")
    p_quiver.add_argument("args", nargs="*", help="paths/ext1: SRC TGT; injective/projective: VERTEX")

    p_rep = sub.add_parser("rep", help="operate on a representation file")
    p_rep.add_argument("action", choices=("decompose",))
    p_rep.add_argument("file")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=verify.SUITES + ("all",), default="all")
    return parser


def _character(name: str) -> ch.Character:
    if name not in catalog.all_character_names():
        raise _UsageError(
            f"unknown character {name!r}; expected one of {', '.join(catalog.all_character_names())}")
    return catalog.character_of(name)


def _emit(args, payload: dict, text_lines: list[str], tsv_rows: list[list]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "tsv":
        for row in tsv_rows:
            print("\t".join(str(x) for x in row))
    else:
        for line in text_lines:
            print(line)


def _cmd_mult(args) -> int:
    value = _character(args.name).mult((args.l1, args.l2))
    _emit(args,
          {"name": args.name, "weight": [args.l1, args.l2], "multiplicity": value},
          [str(value)],
          [[args.name, args.l1, args.l2, value]])
    return 0


def _cmd_table(args) -> int:
    if args.lo > args.hi:
        raise _UsageError("--lo must not exceed --hi")
    table = ch.truncate(_character(args.name), args.lo, args.hi)
    entries = sorted(table.items())
    _emit(args,
          {"name": args.name, "lo": args.lo, "hi": args.hi,
           "entries": [[list(w), m] for w, m in entries]},
          [f"({w[0]},{w[1]})\t{m}" for w, m in entries],
          [[w[0], w[1], m] for w, m in entries])
    return 0


def _cmd_quiver(args) -> int:
    try:  # the library names an unknown quiver or vertex in a KeyError
        bq = cubics.build(args.quiver_name)
        arity = 2 if args.query in ("paths", "ext1") else 1
        if len(args.args) != arity:
            raise _UsageError(f"quiver {args.query} takes {'SRC TGT' if arity == 2 else 'VERTEX'}")
        if args.query == "ext1":
            src, tgt = args.args
            value = bq.arrow_count(src, tgt)
            _emit(args, {"quiver": args.quiver_name, "ext1": [src, tgt], "dim": value},
                  [str(value)], [[src, tgt, value]])
        elif args.query == "paths":
            src, tgt = args.args
            paths = bq.path_basis().paths(src, tgt)
            names = [" ".join(p) if p else f"e_{src}" for p in paths]
            _emit(args, {"quiver": args.quiver_name, "source": src, "target": tgt,
                         "paths": names},
                  names or ["(none)"], [[n] for n in names])
        else:
            vertex = args.args[0]
            rep = bq.injective(vertex) if args.query == "injective" else bq.projective(vertex)
            dims = [[v, rep.dims[v]] for v in bq.quiver.vertices]
            _emit(args, {"quiver": args.quiver_name, args.query: vertex, "dims": dict(dims)},
                  [f"{v}:{d}" for v, d in dims],
                  dims)
    except KeyError as exc:
        raise _UsageError(exc.args[0])
    return 0


def _cmd_rep(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {args.file}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad syntax, a huge integer, deep nesting
        raise _UsageError(f"{args.file} is not valid JSON: {exc}")
    try:
        rep = qv.rep_from_dict(data, cubics.named_quivers())
    except KeyError as exc:  # a missing key or an unknown quiver, arrow or vertex
        raise _UsageError(f"bad representation file: {exc.args[0]}")
    except ValueError as exc:
        raise _UsageError(f"bad representation file: {exc}")
    verts = rep.bq.quiver.vertices
    summands = [([W.dims[v] for v in verts], "indecomposable" if certified else "inconclusive")
                for W, certified in qv.decompose_certified(rep)]
    summands.sort(key=lambda s: s[0])  # every format lists them by dimension vector
    payload = {"file": args.file,
               "summands": [{"dims": dims, "verdict": verdict} for dims, verdict in summands]}
    lines = ["(" + ",".join(map(str, dims)) + f")  {verdict}" for dims, verdict in summands]
    rows = [dims + [verdict] for dims, verdict in summands]
    _emit(args, payload, lines or ["(zero representation)"], rows)
    return 0


def _cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = verify.run_suites(names, seed=args.seed)
    failed = sum(1 for r in reports for c in r["checks"] if c["status"] == "fail")
    inconclusive = sum(1 for r in reports for c in r["checks"] if c["status"] == "inconclusive")
    lines = []
    rows = []
    for r in reports:
        for c in r["checks"]:
            mark = {"pass": "PASS", "fail": "FAIL", "inconclusive": "INCONCLUSIVE"}[c["status"]]
            witness = f"  [{c['witness']}]" if "witness" in c else ""
            lines.append(f"{mark:12s} {r['suite']}: {c['name']}{witness}")
            rows.append([r["suite"], c["status"], c["name"], c.get("witness", "")])
        done = sum(1 for c in r["checks"] if c["status"] == "pass")
        lines.append(f"suite {r['suite']}: {done}/{len(r['checks'])} checks pass")
    _emit(args, {"reports": reports}, lines, rows)
    if failed:
        return 1
    if inconclusive:
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "mult": _cmd_mult,
        "table": _cmd_table,
        "quiver": _cmd_quiver,
        "rep": _cmd_rep,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
