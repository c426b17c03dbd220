"""Command line front end.

Commands: analyze, streit, table, quotients, verify, batch.  Output is JSON
(default) or a plain text table; identical requests produce byte-identical
output.  A failure prints {"error": code, "detail": text}, or in `batch`
becomes that source's row (the batch exits with the worst row's code).
Exit codes: 0 for any completed computation (the verdict rides in the
payload); 1 for input errors (`invalid_input` unless a specific code
applies); 2 for resource bounds (`bound_exceeded`); 3 when an identity that
holds for every correct computation fails (`internal_check_failed`:
`InvalidCharacterTable`, `NonIntegralMultiplicity`, `NonIntegralResult`,
`InconsistentRamification`, `InternalCheckFailed`), a fault of the program,
not of the input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional

from .chartable import character_table
from .criteria import cm_verdict, streit_test, verify_isogeny_relation
from .errors import INTERNAL_ERRORS, CmkitError, GroupTooLarge, InvalidParameter
from .gmfamily import GmInstance, build_gm, canonical_vector
from .group import DEFAULT_MAX_ORDER, FiniteGroup
from .perm import Permutation
from .reports import (
    _is_image_arrays,
    character_table_json,
    group_from_json,
    group_json,
    quotient_table_json,
    relation_from_json,
    relation_report_json,
    signature_json,
    verdict_json,
)
from .surface import GeneratingVector, QuasiplatonicSurface

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BOUND = 2
EXIT_INTERNAL = 3

_GM_RE = re.compile(r"^gm:(\d+)$")
_WORD_RE = re.compile(r"^([A-Za-z]\w*)(?:\^(-?\d+))?$")


class CliError(Exception):
    def __init__(self, code: str, detail: str, exit_code: int = EXIT_INPUT):
        super().__init__(detail)
        self.code = code
        self.detail = detail
        self.exit_code = exit_code


def _failure(ex: Exception) -> tuple:
    """(error code, detail, exit code) for an error that ends a command."""
    if isinstance(ex, CliError):
        return ex.code, ex.detail, ex.exit_code
    if isinstance(ex, GroupTooLarge):
        return "bound_exceeded", str(ex), EXIT_BOUND
    if isinstance(ex, INTERNAL_ERRORS):
        return "internal_check_failed", str(ex), EXIT_INTERNAL
    return "invalid_input", str(ex), EXIT_INPUT


def _non_negative(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _positive(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("bad_arguments", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmkit", description="CM certificates for Jacobians of "
                                               "quasiplatonic Riemann surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, vector=True):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--max-order", type=_positive, default=None,
                       help=f"group-order bound, default {DEFAULT_MAX_ORDER} (env CMKIT_MAX_ORDER)")
        if vector:
            p.add_argument("--vector", default=None,
                           help="entries as generator words 'a*b,t,...' or a JSON "
                                "array of image arrays")

    p = sub.add_parser("analyze", help="full pipeline: genus, quotients, verdict")
    p.add_argument("source")
    common(p)
    p.add_argument("--search-limit", type=_non_negative, default=1000)

    p = sub.add_parser("streit", help="symmetric-square test only")
    p.add_argument("source")
    common(p)

    p = sub.add_parser("table", help="exact character table")
    p.add_argument("source")
    common(p, vector=False)

    p = sub.add_parser("quotients", help="per-subgroup quotient table")
    p.add_argument("source")
    common(p)

    p = sub.add_parser("verify", help="check a user-supplied isogeny relation")
    p.add_argument("source")
    p.add_argument("--relation", required=True,
                   help="path to a JSON relation (or an analyze payload), '-' for stdin")
    common(p)

    p = sub.add_parser("batch", help="run a command over several sources")
    p.add_argument("sources", nargs="*")
    p.add_argument("--run", choices=("analyze", "streit"), default="analyze")
    common(p, vector=False)
    p.add_argument("--search-limit", type=_non_negative, default=1000)
    return parser


def _max_order(args) -> int:
    if getattr(args, "max_order", None) is not None:
        return args.max_order
    env = os.environ.get("CMKIT_MAX_ORDER")
    if env is not None:
        try:
            return _positive(env)
        except argparse.ArgumentTypeError:
            raise CliError("bad_env", f"CMKIT_MAX_ORDER={env!r} is not a positive integer")
    return DEFAULT_MAX_ORDER


def _resolve_group(source: str, max_order: int):
    """Returns (group, gm_instance_or_None, generator name map)."""
    match = _GM_RE.match(source)
    if match:
        try:
            inst = build_gm(int(match.group(1)), max_order=max_order)
        except InvalidParameter as ex:
            raise CliError("invalid_parameter", str(ex))
        names = {"a": inst.a, "b": inst.b, "t": inst.t}
        return inst.group, inst, names
    if not os.path.exists(source):
        raise CliError("unknown_source", f"{source!r} is neither gm:<m> nor a file")
    try:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise CliError("bad_group_file", f"cannot read group file: {ex}")
    try:
        G = group_from_json(data, max_order)
    except GroupTooLarge:
        raise
    except CmkitError as ex:
        raise CliError("bad_group_file", str(ex))
    names = {f"g{i}": g for i, g in enumerate(G.generators)}
    return G, None, names


def _parse_word(word: str, names: dict, G: FiniteGroup) -> Permutation:
    result = G.identity
    for token in word.split("*"):
        token = token.strip()
        m = _WORD_RE.match(token)
        if not m or m.group(1) not in names:
            raise CliError("bad_vector", f"unknown generator word {token!r} "
                                         f"(known: {sorted(names)})")
        power = int(m.group(2)) if m.group(2) else 1
        result = result * (names[m.group(1)] ** power)
    return result


def _resolve_vector(args, G: FiniteGroup, inst: Optional[GmInstance],
                    names: dict) -> GeneratingVector:
    spec = getattr(args, "vector", None)
    if spec is None:
        if inst is not None:
            return canonical_vector(inst)
        raise CliError("missing_vector", "file-based groups need --vector")
    spec = spec.strip()
    try:
        if spec.startswith("["):
            arrays = json.loads(spec)
            if not _is_image_arrays(arrays):
                raise CliError("bad_vector", "a JSON vector must be an array of image "
                                             "arrays [[int,...],...]")
            entries = tuple(Permutation(images) for images in arrays)
        else:
            entries = tuple(_parse_word(w, names, G) for w in spec.split(","))
        return GeneratingVector(G, entries)
    except CliError:
        raise
    except (CmkitError, ValueError, TypeError) as ex:
        raise CliError("bad_vector", f"invalid vector: {ex}")


def _surface(args, G, inst, names) -> QuasiplatonicSurface:
    return QuasiplatonicSurface.from_vector(_resolve_vector(args, G, inst, names))


# -- command bodies -----------------------------------------------------------


def _run_analyze(args) -> dict:
    G, inst, names = _resolve_group(args.source, _max_order(args))
    X = _surface(args, G, inst, names)
    verdict = cm_verdict(X, search_limit=args.search_limit)
    payload = {
        "command": "analyze",
        "source": args.source,
        "group": group_json(G),
        "signature": signature_json(X.signature),
        "genus": X.genus,
        "vector": [list(g.images) for g in X.vector.entries],
    }
    payload.update(verdict_json(X, verdict))
    return payload


def _run_streit(args) -> dict:
    G, inst, names = _resolve_group(args.source, _max_order(args))
    X = _surface(args, G, inst, names)
    value = streit_test(X)
    return {
        "command": "streit",
        "source": args.source,
        "group": {"order": G.order},
        "genus": X.genus,
        "streit_value": value,
        "status": "CM_CERTIFIED" if value == 0 else "INCONCLUSIVE",
    }


def _run_table(args) -> dict:
    G, _, _ = _resolve_group(args.source, _max_order(args))
    T = character_table(G)
    payload = {"command": "table", "source": args.source, "group": group_json(G)}
    payload.update(character_table_json(T))
    return payload


def _run_quotients(args) -> dict:
    G, inst, names = _resolve_group(args.source, _max_order(args))
    X = _surface(args, G, inst, names)
    return {
        "command": "quotients",
        "source": args.source,
        "group": group_json(G),
        "signature": signature_json(X.signature),
        "genus": X.genus,
        "quotients": quotient_table_json(X),
    }


def _run_verify(args) -> dict:
    G, inst, names = _resolve_group(args.source, _max_order(args))
    X = _surface(args, G, inst, names)
    T = character_table(G)
    try:
        if args.relation == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.relation, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise CliError("bad_relation", f"cannot read relation: {ex}")
    if isinstance(data, dict) and "relation" in data and isinstance(data["relation"], dict):
        data = data["relation"]
    try:
        relation = relation_from_json(G, data)
    except (CmkitError, ValueError, KeyError, TypeError) as ex:
        raise CliError("bad_relation", f"invalid relation payload: {ex}")
    report = verify_isogeny_relation(X, T, relation)
    payload = {
        "command": "verify",
        "source": args.source,
        "n": relation.n,
        "factors": [{"subgroup_gens": [list(g.images) for g in H.generators()],
                     "multiplicity": mult} for H, mult in relation.factors],
        "verified": report.holds,
    }
    payload.update(relation_report_json(report))
    return payload


def _run_batch(args) -> tuple:
    if not args.sources:
        raise CliError("empty_batch", "batch needs at least one source")
    results = []
    summary = []
    worst = EXIT_OK
    for source in args.sources:
        sub_args = argparse.Namespace(source=source, format=args.format,
                                      max_order=args.max_order, vector=None,
                                      search_limit=getattr(args, "search_limit", 1000))
        try:
            row = (_run_analyze if args.run == "analyze" else _run_streit)(sub_args)
            results.append(row)
            status = row.get("status", "?")
            summary.append(f"{source}: {status} genus={row.get('genus')} "
                           f"streit={row.get('streit_value')}")
        except (CliError, CmkitError, ValueError) as ex:
            code, detail, exit_code = _failure(ex)
            results.append({"source": source, "error": code, "detail": detail})
            summary.append(f"{source}: error {code}")
            worst = max(worst, exit_code)
    payload = {"command": "batch", "results": results, "summary": summary}
    return payload, worst


# -- rendering ---------------------------------------------------------------


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(_as_table(payload))


def _as_table(payload: dict) -> str:
    lines = []
    cmd = payload.get("command")
    if cmd == "batch":
        lines.extend(payload["summary"])
    elif cmd == "table":
        lines.append(f"classes: {len(payload['classes'])}  conductor: {payload['conductor']}")
        lines.append("degrees: " + " ".join(str(d) for d in payload["degrees"]))
        for row in payload["irreducibles"]:
            lines.append("  ".join(row))
    elif cmd == "quotients":
        lines.append(f"genus {payload['genus']}, order {payload['group']['order']}")
        for q in payload["quotients"]:
            lines.append(f"|H|={q['order']:>4} index={q['index']:>4} genus={q['genus']:>3} "
                         f"gens={' '.join(q['subgroup_cycles']) or '()'}")
    else:
        for key in sorted(payload):
            if key in ("command", "vector", "group", "relation", "irreducible_report",
                       "search_log", "factors", "rows"):
                continue
            lines.append(f"{key}: {payload[key]}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "batch":
            payload, code = _run_batch(args)
            _emit(payload, args.format)
            return code
        runner = {
            "analyze": _run_analyze,
            "streit": _run_streit,
            "table": _run_table,
            "quotients": _run_quotients,
            "verify": _run_verify,
        }[args.command]
        payload = runner(args)
        _emit(payload, args.format)
        return EXIT_OK
    except (CliError, CmkitError, ValueError) as ex:
        code, detail, exit_code = _failure(ex)
        print(json.dumps({"error": code, "detail": detail}, sort_keys=True))
        return exit_code


if __name__ == "__main__":
    sys.exit(main())
