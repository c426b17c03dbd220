"""Seeded inputs, timed operations and their checks for the benchmark.

Every verdict is invariant under simultaneous conjugation of the generating
vector, and so is the work done to reach it (conjugate elements have the same
cycle type in every coset action).  The seed therefore orders each workload's
inputs and picks the conjugating element of every generating vector, while
the set of groups and signatures stays fixed: the cost of one input varies
thirtyfold across the family, so a seeded choice of groups would make the
run-to-run spread a property of the draw rather than of the program.

Expected answers come from `expected.json`, which is written by hand and
never produced by the code under test.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import cmkit
import cmkit.reports

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

# gm(m) for both residues of m mod 4: the exponent doubles for m = 2 mod 4,
# which drives the Dixon lift and Chevalley-Weil cost.  Each input must recur
# in several passes of one run: gm:20 takes 3 s per input and gm:22 9 s.
FAMILY_M = (10, 12, 14, 16)

# Collections the relation search may try per input; every cover below ends
# INCONCLUSIVE within it (the family never searches: its Streit value is 0).
SEARCH_LIMIT = 5

CHILD_TIMEOUT_S = 150


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- inline groups --------------------------------------------------------------


def _cycles(degree: int, *cycles) -> cmkit.Permutation:
    return cmkit.Permutation.from_cycles(degree, cycles)


def _psl27_generators() -> List[List[int]]:
    """x -> x + 1 and x -> -1/x on the projective line over F_7 (7 is infinity)."""
    inf = 7

    def neg_inverse(x: int) -> int:
        if x == inf:
            return 0
        if x == 0:
            return inf
        return (-pow(x, 5, 7)) % 7

    shift = [inf if x == inf else (x + 1) % 7 for x in range(8)]
    return [shift, [neg_inverse(x) for x in range(8)]]


def alternating5() -> cmkit.FiniteGroup:
    return cmkit.FiniteGroup.from_generators(5, [_cycles(5, (0, 1, 2, 3, 4)), _cycles(5, (0, 1, 2))])


def symmetric5() -> cmkit.FiniteGroup:
    return cmkit.FiniteGroup.from_generators(5, [_cycles(5, (0, 1, 2, 3, 4)), _cycles(5, (0, 1))])


def symmetric4() -> cmkit.FiniteGroup:
    return cmkit.FiniteGroup.from_generators(4, [_cycles(4, (0, 1, 2, 3)), _cycles(4, (0, 1))])


def gm12() -> cmkit.FiniteGroup:
    return cmkit.build_gm(12).group


# name -> (group builder, branch orders); names key expected.json "covers".
COVERS: Dict[str, Tuple[Callable[[], cmkit.FiniteGroup], Tuple[int, ...]]] = {
    "s5-245": (symmetric5, (2, 4, 5)),
    "a5-255": (alternating5, (2, 5, 5)),
    "a5-335": (alternating5, (3, 3, 5)),
    "a5-355": (alternating5, (3, 5, 5)),
    "a5-555": (alternating5, (5, 5, 5)),
    "s4-344": (symmetric4, (3, 4, 4)),
    "gm12-4612": (gm12, (4, 6, 12)),
}


# -- operations -----------------------------------------------------------------


@dataclass
class Outcome:
    """What an operation produced, for its checks and size descriptors."""

    mismatches: List[str] = field(default_factory=list)
    sizes: Dict[str, object] = field(default_factory=dict)
    payload_bytes: int = 0


@dataclass(frozen=True)
class Input:
    name: str
    run: Callable[["Input", dict, object], Outcome]
    args: tuple
    conjugator: int = 0  # seeded index into the group's element list


def _expect(out: Outcome, what: str, got, want) -> None:
    if got != want:
        out.mismatches.append(f"{what}: got {got!r}, expected {want!r}")


def _pipeline(G: cmkit.FiniteGroup, vector: cmkit.GeneratingVector, conjugator: int,
              want: dict, search_limit: int, out: Outcome) -> None:
    """Conjugate, table, verdict, re-verification and payload for one surface."""
    h = G.elements[conjugator % G.order]
    X = cmkit.QuasiplatonicSurface.from_vector(vector.conjugate_by(h))
    T = cmkit.character_table(G)
    verdict = cmkit.cm_verdict(X, T, search_limit=search_limit)
    reverified = cmkit.reverify_verdict(X, T, verdict)
    text = json.dumps(cmkit.reports.verdict_json(X, verdict), sort_keys=True)
    out.payload_bytes = len(text)

    payload = json.loads(text)
    _expect(out, "status", verdict.status, want["status"])
    _expect(out, "payload status", payload["status"], want["status"])
    _expect(out, "streit_value", verdict.streit_value, want["streit_value"])
    _expect(out, "genus", X.genus, want["genus"])
    _expect(out, "periods", list(X.signature.periods), want["periods"])
    _expect(out, "re-verified", reverified, verdict.status == cmkit.CM_CERTIFIED)
    _expect(out, "order", G.order, want["order"])
    _expect(out, "classes", len(T), want["classes"])
    _expect(out, "exponent", G.exponent(), want["exponent"])
    collections = sum(1 for e in verdict.search_log if e.get("stage") == "collection")
    out.sizes.update(order=G.order, classes=len(T), exponent=G.exponent(),
                     genus=X.genus, collections=collections)


def run_family(inp: Input, expected: dict, tracer) -> Outcome:
    """build_gm -> canonical_vector -> table -> verdict -> reverify -> JSON."""
    (m,) = inp.args
    out = Outcome()
    inst = cmkit.build_gm(m)
    vector = cmkit.canonical_vector(inst)
    _pipeline(inst.group, vector, inp.conjugator, expected["gm"][str(m)], SEARCH_LIMIT, out)
    return out


def run_cover(inp: Input, expected: dict, tracer) -> Outcome:
    """Inline group -> vector search -> table -> bounded relation search -> JSON."""
    (name,) = inp.args
    build, periods = COVERS[name]
    want = expected["covers"][name]
    out = Outcome()
    G = build()
    found = cmkit.find_generating_vectors(G, cmkit.Signature(0, periods), limit=1)
    if not found:
        out.mismatches.append(f"no generating vector with periods {periods}")
        return out
    _pipeline(G, found[0], inp.conjugator, want, SEARCH_LIMIT, out)
    subgroups = len(G.all_subgroups())  # enumerated by the search already
    out.sizes["subgroups"] = subgroups
    if "subgroups" in want:
        _expect(out, "subgroups", subgroups, want["subgroups"])
    return out


# -- one-shot command line --------------------------------------------------------

# Generating vectors as words in the generators of each source.  gm groups
# name theirs a, b, t; group files g0, g1, ...  Each vector multiplies to one
# as a word, whatever the composition convention.
GM_VECTOR = ("a*b", "t", "t^-1*b*a")  # (2, m, m) for m = 0 mod 4, else (2, m, 2m)
FILE_GROUPS = {
    # name -> (degree, generators, vector words, cover key in expected.json)
    "psl27": (8, _psl27_generators(), ("g1", "g0", "g0^-1*g1^-1"), "psl27-237"),
    "a5": (5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]], ("g0^2*g1", "g0", "g0^-1*g1^-1*g0^-2"),
           "a5-255"),
}
GENERATOR_ORDERS = {"gm": {"a": 2, "b": 2, "t": None}, "psl27": {"g0": 7, "g1": 2},
                    "a5": {"g0": 5, "g1": 3}}

# (command, source, conjugate the vector?).  The gm sources span gm:8-16;
# `streit` and `batch` let the command line search its own vector.  Every
# command takes at most about a second, so each recurs in several passes.
CLI_COMMANDS = (
    ("table", "gm:8", False),
    ("table", "gm:16", False),
    ("table", "psl27", False),
    ("quotients", "gm:12", True),
    ("quotients", "a5", True),
    ("streit", "gm:12", False),
    ("streit", "psl27", True),
    ("analyze", "a5", True),
    ("verify", "gm:12", True),
    ("verify", "gm:10", True),
    ("batch", "gm:8 gm:12", False),
)


def _conjugator_word(rng: random.Random, source: str) -> List[Tuple[str, int]]:
    orders = GENERATOR_ORDERS["gm" if source.startswith("gm:") else source]
    word = []
    for _ in range(3):
        name = rng.choice(sorted(orders))
        order = orders[name] or int(source[3:])
        word.append((name, rng.randrange(1, order)))
    return word


def _conjugate_words(words, conj: List[Tuple[str, int]]) -> str:
    w = "*".join(f"{n}^{e}" for n, e in conj)
    w_inv = "*".join(f"{n}^{-e}" for n, e in reversed(conj))
    return ",".join(f"{w}*{x}*{w_inv}" for x in words)


def _gm_generator_images(m: int) -> Dict[str, List[int]]:
    """Images of a and b in the regular action of gm(m) on triples a^x b^y t^k."""
    def idx(x, y, k):
        return (x * 2 + y) * m + k
    points = [(x, y, k) for x in (0, 1) for y in (0, 1) for k in range(m)]
    a, b = [0] * (4 * m), [0] * (4 * m)
    for x, y, k in points:
        a[idx(x, y, k)] = idx(1 - x, y, k)
        b[idx(x, y, k)] = idx(x, 1 - y, k)
    return {"a": a, "b": b}


def _known_relation(m: int) -> dict:
    """The family's decomposition: JX ~ JY_a^2 (m = 2 mod 4), else JY_a x JY_b^2."""
    gens = _gm_generator_images(m)
    if m % 4 == 2:
        factors = [{"subgroup_gens": [gens["a"]], "multiplicity": 2}]
    else:
        factors = [{"subgroup_gens": [gens["a"]], "multiplicity": 1},
                   {"subgroup_gens": [gens["b"]], "multiplicity": 2}]
    return {"n": 1, "factors": factors}


def _write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return os.path.relpath(path, ROOT)


def cli_argv(command: str, source: str, conjugate: bool, rng: random.Random) -> List[str]:
    """Command-line arguments for one command, writing the files it reads."""
    os.makedirs(WORK, exist_ok=True)
    if command == "batch":
        return ["batch", *source.split()]
    if source.startswith("gm:"):
        target, words = source, GM_VECTOR
    else:
        degree, gens, words, _ = FILE_GROUPS[source]
        target = _write_json(os.path.join(WORK, f"{source}.json"),
                             {"degree": degree, "generators": gens})
    argv = [command, target]
    if command == "verify":
        m = int(source[3:])
        argv += ["--relation", _write_json(os.path.join(WORK, f"relation-gm{m}.json"),
                                           _known_relation(m))]
    if conjugate:
        argv += ["--vector", _conjugate_words(words, _conjugator_word(rng, source))]
    if command == "analyze":
        argv += ["--search-limit", str(SEARCH_LIMIT)]
    return argv


def _want(expected: dict, source: str) -> dict:
    if source.startswith("gm:"):
        return expected["gm"][source[3:]]
    return expected["covers"][FILE_GROUPS[source][3]]


def check_cli(command: str, source: str, payload: dict, expected: dict, out: Outcome) -> None:
    """Compare one command's JSON payload with the hand-written answers."""
    if command == "batch":
        sources = source.split()
        _expect(out, "batch size", len(payload["results"]), len(sources))
        for src, row in zip(sources, payload["results"]):
            want = _want(expected, src)
            for key in ("status", "streit_value", "genus"):
                _expect(out, f"{src} {key}", row.get(key), want[key])
        return
    want = _want(expected, source)
    if command == "verify":
        # The family's quotient genera m/2 - 1 and m/4 - 1 add up to the genus
        # either way; only the per-irreducible rows tell the residues apart.
        identity = payload["genus_identity"]
        _expect(out, "genus identity", [identity["lhs"], identity["rhs"]], [want["genus"]] * 2)
        _expect(out, "verified", payload["verified"], want["known_relation_verifies"])
        return
    order = payload["group"]["order"]
    _expect(out, "order", order, want["order"])
    out.sizes["order"] = order
    if command == "table":
        degrees = payload["degrees"]
        _expect(out, "classes", len(payload["classes"]), want["classes"])
        _expect(out, "conductor", payload["conductor"], want["exponent"])
        _expect(out, "sum of squared degrees", sum(d * d for d in degrees), order)
        out.sizes.update(classes=len(payload["classes"]), exponent=payload["conductor"])
        return
    _expect(out, "genus", payload["genus"], want["genus"])
    out.sizes["genus"] = payload["genus"]
    if command == "quotients":
        rows = payload["quotients"]
        _expect(out, "signature", payload["signature"]["periods"], want["periods"])
        bad = [r["subgroup_cycles"] for r in rows if r["genus"] != r["genus_by_character"]]
        _expect(out, "rows with genus != genus_by_character", bad, [])
        _expect(out, "genus of X/1", [r["genus"] for r in rows if r["order"] == 1], [want["genus"]])
        _expect(out, "genus of X/G", [r["genus"] for r in rows if r["order"] == order], [0])
        if "subgroups" in want:
            _expect(out, "subgroups", len(rows), want["subgroups"])
        out.sizes["subgroups"] = len(rows)
        return
    _expect(out, "status", payload["status"], want["status"])
    _expect(out, "streit_value", payload["streit_value"], want["streit_value"])
    if command == "analyze":
        _expect(out, "signature", payload["signature"]["periods"], want["periods"])
        out.sizes["collections"] = sum(1 for e in payload.get("search_log", [])
                                       if e.get("stage") == "collection")


def run_cli(inp: Input, expected: dict, tracer) -> Outcome:
    """One `python -m cmkit.cli` child process, run to completion and checked."""
    command, source, argv = inp.args
    env = dict(os.environ, PYTHONPATH="src")
    out = Outcome()
    if tracer is None:
        cmd = [sys.executable, "-m", "cmkit.cli", *argv]
    else:
        span_file = os.path.join(WORK, "child-spans.json")
        if os.path.exists(span_file):
            os.remove(span_file)  # a child that dies must not leave its predecessor's spans
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), span_file, *argv]
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
    out.payload_bytes = len(proc.stdout)
    if tracer is not None:
        with open(span_file, encoding="utf-8") as fh:
            data = json.load(fh)
        tracer.add_child_trace(data, tracer.op)
        tracer.counts["cli.startup_s"] += data["main_start"] - spawned
    if proc.returncode != 0:
        out.mismatches.append(f"exit code {proc.returncode}: {proc.stdout[-300:]!r} "
                              f"{proc.stderr[-300:]!r}")
        return out
    check_cli(command, source, json.loads(proc.stdout), expected, out)
    return out


# -- workloads --------------------------------------------------------------------


def family_inputs(seed: int) -> List[Input]:
    rng = random.Random(seed)
    ms = list(FAMILY_M)
    rng.shuffle(ms)
    return [Input(f"gm:{m}", run_family, (m,), rng.randrange(1 << 30)) for m in ms]


def cover_inputs(seed: int) -> List[Input]:
    rng = random.Random(seed)
    names = list(COVERS)
    rng.shuffle(names)
    return [Input(name, run_cover, (name,), rng.randrange(1 << 30)) for name in names]


def cli_inputs(seed: int) -> List[Input]:
    rng = random.Random(seed)
    commands = list(CLI_COMMANDS)
    rng.shuffle(commands)
    out = []
    for command, source, conjugate in commands:
        argv = cli_argv(command, source, conjugate, rng)
        out.append(Input(f"{command} {source}", run_cli, (command, source, argv)))
    return out


WORKLOADS: Dict[str, Callable[[int], List[Input]]] = {
    "family-streit": family_inputs,
    "relation-search": cover_inputs,
    "cli-oneshot": cli_inputs,
}

IN_PROCESS = {"family-streit", "relation-search"}


def run_op(inp: Input, expected: dict, tracer=None) -> Tuple[float, Outcome]:
    """Time one operation from its input to a checked verdict."""
    start = time.perf_counter()
    try:
        out = inp.run(inp, expected, tracer)
    except Exception as ex:  # a failed operation is counted, not fatal
        out = Outcome(mismatches=[f"{type(ex).__name__}: {ex}"])
    return time.perf_counter() - start, out
