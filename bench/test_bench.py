"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

Each workload runs at a tiny size in both modes and must emit every metric
named in BENCHMARK.json; a deliberately wrong expected answer must count as a
failed operation; the hand-written Streit values are re-derived without cmkit.
"""

import cmath
import copy
import json
import os
import random
import shutil
import subprocess
import sys
from collections import deque
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cmkit  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


def tiny_inputs(workload):
    if workload == "family-streit":
        return [workloads.Input("gm:8", workloads.run_family, (8,), 5)]
    if workload == "relation-search":
        return [workloads.Input("s4-344", workloads.run_cover, ("s4-344",), 3)]
    keep = {"table gm:8", "verify gm:12", "analyze a5"}
    return [inp for inp in workloads.cli_inputs(0) if inp.name in keep]


def tiny_run(workload, trace, expected=None):
    return run.measure(workloads, workload, seed=1, seconds=0, trace=trace,
                       inputs=tiny_inputs(workload), expected=expected)["result"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(workload, trace):
    result = tiny_run(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_PASSES[trace] * len(tiny_inputs(workload))
    names = set(result["metrics"])
    assert names == (PER_LAYER if trace else END_TO_END - {"setup_s"})
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["unit"]


def test_normalized_metrics_scale_the_raw_ones():
    summary = run.measure(workloads, "family-streit", seed=1, seconds=0, trace=False,
                          inputs=tiny_inputs("family-streit"))
    raw, metrics = summary["raw"], summary["result"]["metrics"]
    scale = run.REF_NOMINAL_S / raw["reference_s"]
    assert metrics["wall_norm_s"]["value"] == pytest.approx(raw["wall_s"] * scale)
    assert metrics["op_norm_s_p50"]["value"] == pytest.approx(raw["op_s_p50"] * scale)


def test_setup_is_timed_in_fresh_processes():
    assert 0 < run._time_setup("cli-oneshot", 4) < 30


@pytest.mark.parametrize("workload,section,key,field", [
    ("family-streit", "gm", "8", "genus"),
    ("relation-search", "covers", "s4-344", "streit_value"),
    ("cli-oneshot", "gm", "12", "known_relation_verifies"),
])
def test_wrong_expected_answer_counts_as_failure(workload, section, key, field):
    expected = copy.deepcopy(workloads.load_expected())
    value = expected[section][key][field]
    expected[section][key][field] = (not value) if isinstance(value, bool) else value + 1
    result = tiny_run(workload, False, expected)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_same_seed_same_inputs():
    for make in workloads.WORKLOADS.values():
        first = [(i.name, i.args, i.conjugator) for i in make(7)]
        assert first == [(i.name, i.args, i.conjugator) for i in make(7)]
        assert first != [(i.name, i.args, i.conjugator) for i in make(8)]


def test_tracer_wraps_rebound_names_and_restores_them():
    import cmkit.criteria
    import cmkit.reports
    import cmkit.surface
    original = cmkit.surface.quotient_surface
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (cmkit, cmkit.surface, cmkit.criteria, cmkit.reports):
            assert module.quotient_surface.__wrapped__ is original
        assert cmkit.Cyclotomic.__radd__ is cmkit.Cyclotomic.__add__
        assert cmkit.Cyclotomic.__add__.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for module in (cmkit, cmkit.surface, cmkit.criteria, cmkit.reports):
        assert module.quotient_surface is original


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [[1, 0, 0, "outer", 0.0, 10.0], [2, 1, 0, "inner", 2.0, 5.0],
                    [3, 1, 0, "inner", 6.0, 7.0], [4, 2, 0, "leaf", 3.0, 4.0]]
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "family-streit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- the hand-written answers, re-derived without cmkit ------------------------------


def _mul(p, q):
    return tuple(p[x] for x in q)


def _inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _closure(gens):
    one = tuple(range(len(gens[0])))
    seen, todo = {one}, deque([one])
    while todo:
        x = todo.popleft()
        for g in gens:
            y = _mul(x, g)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return sorted(seen)


def _order(p):
    one, x, k = tuple(range(len(p))), p, 1
    while x != one:
        x, k = _mul(x, p), k + 1
    return k


def _cycle(n, *cycles):
    images = list(range(n))
    for c in cycles:
        for i, x in enumerate(c):
            images[x] = c[(i + 1) % len(c)]
    return tuple(images)


def _gm(m):
    def idx(x, y, k):
        return (2 * x + y) * m + k

    def left(x1, y1, k1):
        images = [0] * (4 * m)
        for x in (0, 1):
            for y in (0, 1):
                for k in range(m):
                    images[idx(x, y, k)] = idx((x1 + x + k1 * y) % 2, (y1 + y) % 2, (k1 + k) % m)
        return tuple(images)

    return _closure([left(1, 0, 0), left(0, 1, 0), left(0, 0, 1)])


GROUPS = {
    "psl27": lambda: _closure([tuple(g) for g in workloads._psl27_generators()]),
    "s5": lambda: _closure([_cycle(5, (0, 1, 2, 3, 4)), _cycle(5, (0, 1))]),
    "a5": lambda: _closure([_cycle(5, (0, 1, 2, 3, 4)), _cycle(5, (0, 1, 2))]),
    "s4": lambda: _closure([_cycle(4, (0, 1, 2, 3)), _cycle(4, (0, 1))]),
    "gm12": lambda: _gm(12),
}


def _some_vector(G, periods):
    by_order = {}
    for g in G:
        by_order.setdefault(_order(g), []).append(g)
    for x in by_order[periods[0]]:
        for y in by_order[periods[1]]:
            z = _inv(_mul(x, y))
            if _order(z) == periods[2] and len(_closure([x, y])) == len(G):
                return x, y, z
    raise AssertionError(f"no vector with periods {periods}")


def _eichler_character(G, vector):
    """Trace on holomorphic 1-forms by the Eichler trace formula.

    An element s != 1 fixes the point g<c> over a branch value exactly when
    g^-1 s g = c^k, and rotates it by exp(2 pi i k / m); each fixed point adds
    z / (1 - z).  Counting over all g visits each coset m times.
    """
    orders = [_order(c) for c in vector]
    genus = 1 + Fraction(len(G), 2) * (len(vector) - 2 - sum(Fraction(1, m) for m in orders))
    powers = []
    for c, m in zip(vector, orders):
        x, exps = tuple(range(len(c))), {}
        for k in range(m):
            exps[x] = k
            x = _mul(x, c)
        powers.append((m, exps))
    chi = {}
    for s in G:
        if s == G[0]:
            chi[s] = complex(genus)
            continue
        value = 1
        for m, exps in powers:
            for g in G:
                k = exps.get(_mul(_mul(_inv(g), s), g))
                if k is not None:
                    z = cmath.exp(2j * cmath.pi * k / m)
                    value += z / (1 - z) / m
        chi[s] = value
    return genus, chi


@pytest.mark.parametrize("name", sorted(json.load(open(os.path.join(HERE, "expected.json")))["covers"]))
def test_cover_answers_by_eichler_trace_formula(name):
    want = workloads.load_expected()["covers"][name]
    G = GROUPS[name.split("-")[0]]()
    assert len(G) == want["order"]
    genus, chi = _eichler_character(G, _some_vector(G, want["periods"]))
    assert genus == want["genus"]
    n = len(G)
    assert abs(sum(chi.values()) / n) < 1e-9  # no invariant 1-forms on the sphere
    streit = sum((chi[s] ** 2 + chi[_mul(s, s)]) / 2 for s in G) / n
    assert abs(streit - want["streit_value"]) < 1e-9


@pytest.mark.parametrize("m", [8, 10, 12])
def test_family_answers_by_eichler_trace_formula(m):
    want = workloads.load_expected()["gm"][str(m)]
    G = _gm(m)
    assert len(G) == want["order"] and max(_order(g) for g in G) <= want["exponent"]
    genus, chi = _eichler_character(G, _some_vector(G, want["periods"]))
    assert genus == want["genus"]
    streit = sum((chi[s] ** 2 + chi[_mul(s, s)]) / 2 for s in G) / len(G)
    assert abs(streit - want["streit_value"]) < 1e-9


def _evaluate(word, names):
    result = tuple(range(len(next(iter(names.values())))))
    for token in word.split("*"):
        name, _, power = token.partition("^")
        g = names[name]
        e = int(power) if power else 1
        for _ in range(abs(e)):
            result = _mul(result, g if e > 0 else _inv(g))
    return result


@pytest.mark.parametrize("source", ["gm:8", "gm:10", "psl27", "a5"])
def test_command_line_vectors_are_generating_vectors(source):
    if source.startswith("gm:"):
        m = int(source[3:])
        inst = cmkit.build_gm(m)
        names = {n: tuple(getattr(inst, n).images) for n in "abt"}
        words, want = workloads.GM_VECTOR, workloads.load_expected()["gm"][str(m)]
    else:
        _, gens, words, key = workloads.FILE_GROUPS[source]
        names = {f"g{i}": tuple(g) for i, g in enumerate(gens)}
        want = workloads.load_expected()["covers"][key]
    conj = workloads._conjugator_word(random.Random(3), source)
    for vector in (",".join(words), workloads._conjugate_words(words, conj)):
        entries = [_evaluate(w, names) for w in vector.split(",")]
        product = entries[0]
        for e in entries[1:]:
            product = _mul(product, e)
        assert product == tuple(range(len(product)))
        assert sorted(_order(e) for e in entries) == want["periods"]
        assert len(_closure(entries)) == want["order"]
