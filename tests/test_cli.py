import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmkit.chartable
import cmkit.cli
import cmkit.criteria
import cmkit.lattice
import cmkit.surface
from cmkit import (
    CM_CERTIFIED,
    INCONCLUSIVE,
    CMVerdict,
    Cyclotomic,
    FiniteGroup,
    GroupTooLarge,
    InvalidCharacterTable,
    NonIntegralResult,
    Permutation,
    QuasiplatonicSurface,
    Signature,
    build_gm,
    canonical_vector,
    character_table,
    cm_verdict,
    find_generating_vectors,
    reverify_verdict,
)
from cmkit.cli import EXIT_INTERNAL, main
from cmkit.criteria import _search_certified_relation
from cmkit.reports import group_from_json
from conftest import run_optimized

GOLDEN = Path(__file__).parent / "golden"

V4_FILE = {"degree": 4, "generators": [[1, 0, 2, 3], [0, 1, 3, 2]]}
C6_FILE = {"degree": 6, "generators": [[1, 2, 3, 4, 5, 0]]}
S3_FILE = {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_analyze_gm6(capsys):
    code, payload = run_json(capsys, "analyze", "gm:6")
    assert code == 0
    assert payload["genus"] == 4
    assert payload["status"] == "CM_CERTIFIED"
    assert payload["streit_value"] == 0
    assert payload["signature"]["periods"] == [2, 6, 12]


def test_analyze_gm8(capsys):
    code, payload = run_json(capsys, "analyze", "gm:8")
    assert code == 0
    assert payload["genus"] == 5
    assert payload["status"] == "CM_CERTIFIED"


def test_streit_gm12(capsys):
    code, payload = run_json(capsys, "streit", "gm:12")
    assert code == 0
    assert payload["streit_value"] == 0
    assert payload["status"] == "CM_CERTIFIED"


def test_table_command(capsys):
    code, payload = run_json(capsys, "table", "gm:6")
    assert code == 0
    assert sorted(payload["degrees"]) == [1] * 12 + [2] * 3
    assert len(payload["classes"]) == 15
    assert payload["classes"][0]["representative"] == "()"
    assert all(len(row) == 15 for row in payload["irreducibles"])


def test_quotients_command(capsys):
    code, payload = run_json(capsys, "quotients", "gm:8")
    assert code == 0
    rows = payload["quotients"]
    assert rows[0]["order"] == 1 and rows[0]["genus"] == payload["genus"]
    for row in rows:
        assert row["genus"] == row["genus_by_character"]
        assert row["order"] * row["index"] == payload["group"]["order"]


def test_quotients_never_build_the_table(capsys, monkeypatch):
    """Both genera of every quotient come without a character table: no
    table, no Chevalley-Weil multiplicities and no fixed-space dimensions."""
    def no_table(*args):
        raise TableBuilt()

    monkeypatch.setattr(cmkit.cli, "character_table", no_table)
    monkeypatch.setattr(cmkit.chartable, "character_table", no_table)
    for module in (cmkit.surface, cmkit.criteria):
        monkeypatch.setattr(module, "chevalley_weil_multiplicities", no_table)
    monkeypatch.setattr(cmkit.chartable.CharacterTable, "fixed_dimensions", no_table)
    monkeypatch.chdir(GOLDEN)
    for name in ("quotients-gm:8", "quotients-a5"):
        argv, golden = GOLDEN_RUNS[name]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()


def test_quotients_run_up_to_order_2048(capsys):
    """gm:512 has order 2048, above the character-table bound."""
    code, payload = run_json(capsys, "quotients", "gm:512")
    assert code == 0
    assert payload["group"]["order"] == 2048
    assert all(row["genus"] == row["genus_by_character"] for row in payload["quotients"])


def test_verify_roundtrip_with_search_output(capsys, tmp_path):
    # verify accepts a relation payload produced by the library itself
    from cmkit.chartable import character_table
    from cmkit.criteria import _search_certified_relation
    from cmkit.gmfamily import build_gm, canonical_vector
    from cmkit.reports import relation_json
    from cmkit.surface import QuasiplatonicSurface

    inst = build_gm(8)
    X = QuasiplatonicSurface.from_vector(canonical_vector(inst))
    T = character_table(inst.group)
    relation, _, certs = _search_certified_relation(X, T, 1000, [])
    path = tmp_path / "relation.json"
    path.write_text(json.dumps({"relation": relation_json(X, relation, certs)}))
    code, payload = run_json(capsys, "verify", "gm:8", "--relation", str(path))
    assert code == 0
    assert payload["verified"] is True
    assert payload["genus_identity"]["lhs"] == payload["genus_identity"]["rhs"]


def test_verify_rejects_garbage(capsys, tmp_path):
    path = tmp_path / "relation.json"
    path.write_text("{not json")
    code, payload = run_json(capsys, "verify", "gm:8", "--relation", str(path))
    assert code == 1
    assert payload["error"] == "bad_relation"


def test_malformed_relation_names_its_field(capsys, tmp_path):
    path = tmp_path / "relation.json"
    path.write_text(json.dumps({"n": 1, "factors": "ab"}))
    code, payload = run_json(capsys, "verify", "gm:8", "--relation", str(path))
    assert code == 1
    assert payload == {"error": "bad_relation",
                       "detail": 'invalid relation payload: relation "factors" must be a list'}


def test_malformed_group_file_is_a_group_file_error(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": 5, "generators": "ab"}))
    code, payload = run_json(capsys, "streit", str(path), "--vector", "g0")
    assert code == 1
    assert payload == {"error": "bad_group_file", "detail":
                       'group file needs {"degree": int, "generators": [[int,...],...]}'}


def test_group_file_degree_is_bounded(capsys, tmp_path):
    """A file group's elements hold |G| * degree image entries, bounded by the
    max_order^2 entries of its Cayley table: under --max-order 16, C8 padded
    to degree 600 is refused before any image tuple is built, and padded to
    degree 40 it stops past 256 // 40 = 6 elements.  A degree of 10^12 is
    refused at once."""
    path = tmp_path / "c8.json"
    for degree, detail in ((600, "degree 600 exceeds the image bound 16^2"),
                           (40, "order bound 6 for degree 40 exceeded (image bound 16^2)")):
        path.write_text(json.dumps({"degree": degree, "generators": [
            [(i + 1) % 8 for i in range(8)] + list(range(8, degree))]}))
        code, payload = run_json(capsys, "table", str(path), "--max-order", "16")
        assert (code, payload) == (2, {"error": "bound_exceeded", "detail": detail})
    code, payload = run_json(capsys, "table", str(path), "--max-order", "20")
    assert code == 0 and payload["group"]["order"] == 8
    with pytest.raises(GroupTooLarge):
        group_from_json({"degree": 10 ** 12, "generators": []}, 2048)


@pytest.mark.parametrize("degree", [0, -5])
def test_group_file_degree_below_one_is_a_group_file_error(capsys, tmp_path, degree):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": degree, "generators": []}))
    code, payload = run_json(capsys, "table", str(path))
    assert (code, payload) == (1, {"error": "bad_group_file",
                                   "detail": f"group degree {degree} is below 1"})


# Runs argv as a grandchild and prints its exit code and peak RSS (KiB).  A
# child's ru_maxrss starts at its parent's peak when the parent forks or
# vforks it, so the grandchild of a small Python reads its own peak, not the
# test runner's.
PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""


def test_huge_identity_table_stays_within_its_memory_budget(tmp_path):
    """The 38-byte file of the identity on 3,000,000 points: its cycle string
    walks only the points that move, so `cmkit table` peaks under 200 MB,
    where building a 1-tuple per fixed point took it to about 406 MB."""
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"degree": 3000000, "generators": []}))
    code, peak_kib = map(int, run_optimized(
        "-c", PEAK_RSS, sys.executable, "-m", "cmkit.cli", "table", str(path)).split())
    assert code == 0
    assert peak_kib < 200 * 1024


def test_file_group_with_vector(capsys, tmp_path):
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(C6_FILE))
    code, payload = run_json(capsys, "streit", str(path),
                             "--vector", "g0^3,g0^3,g0^2,g0^4")
    assert code == 0
    assert payload["genus"] == 2
    assert payload["streit_value"] == 1
    assert payload["status"] == "INCONCLUSIVE"


def test_file_group_needs_vector(capsys, tmp_path):
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(V4_FILE))
    code, payload = run_json(capsys, "analyze", str(path))
    assert code == 1
    assert payload["error"] == "missing_vector"


def test_vector_as_image_arrays(capsys, tmp_path):
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(C6_FILE))
    g = [1, 2, 3, 4, 5, 0]
    g2 = [2, 3, 4, 5, 0, 1]
    g3 = [3, 4, 5, 0, 1, 2]
    g4 = [4, 5, 0, 1, 2, 3]
    vec = json.dumps([g3, g3, g2, g4])
    code, payload = run_json(capsys, "streit", str(path), "--vector", vec)
    assert code == 0 and payload["genus"] == 2
    # entries that are not integer image arrays are refused, not coerced
    a5 = str(GOLDEN / "a5_group.json")
    for bad in ("[[3.7, 4, 2, 0, 1], [1, 2, 3, 4, 0], [2, 3, 1, 4, 0]]",
                "[[true, 0, 2, 3, 4], [1, 2, 3, 4, 0], [2, 3, 1, 4, 0]]",
                '[["1", 0, 2, 3, 4], [1, 2, 3, 4, 0], [2, 3, 1, 4, 0]]',
                "[1,2]"):
        code, payload = run_json(capsys, "streit", a5, "--vector", bad)
        assert code == 1
        assert payload == {"error": "bad_vector", "detail": "a JSON vector must be an "
                           "array of image arrays [[int,...],...]"}


def test_unknown_source(capsys):
    code, payload = run_json(capsys, "analyze", "nope:1")
    assert code == 1
    assert payload["error"] == "unknown_source"


def test_invalid_parameter(capsys):
    code, payload = run_json(capsys, "analyze", "gm:7")
    assert code == 1
    assert payload["error"] == "invalid_parameter"


def test_bound_exceeded_exit_code(capsys):
    code, payload = run_json(capsys, "analyze", "gm:6", "--max-order", "10")
    assert code == 2
    assert payload["error"] == "bound_exceeded"
    # a bound below 1 is a malformed argument, not an exceeded bound
    for bound in ("0", "-1"):
        code, payload = run_json(capsys, "analyze", "gm:6", "--max-order", bound)
        assert code == 1
        assert payload == {"error": "bad_arguments", "detail":
                           f"argument --max-order: '{bound}' is not a positive integer"}


def test_character_table_bound_exits_2(capsys, monkeypatch):
    """`character_table` reads `DEFAULT_CHARTABLE_BOUND` when it is called:
    lowered below the group order, `table` exits 2 with `bound_exceeded`."""
    monkeypatch.setattr(cmkit.chartable, "DEFAULT_CHARTABLE_BOUND", 10)
    code, payload = run_json(capsys, "table", "gm:6")
    assert (code, payload) == (2, {"error": "bound_exceeded",
                                   "detail": "character table bound 10 exceeded (order 24)"})


def test_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("CMKIT_MAX_ORDER", "10")
    code, payload = run_json(capsys, "analyze", "gm:6")
    assert code == 2
    for value in ("not-a-number", "0", "-1"):
        monkeypatch.setenv("CMKIT_MAX_ORDER", value)
        code, payload = run_json(capsys, "analyze", "gm:6")
        assert code == 1 and payload["error"] == "bad_env"


def test_bad_arguments_exit_code(capsys):
    code, payload = run_json(capsys, "frobnicate", "gm:6")
    assert code == 1
    assert payload["error"] == "bad_arguments"


def test_negative_search_limit_is_bad_arguments(capsys, monkeypatch):
    """A negative limit is refused; 0 searches nothing and is INCONCLUSIVE."""
    monkeypatch.chdir(GOLDEN)
    a5 = ["analyze", "a5_group.json", "--vector", "g0^2*g1,g0,g0^-1*g1^-1*g0^-2"]
    for argv in (a5 + ["--search-limit", "-1"], ["batch", "gm:6", "--search-limit", "-1"]):
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert payload == {"error": "bad_arguments", "detail":
                           "argument --search-limit: '-1' is not a non-negative integer"}
    code, payload = run_json(capsys, *a5, "--search-limit", "0")
    assert code == 0 and payload["status"] == INCONCLUSIVE


def test_batch_sweep(capsys):
    sources = [f"gm:{m}" for m in range(6, 22, 2)]
    code, payload = run_json(capsys, "batch", *sources)
    assert code == 0
    assert len(payload["results"]) == 8
    assert all(r["status"] == "CM_CERTIFIED" for r in payload["results"])
    assert len(payload["summary"]) == 8


def test_batch_empty_is_an_error(capsys):
    code, payload = run_json(capsys, "batch")
    assert code == 1
    assert payload["error"] == "empty_batch"


def test_batch_isolates_failures(capsys):
    code, payload = run_json(capsys, "batch", "gm:6", "gm:7", "--run", "streit")
    assert code == 1
    good, bad = payload["results"]
    assert good["status"] == "CM_CERTIFIED"
    assert bad["error"] == "invalid_parameter"


def test_failed_internal_identity_is_not_bad_input(capsys, monkeypatch):
    def broken_table(G):
        raise InvalidCharacterTable("degree-sum identity failed")

    def broken_streit(X):
        raise NonIntegralResult("symmetric-square sum is not rational")

    monkeypatch.setattr(cmkit.cli, "character_table", broken_table)
    code, payload = run_json(capsys, "table", "gm:6")
    assert code == EXIT_INTERNAL == 3
    assert payload == {"error": "internal_check_failed",
                       "detail": "degree-sum identity failed"}
    monkeypatch.setattr(cmkit.criteria, "streit_test", broken_streit)
    code, payload = run_json(capsys, "batch", "gm:6")
    assert code == EXIT_INTERNAL
    assert payload["results"] == [{"source": "gm:6", "error": "internal_check_failed",
                                   "detail": "symmetric-square sum is not rational"}]
    assert payload["summary"] == ["gm:6: error internal_check_failed"]


def test_dropped_conjugate_is_an_internal_failure(capsys, monkeypatch):
    """A subgroup lattice that is not closed under conjugation stops
    `quotients` with exit 3, not with a payload that misses a quotient."""
    classes = cmkit.lattice.subgroup_classes

    def dropping(*args):
        found = classes(*args)
        next(members for members in found if len(members) > 1).pop()
        return found

    monkeypatch.setattr(cmkit.lattice, "subgroup_classes", dropping)
    monkeypatch.chdir(GOLDEN)
    code, payload = run_json(capsys, "quotients", "a5_group.json", "--vector",
                             "g0^2*g1,g0,g0^-1*g1^-1*g0^-2")
    assert code == EXIT_INTERNAL
    assert payload["error"] == "internal_check_failed"


class TableBuilt(Exception):
    pass


def test_streit_zero_runs_never_build_the_table(capsys, monkeypatch):
    """streit, analyze and batch on Streit-zero surfaces read no character
    table; a positive value (A5 with (2,5,5)) still builds one."""
    def no_table(G):
        raise TableBuilt()

    monkeypatch.setattr(cmkit.cli, "character_table", no_table)
    monkeypatch.setattr(cmkit.criteria, "character_table", no_table)
    monkeypatch.chdir(GOLDEN)
    for argv, golden in (GOLDEN_RUNS["streit-gm:12"], GOLDEN_RUNS["analyze-gm:10"]):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()
    code, payload = run_json(capsys, "batch", "gm:8", "gm:12")
    assert code == 0
    assert [row["status"] for row in payload["results"]] == ["CM_CERTIFIED"] * 2
    with pytest.raises(TableBuilt):
        main(GOLDEN_RUNS["analyze-a5-255"][0])


def test_analyze_without_a_search_builds_no_table(capsys, monkeypatch, tmp_path):
    """S3 with four transpositions: genus 1, value 1, and no relation search
    on a four-point cover, so `analyze` needs no table and computes the
    value once."""
    def no_table(G):
        raise InvalidCharacterTable("character table built")

    calls = []

    def counted(X, real=cmkit.criteria.streit_test):
        calls.append(X)
        return real(X)

    for module in (cmkit.cli, cmkit.criteria):
        monkeypatch.setattr(module, "character_table", no_table)
        monkeypatch.setattr(module, "streit_test", counted)
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3_FILE))
    code, payload = run_json(capsys, "analyze", str(path), "--vector",
                             "[[1,0,2],[1,0,2],[0,2,1],[0,2,1]]")
    assert code == 0
    assert (payload["genus"], payload["streit_value"]) == (1, 1)
    assert payload["status"] == INCONCLUSIVE
    assert [entry["stage"] for entry in payload["search_log"]] == ["skipped_search"]
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["streit-gm:12", "analyze-gm:10"])
def test_golden_output_under_optimize(name):
    """The small pipeline under `python -O` prints the same bytes."""
    argv, golden = GOLDEN_RUNS[name]
    out = run_optimized("-m", "cmkit.cli", *argv, cwd=GOLDEN)
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_byte_identical_output(capsys):
    _, first = run(capsys, "analyze", "gm:10")
    _, second = run(capsys, "analyze", "gm:10")
    assert first == second
    _, t1 = run(capsys, "table", "gm:8", "--format", "table")
    _, t2 = run(capsys, "table", "gm:8", "--format", "table")
    assert t1 == t2


# id -> (argv, golden stdout file).  Requests run inside tests/golden, where
# the A5 and PSL(2,7) group files and the gm:12 relation file live, so that
# the relative source path recorded in the payload is the same wherever
# pytest starts.  PSL(2,7) acts by x -> x + 1 and x -> -1/x on the projective
# line over F_7 (7 stands for infinity); its table has irrational values at
# conductor 84.
GOLDEN_RUNS = {
    "table-gm:8": (["table", "gm:8"], "table_gm8.json"),
    "streit-gm:12": (["streit", "gm:12"], "streit_gm12.json"),
    "quotients-gm:8": (["quotients", "gm:8"], "quotients_gm8.json"),
    "analyze-gm:10": (["analyze", "gm:10"], "analyze_gm10.json"),
    "verify-gm:12": (["verify", "gm:12", "--relation", "gm12_relation.json"],
                     "verify_gm12.json"),
    "quotients-gm:8-table": (["quotients", "gm:8", "--format", "table"],
                             "quotients_gm8.txt"),
    "analyze-a5-255": (["analyze", "a5_group.json", "--vector",
                        "g0^2*g1,g0,g0^-1*g1^-1*g0^-2", "--search-limit", "5"],
                       "analyze_a5.json"),
    "quotients-a5": (["quotients", "a5_group.json", "--vector",
                      "g0^2*g1,g0,g0^-1*g1^-1*g0^-2"], "quotients_a5.json"),
    "table-gm:16": (["table", "gm:16"], "table_gm16.json"),
    "table-psl27": (["table", "psl27_group.json"], "table_psl27.json"),
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_golden_output(capsys, monkeypatch, name):
    """stdout is byte-identical to the committed output of the same request."""
    argv, golden = GOLDEN_RUNS[name]
    monkeypatch.chdir(GOLDEN)
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


# sha256 of stdout for tables too large to commit as goldens.
TABLE_DIGESTS = {
    "gm:32": "c8b176c6959dc77dc0484dc93d47375451a80b92b8806c59676c76fa12a2a66a",
    "gm:64": "374ef0670989e7fe870e0888ddfda20dd09a66dec19f8fa64314457e7b1967b9",
}


@pytest.mark.parametrize("source", list(TABLE_DIGESTS))
def test_large_table_digest(capsys, monkeypatch, source):
    monkeypatch.chdir(GOLDEN)
    code, out = run(capsys, "table", source)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[source]


def test_table_format_output(capsys):
    code, out = run(capsys, "batch", "gm:6", "gm:8", "--format", "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["gm:6: CM_CERTIFIED genus=4 streit=0",
                     "gm:8: CM_CERTIFIED genus=5 streit=0"]


CYCLOTOMIC_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                         "__truediv__", "__pow__", "galois")


def test_verdicts_and_payloads_need_no_cyclotomic_arithmetic(capsys, monkeypatch):
    """With `Cyclotomic` arithmetic disabled, every golden request prints the
    same bytes, and verdicts and their re-verification still run: class sums
    after the table is built are made exact from the spectra."""
    def disabled(*args, **kwargs):
        raise AssertionError("Cyclotomic arithmetic on the production path")

    for name in CYCLOTOMIC_ARITHMETIC:
        monkeypatch.setattr(Cyclotomic, name, disabled)
    monkeypatch.chdir(GOLDEN)
    for argv, golden in GOLDEN_RUNS.values():
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()
    G = FiniteGroup.from_generators(5, [Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
                                        Permutation.from_cycles(5, [(0, 1, 2)])])
    X = QuasiplatonicSurface.from_vector(find_generating_vectors(G, Signature(0, (2, 5, 5)))[0])
    T = character_table(G)
    verdict = cm_verdict(X, T, search_limit=5)
    assert verdict.status == INCONCLUSIVE and verdict.streit_value > 0
    assert not reverify_verdict(X, T, verdict)
    X = QuasiplatonicSurface.from_vector(canonical_vector(build_gm(8)))
    T = character_table(X.group)
    relation, report, certificates = _search_certified_relation(X, T, 1000, [])
    # a nonzero value sends re-verification down the relation route
    certified = CMVerdict(CM_CERTIFIED, 1, relation, certificates, report)
    assert reverify_verdict(X, T, certified)


def test_verdicts_and_payloads_build_no_cyclotomic_value(capsys, monkeypatch):
    """With `Cyclotomic` construction refused, tables, verdicts and their
    re-verification run on fresh gm:8, gm:10 and gm:12, and every golden
    request prints the same bytes: the table is its spectra, the `table`
    payload prints their coefficient vectors, and cyclotomic values are built
    only for the oracle."""
    def refused(*args, **kwargs):
        raise AssertionError("Cyclotomic value built on a verdict path")

    monkeypatch.setattr(Cyclotomic, "__init__", refused)
    for m in (8, 10, 12):
        X = QuasiplatonicSurface.from_vector(canonical_vector(build_gm(m)))
        T = character_table(X.group)
        verdict = cm_verdict(X, T)
        assert verdict.status == CM_CERTIFIED
        assert reverify_verdict(X, T, verdict)
    monkeypatch.chdir(GOLDEN)
    for argv, golden in GOLDEN_RUNS.values():
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()


def test_cold_import_loads_no_dataclasses_or_inspect():
    """Every command line call imports `cmkit.cli` afresh, and the value
    types are slotted records: the import must not load `dataclasses` or the
    modules it pulls in, whose import is about a third of a cold start."""
    code = ("import sys; before = set(sys.modules); import cmkit.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(cmkit.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "cmkit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}
