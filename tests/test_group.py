import ast
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cmkit
from cmkit import (
    FiniteGroup,
    GroupTooLarge,
    InternalCheckFailed,
    NotNormal,
    Permutation,
    Subgroup,
    SubgroupMismatch,
    build_gm,
)
from cmkit import lattice
from cmkit.cli import main
from cmkit.criteria import check_statement_a
from cmkit.surface import _cycle_type
from conftest import (
    _coset_permutation,
    _permutation_cosets,
    abelian_invariants_reference,
    alternating_5,
    bfs_closure,
    cyclic_product,
    cyclic_7_squared,
    dimino_lattice_reference,
    elementary_abelian_2,
    gm_bundle,
    index_table,
    klein_4,
    psl_2_7,
    psl_2_8,
    reference_generators,
    reference_subgroups,
    reference_table,
    run_optimized,
    small_permutation_groups,
    statement_a_reference,
    symmetric_3,
    symmetric_4,
    symmetric_5,
)


def test_from_generators_examples(v4):
    assert v4.order == 4
    assert build_gm(6).group.order == 24
    assert FiniteGroup.from_generators(3, []).order == 1


def test_order_bound():
    with pytest.raises(GroupTooLarge):
        FiniteGroup.from_generators(10, [Permutation.from_cycles(10, [tuple(range(10))])],
                                    max_order=5)


@pytest.mark.parametrize("maker", [
    pytest.param(FiniteGroup.trivial, id="C1"),
    pytest.param(lambda: FiniteGroup.cyclic(6), id="C6"),
    pytest.param(klein_4, id="V4"),
    pytest.param(symmetric_4, id="S4"),
    pytest.param(alternating_5, id="A5"),
    pytest.param(symmetric_5, id="S5"),
    pytest.param(psl_2_7, id="PSL(2,7)"),
    pytest.param(cyclic_7_squared, id="C7xC7"),
    *(pytest.param(lambda m=m: build_gm(m).group, id=f"gm:{m}") for m in range(6, 22, 2)),
])
def test_cayley_table_matches_permutation_products(maker):
    """The table read off the closure's generator steps, and the inverses
    read from it, equal the products and inverses of the `Permutation`s."""
    G = maker()
    assert index_table(G) == reference_table(G)


# S7 (order 5040) is past the default order bound of 2048; its table would
# hold about 25M entries, so neither check may build it.
S7_FILE = {"degree": 7, "generators": [[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]]}


def test_default_order_bound_stops_the_build(tmp_path, capsys):
    gens = [Permutation(images) for images in S7_FILE["generators"]]
    with pytest.raises(GroupTooLarge):
        FiniteGroup(7, gens)
    path = tmp_path / "s7.json"
    path.write_text(json.dumps(S7_FILE))
    code = main(["table", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == "bound_exceeded"


def test_no_asserts_in_the_package():
    """Checks must survive `python -O`, which strips `assert` statements."""
    package = Path(cmkit.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_closure_and_lagrange(s3):
    for G in (s3, klein_4(), build_gm(6).group):
        els = set(G.elements)
        rng = random.Random(7)
        for _ in range(50):
            x, y = rng.choice(G.elements), rng.choice(G.elements)
            assert x * y in els
        for H in G.all_subgroups():
            assert G.order % H.order == 0


def test_conjugacy_classes_examples(s3, v4):
    assert [c.size for c in v4.conjugacy_classes()] == [1, 1, 1, 1]
    assert [c.size for c in s3.conjugacy_classes()] == [1, 3, 2]
    # class count equals irreducible count for gm(6)
    inst, _, T = gm_bundle(6)
    assert len(inst.group.conjugacy_classes()) == len(T.irreducibles)


def test_class_equation(s3):
    for G in (s3, build_gm(8).group):
        assert sum(c.size for c in G.conjugacy_classes()) == G.order
        assert G.conjugacy_classes()[0].representative.is_identity()


def test_classes_are_conjugation_orbits(s3):
    G = build_gm(6).group
    for cls in G.conjugacy_classes():
        members = set(cls.members)
        for g in G.generators:
            gi = g.inverse()
            assert {g * x * gi for x in members} == members


def test_all_subgroups_counts(v4):
    assert len(v4.all_subgroups()) == 5
    assert len(FiniteGroup.cyclic(6).all_subgroups()) == 4


def test_all_subgroups_against_pair_closure_oracle():
    # every subgroup generated by a pair (or triple) must already be listed
    G = build_gm(8).group
    listed = {H.element_set for H in G.all_subgroups()}
    for x in G.elements:
        for y in G.elements:
            assert G.subgroup_generated([x, y]).element_set in listed
    rng = random.Random(3)
    for _ in range(150):
        trip = [rng.choice(G.elements) for _ in range(3)]
        assert G.subgroup_generated(trip).element_set in listed


def test_all_subgroups_oracle_up_to_order_64():
    rng = random.Random(17)
    for G in (build_gm(12).group, build_gm(16).group):
        listed = {H.element_set for H in G.all_subgroups()}
        for _ in range(200):
            seed = [rng.choice(G.elements) for _ in range(rng.randint(1, 3))]
            assert G.subgroup_generated(seed).element_set in listed


def test_subgroup_enumeration_bound():
    G = build_gm(6).group
    with pytest.raises(GroupTooLarge):
        G.all_subgroups(bound=10)


LATTICE_GROUPS = [
    pytest.param(symmetric_5, id="S5"),
    pytest.param(alternating_5, id="A5"),
    pytest.param(psl_2_7, id="PSL(2,7)"),
    *(pytest.param(lambda m=m: build_gm(m).group, id=f"gm:{m}") for m in range(6, 34, 2)),
    pytest.param(cyclic_7_squared, id="C7xC7"),
    pytest.param(lambda: elementary_abelian_2(5), id="C2^5"),
]


@pytest.mark.parametrize("maker", LATTICE_GROUPS)
def test_all_subgroups_match_the_from_scratch_lattice(maker):
    """Joins grown coset by coset give the same subgroups, in the same order,
    with the same first-found generators as joins closed from scratch."""
    G = maker()
    assert [(H.indices, H._gens) for H in G.all_subgroups()] == reference_subgroups(G)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_permutation_groups())
def test_random_lattices_match_the_from_scratch_lattice(G):
    subgroups = G.all_subgroups()
    found = [(H.indices, H._gens) for H in subgroups]
    assert found == reference_subgroups(G) == dimino_lattice_reference(G)
    for H in subgroups:
        fresh = Subgroup(G, H.indices)
        fresh.generators()
        assert fresh._gens == reference_generators(G, H.indices)
    rng = random.Random(G.order)
    for _ in range(20):
        seed = [rng.randrange(G.order) for _ in range(rng.randint(0, 3))]
        assert G.index_closure(seed) == bfs_closure(G, seed)


@pytest.mark.parametrize("maker", [*LATTICE_GROUPS, pytest.param(psl_2_8, id="PSL(2,8)")])
def test_all_subgroups_match_the_dimino_traversal(maker):
    """The class pass and the bitset replay give the subgroups, in the same
    order, with the same generators as the traversal that grows every join of
    a subgroup with a cyclic subgroup by `_grow` (PSL(2,8): 386 subgroups)."""
    G = maker()
    G = FiniteGroup(G.degree, G.generators)  # a fresh group: no cached lattice
    assert [(H.indices, H._gens) for H in G.all_subgroups()] == dimino_lattice_reference(G)


def _spy_on_classes(monkeypatch):
    """The list that collects each result of `lattice.subgroup_classes`."""
    found, classes = [], lattice.subgroup_classes

    def spy(*args):
        found.append(classes(*args))
        return found[-1]

    monkeypatch.setattr(lattice, "subgroup_classes", spy)
    return found


@pytest.mark.parametrize("maker, count", [
    pytest.param(alternating_5, 9, id="A5"),
    pytest.param(symmetric_4, 11, id="S4"),
    pytest.param(symmetric_5, 19, id="S5"),
    pytest.param(psl_2_7, 15, id="PSL(2,7)"),
    pytest.param(psl_2_8, 12, id="PSL(2,8)"),
    pytest.param(lambda: build_gm(12).group, 34, id="gm:12"),
    pytest.param(lambda: build_gm(16).group, 33, id="gm:16"),
    pytest.param(lambda: build_gm(32).group, 41, id="gm:32"),
    pytest.param(lambda: elementary_abelian_2(5), 374, id="C2^5"),
])
def test_class_pass_finds_each_class_once(monkeypatch, maker, count):
    """The class pass lists each class of subgroups once and whole: its
    classes are the lattice's orbits under conjugation by G's generators,
    computed on `Permutation`s, and each subgroup carries its class's number."""
    G = maker()
    G = FiniteGroup(G.degree, G.generators)
    found = _spy_on_classes(monkeypatch)
    subgroups = G.all_subgroups()
    (classes,) = found
    assert len(classes) == count
    orbits, placed = [], set()
    for H in subgroups:
        if H.element_set in placed:
            continue
        orbit = [H.element_set]
        placed.add(H.element_set)
        for members in orbit:
            for g in G.generators:
                image = frozenset(g * x * g.inverse() for x in members)
                if image not in placed:
                    placed.add(image)
                    orbit.append(image)
        orbits.append(sorted(tuple(sorted(map(G.index_of, members))) for members in orbit))
    assert sorted(sorted(members) for members in classes) == sorted(orbits)
    assert all(H.indices in classes[H._class] for H in subgroups)


DROPPED_CONJUGATE = """
from cmkit import FiniteGroup, InternalCheckFailed, Permutation, lattice
classes = lattice.subgroup_classes

def dropping(*args):
    found = classes(*args)
    next(members for members in found if len(members) > 1).pop()
    return found

lattice.subgroup_classes = dropping
A5 = FiniteGroup(5, [Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
                     Permutation.from_cycles(5, [(0, 1, 2)])])
try:
    A5.all_subgroups()
except InternalCheckFailed as ex:
    print("rejected:", ex)
else:
    print("accepted")
"""


def test_dropped_conjugate_fails_the_lattice_check_under_optimize():
    """A class pass that loses one conjugate leaves a lattice that is not
    closed under conjugation; the replay's check is a raise, so it survives
    `python -O`."""
    assert run_optimized("-c", DROPPED_CONJUGATE).splitlines() == [
        "rejected: a conjugate of the subgroup of order 3 generated by (28,) is missing",
    ]


EVERY_DROP = """
from cmkit import FiniteGroup, InternalCheckFailed, lattice
from conftest import alternating_5, symmetric_5
classes = lattice.subgroup_classes
for name, maker in (("A5", alternating_5), ("S5", symmetric_5)):
    G = maker()
    found = []
    lattice.subgroup_classes = lambda *args: found.append(classes(*args)) or found[-1]
    FiniteGroup(G.degree, G.generators).all_subgroups()
    drops = [(c, m) for c, members in enumerate(found[0]) for m in range(len(members))]
    rejected = 0
    for c, m in drops:
        dropped = [list(members) for members in found[0]]
        del dropped[c][m]
        lattice.subgroup_classes = lambda *args: dropped
        try:
            FiniteGroup(G.degree, G.generators).all_subgroups()
        except InternalCheckFailed:
            rejected += 1
    print(f"{name}: {rejected} of {len(drops)} drops rejected")
"""


def test_every_dropped_subgroup_fails_the_lattice_checks_under_optimize():
    """A class pass that loses any one subgroup of A5 or S5, normal ones and
    whole classes included, is rejected: the lattice must run from the
    trivial subgroup to G, and each recorded generator tuple must grow to its
    subgroup.  The checks are raises, so they survive `python -O`."""
    assert run_optimized("-c", EVERY_DROP, cwd=Path(__file__).parent).splitlines() == [
        "A5: 59 of 59 drops rejected",
        "S5: 156 of 156 drops rejected",
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_permutation_groups())
def test_class_weights_and_normality_match_permutation_counts(G):
    """|H cap C| counted on `Permutation`s (members of each class that lie in
    H) is `class_weights()`; the normalizer, which tests each coset of H on
    H's generators, is {x : xHx^-1 = H} on `Permutation`s, and normality by
    class weights agrees with it; statement A on a proper non-trivial normal
    H, read off H's elements, agrees with the quotient group's reference;
    and the cycle type of each class on H's cosets is that of its
    representative's `Permutation` action."""
    classes = G.conjugacy_classes()
    conjugation = {x: {g: x * g * x.inverse() for g in G.elements} for x in G.elements}
    for H in G.all_subgroups():
        assert H.class_weights() == tuple(
            sum(g in H.element_set for g in cls.members) for cls in classes)
        assert G.normalizer(H).element_set == {
            x for x, image in conjugation.items()
            if {image[h] for h in H.elements} == H.element_set}
        assert G.is_normal(H) == (G.normalizer(H).order == G.order)
        if G.is_normal(H) and H.is_proper_nontrivial():
            assert check_statement_a(G, H) == statement_a_reference(G, H)
        cosets = _permutation_cosets(G, H)
        actions = [_coset_permutation(cls.representative, cosets) for cls in classes]
        assert [_cycle_type(H, c) for c in range(len(classes))] == [
            tuple(sorted((len(c) for c in p.all_cycles()), reverse=True)) for p in actions]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_permutation_groups(), st.data())
def test_joins_agree_on_the_left_coset_and_the_conjugates(G, data):
    """The two identities the lattice skips joins by: with K = <H, i> for a
    cyclic <i> not inside H, <H, x> = K for every x in iH and for every
    conjugate g*i*g^-1 by g in H."""
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2), label="seed")
    H = bfs_closure(G, seed)
    outside = [i for i in range(G.order) if i not in H]
    assume(outside)
    i = data.draw(st.sampled_from(outside), label="i")
    K = bfs_closure(G, (*seed, i))
    g_i = G.elements[i]
    for h in sorted(H):
        g_h = G.elements[h]
        for x in (g_i * g_h, g_h * g_i * g_h.inverse()):
            assert bfs_closure(G, (*seed, G.index_of(x))) == K


@pytest.mark.parametrize("maker, most", [
    pytest.param(symmetric_5, 400, id="S5"),
    pytest.param(psl_2_7, 400, id="PSL(2,7)"),
    pytest.param(lambda: elementary_abelian_2(6), 25_000, id="C2^6"),
])
def test_all_subgroups_skips_known_joins(monkeypatch, maker, most):
    """Only class representatives are joined, each cyclic subgroup at most
    once up to the representative's left cosets and normalizer: S5 makes 83
    `_grow` calls and PSL(2,7) 59, against 2,652 and 3,845 when every
    subgroup was joined up to its own left cosets and conjugates, and 9,680
    and 13,286 when every subgroup was joined with every cyclic subgroup.
    C2^6 makes 23,562, since each of its 2,825 classes has one member.
    After the class pass, checking the generator tuples takes one more
    `_grow` call per subgroup."""
    G = maker()
    G = FiniteGroup(G.degree, G.generators)  # a fresh group: no cached lattice
    calls, joins, grow, classes = 0, None, G._grow, lattice.subgroup_classes

    def counted(*args):
        nonlocal calls
        calls += 1
        return grow(*args)

    def class_pass(*args):
        nonlocal joins
        found = classes(*args)
        joins = calls
        return found

    G._grow = counted
    monkeypatch.setattr(lattice, "subgroup_classes", class_pass)
    subgroups = G.all_subgroups()
    assert joins <= most
    assert calls == joins + len(subgroups)


def test_subgroup_count_bound():
    """The bound counts subgroups, not the group order: C13 has 2."""
    C13 = FiniteGroup.cyclic(13)
    assert [H.order for H in C13.all_subgroups(bound=10)] == [1, 13]
    with pytest.raises(GroupTooLarge):
        C13.all_subgroups(bound=1)


SUBGROUP_BOUND_C2_6 = """
from cmkit import FiniteGroup, GroupTooLarge, Permutation
G = FiniteGroup(12, [Permutation.from_cycles(12, [(2 * j, 2 * j + 1)]) for j in range(6)])
try:
    G.all_subgroups(bound=1000)
except GroupTooLarge as ex:
    print("rejected:", ex)
else:
    print("accepted")
"""


def test_subgroup_count_bound_survives_optimize():
    """C2^6 has 2,825 subgroups; the count bound stops it under `python -O`."""
    assert run_optimized("-c", SUBGROUP_BOUND_C2_6).splitlines() == [
        "rejected: subgroup enumeration bound 1000 exceeded",
    ]


def test_is_normal_examples(s3):
    inst = build_gm(10)
    assert inst.group.is_normal(inst.subgroup_a())
    H = s3.subgroup_generated([Permutation([1, 0, 2])])
    assert not s3.is_normal(H)
    assert s3.is_normal(s3.full_subgroup())


def test_subgroup_mismatch(s3, v4):
    H = v4.subgroup_generated([v4.generators[0]])
    with pytest.raises(SubgroupMismatch):
        s3.is_normal(H)


def test_normalizer_examples(s3):
    H = s3.subgroup_generated([Permutation([1, 0, 2])])
    assert s3.normalizer(H) == H
    inst = build_gm(8)
    Nb = inst.group.normalizer(inst.subgroup_b())
    assert Nb.order == 16
    # t^2 normalizes <b> while t does not
    t = inst.t
    assert t * t in Nb and t not in Nb
    # a normal subgroup's normalizer is the whole group
    assert inst.group.normalizer(inst.subgroup_a()).order == inst.group.order


def test_quotient_group_examples(v4):
    inst = build_gm(6)
    Q = inst.group.quotient_with_map(inst.subgroup_a())[0]
    assert Q.order == 12 and Q.is_abelian()
    assert v4.quotient_with_map(v4.full_subgroup())[0].order == 1
    C2 = v4.quotient_with_map(v4.subgroup_generated([v4.generators[0]]))[0]
    assert C2.order == 2


def test_quotient_requires_normality(s3):
    H = s3.subgroup_generated([Permutation([1, 0, 2])])
    with pytest.raises(NotNormal):
        s3.quotient_with_map(H)[0]


def test_quotient_order_times_kernel(s3):
    G = build_gm(8).group
    for H in G.all_subgroups():
        if G.is_normal(H):
            assert G.quotient_with_map(H)[0].order * H.order == G.order


def test_is_abelian(v4):
    assert v4.is_abelian()
    assert not build_gm(6).group.is_abelian()
    assert FiniteGroup.trivial().is_abelian()


def test_coset_action_examples(s3, v4):
    # trivial subgroup: regular action
    act = s3.coset_action(s3.trivial_subgroup())
    assert act[s3.generators[0]].degree == 6
    # full subgroup: everything collapses to one point
    act = s3.coset_action(s3.full_subgroup())
    assert all(p.degree == 1 for p in act.values())
    # index-3 subgroup of S3 recovers the natural action
    H = s3.subgroup_generated([Permutation([1, 0, 2])])
    act = s3.coset_action(H)
    images = set(act.values())
    assert len(images) == 6 and all(p.degree == 3 for p in images)


def test_coset_action_is_homomorphism_exhaustively(s3):
    # exhaustive on groups of modest order
    inst = build_gm(6)
    for G, H in ((s3, s3.subgroup_generated([Permutation([1, 0, 2])])),
                 (inst.group, inst.subgroup_a())):
        act = G.coset_action(H)
        for x in G.elements:
            for y in G.elements:
                assert act[x * y] == act[x] * act[y]


def test_is_cyclic_reads_class_orders():
    """Element orders from the class table agree with `Permutation.order`."""
    for G in (symmetric_4(), klein_4(), build_gm(8).group):
        for H in G.all_subgroups():
            assert H.is_cyclic() == any(g.order() == H.order for g in H.elements)


def test_abelian_invariants():
    inst = build_gm(6)
    Q = inst.group.quotient_with_map(inst.subgroup_a())[0]
    assert Q.abelian_invariants() == (2, 6)
    assert FiniteGroup.cyclic(12).abelian_invariants() == (12,)
    assert klein_4().abelian_invariants() == (2, 2)
    with pytest.raises(ValueError):
        symmetric_3().abelian_invariants()


def test_quotient_invariants_are_counted_on_the_parent_classes():
    """For K normal, whether G/K is abelian and its invariant factors, read off
    K's element indices and G's classes, agree with the quotient group; a
    count not divisible by the stated |K| raises."""
    for G in (build_gm(8).group, symmetric_4(), cyclic_product(4, 6)):
        for K in G.all_subgroups():
            if G.is_normal(K):
                members, Q = frozenset(K.indices), G.quotient_with_map(K)[0]
                assert G._commute_modulo(G._gens, members) == Q.is_abelian()
                if Q.is_abelian():
                    assert G._invariants_modulo(members, K.order) == abelian_invariants_reference(Q)
    with pytest.raises(InternalCheckFailed, match="3 elements x have x\\^3 in K"):
        symmetric_3()._invariants_modulo({0}, 2)


@pytest.mark.parametrize("orders", [(1,), (7,), (2, 2), (4, 6), (2, 2, 2, 2), (3, 9, 27),
                                    (4, 6, 10), (8, 12), (5, 10, 15), (2, 4, 8, 16)])
def test_abelian_invariants_match_reference(orders):
    G = cyclic_product(*orders)
    assert G.abelian_invariants() == abelian_invariants_reference(G)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3))
def test_abelian_invariants_of_random_cyclic_products(orders):
    assume(math.prod(orders) <= 400)
    G = cyclic_product(*orders)
    assert G.abelian_invariants() == abelian_invariants_reference(G)


SUBGROUP_CHECKS_S4 = """
from cmkit import FiniteGroup, InternalCheckFailed, Permutation, Subgroup, SubgroupMismatch
from cmkit.cyclotomic import _poly_div_exact
G = FiniteGroup.from_generators(4, [Permutation.from_cycles(4, [(0, 1, 2, 3)]),
                                    Permutation.from_cycles(4, [(0, 1)])])
cases = {
    "three": lambda: Subgroup(G, (1, 2, 3)),
    "five": lambda: Subgroup(G, range(5)),
    "not closed": lambda: G.subgroup(G.elements[:4]),
    "division": lambda: _poly_div_exact([1, 0, 1], [1, 1]),
}
for name, build in cases.items():
    try:
        build()
    except (SubgroupMismatch, InternalCheckFailed) as ex:
        print(name, "rejected:", ex)
    else:
        print(name, "accepted")
"""


def test_subgroup_checks_survive_optimize():
    """Identity and Lagrange checks on trusted index sets, the closure check
    on permutations from outside and exact polynomial division are raises,
    not asserts: `python -O` keeps them."""
    assert run_optimized("-c", SUBGROUP_CHECKS_S4).splitlines() == [
        "three rejected: identity missing from subgroup",
        "five rejected: 5 elements cannot form a subgroup of a group of order 24 (Lagrange)",
        "not closed rejected: element set is not closed",
        "division rejected: non-exact polynomial division",
    ]
