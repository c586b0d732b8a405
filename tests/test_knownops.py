import random
from itertools import combinations

import numpy as np
import pytest

from cliqueops import (
    ChordDiagram, Clique, DoubleMultiTilde, KnownOperadError, MultiTilde,
    chord_compose, dmt_compose, grav_check, grav_compose, gravity_cliques,
    lie_maximal, mt_compose, partial_compose, phi_dmt, phi_grav, phi_mt,
    unzip_clique,
)
from cliqueops.clique import arcs_of
from cliqueops.knownops import (
    all_double_multitildes, all_multitildes, gravity_diagrams, phi_dmt_inverse,
    phi_mt_inverse,
)
from cliqueops.magma import UnitaryMagma, pair_value
from cliqueops.operad import composable_pairs


def test_displayed_multitilde_compositions():
    s = MultiTilde(5, {(1, 5), (2, 4), (4, 5)})
    t = MultiTilde(6, {(2, 2), (4, 6)})
    assert mt_compose(s, t, 4) == MultiTilde(
        10, {(1, 10), (2, 9), (4, 10), (5, 5), (7, 9)}
    )
    assert mt_compose(s, t, 5) == MultiTilde(
        10, {(1, 10), (2, 4), (4, 10), (6, 6), (8, 10)}
    )


def test_multitilde_unit():
    unit = MultiTilde.unit()
    s = MultiTilde(3, {(1, 2), (3, 3)})
    assert mt_compose(unit, s, 1) == s
    for i in (1, 2, 3):
        assert mt_compose(s, unit, i) == s


def test_multitilde_associativity_small():
    pool2 = list(all_multitildes(2))
    for x in pool2:
        for y in pool2:
            for z in pool2:
                for i in (1, 2):
                    for j in (1, 2):
                        lhs = mt_compose(mt_compose(x, y, i), z, i + j - 1)
                        rhs = mt_compose(x, mt_compose(y, z, j), i)
                        assert lhs == rhs
                lhs = mt_compose(mt_compose(x, y, 1), z, 2 + y.arity - 1)
                rhs = mt_compose(mt_compose(x, z, 2), y, 1)
                assert lhs == rhs


def test_phi_mt_display_and_exclusion(d0):
    s = MultiTilde(5, {(1, 5), (2, 4), (4, 5)})
    clique = phi_mt(s)
    assert sorted(clique.solid_arcs()) == [(1, 6), (2, 5), (4, 6)]
    assert phi_mt(MultiTilde.unit()) == Clique.unit(clique.magma)
    with pytest.raises(KnownOperadError):
        phi_mt(MultiTilde(1, {(1, 1)}))


@pytest.mark.parametrize("make", [
    lambda: MultiTilde(3000, ()),
    lambda: DoubleMultiTilde(3000, (), ()),
    lambda: ChordDiagram(3000, ()),
], ids=["multi-tilde", "double-multi-tilde", "chord-diagram"])
def test_oversized_arities_are_refused_before_allocating(make):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(KnownOperadError, match="entry label row"):
            make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_phi_mt_round_trip_and_morphism():
    excluded = MultiTilde(1, {(1, 1)})
    for n in (1, 2, 3):
        for s in all_multitildes(n):
            if s == excluded:
                continue
            assert phi_mt_inverse(phi_mt(s)) == s
    for n, m in [(2, 2), (2, 3), (3, 2)]:
        for s in all_multitildes(n):
            for t in all_multitildes(m):
                for i in range(1, n + 1):
                    lhs = phi_mt(mt_compose(s, t, i))
                    rhs = partial_compose(phi_mt(s), phi_mt(t), i)
                    assert lhs == rhs


def test_displayed_multitilde_composition_as_cliques():
    s = MultiTilde(5, {(1, 5), (2, 4), (4, 5)})
    t = MultiTilde(6, {(2, 2), (4, 6)})
    first = partial_compose(phi_mt(s), phi_mt(t), 4)
    assert sorted(first.solid_arcs()) == [(1, 11), (2, 10), (4, 11), (5, 6), (7, 10)]
    second = partial_compose(phi_mt(s), phi_mt(t), 5)
    assert sorted(second.solid_arcs()) == [(1, 11), (2, 5), (4, 11), (6, 7), (8, 11)]


def test_displayed_dmt_composition():
    a = DoubleMultiTilde(3, {(2, 2)}, {(1, 2), (1, 3)})
    b = DoubleMultiTilde(2, {(1, 1)}, {(1, 2)})
    assert dmt_compose(a, b, 2) == DoubleMultiTilde(
        4, {(2, 2), (2, 3)}, {(1, 3), (1, 4), (2, 3)}
    )


def test_dmt_is_componentwise_hadamard():
    rng = random.Random(5)
    pool2 = list(all_double_multitildes(2))
    pool3 = list(all_double_multitildes(3))
    for _ in range(200):
        a = rng.choice(pool3)
        b = rng.choice(pool2)
        i = rng.randint(1, 3)
        composed = dmt_compose(a, b, i)
        first_a, second_a = a.components()
        first_b, second_b = b.components()
        assert composed.pairs1 == mt_compose(first_a, first_b, i).pairs
        assert composed.pairs2 == mt_compose(second_a, second_b, i).pairs


def test_phi_dmt_display_and_exclusions(d0sq):
    dmt = DoubleMultiTilde(4, {(2, 2), (2, 3)}, {(1, 3), (1, 4), (2, 3)})
    clique = phi_dmt(dmt)
    from cliqueops.magma import UnitaryMagma, pair_value

    assert clique.label(2, 3) == pair_value(clique.magma, 1, 0)
    assert clique.label(2, 4) == pair_value(clique.magma, 1, 1)
    assert clique.label(1, 4) == pair_value(clique.magma, 0, 1)
    assert clique.label(1, 5) == pair_value(clique.magma, 0, 1)
    assert clique.label(1, 2) == clique.magma.unit
    assert phi_dmt(DoubleMultiTilde.unit()).arity == 1
    for pairs in ({(1, 1)}, set()), (set(), {(1, 1)}), ({(1, 1)}, {(1, 1)}):
        if pairs == (set(), set()):
            continue
        with pytest.raises(KnownOperadError):
            phi_dmt(DoubleMultiTilde(1, *pairs))


def test_phi_dmt_morphism_and_unzip():
    a = DoubleMultiTilde(3, {(2, 2)}, {(1, 2), (1, 3)})
    b = DoubleMultiTilde(2, {(1, 1)}, {(1, 2)})
    lhs = phi_dmt(dmt_compose(a, b, 2))
    rhs = partial_compose(phi_dmt(a), phi_dmt(b), 2)
    assert lhs == rhs
    assert phi_dmt_inverse(lhs) == dmt_compose(a, b, 2)
    # unzipping the pair clique recovers the two component pictures
    left, right = unzip_clique(phi_dmt(a))
    first, second = a.components()
    assert left == phi_mt(first)
    assert right == phi_mt(second)


def test_dmt_morphism_exhaustive_small():
    for n, m in [(2, 2)]:
        for a in all_double_multitildes(n):
            for b in all_double_multitildes(m):
                for i in range(1, n + 1):
                    assert phi_dmt(dmt_compose(a, b, i)) == partial_compose(
                        phi_dmt(a), phi_dmt(b), i
                    )


def test_gravity_condition_examples(d0, d1):
    big = ChordDiagram(7, {(2, 5), (2, 6), (2, 7), (3, 6)})
    assert grav_check(phi_grav(big))
    # crossing diagonals with a marked corner are rejected
    with pytest.raises(KnownOperadError):
        ChordDiagram(4, {(1, 3), (2, 4), (3, 5)})
    missing_edge = Clique.from_arcs(d0, 3, {(1, 3): 1})
    assert not grav_check(missing_edge)
    assert grav_check(Clique.unit(d0))
    # the generalization labels arcs in any magma
    zero, dd = d1.elem("0"), d1.elem("d_1")
    labeled = Clique.from_arcs(d1, 3, {
        (1, 2): dd, (2, 3): zero, (3, 4): dd, (1, 4): zero, (1, 3): dd,
    })
    assert grav_check(labeled)


def test_grav_check_lookup_agrees_with_the_gravity_rule(d1):
    """At every arity where the gravity family is tabled (1 to 7),
    `grav_check` looks the solid-arc mask up in it; the lookup must give
    the verdict of the `grav` rule's fold on every mask at arities 1 to 5, and on
    every member and every mask one arc away from one at arities 6 and 7,
    which have 2^21 and 2^28 masks in all."""
    from cliqueops import variants
    from cliqueops.knownops import _gravity_family

    assert _gravity_family(8) is None
    for n in range(1, 8):
        family = _gravity_family(n)
        width = len(arcs_of(n))
        if n <= 5:
            masks = range(1 << width)
        else:
            masks = {mask ^ bit for mask in family for bit in (0, *(1 << j for j in range(width)))}
        for mask in masks:
            assert (mask in family) == variants._accepts(variants._gravity_rule, n, mask), (
                n, mask)
    # grav_check reads a clique's solid arcs, whatever their labels
    for diagram in gravity_diagrams(4):
        clique = Clique._unsafe(d1, 4, tuple(
            d1.elem("d_1") if diagram.mask >> k & 1 else 0 for k in range(10)
        ))
        assert grav_check(clique)
        flipped = clique.with_label(1, 5, 0)
        assert not grav_check(flipped)


def test_displayed_gravity_composition():
    c = ChordDiagram(5, {(1, 4), (2, 5)})
    d = ChordDiagram(3, {(1, 3)})
    composed = chord_compose(c, d, 3)
    assert composed == ChordDiagram(7, {(1, 6), (2, 7), (3, 5), (3, 6)})
    assert phi_grav(composed) == grav_compose(phi_grav(c), phi_grav(d), 3)
    # the glued arc (3, 3+3) of the clique picture is solid
    assert phi_grav(composed).is_solid(3, 6)


def test_gravity_closure_exhaustive(d0):
    for n, m in [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]:
        for c in gravity_diagrams(n):
            for d in gravity_diagrams(m):
                for i in range(1, n + 1):
                    composed = chord_compose(c, d, i)  # asserts closure
                    assert phi_grav(composed) == grav_compose(
                        phi_grav(c), phi_grav(d), i
                    )


def test_gravity_cliques_enumeration(d0, d1):
    # over the two-element magma the labelings are forced, so the clique
    # count equals the diagram count
    for n in (2, 3, 4):
        assert len(gravity_cliques(d0, n)) == len(gravity_diagrams(n))
    # with two non-unit labels each marked arc doubles the count
    diagrams = gravity_diagrams(2)
    assert len(gravity_cliques(d1, 2)) == sum(
        2 ** (3 + len(d.diagonals)) for d in diagrams
    )


def test_gravity_cliques_are_the_cliques_grav_check_accepts(d0, d1):
    # the trusted label rows of `gravity_cliques` are exactly the cliques of
    # the whole space that meet the gravity condition, each once
    from cliqueops import generate_cliques

    for magma in (d0, d1):
        for n in range(1, 5):
            found = gravity_cliques(magma, n)
            assert len(set(found)) == len(found), (magma.name, n)
            assert set(found) == {c for c in generate_cliques(magma, n) if grav_check(c)}


def test_lie_maximal():
    only = lie_maximal(2)
    assert len(only) == 1
    assert not only[0].solid_diagonals()
    maxi3 = lie_maximal(3)
    assert sorted(tuple(p.solid_diagonals()) for p in maxi3) == [
        (((1, 3),)), (((2, 4),)),
    ]
    for p in lie_maximal(4):
        assert grav_check(p)
    # closure of the span under composition, spot check: composing two
    # maximizers lands on a gravity clique again
    a, b = lie_maximal(2)[0], lie_maximal(3)[0]
    assert grav_check(grav_compose(a, b, 1))


def _reflected_phi_mt(tilde):
    from cliqueops import reflect

    return reflect(phi_mt(tilde))


def _diagonal_free_phi_grav(diagram):
    if diagram.arity < 3:
        return phi_grav(diagram)
    return phi_grav(ChordDiagram(diagram.arity, ()))


@pytest.mark.parametrize("name, broken, family", [
    ("phi_mt", _reflected_phi_mt, "multi-tilde"),
    ("phi_grav", _diagonal_free_phi_grav, "gravity"),
])
def test_known_ops_verifier_catches_a_broken_morphism(
    monkeypatch, name, broken, family
):
    from cliqueops import knownops

    assert knownops.verify_known_ops(3).ok
    monkeypatch.setattr(knownops, name, broken)
    report = knownops.verify_known_ops(3)
    assert not report.ok
    assert report.counterexample.startswith(f"{family} morphism fails")
    assert report.checked > 0


@pytest.mark.parametrize("engine", ["vector", "scalar"])
@pytest.mark.parametrize("family", ["multi-tilde", "double multi-tilde", "gravity"])
def test_known_ops_engines_catch_a_shifted_inner_table(monkeypatch, request, engine, family):
    from cliqueops import knownops
    from test_verifier_references import reference_double_multitildes, reference_known_ops

    # "vector" is the slab verifier, "scalar" its one-instance-at-a-time
    # reference in test_verifier_references.py
    known_ops, double_multitildes = (
        (knownops.verify_known_ops, knownops.verify_double_multitildes)
        if engine == "vector" else (reference_known_ops, reference_double_multitildes)
    )
    real = knownops._compose_tables

    def shifted(n, m, i):
        # the inner remap of the slot after the requested one, when there is one
        return real(n, m, i)[0], real(n, m, min(i + 1, n))[1]

    def verify():
        if family == "double multi-tilde":
            return double_multitildes([(2, 2)])
        return known_ops(3)

    if family == "gravity":
        # no multi-tildes, so that the gravity law is the one that runs
        monkeypatch.setattr(knownops, "_clique_multitildes", lambda arity: ())
    assert verify().ok
    monkeypatch.setattr(knownops, "_compose_tables", shifted)
    # the compositions read the tables through `_composer`, whose cached
    # remaps would hide the shift; after the test they would keep it
    knownops._composer.cache_clear()
    request.addfinalizer(knownops._composer.cache_clear)
    if family == "gravity":
        # the shifted composite of two triangles leaves the family before
        # any image is compared
        with pytest.raises(RuntimeError, match="composing chord diagrams left the family"):
            verify()
        return
    report = verify()
    assert not report.ok
    assert report.counterexample.startswith(f"{family} morphism fails")
    assert report.checked > 0


def test_known_ops_asserts_gravity_closure(monkeypatch):
    from cliqueops import knownops, variants

    real = variants._accepts
    # mutation: every composite of arity 4 or more is refused
    monkeypatch.setattr(
        variants, "_accepts", lambda rule, arity, mask: arity < 4 and real(rule, arity, mask),
    )
    assert knownops.verify_known_ops(3).ok
    with pytest.raises(RuntimeError, match=(
        r"^internal failure: composing chord diagrams left the family, on "
        r"ChordDiagram\(\d, .*\) o_\d ChordDiagram\(\d, .*\)$"
    )):
        knownops.verify_known_ops(4)


@pytest.mark.parametrize("max_arity, total, gravity", [
    (3, 427, 18), (4, 8182, 93), (5, 266689, 552),
])
def test_known_ops_totals(monkeypatch, max_arity, total, gravity):
    from cliqueops import knownops

    assert knownops.verify_known_ops(max_arity).checked == total
    # the gravity share alone, with the multi-tilde pools emptied
    monkeypatch.setattr(knownops, "_clique_multitildes", lambda arity: ())
    assert knownops.verify_known_ops(max_arity).checked == gravity


@pytest.mark.parametrize("build", [
    lambda: MultiTilde(2.0, ()),
    lambda: MultiTilde(True, ()),
    lambda: MultiTilde("2", ()),
    lambda: MultiTilde(3, [(1.5, 2)]),
    lambda: MultiTilde(3, [(True, 2)]),
    lambda: MultiTilde(3, [("x", 2)]),
    lambda: MultiTilde(3, [(1, 2, 3)]),
    lambda: MultiTilde(3, [(1,)]),
    lambda: MultiTilde(3, [5]),
    lambda: MultiTilde(3, 5),
    lambda: DoubleMultiTilde(2.5, (), ()),
    lambda: DoubleMultiTilde(3, [(1, 2)], [(2, 2.0)]),
    lambda: DoubleMultiTilde(3, [(1, 2, 3)], ()),
    lambda: ChordDiagram(4.0, ()),
    lambda: ChordDiagram(False, ()),
    lambda: ChordDiagram(4, [(1.5, 3)]),
    lambda: ChordDiagram(4, [(1, "3")]),
    lambda: ChordDiagram(4, [(1, 3, 5)]),
    # the shapes a JSON decoder yields (lists for pairs), given to the constructors
    lambda: MultiTilde(2.5, []),
    lambda: MultiTilde(True, []),
    lambda: MultiTilde("3", []),
    lambda: MultiTilde(3, [[1.5, 2]]),
    lambda: MultiTilde(3, [[1, 2, 3]]),
    lambda: MultiTilde(3, "ab"),
    lambda: DoubleMultiTilde(2.0, [], []),
    lambda: DoubleMultiTilde(3, [[1, 2]], [[1]]),
    lambda: DoubleMultiTilde(3, [[1, True]], []),
    # the arity and arc rules of clique.py, read by every constructor and family
    lambda: MultiTilde(0, ()),
    lambda: DoubleMultiTilde(-1, (), ()),
    lambda: MultiTilde(3, [(2, 4)]),
    lambda: ChordDiagram(4, [(1, 2)]),
    lambda: ChordDiagram(4, [(2, 9)]),
    lambda: list(all_multitildes(0)),
    lambda: list(all_double_multitildes(-1)),
    lambda: gravity_diagrams(2.0),
    lambda: gravity_cliques(UnitaryMagma.zero_product(0), True),
    lambda: lie_maximal("2"),
], ids=[
    "mt-float-arity", "mt-bool-arity", "mt-string-arity", "mt-float-coordinate",
    "mt-bool-coordinate", "mt-string-coordinate", "mt-triple", "mt-single",
    "mt-not-a-pair", "mt-pairs-not-a-collection", "dmt-float-arity",
    "dmt-float-coordinate", "dmt-triple", "chord-float-arity", "chord-bool-arity",
    "chord-float-coordinate", "chord-string-coordinate", "chord-triple",
    "json-float-arity", "json-bool-arity", "json-string-arity",
    "json-float-coordinate", "json-triple", "json-pairs-string",
    "dmt-json-float-arity", "dmt-json-single", "dmt-json-bool-coordinate",
    "mt-arity-zero", "dmt-arity-negative", "mt-pair-outside", "chord-edge",
    "chord-not-an-arc", "all-mt-arity-zero", "all-dmt-arity-negative",
    "gravity-float-arity", "gravity-cliques-bool-arity", "lie-string-arity",
])
def test_known_operad_input_boundary_is_strict(build):
    with pytest.raises(KnownOperadError):
        build()


# -- frozenset reference of the shift rules ---------------------------------


def _ref_shift(pair, pivot, block):
    x, y = pair
    if y < pivot:
        return pair
    if x <= pivot:
        return (x, y + block - 1)
    return (x + block - 1, y + block - 1)


def _ref_compose(s, t, i, m):
    return (frozenset(_ref_shift(pair, i, m) for pair in s)
            | frozenset((x + i - 1, y + i - 1) for x, y in t))


def test_compose_tables_follow_the_shift_rules():
    # the tables come from `ratfct._reindex`, which moves arcs; the shift
    # rules above move pairs (x, y - 1), an independent statement of the
    # same substitution
    from cliqueops import knownops

    for n in range(1, 9):
        for m in range(1, 10 - n):
            index = {arc: k for k, arc in enumerate(arcs_of(n + m - 1))}
            for i in range(1, n + 1):
                outer, inner = knownops._compose_tables(n, m, i)
                assert [knownops._remap(1 << k, outer) for k in range(len(arcs_of(n)))] == [
                    1 << index[(x, y + 1)]
                    for x, y in (_ref_shift((a, b - 1), i, m) for a, b in arcs_of(n))
                ], (n, m, i)
                assert [knownops._remap(1 << k, inner) for k in range(len(arcs_of(m)))] == [
                    1 << index[(a + i - 1, b + i - 1)] for a, b in arcs_of(m)
                ], (n, m, i)


def test_one_substitution_rule_feeds_both_morphism_verifiers(monkeypatch):
    # multi-tildes and rational functions compose by one rule,
    # `ratfct._reindex`, so an off-by-one rule fails both morphism laws
    from cliqueops import knownops, ratfct
    from cliqueops.knownops import verify_known_ops

    real = ratfct._reindex

    def off_by_one(n, m, i):
        # the substitution into the slot after the requested one, when there is one
        return real(n, m, min(i + 1, n))

    def clear():
        knownops._compose_tables.cache_clear()
        knownops._composer.cache_clear()
        ratfct._row_plan.cache_clear()

    assert verify_known_ops(3).ok and ratfct.verify_rf_morphism((0, 1), 2).ok
    clear()
    monkeypatch.setattr(ratfct, "_reindex", off_by_one)
    try:
        tildes, rf = verify_known_ops(3), ratfct.verify_rf_morphism((0, 1), 2)
    finally:
        clear()
    assert not tildes.ok and tildes.checked > 0
    assert tildes.counterexample.startswith("multi-tilde morphism fails")
    assert not rf.ok and rf.checked > 0


def _ref_all(arity):
    universe = [(x, y) for x in range(1, arity + 1) for y in range(x, arity + 1)]
    return [frozenset(chosen) for size in range(len(universe) + 1)
            for chosen in combinations(universe, size)]


def _ref_flags(arity, pairs):
    return [1 if (x, y - 1) in pairs else 0 for x, y in arcs_of(arity)]


def test_encoding_matches_the_frozenset_reference(d0sq):
    ref = {n: _ref_all(n) for n in (1, 2, 3)}
    tildes = {n: list(all_multitildes(n)) for n in ref}
    doubles = {n: list(all_double_multitildes(n)) for n in ref}
    for n in ref:
        assert [s.pairs for s in tildes[n]] == ref[n]
        assert [(d.pairs1, d.pairs2) for d in doubles[n]] == [
            (a, b) for a in ref[n] for b in ref[n]
        ]
        # arity 1 has one clique, the picture of the empty multi-tilde
        for s in tildes[n][:1] if n == 1 else tildes[n]:
            assert list(phi_mt(s).labels) == _ref_flags(n, s.pairs)
        for d in doubles[n][:1] if n == 1 else doubles[n]:
            first, second = _ref_flags(n, d.pairs1), _ref_flags(n, d.pairs2)
            assert list(phi_dmt(d).labels) == [
                pair_value(d0sq, a, b) for a, b in zip(first, second)
            ]
    # past the shared tables (multi-tildes above arity 4, double multi-tildes
    # above arity 3) an image is read from its masks' 8-bit chunks: a seeded
    # sample of the public constructors' values against the reference
    rng = random.Random(32)
    for n in (4, 5):
        universe = [(x, y) for x in range(1, n + 1) for y in range(x, n + 1)]
        for _ in range(200):
            pairs1, pairs2 = ({p for p in universe if rng.random() < 0.5} for _ in "12")
            if n == 5:
                assert list(phi_mt(MultiTilde(n, pairs1)).labels) == _ref_flags(n, pairs1)
            d = DoubleMultiTilde(n, pairs1, pairs2)
            image = phi_dmt(d)
            first, second = _ref_flags(n, pairs1), _ref_flags(n, pairs2)
            assert list(image.labels) == [
                pair_value(d0sq, a, b) for a, b in zip(first, second)
            ]
            assert phi_dmt_inverse(image) == d
    composed = {}
    for n, m in composable_pairs(3):
        for i in range(1, n + 1):
            table = composed[n, m, i] = [
                [_ref_compose(a, b, i, m) for b in ref[m]] for a in ref[n]
            ]
            for s, row in zip(tildes[n], table):
                for t, want in zip(tildes[m], row):
                    assert mt_compose(s, t, i).pairs == want
    # a double multi-tilde sits at position a * len(ref) + b of its pool
    for (n, m, i), table in composed.items():
        width = len(ref[m])
        for k, x in enumerate(doubles[n]):
            row1, row2 = table[k // len(ref[n])], table[k % len(ref[n])]
            for l, y in enumerate(doubles[m]):
                c = dmt_compose(x, y, i)
                assert c.pairs1 == row1[l // width]
                assert c.pairs2 == row2[l % width]


def _brute_force_gravity(arity):
    """Every diagonal subset without a crossing pair (x,y), (x',y'),
    x < x', whose arc (x', y) is marked, in `combinations` order."""
    diags = [(x, y) for x in range(1, arity + 1) for y in range(x + 2, arity + 2)
             if (x, y) != (1, arity + 1)]
    bit = {d: k for k, d in enumerate(diags)}
    subsets = np.arange(1 << len(diags), dtype=np.int64)
    ok = np.ones(len(subsets), dtype=bool)
    for x, y in diags:
        for xp, yp in diags:
            if x < xp < y < yp:
                # (x', y) is a diagonal or an edge, and edges are always marked
                forbidden = 1 << bit[(x, y)] | 1 << bit[(xp, yp)]
                forbidden |= 1 << bit[(xp, y)] if (xp, y) in bit else 0
                ok &= (subsets & forbidden) != forbidden
    chosen = [tuple(d for k, d in enumerate(diags) if mask >> k & 1)
              for mask in subsets[ok].tolist()]
    return sorted(chosen, key=lambda c: (len(c), c))


def test_gravity_diagrams_match_the_subset_scan():
    for n in range(1, 8):
        assert [tuple(sorted(d.diagonals)) for d in gravity_diagrams(n)] == (
            _brute_force_gravity(n)
        )


def _misread_gravity_at(arity):
    """The grav rule's test with its middle arc read as (x, y') instead of
    (x', y): a mutation of `variants._gravity_at`."""
    from cliqueops import variants

    arcs = arcs_of(arity)
    index = {arc: k for k, arc in enumerate(arcs)}
    diagonal = variants._diagonal_flags(arity)

    def admits(mask, comp, j):
        if not diagonal[j]:
            return False
        xp, yp = arcs[j]
        ok = True
        for y in range(xp + 1, yp):
            for x in range(1, xp):
                left, middle = 1 << index[(x, y)], 1 << index[(x, yp)]
                ok = ok & (((mask & middle) == 0) | ((mask & left) == 0))
        return ok
    return admits


def test_gravity_rule_catches_a_misread_middle_arc(monkeypatch, request):
    from cliqueops import knownops, variants

    misread = variants._rule(_misread_gravity_at, framed=True)
    monkeypatch.setattr(variants, "_gravity_rule", misread)
    # the shared diagrams cache the walk of the rule; after the test they
    # would keep the misread one
    knownops._gravity_family.cache_clear()
    request.addfinalizer(knownops._gravity_family.cache_clear)
    found = {n: [tuple(sorted(d.diagonals)) for d in gravity_diagrams(n)] for n in (4, 5, 6)}
    assert any(found[n] != _brute_force_gravity(n) for n in found)
    # the misread rule admits the crossing pair (1,3), (2,4) under edge (2,3)
    assert ((1, 3), (2, 4)) in found[4]


# -- shared values -----------------------------------------------------------


def _general_composite(s_mask, t_mask, n, m, i):
    # the chunk loop of `_remap` over `_compose_tables`, whatever the arity
    from cliqueops import knownops

    outer, inner = knownops._compose_tables(n, m, i)
    return knownops._remap(s_mask, outer) | knownops._remap(t_mask, inner)


def test_shared_multitildes_are_the_general_path():
    from cliqueops import knownops

    for n in range(1, 5):
        values, width = knownops._multitildes(n), len(arcs_of(n))
        assert len(values) == 1 << width
        for mask, value in enumerate(values):
            assert value == MultiTilde._unsafe(n, mask)
            if n > 1 or not mask:  # the nontrivial arity-1 one has no image
                image = phi_mt(value)
                assert image is phi_mt(MultiTilde._unsafe(n, mask))
                assert image == Clique._unsafe(
                    knownops._D0, n, knownops._flags(mask, width, knownops._SOLID),
                )
        assert [s.mask for s in all_multitildes(n)] == list(knownops._masks(n))
        assert all(s is values[s.mask] for s in all_multitildes(n))
    assert knownops._multitildes(5) is None and knownops._multitilde_images(5) is None
    pools = {n: list(all_multitildes(n)) for n in range(1, 5)}
    for n, m in composable_pairs(4):
        values = knownops._multitildes(n + m - 1)
        for s in pools[n]:
            for t in pools[m]:
                for i in range(1, n + 1):
                    composed = mt_compose(s, t, i)
                    general = _general_composite(s.mask, t.mask, n, m, i)
                    assert composed is values[general], (s, t, i)
                    assert composed == MultiTilde._unsafe(n + m - 1, general)


def test_shared_double_multitildes_are_the_general_path():
    from operator import add

    from cliqueops import knownops

    for n in range(1, 4):
        values, width = knownops._double_multitildes(n), len(arcs_of(n))
        assert [len(row) for row in values] == [1 << width] * (1 << width)
        for mask1, row in enumerate(values):
            for mask2, value in enumerate(row):
                assert value == DoubleMultiTilde._unsafe(n, mask1, mask2)
                if n > 1 or not (mask1 or mask2):
                    image = phi_dmt(value)
                    assert image is phi_dmt(DoubleMultiTilde._unsafe(n, mask1, mask2))
                    assert image == Clique._unsafe(knownops._D0_SQUARED, n, tuple(map(
                        add, knownops._flags(mask1, width, knownops._FIRST),
                        knownops._flags(mask2, width, knownops._SECOND),
                    )))
        masks = list(knownops._masks(n))
        pool = list(all_double_multitildes(n))
        assert [(d.mask1, d.mask2) for d in pool] == [(a, b) for a in masks for b in masks]
        assert all(d is values[d.mask1][d.mask2] for d in pool)
    assert knownops._double_multitildes(4) is None
    assert knownops._double_multitilde_images(4) is None
    pools = {n: list(all_double_multitildes(n)) for n in range(1, 4)}
    for n, m in composable_pairs(3):
        values = knownops._double_multitildes(n + m - 1)
        for s in pools[n]:
            for t in pools[m]:
                for i in range(1, n + 1):
                    composed = dmt_compose(s, t, i)
                    assert composed is dmt_compose(s, t, i)
                    first = _general_composite(s.mask1, t.mask1, n, m, i)
                    second = _general_composite(s.mask2, t.mask2, n, m, i)
                    assert composed is values[first][second], (s, t, i)
                    assert composed == DoubleMultiTilde._unsafe(n + m - 1, first, second)


def test_shared_gravity_diagrams_are_the_general_path():
    from cliqueops import knownops, variants

    for n in range(1, 8):
        family, width = knownops._gravity_family(n), len(arcs_of(n))
        diagrams = gravity_diagrams(n)
        assert list(family) == [d.mask for d in diagrams]
        assert all(d is family[d.mask] for d in diagrams)
        # the general path: the whole walk, sorted
        general = knownops._sorted_diagrams(n, list(knownops._gravity_masks(n)))
        assert diagrams == general
        for d in diagrams:
            assert phi_grav(d) is phi_grav(ChordDiagram._unsafe(n, d.mask))
            assert phi_grav(d) == Clique._unsafe(
                knownops._D0, n, knownops._flags(d.mask, width, knownops._SOLID),
            )
    # 20160 diagrams at arity 8, past the bound
    assert knownops._gravity_family(8) is None and knownops._gravity_images(8) is None
    pools = {n: gravity_diagrams(n) for n in range(1, 8)}
    for n, m in composable_pairs(7):
        family = knownops._gravity_family(n + m - 1)
        for c in pools[n]:
            for d in pools[m]:
                for i in range(1, n + 1):
                    general = _general_composite(c.mask, d.mask, n, m, i)
                    assert variants._accepts(variants._gravity_rule, n + m - 1, general)
                    assert chord_compose(c, d, i) is family[general], (c, d, i)


def test_untabled_arities_take_the_general_path():
    # composites past the bound are built per call, equal but not shared
    s, t = MultiTilde(4, {(1, 4), (2, 3)}), MultiTilde(2, {(1, 2)})
    assert mt_compose(s, t, 2) == mt_compose(s, t, 2)
    assert mt_compose(s, t, 2) is not mt_compose(s, t, 2)
    a, b = DoubleMultiTilde(3, {(2, 2)}, {(1, 3)}), DoubleMultiTilde(2, {(1, 1)}, ())
    assert dmt_compose(a, b, 1) == dmt_compose(a, b, 1)
    assert dmt_compose(a, b, 1) is not dmt_compose(a, b, 1)
    assert phi_dmt(dmt_compose(a, b, 1)) == partial_compose(phi_dmt(a), phi_dmt(b), 1)
    c, d = ChordDiagram(5, {(1, 4), (2, 5)}), ChordDiagram(4, {(1, 3)})
    composed = chord_compose(c, d, 3)
    assert composed.arity == 8 and composed is not chord_compose(c, d, 3)
    assert phi_grav(composed) == grav_compose(phi_grav(c), phi_grav(d), 3)


def test_chord_compose_asserts_closure_at_a_tabled_arity(monkeypatch, request):
    from cliqueops import knownops

    edge = ChordDiagram(2, ())
    assert chord_compose(edge, edge, 1) is knownops._gravity_family(3)[
        chord_compose(edge, edge, 1).mask
    ]
    real = knownops._compose_tables

    def shifted(n, m, i):
        # the inner remap of the slot after the requested one, when there is one
        return real(n, m, i)[0], real(n, m, min(i + 1, n))[1]

    monkeypatch.setattr(knownops, "_compose_tables", shifted)
    knownops._composer.cache_clear()
    request.addfinalizer(knownops._composer.cache_clear)
    # the shifted composite leaves edge (1, 2) unmarked: a miss in the table
    with pytest.raises(RuntimeError, match="composing chord diagrams left the family"):
        chord_compose(edge, edge, 1)


def test_import_builds_no_table():
    # a fresh interpreter: this test process has built the tables already
    import os
    import subprocess
    import sys

    import cliqueops

    script = (
        "import cliqueops\n"
        "from cliqueops import knownops\n"
        "tables = [knownops._multitildes, knownops._multitilde_images,\n"
        "          knownops._double_multitildes, knownops._double_multitilde_images,\n"
        "          knownops._gravity_family, knownops._gravity_images]\n"
        "# the public constructors build no table either\n"
        "cliqueops.MultiTilde(3, {(1, 2)})\n"
        "cliqueops.DoubleMultiTilde(3, {(1, 2)}, {(2, 3)})\n"
        "cliqueops.ChordDiagram(5, {(1, 4)})\n"
        "built = [f.__name__ for f in tables if f.cache_info().currsize]\n"
        "assert not built, built\n"
    )
    src = os.path.dirname(os.path.dirname(cliqueops.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert result.returncode == 0, result.stderr
