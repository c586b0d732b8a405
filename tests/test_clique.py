import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueops import (
    Clique, CliqueError, MagmaMorphism, UnitaryMagma, arcs_of,
    clique_from_json, clique_to_json, crossing_number, degree, hamming,
    is_acyclic, is_bubble, is_minimal_prime, is_nesting_free, is_noncrossing,
    is_prime, is_triangle, is_white, partial_compose, reflect, relabel,
    rotate, split_along_diagonal,
)
from cliqueops.clique import _arc_at, _split_plan, arc_position, nested_in, row_width

from magma_strategies import D0, unitary_magmas

Z = UnitaryMagma.integers()


def d0_cliques(max_arity=5):
    return st.integers(min_value=2, max_value=max_arity).flatmap(
        lambda n: st.tuples(
            *[st.integers(min_value=0, max_value=1)] * len(arcs_of(n))
        ).map(lambda labels: Clique(D0, n, labels))
    )


def sparse_d0_cliques(max_arity=8, max_arcs=5):
    """D0 cliques with a few solid arcs, so that many are nesting-free."""
    return st.integers(min_value=2, max_value=max_arity).flatmap(
        lambda n: st.lists(
            st.sampled_from(arcs_of(n)), max_size=max_arcs, unique=True,
        ).map(lambda arcs: Clique.from_arcs(D0, n, dict.fromkeys(arcs, 1)))
    )


def test_unit_clique_is_the_only_arity_one_value(d0):
    unit = Clique.unit(d0)
    assert unit.base_label == d0.unit
    with pytest.raises(CliqueError):
        Clique(d0, 1, (d0.elem("0"),))


def test_arc_bookkeeping(d0):
    p = Clique.from_arcs(d0, 3, {(1, 3): 1, (2, 4): 1})
    assert p.label(1, 3) == 1
    assert p.label(1, 2) == d0.unit
    assert p.solid_diagonals() == ((1, 3), (2, 4))
    with pytest.raises(CliqueError):
        p.label(3, 3)
    with pytest.raises(CliqueError):
        Clique.from_arcs(d0, 3, {(1, 5): 1})


def test_statistics_on_examples(d0):
    unit = Clique.unit(d0)
    assert degree(unit) == 0 and crossing_number(unit) == 0
    assert is_nesting_free(unit) and is_acyclic(unit) and is_white(unit)
    assert is_bubble(unit) and not is_triangle(unit)

    full_triangle = Clique.triangle(d0, 1, 1, 1)
    assert degree(full_triangle) == 2
    assert is_triangle(full_triangle) and is_bubble(full_triangle)

    allunit = Clique.from_arcs(d0, 4, {})
    assert degree(allunit) == 0

    crossed = Clique.from_arcs(d0, 3, {(1, 3): 1, (2, 4): 1})
    assert crossing_number(crossed) == 1
    nested = Clique.from_arcs(d0, 3, {(1, 3): 1, (1, 4): 1})
    assert crossing_number(nested) == 0
    assert not is_nesting_free(Clique.from_arcs(d0, 4, {(1, 3): 1, (1, 4): 1}))


@settings(max_examples=120)
@given(d0_cliques())
def test_triangles_are_bubbles_and_bubbles_noncrossing(p):
    if is_triangle(p):
        assert is_bubble(p)
    if is_bubble(p):
        assert is_noncrossing(p)
    assert (crossing_number(p) == 0) == is_noncrossing(p)


def _degree_multiset(p):
    counts = [0] * (p.arity + 2)
    for x, y in p.solid_arcs():
        counts[x] += 1
        counts[y] += 1
    return sorted(counts[1:])


@settings(max_examples=120)
@given(d0_cliques())
def test_reflect_rotate_preserve_statistics(p):
    assert reflect(reflect(p)) == p
    rotated = p
    for _ in range(p.arity + 1):
        rotated = rotate(rotated)
    assert rotated == p
    for image in (reflect(p), rotate(p)):
        assert image.arity == p.arity
        assert _degree_multiset(image) == _degree_multiset(p)
        assert degree(image) == degree(p)
        assert crossing_number(image) == crossing_number(p)


def test_reflect_rotate_plans_are_permutations():
    from cliqueops.clique import _reflect_plan, _rotate_plan

    for n in range(1, 11):
        identity = tuple(range(len(arcs_of(n))))
        reflection, rotation = _reflect_plan(n).source, _rotate_plan(n).source
        assert sorted(reflection) == sorted(rotation) == list(identity)
        assert tuple(reflection[k] for k in reflection) == identity
        powers = [identity]
        for _ in range(n + 1):
            powers.append(tuple(powers[-1][k] for k in rotation))
        assert powers[n + 1] == identity
        if n > 1:  # at arity 1 the only arc is the base
            assert identity not in powers[1:n + 1]


def test_every_plan_picks_its_index_tuple():
    from cliqueops.clique import _reflect_plan, _rotate_plan, _split_plan, diagonals_of
    from cliqueops.operad import composable_pairs, composition_plan

    plans = [composition_plan(n, m, i)
             for n, m in composable_pairs(6) for i in range(1, n + 1)]
    for n in range(1, 7):
        plans += [_reflect_plan(n), _rotate_plan(n)]
        for x, y in diagonals_of(n):
            plans += _split_plan(n, x, y)[:2]
    for plan in plans:
        source = tuple(f"s{k}" for k in range(max(plan.source) + 1))
        picked = plan.pick(source)
        assert picked == tuple(source[k] for k in plan.source)
        assert len(picked) == len(arcs_of(plan.arity))


def test_reflect_rotate_displayed_examples(z):
    p = Clique.from_arcs(z, 5, {(1, 2): 1, (1, 5): -2, (2, 3): -2, (3, 5): 1})
    assert reflect(p) == Clique.from_arcs(
        z, 5, {(2, 4): 1, (2, 6): -2, (4, 5): -2, (5, 6): 1}
    )
    assert rotate(p) == Clique.from_arcs(
        z, 5, {(1, 2): -2, (1, 6): 1, (2, 4): 1, (4, 6): -2}
    )
    assert reflect(p).base_label == p.base_label


def test_relabel(z, d0):
    p = Clique.from_arcs(z, 3, {(1, 3): 4, (2, 4): -1})
    neg = MagmaMorphism.negation()
    assert relabel(p, neg) == Clique.from_arcs(z, 3, {(1, 3): -4, (2, 4): 1})
    assert relabel(relabel(p, neg), neg) == p
    ident = MagmaMorphism.identity(d0)
    q = Clique.from_arcs(d0, 2, {(1, 3): 1})
    assert relabel(q, ident) == q


def test_hamming(d0):
    p = Clique.from_arcs(d0, 2, {})
    q = Clique.triangle(d0, 1, 1, 1)
    assert hamming(p, q) == 3
    assert hamming(p, p) == 0
    assert hamming(p, q) == hamming(q, p)
    with pytest.raises(CliqueError):
        hamming(p, Clique.unit(d0))


def test_prime_predicates(d0):
    assert not is_prime(Clique.unit(d0))
    for labels in [(0, 0, 0), (1, 1, 1), (1, 0, 1)]:
        assert is_prime(Clique(d0, 2, labels))
    no_diag = Clique.from_arcs(d0, 3, {(1, 2): 1})
    assert not is_prime(no_diag)
    both_diags = Clique.from_arcs(d0, 3, {(1, 3): 1, (2, 4): 1})
    assert is_prime(both_diags)
    assert is_minimal_prime(both_diags)
    with_edge = Clique.from_arcs(d0, 2, {(1, 2): 1})
    assert is_prime(with_edge) and not is_minimal_prime(with_edge)
    assert is_minimal_prime(Clique.from_arcs(d0, 2, {}))


@settings(max_examples=80)
@given(d0_cliques(4), st.randoms(use_true_random=False))
def test_primality_ignores_boundary_labels(p, rng):
    # relabeling edges and the base never changes primality
    flipped = p
    for i in range(1, p.arity + 1):
        if rng.random() < 0.5:
            flipped = flipped.with_label(i, i + 1, rng.choice((0, 1)))
    if rng.random() < 0.5:
        flipped = flipped.with_label(1, p.arity + 1, rng.choice((0, 1)))
    assert is_prime(p) == is_prime(flipped)


def test_split_along_diagonal_round_trip(d0):
    # exhaustive: every legal split recomposes to the original
    from cliqueops import generate_cliques

    seen = 0
    for n in (3, 4, 5):
        for p in generate_cliques(D0, n):
            for (x, y) in [a for a in arcs_of(n)
                           if a[1] != a[0] + 1 and a != (1, n + 1)]:
                try:
                    outer, inner = split_along_diagonal(p, (x, y))
                except CliqueError:
                    assert any(
                        _crossing((x, y), d) for d in p.solid_diagonals()
                    )
                    continue
                seen += 1
                assert inner.base_label == d0.unit
                assert outer.arity == n + x - y + 1
                assert inner.arity == y - x
                assert partial_compose(outer, inner, x) == p
    assert seen > 0


def _crossing(a, b):
    (x, y), (xp, yp) = a, b
    return x < xp < y < yp or xp < x < yp < y


def test_split_examples(d0):
    allunit = Clique.from_arcs(d0, 3, {})
    outer, inner = split_along_diagonal(allunit, (1, 3))
    assert outer == Clique.from_arcs(d0, 2, {})
    assert inner == Clique.from_arcs(d0, 2, {})
    blocked = Clique.from_arcs(d0, 3, {(2, 4): 1})
    with pytest.raises(CliqueError):
        split_along_diagonal(blocked, (1, 3))


def test_json_round_trip(d0, z, tmp_path):
    p = Clique.from_arcs(d0, 3, {(1, 3): 1})
    data = clique_to_json(p)
    assert data == {"magma": "D:0", "arity": 3, "labels": {"1,3": "0"}}
    assert clique_from_json(data) == p
    q = Clique.from_arcs(z, 2, {(1, 2): -3})
    assert clique_from_json(clique_to_json(q)) == q
    # omitted arcs default to the unit
    assert clique_from_json({"magma": "D:0", "arity": 2}) == Clique.from_arcs(d0, 2, {})
    with pytest.raises(CliqueError):
        clique_from_json({"magma": "D:0", "arity": 2, "labels": {"9,1": "0"}})


@pytest.mark.parametrize("make", [
    lambda: Clique(D0, 3000, ()),
    lambda: Clique.from_arcs(D0, 3000, {}),
    lambda: clique_from_json({"magma": "D:0", "arity": 3000, "labels": {"1,2": "0"}}),
    lambda: Clique(D0, 1448, ()),
], ids=["constructor", "from-arcs", "json", "first-arity-over-bound"])
def test_oversized_arities_are_refused_before_allocating(make):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(CliqueError, match="entry label row"):
            make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the bound is the one interval products apply: arity 1447 fits it
    assert row_width(1447) == 1447 * 1448 // 2


def _arity_entries():
    """Each public entry that takes an arity, as (name, call, error class)."""
    from cliqueops import enumeration as en, knownops as ko
    from cliqueops.operad import LinComb
    from cliqueops.ratfct import IntervalProduct, RatElem, RatFctError

    K = ko.KnownOperadError
    return [
        ("Clique", lambda n: Clique(D0, n, (0, 0, 0)), CliqueError),
        ("from_arcs", lambda n: Clique.from_arcs(D0, n, {}), CliqueError),
        ("clique_from_json", lambda n: clique_from_json({"magma": "D:0", "arity": n}),
         CliqueError),
        ("LinComb", lambda n: LinComb(D0, n), CliqueError),
        ("count_by_enumeration-whi", lambda n: en.count_by_enumeration("whi", D0, n),
         CliqueError),
        ("count_by_enumeration-nes", lambda n: en.count_by_enumeration("nes", D0, n),
         CliqueError),
        ("sequence_for", lambda n: en.sequence_for("nes", D0, n), CliqueError),
        ("dim_formula", lambda n: en.dim_formula("whi", 2, n), CliqueError),
        ("count_prime", lambda n: en.count_prime(D0, n), CliqueError),
        ("count_white_prime", lambda n: en.count_white_prime(D0, n), CliqueError),
        ("count_minimal_prime", lambda n: en.count_minimal_prime(D0, n), CliqueError),
        ("MultiTilde", lambda n: ko.MultiTilde(n, ()), K),
        ("DoubleMultiTilde", lambda n: ko.DoubleMultiTilde(n, (), ()), K),
        ("ChordDiagram", lambda n: ko.ChordDiagram(n, ()), K),
        ("all_multitildes", lambda n: next(ko.all_multitildes(n)), K),
        ("all_double_multitildes", lambda n: next(ko.all_double_multitildes(n)), K),
        ("gravity_diagrams", ko.gravity_diagrams, K),
        ("gravity_cliques", lambda n: ko.gravity_cliques(D0, n), K),
        ("lie_maximal", ko.lie_maximal, K),
        ("IntervalProduct", lambda n: IntervalProduct(n, ()), RatFctError),
        ("RatElem", RatElem, RatFctError),
    ]


@pytest.mark.parametrize("arity", [0, -1, 2.0, True, "2"], ids=repr)
def test_every_arity_entry_applies_the_one_arity_rule(arity):
    # (`generate_cliques` waits for iteration: test_enumeration covers it)
    expected = "arity must be positive" if type(arity) is int else "arity must be an int"
    for name, call, error in _arity_entries():
        call(2)  # kept tables keyed by arity 2 now answer 2.0 too, unless refused first
        with pytest.raises(error, match=expected):
            call(arity)
            pytest.fail(f"{name} took the arity {arity!r}")


@pytest.mark.parametrize("arc", [5, (1, 2, 3), (True, 2), (1.5, 2), (9, 9), [1.0, 2.0],
                                 (2.0, 4.0), (True, 3), (1, 3, 5), "ab"], ids=repr)
def test_arc_readers_apply_the_one_arc_rule(d0, arc):
    clique = Clique.from_arcs(d0, 2, {})
    with pytest.raises(CliqueError, match="is not an arc at arity 2"):
        Clique.from_arcs(d0, 2, {tuple(arc) if isinstance(arc, list) else arc: 1})
    # label and with_label take x and y: a non-pair arrives as x with a good y
    x, y = arc if isinstance(arc, (tuple, list)) and len(arc) == 2 else (arc, 3)
    with pytest.raises(CliqueError, match="is not an arc at arity 2"):
        clique.label(x, y)
    with pytest.raises(CliqueError, match="is not an arc at arity 2"):
        clique.is_solid(x, y)
    with pytest.raises(CliqueError, match="is not an arc at arity 2"):
        clique.with_label(x, y, 0)
    # edge_label(x) reads the arc (x, x + 1): no such x is an edge at arity 2
    with pytest.raises(CliqueError, match="no edge"):
        clique.edge_label(x)
    # split plans check their diagonal as they are built, and are kept
    square = Clique.from_arcs(d0, 4, {})
    _split_plan.cache_clear()
    with pytest.raises(CliqueError, match="is not an arc at arity 4"):
        split_along_diagonal(square, arc)
    # the kept plans of (1, 3) and (2, 4) answer neither (True, 3) nor (2.0, 4.0)
    split_along_diagonal(square, (1, 3))
    split_along_diagonal(square, (2, 4))
    with pytest.raises(CliqueError, match="is not an arc at arity 4"):
        split_along_diagonal(square, arc)


def test_arc_position_is_the_arc_index():
    for arity in range(1, 13):
        index = {arc: k for k, arc in enumerate(arcs_of(arity))}
        assert [arc_position(arity, arc) for arc in arcs_of(arity)] == list(range(len(index)))
        assert all(arc_position(arity, list(arc)) == k for arc, k in index.items())
        assert all(_arc_at(arity, *arc) == k for arc, k in index.items())


def test_clique_reader_at_the_arity_bound_builds_no_arc_table():
    import time
    import tracemalloc

    tables = arcs_of.cache_info()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        clique = clique_from_json({"magma": "D:0", "arity": 1447, "labels": {"1,2": "0"}})
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (clique.arity, clique.labels[0]) == (1447, D0.elem("0"))
    assert arcs_of.cache_info() == tables
    assert elapsed < 1 and peak < 40 << 20


def pairwise_nesting_free(clique):
    """The definition: no solid arc is nested in another, pair by pair."""
    solid = clique.solid_arcs()
    return not any(a != b and nested_in(a, b) for a in solid for b in solid)


@settings(max_examples=300)
@given(sparse_d0_cliques())
def test_nesting_free_matches_its_pairwise_definition(clique):
    solid = clique.solid_arcs()
    assert list(solid) == sorted(solid)  # the one pass relies on arc order
    assert is_nesting_free(clique) == pairwise_nesting_free(clique)


def test_nesting_free_matches_its_pairwise_definition_on_dense_cliques(d1):
    # every D:1 clique of arity 3 and D:0 clique of arity 4, and Z cliques
    # with negative labels: most have more solid arcs than the arity, the
    # count that rejects before the one pass
    import random

    from cliqueops import generate_cliques

    rng = random.Random(0)
    cliques = [*generate_cliques(d1, 3), *generate_cliques(D0, 4)] + [
        Clique(Z, n, [rng.choice((-2, -1, 0, 0, 0, 1, 3)) for _ in arcs_of(n)])
        for n in range(2, 7) for _ in range(60)
    ]
    assert len(cliques) == 729 + 1024 + 300
    counted = [len(c.solid_arcs()) > c.arity for c in cliques]
    assert 1000 < sum(counted) < len(cliques) - 300
    free = [is_nesting_free(c) for c in cliques]
    assert free == [pairwise_nesting_free(c) for c in cliques]
    assert not any(f for f, more in zip(free, counted) if more)
    # the pass below the count both accepts and rejects
    assert {f for f, more in zip(free, counted) if not more} == {True, False}


# -- the clique reader under drawn input ----------------------------------------

_JSON_SCALARS = st.sampled_from([None, True, False, -1, 0, 2, 7, 1.0, 2.5, "", "x", "1,2"])
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3))


def _rarely(draw):
    """True about one time in ten."""
    return draw(st.sampled_from([False] * 9 + [True]))


@st.composite
def labeled_cliques(draw):
    """A clique over a drawn table magma or over Z (labels -3..3), with a
    few solid arcs or with every label drawn."""
    magma = draw(st.one_of(unitary_magmas(), st.just(Z)))
    n = draw(st.integers(1, 7))
    if n == 1:
        return Clique.unit(magma)
    arcs = arcs_of(n)
    if magma.is_finite:
        labels, solid = st.sampled_from(magma.elements()), magma.nonunit_elements()
    else:
        labels, solid = st.integers(-3, 3), [-3, -2, -1, 1, 2, 3]
    if draw(st.booleans()):
        return Clique(magma, n, draw(st.tuples(*[labels] * len(arcs))))
    chosen = draw(st.lists(st.sampled_from(arcs), max_size=4, unique=True))
    return Clique.from_arcs(magma, n, {arc: draw(st.sampled_from(solid)) for arc in chosen})


@settings(max_examples=200, deadline=None)
@given(labeled_cliques())
def test_solid_tests_read_label_truthiness(clique):
    # reference: a label is solid when it differs from the magma's unit
    from cliqueops.clique import iter_solid_arcs
    from cliqueops.variants import _solid_mask

    unit = clique.magma.unit
    labels = clique.labels
    solid = tuple(arc for arc, lab in zip(arcs_of(clique.arity), labels) if lab != unit)
    assert tuple(iter_solid_arcs(clique)) == solid
    assert _solid_mask(clique) == sum(1 << j for j, lab in enumerate(labels) if lab != unit)
    assert is_nesting_free(clique) == (
        not any(a != b and nested_in(a, b) for a in solid for b in solid)
    )


@st.composite
def table_objects(draw):
    """A table-file object of a drawn size: mostly well-shaped (names, a
    unit among them, a square table of names), with drawn damage."""
    names = draw(st.lists(st.sampled_from(["u", "a", "b", "c", "0", "\U0001d7d9", ""]),
                          min_size=1, max_size=4, unique=True))
    if _rarely(draw):
        names = draw(st.lists(_JSON_VALUES, max_size=4))
    entry = st.sampled_from(names) if names else _JSON_VALUES
    junk = st.one_of(entry, _JSON_VALUES)
    unit = draw(junk if _rarely(draw) else entry)
    count = draw(st.integers(0, 17)) if _rarely(draw) else len(names) ** 2
    table = draw(st.lists(junk if _rarely(draw) else entry, min_size=count, max_size=count))
    data = {"elements": names, "unit": unit, "table": table}
    return {k: v for k, v in data.items() if not _rarely(draw)}


@st.composite
def clique_objects(draw):
    """A clique JSON value: a magma field (a spec, a table object or junk),
    an arity of a drawn size (small, or above the bound of `row_width`) and
    labels keyed by drawn arcs, each field sometimes damaged or missing."""
    if _rarely(draw):
        return draw(_JSON_VALUES)
    specs = st.sampled_from(["D:0", "D:2", "N:3", "E:1", "Z", "prod(D:0,N:2)"])
    junk = st.one_of(st.sampled_from(["D:-1", "Q"]), _JSON_VALUES)
    magma = draw(junk if _rarely(draw) else st.one_of(specs, table_objects()))
    arity = draw(st.one_of(st.integers(1448, 10 ** 12), _JSON_SCALARS)
                 if _rarely(draw) else st.integers(-1, 6))
    coordinate = st.integers(-1, 8)
    key = st.builds("{},{}".format, coordinate, coordinate)
    if _rarely(draw):
        key = st.sampled_from(["", "1", "1,2,3", "a,b", " 1, 3", "1;2", "\u0661,\u0662"])
    name = st.sampled_from(["0", "1", "\U0001d7d9", "d1", "d_2", "e1", "2", "-1", "a"])
    if _rarely(draw):
        name = _JSON_VALUES
    labels = draw(_JSON_VALUES if _rarely(draw) else st.dictionaries(key, name, max_size=4))
    data = {"magma": magma, "arity": arity, "labels": labels}
    return {k: v for k, v in data.items() if not _rarely(draw)}


@settings(max_examples=100, deadline=None)
@given(clique_objects())
def test_clique_reader_reads_or_refuses(data):
    from cliqueops import MagmaError

    try:
        clique = clique_from_json(data)
    except (CliqueError, MagmaError):
        return
    assert clique.arity == data["arity"]
    assert clique_from_json(clique_to_json(clique)) == clique
