import math
import operator

import pytest

from cliqueops import (
    BudgetError, Clique, ColoredDyckWord, SequenceRecord,
    count_by_enumeration, count_minimal_prime, count_prime,
    count_white_prime, dim_formula, dyck_decode, dyck_encode,
    export_sequence, generate_cliques, has_nontrivial_unit_divisors,
    is_minimal_prime, is_nesting_free, is_prime, narayana, sequence_for,
)
from cliqueops.knownops import gravity_diagrams
from cliqueops.variants import VARIANT_SPECS, VariantError
from test_verifier_references import (
    count_by_streaming, fresh_census_walks, generate_white_cliques,
)


def test_generate_cliques_counts(d0, n3):
    assert [c.arity for c in generate_cliques(d0, 1)] == [1]
    assert sum(1 for _ in generate_cliques(d0, 2)) == 8
    assert sum(1 for _ in generate_cliques(n3, 2)) == 27
    seen = list(generate_cliques(d0, 3))
    assert len(seen) == len(set(seen)) == 64
    assert seen == sorted(seen)  # canonical lexicographic order


def test_dim_formulas(d0):
    assert [dim_formula("all", 2, n) for n in range(1, 6)] == [
        1, 8, 64, 1024, 32768,
    ]
    assert [dim_formula("all", 3, n) for n in range(1, 5)] == [1, 27, 729, 59049]
    assert dim_formula("bub", 2, 3) == 16
    assert dim_formula("whi", 2, 4) == 2 ** 5
    assert dim_formula("lab", (1, 1, 2), 4) == dim_formula("whi", 2, 4)
    assert [dim_formula("nes", 2, n) for n in range(2, 7)] == [5, 14, 42, 132, 429]
    with pytest.raises(VariantError):
        dim_formula("mot", 2, 3)


def test_narayana_catalan_cross_check():
    # summing the refined counts recovers the Catalan numbers
    for n in range(2, 9):
        total = sum(narayana(n + 2, k) for k in range(n + 1))
        assert total == math.comb(2 * (n + 1), n + 1) // (n + 2)


def test_lab_dimension_via_streaming(d1):
    spec = "lab:\U0001d7d9,0;\U0001d7d9,0;\U0001d7d9,0"
    for n in (2, 3):
        got = count_by_enumeration(spec, d1, n)
        assert got == dim_formula("lab", (2, 2, 2), n)


GOLDEN_SEQUENCES = [
    ("deg:1", "D:0", [1, 4, 10, 26, 76, 232, 764, 2620]),
    ("deg:1", "D:1", [1, 7, 25, 81, 331]),
    ("deg:2", "D:0", [1, 8, 41, 253, 1858]),
    ("nes", "D:0", [1, 5, 14, 42, 132, 429]),
    ("nes", "D:1", [1, 11, 45, 197, 903]),
    ("nes", "D:2", [1, 19, 100, 562]),
    ("acy", "D:0", [1, 7, 38, 291, 2932]),
    ("wnc", "D:0", [1, 1, 3, 11, 45, 197]),
    ("wnc", "D:1", [1, 1, 5, 31, 215]),
    ("pat", "D:0", [1, 7, 34, 206, 1486]),
    ("mot", "D:0", [1, 4, 9, 21, 51, 127]),
    ("dis", "D:0", [1, 1, 3, 6, 13, 29]),
    ("luc", "D:0", [1, 4, 7, 11, 18, 29, 47]),
]


@pytest.mark.parametrize("spec,magma_spec,expected", GOLDEN_SEQUENCES)
def test_golden_sequences(spec, magma_spec, expected):
    from cliqueops import parse_magma_spec

    magma = parse_magma_spec(magma_spec)
    got = [count_by_enumeration(spec, magma, n) for n in range(1, len(expected) + 1)]
    assert got == expected


def test_forest_sequence_discrepancy(d0):
    # the printed source sequence reads 1, 7, 33, 81, 1083, 6854 with the
    # fourth entry suspected to be a typo for 181 (the census and the
    # catalogued sequence A054727 both give 181); we assert the computed
    # value and record the printed one without resolving it by fiat
    printed = [1, 7, 33, 81, 1083, 6854]
    computed = [count_by_enumeration("for", d0, n) for n in range(1, 7)]
    assert computed == [1, 7, 33, 181, 1083, 6854]
    mismatches = [i for i, (a, b) in enumerate(zip(printed, computed)) if a != b]
    assert mismatches == [3]  # exactly the flagged entry diverges


def test_skeleton_census_matches_streaming(d0, d1):
    # every label-blind variant (pruned mask walk) against the
    # clique-by-clique stream
    for magma in (d0, d1):
        for spec in VARIANT_SPECS:
            for n in (2, 3):
                assert count_by_enumeration(spec, magma, n) == count_by_streaming(
                    spec, magma, n
                ), (spec, magma, n)


def test_streaming_budget(d1):
    # a lab: variant is counted over the whole clique space, under the
    # clique budget: 3^15 cliques at arity 5
    spec = "lab:\U0001d7d9,0;\U0001d7d9,0;\U0001d7d9,0"
    with pytest.raises(BudgetError, match=r"3\^15 cliques at arity 5 exceed the budget 100;"):
        count_by_enumeration(spec, d1, 5, budget=100)


def test_skeleton_walk_budget(d0):
    # the walk counts the masks it yields: cro:0 accepts 352 masks at
    # arity 4, so a budget of 352 lets it finish and 351 refuses it
    assert count_by_enumeration("cro:0", d0, 4, budget=352) == 352
    with pytest.raises(BudgetError, match=r"352 skeleton masks at arity 4, over the budget 351;"):
        count_by_enumeration("cro:0", d0, 4, budget=351)
    # grav's frame is left out of the walk: 2520 diagonal masks at arity 7
    assert count_by_enumeration("grav", d0, 7, budget=2520) == 2520
    with pytest.raises(BudgetError):
        count_by_enumeration("grav", d0, 7, budget=2519)
    assert count_by_enumeration("cro:0", d0, 4, budget=None) == 352


def test_grav_census_counts_the_gravity_diagrams(d0, d1):
    # the census walks the diagonal masks alone, so no clique budget stops
    # it: over D:1 each diagram's 7 frame arcs and its diagonals take one of
    # two labels, and over D:0 each diagram is one clique
    assert count_by_enumeration("grav", d1, 6) == sum(
        2 ** (7 + len(d.diagonals)) for d in gravity_diagrams(6)
    )
    assert [count_by_enumeration("grav", d0, n) for n in (7, 8)] == [
        len(gravity_diagrams(n)) for n in (7, 8)
    ] == [2520, 20160]


def test_prime_census_golden(d0):
    assert [count_prime(d0, n) for n in range(1, 7)] == [
        0, 8, 16, 352, 16448, 1380224,
    ]
    assert [count_white_prime(d0, n) for n in range(1, 7)] == [
        0, 1, 1, 11, 257, 10783,
    ]
    assert [count_minimal_prime(d0, n) for n in range(1, 7)] == [
        0, 1, 1, 5, 22, 119,
    ]


def test_prime_census_budget(d0):
    # the budget counts the 2^#diagonals patterns: 2^20 at arity 7, 2^27 at 8
    assert count_white_prime(d0, 7) == 822273
    assert count_minimal_prime(d0, 7) == 783
    for census in (count_prime, count_white_prime, count_minimal_prime):
        with pytest.raises(BudgetError, match=r"2\^27 diagonal patterns at arity 8"):
            census(d0, 8)
        with pytest.raises(BudgetError):
            census(d0, 5, budget=100)
    assert count_white_prime(d0, 5, budget=None) == 257


def test_prime_census_matches_naive(d0, n3):
    # the pattern census must agree with the clique-by-clique predicates
    for magma, max_n in ((d0, 4), (n3, 3)):
        for n in range(1, max_n + 1):
            naive = sum(1 for p in generate_cliques(magma, n) if is_prime(p))
            assert count_prime(magma, n) == naive
            naive_white = sum(
                1 for p in generate_white_cliques(magma, n) if is_prime(p)
            )
            assert count_white_prime(magma, n) == naive_white
            naive_min = sum(
                1 for p in generate_white_cliques(magma, n) if is_minimal_prime(p)
            )
            assert count_minimal_prime(magma, n) == naive_min


def test_prime_divisibility(d0, n3):
    for magma in (d0, n3):
        for n in range(2, 5):
            assert count_prime(magma, n) == (
                magma.size ** (n + 1) * count_white_prime(magma, n)
            )


def test_minimal_primes_are_white(d0):
    for n in range(2, 5):
        for p in generate_cliques(d0, n):
            if is_minimal_prime(p):
                from cliqueops import is_white

                assert is_white(p)


def test_dyck_encode_examples(d0):
    allunit = Clique.from_arcs(d0, 3, {})
    assert "".join(dyck_encode(allunit).letters) == "abababab"
    single = Clique.from_arcs(d0, 2, {(1, 3): 1})
    word = dyck_encode(single)
    assert word.letters == ("a", "a", "a", "b", "b", "b")
    assert word.colors == {2: 1}
    assert len(word.colors) == len(single.solid_arcs())


def test_dyck_round_trip_exhaustive(d0):
    count = 0
    for n in range(1, 6):
        for p in generate_cliques(d0, n):
            if not is_nesting_free(p):
                continue
            word = dyck_encode(p)
            assert dyck_decode(word) == p
            assert len(word.colors) == len(p.solid_arcs())
            count += 1
    # the image is exactly the valid colored words: encoding is injective
    # and the round trip above hits each word once
    assert count == sum(dim_formula("nes", 2, n) for n in range(1, 6))


def test_dyck_image_is_every_valid_word(d0):
    # enumerate every balanced dominated word with colored even-position
    # a letters and check each decodes, and decoding inverts encoding
    from itertools import product as iproduct

    def words(pairs):
        for letters in iproduct("ab", repeat=2 * pairs):
            depth = 0
            for ch in letters:
                depth += 1 if ch == "a" else -1
                if depth < 0:
                    break
            else:
                if depth == 0:
                    yield letters

    total = 0
    for pairs in (3, 4, 5):  # vertex counts 3..5, so arities 2..4
        for letters in words(pairs):
            colors = {
                pos: 1 for pos in range(2, 2 * pairs + 1, 2)
                if letters[pos - 1] == "a"
            }
            word = ColoredDyckWord(d0, letters, colors)
            clique = dyck_decode(word)
            assert is_nesting_free(clique)
            assert dyck_encode(clique) == word
            total += 1
    assert total == sum(dim_formula("nes", 2, n) for n in (2, 3, 4))


def test_dyck_rejections(d0, d1, e1):
    nested = Clique.from_arcs(d0, 4, {(1, 4): 1, (2, 3): 1})
    with pytest.raises(Exception):
        dyck_encode(nested)
    with pytest.raises(Exception):
        dyck_encode(Clique.from_arcs(e1, 2, {}))
    with pytest.raises(Exception):
        ColoredDyckWord(d0, ("a", "b", "b", "a"), {})
    with pytest.raises(Exception):
        ColoredDyckWord(d0, ("a", "a", "b", "b"), {})  # even-position a uncolored
    # a valid word can still decode to an illegal clique: a solid arc at
    # arity 1 contradicts the unit-clique convention
    word = ColoredDyckWord(d1, ("a", "a", "b", "b"), {2: d1.elem("d_1")})
    with pytest.raises(Exception):
        dyck_decode(word)


def test_export_formats():
    record = SequenceRecord("deg:1", "D:0", [(2, 4), (3, 10)], "enumeration")
    assert export_sequence(record, "b") == "2 4\n3 10\n"
    assert export_sequence(record, "csv") == "arity,count\n2,4\n3,10\n"
    payload = export_sequence(record, "json")
    assert '"variant": "deg:1"' in payload
    empty = SequenceRecord("deg:1", "D:0", [], "enumeration")
    assert export_sequence(empty, "b") == ""
    with pytest.raises(ValueError):
        export_sequence(record, "xml")


def test_sequence_for_provenance(d0):
    record = sequence_for("nes", d0, 4)
    assert record.provenance == "both"
    assert [count for _, count in record.entries] == [1, 5, 14, 42]
    record2 = sequence_for("mot", d0, 3)
    assert record2.provenance == "enumeration"


# -- shared clique spaces --------------------------------------------------


def _spaces_under_the_cap():
    from cliqueops.clique import _SHARED_SPACE_CAP, clique_space_size
    from cliqueops import parse_magma_spec

    return [
        (spec, n) for spec in ("D:0", "D:1", "N:2", "E:1") for n in range(1, 6)
        if clique_space_size(parse_magma_spec(spec), n) <= _SHARED_SPACE_CAP
    ]


@pytest.mark.parametrize("spec, arity", _spaces_under_the_cap())
def test_shared_spaces_are_the_stream(spec, arity):
    from cliqueops import parse_magma_spec
    from cliqueops.clique import _stream_cliques

    magma = parse_magma_spec(spec)
    shared = list(generate_cliques(magma, arity))
    assert shared == list(_stream_cliques(magma, arity))  # arity, labels and magma
    assert all(c.magma is magma for c in shared)
    # a second enumeration yields the same instances and builds none
    again = list(generate_cliques(magma, arity))
    assert len(again) == len(shared) and all(map(operator.is_, again, shared))


def test_shared_spaces_stay_with_their_magma(tmp_path):
    import json

    from cliqueops import UnitaryMagma, parse_magma_spec

    d0 = UnitaryMagma.zero_product(0)
    key = hash(d0)
    path = tmp_path / "d0.json"
    path.write_text(json.dumps(d0.table_data()))
    copy = parse_magma_spec(f"table:{path}")
    assert copy == d0 and copy is not d0
    ours = list(generate_cliques(d0, 3))
    theirs = list(generate_cliques(copy, 3))
    # equal magmas, equal cliques, but each clique keeps the magma it was asked for
    assert theirs == ours
    assert all(c.magma is copy for c in theirs)
    assert all(c.magma is d0 for c in generate_cliques(d0, 3))
    # the shared spaces and the unit-divisor answer stay out of == and hash
    assert not has_nontrivial_unit_divisors(d0)
    assert hash(d0) == key == hash(copy) and d0 == copy


def test_spaces_over_the_cap_are_not_held():
    import tracemalloc

    from cliqueops import UnitaryMagma
    from cliqueops.clique import _SHARED_SPACE_CAP, clique_space_size

    magma = UnitaryMagma.zero_product(0)
    assert clique_space_size(magma, 6) > _SHARED_SPACE_CAP
    tracemalloc.start()
    try:
        seen = 0
        for clique in generate_cliques(magma, 6):
            seen += 1
            if seen == 20000:
                break
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == 20000 and clique.labels == tuple(map(int, f"{19999:021b}"))
    assert peak < 1 << 20  # 20,000 held cliques of arity 6 take about 5 MiB
    assert magma._spaces == {}


def test_enumeration_errors_wait_for_iteration(z):
    from cliqueops import CliqueError, MagmaError, UnitaryMagma

    magma = UnitaryMagma.zero_product(0)  # a new object keeps no space yet
    shared = None
    for kept in (False, True):
        assert (2 in magma._spaces) is kept
        calls = generate_cliques(z, 2), generate_cliques(magma, 0), generate_cliques(magma, -1)
        # 2.0 and True hash as the kept arities 2 and 1, and are refused all the same
        not_ints = [generate_cliques(magma, arity) for arity in (2.0, True, "2")]
        with pytest.raises(MagmaError, match="infinite magma"):
            next(calls[0])
        for below_one in calls[1:]:
            with pytest.raises(CliqueError, match="arity must be positive"):
                next(below_one)
        for not_int in not_ints:
            with pytest.raises(CliqueError, match="arity must be an int"):
                next(not_int)
        # two calls made before either is iterated yield one kept space's
        # instances, and every call after it is kept yields them again
        first, second = generate_cliques(magma, 2), generate_cliques(magma, 2)
        once, again = list(first), list(second)
        shared = shared or once
        assert len(once) == 8
        assert all(map(operator.is_, once, shared)) and all(map(operator.is_, again, shared))
    assert z._spaces == {}


@pytest.mark.parametrize("color", [99, True, -1, "d_1"])
def test_dyck_words_refuse_colors_outside_the_magma(d1, color):
    from cliqueops import CliqueError

    with pytest.raises(CliqueError, match="is not an element of D_1"):
        ColoredDyckWord(d1, ("a", "a", "b", "b", "a", "b"), {2: color})


# -- kept census histograms ------------------------------------------------


KEPT_SPECS = VARIANT_SPECS + ("cro:2", "deg:3")  # grav among them


def test_kept_skeleton_histograms_count_as_a_fresh_walk(d0, d1, d2, monkeypatch):
    # a histogram walked under one magma weights every other magma's count:
    # counts read from the store equal counts walked afresh, whichever magma
    # walks first
    from cliqueops import enumeration

    cases = [(spec, n) for spec in KEPT_SPECS for n in range(1, 7)]
    cold = {}
    for magma in (d0, d1, d2):
        for spec, n in cases:
            monkeypatch.setattr(enumeration, "_SKELETON_HISTOGRAMS", {})
            cold[spec, magma.name, n] = count_by_enumeration(spec, magma, n)
    for order in ((d0, d1, d2), (d2, d1, d0)):
        monkeypatch.setattr(enumeration, "_SKELETON_HISTOGRAMS", {})
        warm = {(spec, magma.name, n): count_by_enumeration(spec, magma, n)
                for magma in order for spec, n in cases}
        assert warm == cold, order


def test_a_second_magma_walks_nothing(d0, d1, monkeypatch):
    walks = fresh_census_walks(monkeypatch)
    for spec in KEPT_SPECS:
        count_by_enumeration(spec, d0, 5)
    assert len(walks) == len(KEPT_SPECS)
    for spec in KEPT_SPECS:
        count_by_enumeration(spec, d1, 5)
    assert len(walks) == len(KEPT_SPECS)
    # a budget that fits the kept histogram's total reads it too
    assert count_by_enumeration("cro:0", d1, 4, budget=352) == count_by_enumeration(
        "cro:0", d1, 4,
    )
    assert len(walks) == len(KEPT_SPECS) + 1


def test_kept_prime_histograms_count_as_a_fresh_scan(d0, d1, d2, monkeypatch):
    from cliqueops import enumeration

    censuses = (count_prime, count_white_prime, count_minimal_prime)
    cases = [(census, magma, n) for magma in (d0, d1, d2) for census in censuses
             for n in range(1, 7)]
    cold = []
    for census, magma, n in cases:
        monkeypatch.setattr(enumeration, "_PRIME_HISTOGRAMS", {})
        cold.append(census(magma, n))
    monkeypatch.setattr(enumeration, "_PRIME_HISTOGRAMS", {})
    assert [census(magma, n) for census, magma, n in cases] == cold
    assert len(enumeration._PRIME_HISTOGRAMS) == 10  # sizes 2..6, white and minimal


def test_shared_space_decision_needs_no_power():
    from cliqueops import UnitaryMagma
    from cliqueops.clique import _SHARED_SPACE_CAP, _shares_space, clique_space_size

    magmas = [UnitaryMagma.trivial()] + [UnitaryMagma.zero_product(k) for k in range(5)]
    assert [m.size for m in magmas] == [1, 2, 3, 4, 5, 6]
    for magma in magmas:
        for n in range(1, 41):
            assert _shares_space(magma, n) == (
                clique_space_size(magma, n) <= _SHARED_SPACE_CAP
            ), (magma.size, n)
