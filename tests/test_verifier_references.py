"""Clique-at-a-time reference implementations of the block verifiers.

`verify_symmetries` (finite carriers), `verify_cyclic`, `verify_product_iso`,
`verify_ideal`, `verify_inclusions` and `verify_basic_set_operad` run on
numpy label blocks.  The loops below are the earlier one-clique-at-a-time
versions, kept here as the independent reference: on success both must
report the same verdict and the same `checked` total (the injectivity scan
also the same witness when it fails).  The prime census runs on numpy
pattern blocks; its one-pattern-at-a-time loop is kept here too, and the
census of every variant is compared with `count_by_streaming`, which
builds every clique, and the white-prime census with
`generate_white_cliques`.  The skeleton census walks blocks of arc
masks; each rule's test on one mask, and the fold `member` makes of it,
are its reference.
The operad-morphism laws of ratfct.py and knownops.py run on the slab
engine only; the one-instance loops below are their reference, and the
mutation tests of test_ratfct.py and test_knownops.py run against both.
The rational-function loop substitutes interval products by the dict
rule of `reference_compose_product`, which `ratfct._row_plan` compiles.
Both axiom engines share the plan-level unit law; its reference composes
each clique with the unit one `partial_compose` call at a time, and must
also agree on the count and the text of a failure.
The bilinear products (`partial_compose_lin`, `star_product` on
combinations and `compose_in_basis` in all three bases) sum label rows;
their references compose one pair of cliques at a time and accumulate
`Clique` keys, and the single-clique H and K compositions are checked
against their case formulas built from `d_edge` and `d_base`.
"""

import random
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueops import (
    Clique, LinComb, RankFunction, UnitaryMagma, VerifyReport, automorphisms,
    compose_H, compose_K, compose_in_basis, count_by_enumeration,
    generate_cliques, interval_map, parse_magma_spec, partial_compose,
    partial_compose_lin, reflect, relabel, rotate, star_product, unzip_clique,
    variant, verify_basic_set_operad, verify_cyclic, verify_ideal,
    verify_inclusions, verify_product_iso, verify_rf_morphism,
    verify_symmetries, zip_cliques,
)
from cliqueops import bases, enumeration, knownops, operad, ratfct, variants
from cliqueops.clique import arcs_of, crossing, diagonals_of
from cliqueops.knownops import verify_double_multitildes, verify_known_ops
from cliqueops.operad import composable_pairs
from cliqueops.verify import _compose_corrupt, _unit_law
from cliqueops.variants import INCLUSION_IMPLICATIONS, QUOTIENT_SPECS, VARIANT_SPECS

from magma_strategies import _LEFT_ZERO, unitary_magmas


def reference_unit_law(magma, max_arity, compose=partial_compose):
    """x o_i unit = x and unit o_1 x = x, one `compose` call at a time, in
    the plan law's scan order: per arity, per i every x, then every x
    against unit o_1 x."""
    unit = Clique.unit(magma)
    checked = 0
    for n in range(1, max_arity + 1):
        cliques = list(generate_cliques(magma, n))
        for i in range(1, n + 1):
            for x in cliques:
                checked += 1
                if compose(x, unit, i) != x:
                    return VerifyReport(
                        "unit-law", False, checked, f"{x!r} o_{i} unit differs from {x!r}",
                    )
        for x in cliques:
            checked += 1
            if compose(unit, x, 1) != x:
                return VerifyReport(
                    "unit-law", False, checked, f"unit o_1 {x!r} differs from {x!r}",
                )
    return VerifyReport("unit-law", True, checked, None)


def count_by_streaming(spec, magma, arity):
    """Dense census: build every clique and count the members."""
    var = variant(spec, magma)
    if arity == 1:
        return 1
    return sum(
        1 for clique in generate_cliques(magma, arity)
        if var.in_ambient(clique) and var.member(clique)
    )


def generate_white_cliques(magma, arity):
    """Cliques whose solid arcs are diagonals only."""
    if arity == 1:
        yield Clique.unit(magma)
        return
    diags = diagonals_of(arity)
    index = {a: i for i, a in enumerate(arcs_of(arity))}
    base = [magma.unit] * len(arcs_of(arity))
    for labels in product(range(magma.size), repeat=len(diags)):
        current = list(base)
        for arc, lab in zip(diags, labels):
            current[index[arc]] = lab
        yield Clique._unsafe(magma, arity, tuple(current))


def assert_unit_law_matches_its_reference(magma, max_arity, corrupt):
    failure, checked = _unit_law(magma, max_arity, None, corrupt)
    reference = reference_unit_law(
        magma, max_arity, _compose_corrupt if corrupt else partial_compose,
    )
    assert (failure is None, checked, failure and failure.counterexample) == (
        reference.ok, reference.checked, reference.counterexample,
    )
    assert checked > 0
    return reference


def reference_symmetries(magma, max_arity):
    checked = 0
    autos = automorphisms(magma)
    for (n, m) in composable_pairs(max_arity):
        ps = list(generate_cliques(magma, n))
        qs = list(generate_cliques(magma, m))
        images = {theta: {c: relabel(c, theta) for c in ps + qs} for theta in autos}
        for p in ps:
            for q in qs:
                for i in range(1, n + 1):
                    composed = partial_compose(p, q, i)
                    checked += 1
                    lhs = reflect(composed)
                    rhs = partial_compose(reflect(p), reflect(q), n - i + 1)
                    if lhs != rhs:
                        return VerifyReport(
                            "symmetries", False, checked,
                            f"reflection fails on {p!r} o_{i} {q!r}",
                        )
                    for theta, image in images.items():
                        checked += 1
                        lhs = relabel(composed, theta)
                        rhs = partial_compose(image[p], image[q], i)
                        if lhs != rhs:
                            return VerifyReport(
                                "symmetries", False, checked,
                                f"automorphism relabeling fails on {p!r} o_{i} {q!r}",
                            )
    return VerifyReport("symmetries", True, checked, None)


def reference_cyclic(magma, max_arity):
    checked = 0
    unit = Clique.unit(magma)
    if rotate(unit) != unit:
        return VerifyReport("cyclic", False, 1, "rotation moves the unit clique")
    for n in range(1, max_arity + 1):
        for p in generate_cliques(magma, n):
            current = p
            for _ in range(n + 1):
                current = rotate(current)
            checked += 1
            if current != p:
                return VerifyReport(
                    "cyclic", False, checked, f"rotation order exceeds {n + 1} on {p!r}"
                )
    for (n, m) in composable_pairs(max_arity):
        for p in generate_cliques(magma, n):
            for q in generate_cliques(magma, m):
                for i in range(1, n + 1):
                    checked += 1
                    lhs = rotate(partial_compose(p, q, i))
                    if i == 1:
                        rhs = partial_compose(rotate(q), rotate(p), m)
                    else:
                        rhs = partial_compose(rotate(p), q, i - 1)
                    if lhs != rhs:
                        return VerifyReport(
                            "cyclic", False, checked,
                            f"rotation law fails on {p!r} o_{i} {q!r}",
                        )
    return VerifyReport("cyclic", True, checked, None)


def reference_product_iso(product_magma, max_arity):
    checked = 0
    for (n, m) in composable_pairs(max_arity):
        for p in generate_cliques(product_magma, n):
            p1, p2 = unzip_clique(p)
            if zip_cliques(product_magma, p1, p2) != p:
                return VerifyReport(
                    "product-iso", False, checked, f"unzip/zip round trip fails on {p!r}"
                )
            for q in generate_cliques(product_magma, m):
                q1, q2 = unzip_clique(q)
                for i in range(1, n + 1):
                    checked += 1
                    composed = partial_compose(p, q, i)
                    c1, c2 = unzip_clique(composed)
                    if c1 != partial_compose(p1, q1, i) or c2 != partial_compose(p2, q2, i):
                        return VerifyReport(
                            "product-iso", False, checked,
                            f"pairing does not commute with o_{i} on {p!r}, {q!r}",
                        )
    return VerifyReport("product-iso", True, checked, None)


def reference_ideal(var, magma, max_arity):
    checked = 0
    for a, b in composable_pairs(max_arity):
        outside = [
            p for p in generate_cliques(magma, a)
            if var.in_ambient(p) and not var.member(p)
        ]
        ambient = [q for q in generate_cliques(magma, b) if var.in_ambient(q)]
        for p in outside:
            for q in ambient:
                for i in range(1, a + 1):
                    checked += 1
                    if var.member(partial_compose(p, q, i)):
                        return VerifyReport(
                            f"ideal:{var.spec}", False, checked,
                            f"non-member {p!r} o_{i} {q!r} re-entered {var.spec}",
                        )
                for i in range(1, b + 1):
                    checked += 1
                    if var.member(partial_compose(q, p, i)):
                        return VerifyReport(
                            f"ideal:{var.spec}", False, checked,
                            f"{q!r} o_{i} non-member {p!r} re-entered {var.spec}",
                        )
    return VerifyReport(f"ideal:{var.spec}", True, checked, None)


def reference_inclusions(magma, max_arity):
    specs = {spec for pair in INCLUSION_IMPLICATIONS for spec in pair}
    members = {spec: variant(spec, magma).member for spec in specs}
    checked = 0
    for n in range(1, max_arity + 1):
        for p in generate_cliques(magma, n):
            for lhs, rhs in INCLUSION_IMPLICATIONS:
                checked += 1
                if members[lhs](p) and not members[rhs](p):
                    return VerifyReport(
                        "inclusions", False, checked,
                        f"{p!r} is in {lhs} but not in {rhs}",
                    )
    return VerifyReport("inclusions", True, checked, None)


def reference_morphism(family, arity_pairs, pool, phi, compose, image_compose):
    """phi(a o_i b) == phi(a) o_i phi(b), one instance at a time, over every
    pair from the pools of the given arity pairs and every i."""
    arities = {n for pair in arity_pairs for n in pair}
    pools = {n: list(pool(n)) for n in arities}
    images = {n: [phi(a) for a in pools[n]] for n in pools}
    checked = 0
    for n, m in arity_pairs:
        right = list(zip(pools[m], images[m]))
        for a, image_a in zip(pools[n], images[n]):
            for b, image_b in right:
                for i in range(1, n + 1):
                    checked += 1
                    if phi(compose(a, b, i)) != image_compose(image_a, image_b, i):
                        return VerifyReport(
                            "known-ops", False, checked,
                            f"{family} morphism fails on {a!r} o_{i} {b!r}",
                        )
    return VerifyReport("known-ops", True, checked, None)


def reference_known_ops(max_arity):
    # module lookups at call time, so that monkeypatched rules reach the loop
    pairs = composable_pairs(max_arity)
    tildes = reference_morphism(
        "multi-tilde", pairs, knownops._clique_multitildes, knownops.phi_mt,
        knownops.mt_compose, partial_compose,
    )
    if not tildes.ok:
        return tildes
    # chord_compose and grav_compose assert gravity closure on both sides
    gravity = reference_morphism(
        "gravity", pairs, knownops.gravity_diagrams, knownops.phi_grav,
        knownops.chord_compose, knownops.grav_compose,
    )
    return VerifyReport(
        "known-ops", gravity.ok, tildes.checked + gravity.checked,
        gravity.counterexample,
    )


def reference_double_multitildes(arity_pairs):
    return reference_morphism(
        "double multi-tilde", arity_pairs, knownops._clique_double_multitildes,
        knownops.phi_dmt, knownops.dmt_compose, partial_compose,
    )


def reference_compose_product(prod, other, i):
    """The substituted product as sorted ((x, y), exponent) pairs, the
    powers of `ratfct.compose_product`: each interval goes through the
    dicts of `ratfct._reindex`, the exponents that meet add, zeros drop."""
    outer, inner = ratfct._reindex(prod.arity, other.arity, i)
    powers = {outer[iv]: e for iv, e in prod.powers}
    for iv, e in other.powers:
        key = inner[iv]
        powers[key] = powers.get(key, 0) + e
    return tuple(sorted((iv, e) for iv, e in powers.items() if e))


def reference_rf_morphism(labels, max_arity):
    """interval_map of each clique composite against the substituted
    interval products of the images, one instance at a time."""
    z, rank = UnitaryMagma.integers(), RankFunction.identity()
    pools = {1: [Clique.unit(z)]}
    for n in range(2, max_arity + 1):
        pools[n] = [Clique(z, n, labs) for labs in product(labels, repeat=len(arcs_of(n)))]
    images = {n: [interval_map(p, rank) for p in pool] for n, pool in pools.items()}
    checked = 0
    for n in pools:
        for m in pools:
            for p, fp in zip(pools[n], images[n]):
                for q, fq in zip(pools[m], images[m]):
                    for i in range(1, n + 1):
                        checked += 1
                        if interval_map(partial_compose(p, q, i), rank).powers != \
                                reference_compose_product(fp, fq, i):
                            return VerifyReport(
                                "ratfct-morphism", False, checked,
                                f"image of {p!r} o_{i} {q!r} is not the "
                                "composition of the images",
                            )
    return VerifyReport("ratfct-morphism", True, checked, None)


def reference_basic_set_operad(magma, max_arity):
    """(report, witness) of the injectivity scan, one composite at a time
    through `partial_compose` and a dict per (q, i) column."""
    checked = 0
    witness = None
    for (n, m) in composable_pairs(max_arity):
        ps = list(generate_cliques(magma, n))
        for q in generate_cliques(magma, m):
            for i in range(1, n + 1):
                seen = {}
                for p in ps:
                    checked += 1
                    result = partial_compose(p, q, i)
                    if result in seen and witness is None:
                        witness = (seen[result], p, q, i)
                    seen[result] = p
        if witness is not None:
            break
    return VerifyReport(
        "basic-basis", witness is None, checked,
        None if witness is None else
        f"collision {witness[0]!r} and {witness[1]!r} compose equally "
        f"with {witness[2]!r} at {witness[3]}",
    ), witness


def _same(block, reference):
    assert (block.ok, block.checked) == (reference.ok, reference.checked)
    assert block.ok and block.counterexample is None


@pytest.mark.parametrize("corrupt", [False, True], ids=["true-rule", "corrupt"])
@pytest.mark.parametrize("spec", ["N:2", "D:0", "E:1"])
def test_unit_law_matches_its_reference(spec, corrupt):
    # the corrupted glue forgets q's base, so unit o_1 x fails on the
    # first x with a non-unit base
    reference = assert_unit_law_matches_its_reference(parse_magma_spec(spec), 4, corrupt)
    assert reference.ok != corrupt
    if corrupt:
        assert reference.counterexample.startswith("unit o_1 ")


@pytest.mark.parametrize("spec", ["N:2", "D:0", "E:1", "prod(D:0,D:0)"])
def test_symmetry_verifiers_match_their_references(spec):
    magma = parse_magma_spec(spec)
    assert len(automorphisms(magma)) == (2 if magma.factors else 1)
    _same(verify_symmetries(magma, 3), reference_symmetries(magma, 3))
    _same(verify_cyclic(magma, 3), reference_cyclic(magma, 3))
    if magma.factors:
        _same(verify_product_iso(magma, 3), reference_product_iso(magma, 3))


@pytest.mark.parametrize("spec", ["N:2", "N:3", "D:0", "E:1"])
def test_basic_basis_verifier_matches_its_reference(spec):
    magma = parse_magma_spec(spec)
    block, witness = verify_basic_set_operad(magma, 3)
    reference, expected = reference_basic_set_operad(magma, 3)
    assert (block.ok, block.checked, block.counterexample) == (
        reference.ok, reference.checked, reference.counterexample,
    )
    assert witness == expected


def test_morphism_verifiers_match_their_references():
    # known ops at arity 4 include 93 gravity instances
    pairs = [(1, 2), (2, 1), (2, 2)]
    runs = [
        (verify_rf_morphism((-1, 0, 1), 2), reference_rf_morphism((-1, 0, 1), 2)),
        (verify_known_ops(4), reference_known_ops(4)),
        (verify_double_multitildes(pairs), reference_double_multitildes(pairs)),
    ]
    for block, reference in runs:
        _same(block, reference)
        assert block.checked > 0


def test_ideal_verifier_matches_its_reference(d0):
    for spec in QUOTIENT_SPECS:
        _same(verify_ideal(variant(spec, d0), d0, 4),
              reference_ideal(variant(spec, d0), d0, 4))


def test_failing_ideal_verdict_matches_its_reference(e1):
    block = verify_ideal(variant("deg:1", e1, unchecked=True), e1, 4)
    reference = reference_ideal(variant("deg:1", e1, unchecked=True), e1, 4)
    assert not block.ok and not reference.ok


@pytest.mark.parametrize("spec, max_arity", [("D:0", 4), ("D:1", 3)])
def test_inclusion_verifier_matches_its_reference(spec, max_arity):
    magma = parse_magma_spec(spec)
    _same(verify_inclusions(magma, max_arity), reference_inclusions(magma, max_arity))


@pytest.mark.parametrize("chunk", [None, 100])
def test_failing_inclusion_verdict_matches_its_reference(d0, monkeypatch, chunk):
    # mutation: for admits one crossing, so for leaves cro:0; a small chunk
    # puts the first failure past several label blocks
    rule = variants._conjunction(variants._crossing_rule(1), variants._acyclic_rule)
    monkeypatch.setitem(variants._KINDS, "for", variants._KINDS["for"]._replace(rule=rule))
    if chunk is not None:
        monkeypatch.setattr(variants, "VECTOR_CHUNK", chunk)
    block = verify_inclusions(d0, 4)
    reference = reference_inclusions(d0, 4)
    assert not block.ok and not reference.ok
    assert (block.checked, block.counterexample) == (
        reference.checked, reference.counterexample,
    )


def reference_prime_patterns(arity, weight, want_minimal):
    """Sum weight^#solid over the prime (or minimal prime) diagonal
    patterns, one pattern at a time."""
    diags = diagonals_of(arity)
    masks = [
        sum(1 << j for j, e in enumerate(diags) if crossing(d, e)) for d in diags
    ]
    total = 0
    for pattern in range(1 << len(diags)):
        if any(mask & pattern == 0 for mask in masks):
            continue
        if want_minimal:
            live = pattern
            minimal = True
            while live:
                bit = live & -live
                live ^= bit
                if not any(mask & (pattern ^ bit) == 0 for mask in masks):
                    minimal = False
                    break
            if not minimal:
                continue
        total += weight ** pattern.bit_count()
    return total


def _block_prime_patterns(arity, weight, want_minimal):
    histogram = enumeration._prime_patterns(arity, want_minimal)
    return enumeration._weigh(histogram, weight)


@pytest.mark.parametrize("weight", [1, 2])
@pytest.mark.parametrize("want_minimal", [False, True], ids=["white", "minimal"])
def test_prime_census_matches_its_reference(weight, want_minimal):
    for arity in range(1, 7):
        assert _block_prime_patterns(arity, weight, want_minimal) == (
            reference_prime_patterns(arity, weight, want_minimal)
        ), arity


@pytest.mark.parametrize("want_minimal", [False, True], ids=["white", "minimal"])
def test_prime_census_catches_a_dropped_crossing_mask(monkeypatch, want_minimal):
    # mutation: the last diagonal's crossing mask is lost, so patterns that
    # leave that diagonal uncrossed pass as prime
    real = enumeration._diagonal_cross_masks

    def dropped(arity):
        diags, masks = real(arity)
        return diags, masks[:-1]

    monkeypatch.setattr(enumeration, "_diagonal_cross_masks", dropped)
    assert _block_prime_patterns(5, 1, want_minimal) != (
        reference_prime_patterns(5, 1, want_minimal)
    )


LAB_SPECS = [  # (magma, spec with the unit among the edge labels, one without)
    ("D:1", "lab:\U0001d7d9,0;\U0001d7d9,0,d_1;\U0001d7d9,0,d_1",
     "lab:\U0001d7d9;0;\U0001d7d9,0"),
    ("E:2", "lab:\U0001d7d9;\U0001d7d9,e_1;\U0001d7d9,e_1",
     "lab:\U0001d7d9;e_1,e_2;\U0001d7d9,e_1,e_2"),
]


@pytest.mark.parametrize("spec, with_unit, without_unit", LAB_SPECS)
def test_label_block_census_matches_streaming(spec, with_unit, without_unit):
    magma = parse_magma_spec(spec)
    for lab in (with_unit, without_unit):
        for n in range(1, 5):
            if lab == without_unit:
                with pytest.warns(UserWarning, match="unit not in the edge label set"):
                    block = count_by_enumeration(lab, magma, n)
            else:
                block = count_by_enumeration(lab, magma, n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert block == count_by_streaming(lab, magma, n), (lab, n)


SKELETON_RULE_SPECS = (
    "cro:0", "cro:1", "cro:2", "deg:0", "deg:1", "deg:2", "deg:3",
    *(kind for kind, row in variants._KINDS.items() if isinstance(row.rule, variants.Rule)),
)


def _rule(spec):
    return variant(spec, parse_magma_spec("D:0")).rule


def labels_after(arity, mask):
    """Vertex component labels once the arcs of `mask` join in arc order:
    each arc's second endpoint's component takes its first endpoint's label."""
    comp = list(range(arity + 2))
    for j, (x, y) in enumerate(arcs_of(arity)):
        if mask >> j & 1:
            old = comp[y]
            comp = [comp[x] if c == old else c for c in comp]
    return comp


def mask_block(masks, width):
    """The masks as a block of 63-bit int64 words, split here rather than by
    the walk's own helper."""
    words = max(1, -(-width // 63))
    return variants._MaskBlock(np.array(
        [[m >> (63 * w) & ((1 << 63) - 1) for m in masks] for w in range(words)],
        dtype=np.int64,
    ))


@pytest.mark.parametrize("spec", SKELETON_RULE_SPECS)
def test_block_rule_test_matches_the_one_mask_test(spec):
    # every mask at arities 1-4, and sparse two-word masks at arity 11
    rule = _rule(spec)
    rng = random.Random(spec)
    cases = [(n, list(range(1 << len(arcs_of(n))))) for n in range(1, 5)]
    cases.append((11, [rng.getrandbits(66) & rng.getrandbits(66) & rng.getrandbits(66)
                       for _ in range(150)]))
    for arity, masks in cases:
        width = len(arcs_of(arity))
        labels = [labels_after(arity, m) for m in masks]
        comp = np.array(labels, dtype=np.int8).T if rule.forest else None
        admits = rule.at(arity)
        block = mask_block(masks, width)
        for j in range(width):
            got = np.broadcast_to(admits(block, comp, j), len(masks)).tolist()
            want = [
                bool(admits(m, bytes(c) if rule.forest else None, j))
                for m, c in zip(masks, labels)
            ]
            assert got == want, (arity, j)


def walked_masks(arity, rule):
    """Every mask the census walk yields, checking each block's arc count."""
    walked = []
    for masks, k in variants._skeleton_blocks(arity, rule):
        rows = masks.ints() if isinstance(masks, variants._MaskBlock) else masks
        assert all(m.bit_count() == k for m in rows)
        walked += rows
    return sorted(walked)


@pytest.mark.parametrize("spec", SKELETON_RULE_SPECS)
def test_census_walk_reaches_the_masks_member_accepts(spec, monkeypatch):
    # SCALAR_ROWS = 0: every block past the root is tested as a numpy block;
    # the walk leaves out a framed rule's frame (grav: the edges and the base)
    var = variant(spec, parse_magma_spec("D:0"))
    for arity in range(1, 6):
        frame = variants._frame(var.rule, arity)
        accepted = sorted(
            m ^ frame for m in range(1 << len(arcs_of(arity)))
            if variants._accepts(var.rule, arity, m)
        )
        assert walked_masks(arity, var.rule) == accepted, arity
        with monkeypatch.context() as patch:
            patch.setattr(variants, "SCALAR_ROWS", 0)
            assert walked_masks(arity, var.rule) == accepted, arity


def fresh_census_walks(monkeypatch):
    """Empty skeleton histograms for the rest of the test, so each count
    walks under the patches made so far and none of their results outlives
    the test; returns the (arity, rule) of every walk from now on."""
    monkeypatch.setattr(enumeration, "_SKELETON_HISTOGRAMS", {})
    walks, real = [], variants._skeleton_blocks

    def counted(arity, rule):
        walks.append((arity, rule))
        return real(arity, rule)

    monkeypatch.setattr(variants, "_skeleton_blocks", counted)
    return walks


@pytest.mark.parametrize("scalar_rows", [None, 0], ids=["default", "all-blocks"])
def test_census_is_independent_of_the_block_cap(d0, d1, monkeypatch, scalar_rows):
    cases = [(spec, magma, n) for spec in VARIANT_SPECS for magma in (d0, d1)
             for n in range(2, 6)]
    want = [count_by_enumeration(*case) for case in cases]
    monkeypatch.setattr(variants, "SKELETON_BLOCK", 3)
    if scalar_rows is not None:
        monkeypatch.setattr(variants, "SCALAR_ROWS", scalar_rows)
    assert max(len(masks) for masks, _ in variants._skeleton_blocks(5, _rule("acy"))) == 3
    walks = fresh_census_walks(monkeypatch)
    assert [count_by_enumeration(*case) for case in cases] == want
    # the recount walked every rule at every arity under the cap, once
    assert len(walks) == len(set(walks))
    assert set(walks) == {(n, _rule(spec)) for spec, _, n in cases}


def test_census_counts_masks_wider_than_one_word(d0):
    # 66 arcs at arity 11: two int64 words per mask
    assert count_by_enumeration("nes", d0, 11) == 208012
    assert count_by_enumeration("mot", d0, 11) == 15511


@pytest.mark.parametrize("scalar_rows", [None, 0], ids=["default", "all-blocks"])
def test_census_catches_a_merge_that_never_relabels(d0, monkeypatch, scalar_rows):
    # mutation: accepting an arc leaves the component labels as they were,
    # so the census walk of acy stops seeing cycles
    if scalar_rows is not None:
        monkeypatch.setattr(variants, "SCALAR_ROWS", scalar_rows)
    assert count_by_enumeration("acy", d0, 3) == count_by_streaming("acy", d0, 3)
    monkeypatch.setattr(variants, "_merge", lambda comp, x, y: comp)
    walks = fresh_census_walks(monkeypatch)
    assert count_by_enumeration("acy", d0, 3) != count_by_streaming("acy", d0, 3)
    assert walks == [(3, _rule("acy"))]


# -- bilinear products, one pair of cliques at a time --------------------------


def d_base(clique):
    """The clique with its base label replaced by the unit."""
    return clique.with_label(1, clique.arity + 1, clique.magma.unit)


def d_edge(clique, i):
    """The clique with its i-th edge label replaced by the unit."""
    return clique.with_label(i, i + 1, clique.magma.unit)


def reference_compose_H(p, q, i):
    """The four-case H formula: p o_i q, and the composites with p's edge,
    q's base, or both erased, each erasure present when the label is solid."""
    unit = p.magma.unit
    p_solid, q_solid = p.edge_label(i) != unit, q.base_label != unit
    terms = [partial_compose(p, q, i)]
    if p_solid:
        terms.append(partial_compose(d_edge(p, i), q, i))
    if q_solid:
        terms.append(partial_compose(p, d_base(q), i))
    if p_solid and q_solid:
        terms.append(partial_compose(d_edge(p, i), d_base(q), i))
    return LinComb(p.magma, p.arity + q.arity - 1, [(t, 1) for t in terms])


def reference_compose_K(p, q, i):
    """The two-case K formula: p o_i q, and the composite with both p's edge
    and q's base erased unless p_i * q_0 is the unit."""
    terms = [partial_compose(p, q, i)]
    if p.magma.op(p.edge_label(i), q.base_label) != p.magma.unit:
        terms.append(partial_compose(d_edge(p, i), d_base(q), i))
    return LinComb(p.magma, p.arity + q.arity - 1, [(t, 1) for t in terms])


def reference_bilinear(f, g, arity, product):
    """The sum of a*b*c * r over the terms a*p of f, b*q of g and c*r of
    the combination product(p, q), accumulated on `Clique` keys."""
    return LinComb(f.magma, arity, [
        (r, a * b * c)
        for p, a in f.terms.items() for q, b in g.terms.items()
        for r, c in product(p, q).terms.items()
    ])


def reference_compose_in_basis(f, g, i, basis):
    rule = {
        "fundamental": lambda p, q: LinComb.of(partial_compose(p, q, i)),
        "H": lambda p, q: reference_compose_H(p, q, i),
        "K": lambda p, q: reference_compose_K(p, q, i),
    }[basis]
    return reference_bilinear(f, g, f.arity + g.arity - 1, rule)


def reference_star_product(f, g):
    op = f.magma.op

    def arcwise(p, q):
        return LinComb.of(Clique(p.magma, p.arity, [op(x, y) for x, y in zip(p.labels, q.labels)]))

    return reference_bilinear(f, g, f.arity, arcwise)


def _same_terms(got, want):
    # equal coefficients of the same type: both routes store the normal form
    assert got.terms == want.terms
    assert {c: type(v) for c, v in got.terms.items()} == {c: type(v) for c, v in want.terms.items()}


def assert_label_rows_match_references(f, g, i, h):
    """Every label-row product of f and g (and of f and h, of f's arity)
    equals its clique-at-a-time reference, the single-clique H and K
    compositions included."""
    _same_terms(partial_compose_lin(f, g, i), reference_compose_in_basis(f, g, i, "fundamental"))
    _same_terms(star_product(f, h), reference_star_product(f, h))
    if f.arity == 1 or g.arity == 1:
        return
    for basis in ("fundamental", "H", "K"):
        _same_terms(compose_in_basis(f, g, i, basis), reference_compose_in_basis(f, g, i, basis))
    for p in f.terms:
        for q in g.terms:
            _same_terms(compose_H(p, q, i), reference_compose_H(p, q, i))
            _same_terms(compose_K(p, q, i), reference_compose_K(p, q, i))


_Z = UnitaryMagma.integers()
# integral and non-integral coefficients; negatives let terms cancel
_COEFFICIENTS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-3, 4))


@st.composite
def _combinations(draw, magma, arity, labels):
    size = len(arcs_of(arity))
    cliques = st.lists(st.sampled_from(labels), min_size=size, max_size=size).map(
        lambda drawn: Clique(magma, arity, drawn if arity > 1 else (magma.unit,)))
    pairs = draw(st.lists(st.tuples(cliques, st.sampled_from(_COEFFICIENTS)), max_size=5))
    # a negated copy of the first term cancels it in the input; the small
    # label sets make distinct pairs meet on one composite, where signed
    # coefficients can cancel in the product
    if pairs and draw(st.booleans()):
        clique, coeff = pairs[0]
        pairs.append((clique, -coeff))
    return LinComb(magma, arity, pairs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_label_rows_match_the_clique_route(data):
    magma = data.draw(st.one_of(unitary_magmas(max_size=3), st.just(_Z)), label="magma")
    labels = list(magma.elements()) if magma.is_finite else [-1, 0, 1]
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    f = data.draw(_combinations(magma, n, labels), label="f")
    g = data.draw(_combinations(magma, m, labels), label="g")
    h = data.draw(_combinations(magma, n, labels), label="h")
    assert_label_rows_match_references(f, g, data.draw(st.integers(1, n), label="i"), h)


def _flipped_glue(magma, a, b):
    return (magma.op(b, a),)


def _flipped(rule):
    # the first glue of both H and K rules is a * b: swapping the operands
    # flips it to b * a and leaves the erased glues as they are
    return lambda magma, a, b: rule(magma, b, a)


@pytest.mark.parametrize("basis", ["fundamental", "H", "K"])
def test_label_rows_catch_a_flipped_glue(monkeypatch, basis):
    # mutation: glue q_0 * p_i instead of p_i * q_0; over the noncommutative
    # left-zero magma (x * y = x for non-units) the composites differ
    magma = UnitaryMagma.from_table_data(_LEFT_ZERO)
    rng = random.Random(0)
    f = LinComb(magma, 2, [(c, rng.choice(_COEFFICIENTS)) for c in generate_cliques(magma, 2)])
    assert_label_rows_match_references(f, f, 1, f)
    if basis == "fundamental":
        monkeypatch.setattr(operad, "_glue", _flipped_glue)
    else:
        monkeypatch.setitem(bases._GLUES, basis, _flipped(bases._GLUES[basis]))
    with pytest.raises(AssertionError):
        assert_label_rows_match_references(f, f, 1, f)
