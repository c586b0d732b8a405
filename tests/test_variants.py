import numpy as np
import pytest

from cliqueops import (
    Clique, LinComb, VariantError, crossing_number, degree,
    generate_cliques, is_acyclic, is_bubble, is_nesting_free, is_white,
    variant, variant_compose, verify_ideal, verify_inclusions,
)
from cliqueops import count_by_enumeration, enumeration, parse_magma_spec, variants
from cliqueops.clique import arcs_of
from cliqueops.operad import composable_pairs
from cliqueops.variants import VARIANT_SPECS
from cliqueops.verify import _compose_block, _label_blocks, _star


def test_unit_clique_in_every_variant(d0):
    unit = Clique.unit(d0)
    for spec in VARIANT_SPECS:
        var = variant(spec, d0)
        assert var.member(unit), spec


def test_membership_matches_statistics(d0):
    checks = {
        "cro:0": lambda p: crossing_number(p) == 0,
        "cro:1": lambda p: crossing_number(p) <= 1,
        "bub": is_bubble,
        "deg:0": lambda p: degree(p) == 0,
        "deg:1": lambda p: degree(p) <= 1,
        "deg:2": lambda p: degree(p) <= 2,
        "nes": is_nesting_free,
        "acy": is_acyclic,
        "whi": is_white,
        "wnc": lambda p: is_white(p) and crossing_number(p) == 0,
        "pat": lambda p: degree(p) <= 2 and is_acyclic(p),
        "for": lambda p: crossing_number(p) == 0 and is_acyclic(p),
        "mot": lambda p: crossing_number(p) == 0 and degree(p) <= 1,
        "dis": lambda p: is_white(p) and crossing_number(p) == 0 and degree(p) <= 1,
        "luc": lambda p: is_bubble(p) and degree(p) <= 1,
    }
    variants = {spec: variant(spec, d0) for spec in checks}
    for n in (1, 2, 3, 4):
        for p in generate_cliques(d0, n):
            for spec, oracle in checks.items():
                assert variants[spec].member(p) == oracle(p), (spec, p)


def test_triangle_memberships(d0):
    triangle = Clique.triangle(d0, 1, 1, 1)
    assert variant("bub", d0).member(triangle)
    assert variant("cro:0", d0).member(triangle)
    crossed = Clique.from_arcs(d0, 3, {(1, 3): 1, (2, 4): 1})
    assert not variant("cro:0", d0).member(crossed)
    assert variant("cro:1", d0).member(crossed)


def test_applicability_conditions(e1, n2, d0):
    for spec in ("deg:1", "nes", "acy", "pat", "for", "mot", "dis", "luc"):
        with pytest.raises(VariantError):
            variant(spec, e1)
        with pytest.raises(VariantError):
            variant(spec, n2)
        variant(spec, d0)  # applicable


def test_lab_validation(d0, d1, z):
    zero = d1.elem("0")
    dd = d1.elem("d_1")
    var = variant(f"lab:\U0001d7d9,0;\U0001d7d9,0;\U0001d7d9,0", d1)
    member = Clique.from_arcs(d1, 2, {(1, 2): zero, (2, 3): zero})
    assert var.member(member)
    assert not var.member(Clique.from_arcs(d1, 2, {(1, 2): dd}))
    with pytest.raises(VariantError):
        variant("lab:0;0;\U0001d7d9,0", d1)  # unit missing from the base set
    with pytest.raises(VariantError):
        variant("lab:\U0001d7d9;0;\U0001d7d9", d1)  # products leave the diagonal set
    with pytest.warns(UserWarning):
        variant(f"lab:\U0001d7d9;0;\U0001d7d9,0", d1)  # unit not among edge labels


def test_lab_closure_spot_check(d1):
    zero = d1.elem("0")
    var = variant(f"lab:\U0001d7d9,0;\U0001d7d9,0;\U0001d7d9,0", d1)
    members = [
        p for p in generate_cliques(d1, 2) if var.member(p)
    ]
    for p in members:
        for q in members:
            for i in (1, 2):
                out = variant_compose(var, LinComb.of(p), LinComb.of(q), i)
                assert all(var.member(c) for c in out.terms)


def test_bubble_quotient_examples(z):
    var = variant("bub", z)
    p = Clique.from_arcs(z, 4, {(3, 4): 1, (4, 5): 2})
    q = Clique.from_arcs(z, 3, {(3, 4): 1})
    out = variant_compose(var, LinComb.of(p), LinComb.of(q), 2)
    assert out == LinComb.of(
        Clique.from_arcs(z, 6, {(4, 5): 1, (5, 6): 1, (6, 7): 2})
    )
    # glued labels cancel: the surviving clique is again a bubble
    p2 = Clique.from_arcs(z, 4, {(3, 4): -1, (4, 5): 2})
    q2 = Clique.from_arcs(z, 3, {(1, 4): 1, (3, 4): 1})
    out2 = variant_compose(var, LinComb.of(p2), LinComb.of(q2), 3)
    assert out2 == LinComb.of(Clique.from_arcs(z, 6, {(5, 6): 1, (6, 7): 2}))
    # a surviving solid diagonal annihilates the composition
    assert variant_compose(var, LinComb.of(p), LinComb.of(q), 3).is_zero()
    q3 = Clique.from_arcs(z, 3, {(1, 4): 2, (3, 4): 1})
    assert variant_compose(var, LinComb.of(p), LinComb.of(q3), 2).is_zero()


def test_involution_composition_example(d0):
    # 42315 o_2 3412 = 6452317 in the transposition encoding, and
    # 42315 o_3 3412 dies on a degree-2 vertex
    var = variant("deg:1", d0)
    p = Clique.from_arcs(d0, 4, {(1, 4): 1})
    q = Clique.from_arcs(d0, 3, {(1, 3): 1, (2, 4): 1})
    out = variant_compose(var, LinComb.of(p), LinComb.of(q), 2)
    assert out == LinComb.of(
        Clique.from_arcs(d0, 6, {(1, 6): 1, (2, 4): 1, (3, 5): 1})
    )
    assert variant_compose(var, LinComb.of(p), LinComb.of(q), 3).is_zero()


def test_deg3_composition_example(d2):
    # the printed figure omits the forced (1,6) arc; the formula keeps it
    zero, dd = d2.elem("0"), d2.elem("d_1")
    var = variant("deg:3", d2)
    p = Clique.from_arcs(d2, 4, {(1, 4): zero, (2, 3): dd, (2, 5): dd, (4, 5): zero})
    q = Clique.from_arcs(d2, 3, {(1, 4): zero, (2, 4): dd, (3, 4): zero})
    out = variant_compose(var, LinComb.of(p), LinComb.of(q), 2)
    assert out == LinComb.of(Clique.from_arcs(d2, 6, {
        (1, 6): zero, (2, 5): zero, (2, 7): dd, (3, 5): dd, (4, 5): zero,
        (6, 7): zero,
    }))
    assert variant_compose(var, LinComb.of(p), LinComb.of(q), 3).is_zero()


def test_nes_composition_example(d2):
    zero, d_1, d_2 = d2.elem("0"), d2.elem("d_1"), d2.elem("d_2")
    var = variant("nes", d2)
    p = Clique.from_arcs(d2, 4, {(1, 3): zero, (2, 4): d_1})
    q = Clique.from_arcs(d2, 3, {(1, 2): d_1, (2, 3): zero})
    out = variant_compose(var, LinComb.of(p), LinComb.of(q), 4)
    assert out == LinComb.of(Clique.from_arcs(
        d2, 6, {(1, 3): zero, (2, 4): d_1, (4, 5): d_1, (5, 6): zero}
    ))
    q2 = Clique.from_arcs(d2, 3, {(1, 2): d_2, (2, 3): zero})
    assert variant_compose(var, LinComb.of(p), LinComb.of(q2), 3).is_zero()


def test_acy_composition_example(d2):
    zero, d_1, d_2 = d2.elem("0"), d2.elem("d_1"), d2.elem("d_2")
    var = variant("acy", d2)
    p = Clique.from_arcs(
        d2, 4, {(1, 2): zero, (1, 4): zero, (2, 5): zero, (3, 5): d_1}
    )
    q = Clique.from_arcs(d2, 3, {(1, 3): d_1, (1, 4): d_1})
    out = variant_compose(var, LinComb.of(p), LinComb.of(q), 1)
    assert out == LinComb.of(Clique.from_arcs(d2, 6, {
        (1, 3): d_1, (1, 4): zero, (1, 6): zero, (4, 7): zero, (5, 7): d_1,
    }))
    q2 = Clique.from_arcs(d2, 3, {(1, 3): d_2, (1, 4): d_1})
    assert variant_compose(var, LinComb.of(p), LinComb.of(q2), 3).is_zero()


def test_cro2_composition_example(z):
    var = variant("cro:2", z)
    p = Clique.from_arcs(
        z, 4, {(1, 3): 2, (2, 4): 1, (2, 5): 3, (3, 4): 1, (4, 5): 2}
    )
    q = Clique.from_arcs(z, 3, {(1, 3): 2, (3, 4): 1})
    out = variant_compose(var, LinComb.of(p), LinComb.of(q), 3)
    assert out == LinComb.of(Clique.from_arcs(z, 6, {
        (1, 3): 2, (2, 6): 1, (2, 7): 3, (3, 5): 2, (3, 6): 1, (5, 6): 1,
        (6, 7): 2,
    }))


def test_crossing_max_formula(d0):
    # composition never creates crossings: the composite's crossing
    # number is the max of the operands'
    from cliqueops import partial_compose

    for p in generate_cliques(d0, 3):
        for q in generate_cliques(d0, 2):
            for i in range(1, 4):
                got = crossing_number(partial_compose(p, q, i))
                assert got == max(crossing_number(p), crossing_number(q))


def test_deg0_is_the_associative_operad(d0):
    var = variant("deg:0", d0)
    members = [
        p for n in (1, 2, 3) for p in generate_cliques(d0, n) if var.member(p)
    ]
    assert [p.arity for p in members] == [1, 2, 3]
    out = variant_compose(var, LinComb.of(members[1]), LinComb.of(members[1]), 2)
    assert out == LinComb.of(members[2])


def test_mixed_variants_are_conjunctions(d0):
    pairs = {
        "wnc": ("whi", "cro:0"),
        "pat": ("deg:2", "acy"),
        "for": ("cro:0", "acy"),
        "mot": ("cro:0", "deg:1"),
        "luc": ("bub", "deg:1"),
    }
    for n in (2, 3, 4):
        for p in generate_cliques(d0, n):
            for spec, (lhs, rhs) in pairs.items():
                expected = variant(lhs, d0).member(p) and variant(rhs, d0).member(p)
                assert variant(spec, d0).member(p) == expected
            dis = variant("dis", d0).member(p)
            assert dis == (
                variant("whi", d0).member(p)
                and variant("cro:0", d0).member(p)
                and variant("deg:1", d0).member(p)
            )


@pytest.mark.parametrize("magma_spec", ["D:0", "D:1"])
def test_status_is_what_the_verifiers_show(magma_spec):
    # a quotient's non-members absorb composition, a suboperad's members
    # are closed under it, and a suboperad alone fails the ideal law (so a
    # quotient list read from the statuses cannot take it in); only what a
    # status claims is asserted: deg:0 and dis are closed at arity 4 too
    magma = parse_magma_spec(magma_spec)
    blocks, star = _label_blocks(magma, 4), _star(magma)
    for spec in (*VARIANT_SPECS, "cro:2", "deg:3"):
        var = variant(spec, magma)
        ideal = verify_ideal(var, magma, 4)
        if var.status == "suboperad":
            assert not ideal.ok, spec
        else:
            assert ideal.ok, (spec, ideal.counterexample)
            # no arc of a pentagon has three crossers: cro:2 takes all of arity 4
            assert ideal.checked > 0 or spec == "cro:2", spec
        if var.status == "quotient":
            continue
        members = {}
        for n, block in blocks.items():
            member, in_ambient = var._block_flags(n, block)
            members[n] = block[member & in_ambient]
        for n, m in composable_pairs(4):
            for i in range(1, n + 1):
                composed = _compose_block(members[n], n, members[m], m, i, star)
                assert var._block_flags(n + m - 1, composed)[0].all(), (spec, n, m, i)


def test_ideal_fails_over_unit_divisors(e1):
    # solid arcs can vanish when labels collapse to the unit, so the
    # degree ideal is not absorbing over a magma with unit divisors
    var = variant("deg:1", e1, unchecked=True)
    report = verify_ideal(var, e1, 4)
    assert not report.ok
    assert report.counterexample.startswith("non-member Clique[E_1|")
    assert report.counterexample.endswith(" re-entered deg:1")
    assert report.checked > 0


class _UnitBase:
    """Not a variant kind: the members are the cliques with a unit base.
    A non-member of arity 2 or more keeps its base as the base of p o_i q,
    so non-members absorb on the left; q o_i p takes q's base, so they do
    not absorb on the right."""

    spec = "unit-base"

    def __init__(self, magma):
        self.magma = magma

    def _block_flags(self, arity, block):
        base = arcs_of(arity).index((1, arity + 1))
        return block[:, base] == 0, np.ones(len(block), dtype=bool)


def test_ideal_catches_a_failure_on_the_ambient_side(d0):
    # every non-member-first composite passes, so the first failure is an
    # ambient clique composed with a non-member
    report = verify_ideal(_UnitBase(d0), d0, 3)
    assert (report.ok, report.checked, report.counterexample) == (
        False, 77,
        "Clique[D_0|2|all-unit] o_1 non-member Clique[D_0|2|(1,3)=0] re-entered unit-base",
    )


def test_quotient_axioms_inherited(d0):
    # associativity and unit laws survive the projection, checked directly
    var = variant("mot", d0)
    members2 = [p for p in generate_cliques(d0, 2) if var.member(p)]
    unit = LinComb.of(Clique.unit(d0))
    for p in members2:
        f = LinComb.of(p)
        assert variant_compose(var, unit, f, 1) == f
        assert variant_compose(var, f, unit, 2) == f
        for q in members2:
            for r in members2:
                g, h = LinComb.of(q), LinComb.of(r)
                lhs = variant_compose(var, variant_compose(var, f, g, 1), h, 2)
                rhs = variant_compose(var, f, variant_compose(var, g, h, 2), 1)
                # series axiom with i=1, j=2: (f o_1 g) o_2 h = f o_1 (g o_2 h)
                assert lhs == rhs


def test_verify_inclusions(d0, n2):
    report = verify_inclusions(d0, 4)
    assert report.ok, report.counterexample
    with pytest.raises(VariantError):
        verify_inclusions(n2, 3)


def test_inclusion_lemma_items(d0):
    for n in (2, 3, 4, 5):
        for p in generate_cliques(d0, n):
            if not is_acyclic(p):
                assert degree(p) >= 2
            if not is_nesting_free(p):
                assert degree(p) >= 1
            if crossing_number(p) > 0:
                assert p.solid_diagonals()
            if degree(p) >= 3:
                assert p.solid_diagonals()
                assert not is_nesting_free(p)


def test_verify_inclusions_catches_a_widened_rule(d0, monkeypatch):
    # mutation: mot admits degree 2, so mot no longer sits inside deg:1
    rule = variants._conjunction(variants._crossing_rule(0), variants._degree_rule(2))
    monkeypatch.setitem(variants._KINDS, "mot", variants._KINDS["mot"]._replace(rule=rule))
    report = verify_inclusions(d0, 4)
    assert not report.ok
    assert report.checked > 0
    assert report.counterexample.endswith(" is in mot but not in deg:1")


def test_census_catches_a_widened_rule(d0, monkeypatch):
    # mutation: nes lets an arc join next to one nesting arc; the census
    # then disagrees with the closed Narayana formula
    def one_nesting(arity):
        nest = variants._nest_masks(arity)
        return lambda mask, comp, j: (nest[j] & mask).bit_count() <= 1

    monkeypatch.setitem(
        variants._KINDS, "nes", variants._KINDS["nes"]._replace(rule=variants.Rule(one_nesting)),
    )
    with pytest.raises(RuntimeError, match="closed formula"):
        count_by_enumeration("nes", d0, 4)


def test_census_catches_a_widened_label_table(d1, monkeypatch):
    # mutation: the allowed[arc][label] table of lab: admits one more label
    # on one arc; the block census then disagrees with the closed formula
    real = variants._LabelVariant._allowed

    def widened(self, arity):
        table = [row.copy() for row in real(self, arity)]
        arc, label = next(
            (arc, label) for arc, row in enumerate(table)
            for label, allowed in enumerate(row) if not allowed
        )
        table[arc][label] = True
        return table

    spec = "lab:\U0001d7d9,0;\U0001d7d9,0;\U0001d7d9,0"
    assert count_by_enumeration(spec, d1, 3) == 2 ** 6
    monkeypatch.setattr(variants._LabelVariant, "_allowed", widened)
    with pytest.raises(RuntimeError, match="closed formula"):
        count_by_enumeration(spec, d1, 3)


def test_malformed_specs_are_refused(d0):
    # only cro and deg take a bound, written in ASCII decimal digits; the
    # variant keeps the canonical spec kind:k
    for spec in ("bub:3", "nes:junk", "grav:", "cro:", "cro:1_0", "deg: 2",
                 "deg:+2", "cro:\u0661", "lab", "xyz"):
        with pytest.raises(VariantError):
            variant(spec, d0)
    assert variant("cro:01", d0).spec == "cro:1"
    assert variant(" deg:2 ", d0).spec == "deg:2"


def test_readme_table_matches_the_kinds():
    from pathlib import Path

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Variant kinds", 1)[1].split("\n## ", 1)[0]
    rows = {
        cells[0].partition(":")[0]: cells[1:]
        for line in section.splitlines() if line.startswith("| `")
        for cells in [[cell.strip(" `") for cell in line.strip("|").split("|")]]
    }
    assert set(rows) == {*variants._KINDS, "lab"}
    yes_no = {True: "yes", False: "no"}
    for kind, (status, ambient, needs, formula) in rows.items():
        row = variants._KINDS.get(kind, variants.Kind(variants._LabelVariant.status, None))
        assert status == row.status, kind
        assert ambient == ("all cliques" if row.ambient is None else "whi"), kind
        if row.ambient is not None:
            assert row.ambient is variants._KINDS["whi"].rule, kind
        assert needs == yes_no[row.no_unit_divisors], kind
        assert formula == yes_no[kind in enumeration._FORMULAS], kind


def test_negative_rule_bounds_are_refused(d0):
    for spec in ("deg:-1", "cro:-2"):
        with pytest.raises(VariantError, match="k must be >= 0"):
            variant(spec, d0)
