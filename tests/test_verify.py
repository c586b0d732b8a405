import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueops import (
    Clique, CliqueError, UnitaryMagma, arcs_of, generate_cliques,
    is_associative_element, is_right_cancelable, partial_compose, reflect, rotate,
    split_along_diagonal, verify_basic_set_operad, verify_cyclic,
    verify_operad_axioms, verify_symmetries,
)
from cliqueops.operad import composable_pairs
from cliqueops.verify import _compose_corrupt

from magma_strategies import _LEFT_ZERO, unitary_magmas
from test_verifier_references import (
    _same, assert_unit_law_matches_its_reference, reference_basic_set_operad,
    reference_cyclic, reference_ideal, reference_inclusions, reference_product_iso,
    reference_symmetries, reference_unit_law,
)


def test_axioms_pass_small(n2, d0, e1):
    for magma in (n2, d0, e1):
        report = verify_operad_axioms(magma, 4)
        assert report.ok and report.complete
        assert report.checked > 0


def test_axioms_all_builtin_magmas_up_to_four_elements():
    # trivial through the four-element families, composite arity <= 4
    specs = ("trivial", "N:2", "N:3", "N:4", "D:0", "D:1", "D:2",
             "E:1", "E:2", "E:3")
    from cliqueops import parse_magma_spec

    for spec in specs:
        magma = parse_magma_spec(spec)
        report = verify_operad_axioms(magma, 4)
        assert report.ok and report.complete, (spec, report.counterexample)


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_corrupted_rule_is_caught(d0, engine):
    # the rule forgets q's base label, which only the unit law can see:
    # unit o_1 x loses x's base; both engines run the one plan-level law
    report = verify_operad_axioms(d0, 4, engine=engine, corrupt=True)
    assert not report.ok and report.name == "unit-law"
    assert report.counterexample.startswith("unit o_1 ")
    assert report.checked > 0
    other = "vector" if engine == "scalar" else "scalar"
    assert report == verify_operad_axioms(d0, 4, engine=other, corrupt=True)


def test_corrupted_rule_keeps_the_series_and_parallel_laws(d0):
    # with every arity >= 2 no glued product nests, so any glue rule, this
    # one included, meets both laws; the two engines agree on it instance
    # for instance
    from cliqueops.verify import _compose_exprs, _scalar_axioms, _vector_axioms

    x = [("x", arc) for arc in range(3)]
    y = [("y", arc) for arc in range(3)]
    glued = arcs_of(3).index((1, 3))
    assert _compose_exprs(x, y, 2, 2, 1, corrupt=True)[glued] == ("x", 0)
    assert _compose_exprs(x, y, 2, 2, 1, corrupt=False)[glued] == ("*", ("x", 0), ("y", 1))
    assert _vector_axioms(d0, 4, None, corrupt=True) == (None, 2560)
    assert _scalar_axioms(d0, 4, None, _compose_corrupt) == (None, 2560)


def test_flipped_glue_is_not_a_counterexample():
    # flipping the glued-arc product builds the construction over the
    # opposite magma, which is again an operad: a noncommutative carrier
    # satisfies every axiom under the flipped rule (so a mutation test
    # has to break the rule some other way)
    magma = UnitaryMagma.from_table_data(_LEFT_ZERO)
    assert magma.op(1, 2) != magma.op(2, 1)

    from cliqueops.operad import compose_glued

    def compose_flip(p, q, i):
        return compose_glued(p, q, i, magma.op(q.base_label, p.edge_label(i)))

    pool = {n: list(generate_cliques(magma, n)) for n in (1, 2)}
    # the flipped rule really is a different rule on this carrier
    assert any(
        compose_flip(x, y, 1) != partial_compose(x, y, 1)
        for x in pool[2] for y in pool[2]
    )
    for x in pool[2]:
        for y in pool[2]:
            for z in pool[2]:
                for i in (1, 2):
                    for j in (1, 2):
                        lhs = compose_flip(compose_flip(x, y, i), z, i + j - 1)
                        rhs = compose_flip(x, compose_flip(y, z, j), i)
                        assert lhs == rhs
                lhs = compose_flip(compose_flip(x, y, 1), z, 3)
                rhs = compose_flip(compose_flip(x, z, 2), y, 1)
                assert lhs == rhs


def test_glued_arc_is_p_i_times_q_0():
    # over a noncommutative carrier the glued arc (i, i+m) of p o_i q is
    # p_i * q_0, not q_0 * p_i, on every pair up to arity 3
    magma = UnitaryMagma.from_table_data(_LEFT_ZERO)
    pools = {n: list(generate_cliques(magma, n)) for n in (1, 2, 3)}
    for n, m in composable_pairs(3):
        for p in pools[n]:
            for q in pools[m]:
                for i in range(1, n + 1):
                    glued = partial_compose(p, q, i).label(i, i + m)
                    assert glued == magma.op(p.edge_label(i), q.base_label)
    p = Clique.triangle(magma, 0, magma.elem("a"), 0)
    q = Clique.triangle(magma, magma.elem("b"), 0, 0)
    assert partial_compose(p, q, 1).label(1, 3) == magma.elem("a")


def _block_rows_match_partial_compose(magma, star):
    """Whether `_compose_block` over `star` gives partial_compose's labels,
    row for row, on every pair of cliques up to composite arity 3."""
    from cliqueops.verify import _compose_block, _label_block

    pools = {n: list(generate_cliques(magma, n)) for n in (1, 2, 3)}
    for n, m in composable_pairs(3):
        for i in range(1, n + 1):
            rows = _compose_block(
                _label_block(magma, n), n, _label_block(magma, m), m, i, star,
            )
            want = [list(partial_compose(p, q, i).labels)
                    for p in pools[n] for q in pools[m]]
            if rows.tolist() != want:
                return False
    return True


def test_compose_block_keeps_the_glue_operand_order():
    from cliqueops.verify import _star

    magma = UnitaryMagma.from_table_data(_LEFT_ZERO)
    assert _block_rows_match_partial_compose(magma, _star(magma))


@settings(max_examples=15, deadline=None)
@given(unitary_magmas())
def test_compose_block_matches_partial_compose_over_random_magmas(magma):
    from cliqueops.verify import _star

    assert _block_rows_match_partial_compose(magma, _star(magma))


@settings(max_examples=4, deadline=None)
@given(unitary_magmas(max_size=3))
def test_engines_and_injectivity_scan_agree_over_random_magmas(magma):
    # the scalar engine checks ~10^5 instances per 3-element carrier at
    # arity 4 and the clique-at-a-time injectivity reference composes up to
    # 4 * 10^5 pairs, so carriers stop at 3 elements and the reference
    # runs at arity 3
    from cliqueops.verify import _scalar_axioms, _vector_axioms

    scalar = _scalar_axioms(magma, 4, None, partial_compose)
    assert _vector_axioms(magma, 4, None) == scalar
    assert scalar[0] is None  # C(M) is an operad for every unitary magma
    report, _ = verify_basic_set_operad(magma, 4)
    assert report.ok == is_right_cancelable(magma)
    report, witness = verify_basic_set_operad(magma, 3)
    reference, expected = reference_basic_set_operad(magma, 3)
    assert (report.ok, report.checked, report.counterexample) == (
        reference.ok, reference.checked, reference.counterexample,
    )
    assert witness == expected


@settings(max_examples=10, deadline=None)
@given(unitary_magmas())
def test_unit_law_matches_its_reference_over_random_magmas(magma):
    assert assert_unit_law_matches_its_reference(magma, 3, corrupt=False).ok
    assert_unit_law_matches_its_reference(magma, 3, corrupt=True)


def _is_commutative(magma):
    return all(magma.op(a, b) == magma.op(b, a)
               for a in magma.elements() for b in magma.elements())


@settings(max_examples=10, deadline=None)
@given(unitary_magmas(max_size=3), unitary_magmas(max_size=3))
def test_block_verifiers_match_their_references_over_random_magmas(magma, other):
    # the rotation law at slot 1 needs p_1 * q_0 = q_0 * p_1, so over a
    # noncommutative carrier both cyclic scans fail on the same pair; they
    # count that failure in different scan orders
    from cliqueops import magma_product, verify_product_iso

    _same(verify_symmetries(magma, 3), reference_symmetries(magma, 3))
    block, reference = verify_cyclic(magma, 3), reference_cyclic(magma, 3)
    if _is_commutative(magma):
        _same(block, reference)
    else:
        assert not block.ok and block.checked > 0
        assert (block.ok, block.counterexample) == (reference.ok, reference.counterexample)
    product = magma_product(magma, other)
    _same(verify_product_iso(product, 2), reference_product_iso(product, 2))


@settings(max_examples=4, deadline=None)
@given(unitary_magmas(max_size=3))
def test_ideal_verifier_matches_its_reference_over_random_magmas(magma):
    # the quotients that need a carrier without nontrivial unit divisors
    # are built unchecked: over a carrier with some, both scans may fail,
    # each at the first failure in its own order
    from cliqueops import has_nontrivial_unit_divisors, variant, verify_ideal
    from cliqueops.variants import QUOTIENT_SPECS

    for spec in QUOTIENT_SPECS:
        var = variant(spec, magma, unchecked=True)
        block, reference = verify_ideal(var, magma, 3), reference_ideal(var, magma, 3)
        if block.ok and reference.ok:
            _same(block, reference)
        else:
            assert not block.ok and not reference.ok, spec
            assert has_nontrivial_unit_divisors(magma) and block.checked > 0


@settings(max_examples=4, deadline=None)
@given(unitary_magmas(max_size=3, unit_divisors=False))
def test_inclusion_verifier_matches_its_reference_over_random_magmas(magma):
    from cliqueops import verify_inclusions

    _same(verify_inclusions(magma, 3), reference_inclusions(magma, 3))


# -- definitional references for the kernel ------------------------------------
#
# Each reference rebuilds a result arc by arc from the rule as the paper
# states it, through `Clique.label`, and never reads an index plan.


def _compose_reference(p, q, i):
    """p o_i q: p's arcs outside the glued polygon with its vertices past i
    shifted by m - 1, q's arcs inside it shifted by i - 1, the glued arc
    (i, i+m) labeled p_i * q_0 in that order, every other arc the unit."""
    magma, n, m = p.magma, p.arity, q.arity

    def outer_vertex(v):
        return v if v <= i else v - m + 1

    labels = {}
    for x, y in arcs_of(n + m - 1):
        if (x, y) == (i, i + m):
            labels[(x, y)] = magma.op(p.label(i, i + 1), q.label(1, m + 1))
        elif i <= x and y <= i + m:
            labels[(x, y)] = q.label(x - i + 1, y - i + 1)
        elif not (i < x < i + m or i < y < i + m):
            labels[(x, y)] = p.label(outer_vertex(x), outer_vertex(y))
        else:
            labels[(x, y)] = magma.unit
    return Clique(magma, n + m - 1, [labels[arc] for arc in arcs_of(n + m - 1)])


def _reflect_reference(p):
    n = p.arity
    return Clique(p.magma, n, [p.label(n - y + 2, n - x + 2) for x, y in arcs_of(n)])


def _rotate_reference(p):
    # vertex v moves to v - 1, and vertex 1 to n + 1: (x, y) reads (x+1, y+1),
    # and (x, n+1) reads (1, x+1) since vertex n + 2 is vertex 1
    n = p.arity
    return Clique(p.magma, n, [
        p.label(x + 1, y + 1) if y <= n else p.label(1, x + 1) for x, y in arcs_of(n)
    ])


def _split_reference(p, x, y):
    """(outer, inner) along the diagonal (x, y): the outer polygon keeps the
    vertices outside it, the inner polygon those from x to y with a unit base."""
    n, shift = p.arity, y - x - 1

    def outer_vertex(v):
        return v if v <= x else v + shift

    outer = Clique(p.magma, n - shift, [
        p.label(outer_vertex(z), outer_vertex(t)) for z, t in arcs_of(n - shift)
    ])
    inner = Clique(p.magma, y - x, [
        p.magma.unit if (z, t) == (1, y - x + 1) else p.label(z + x - 1, t + x - 1)
        for z, t in arcs_of(y - x)
    ])
    return outer, inner


@st.composite
def magma_with_cliques(draw, arities):
    """A drawn unitary magma and one drawn clique over it per arity."""
    magma = draw(unitary_magmas())
    labels = st.sampled_from(list(magma.elements()))
    return magma, [
        Clique.unit(magma) if n == 1
        else Clique(magma, n, draw(st.tuples(*[labels] * len(arcs_of(n)))))
        for n in arities
    ]


@st.composite
def composable_cliques(draw, max_arity=5):
    n, m = draw(st.sampled_from(composable_pairs(max_arity)))
    return draw(magma_with_cliques((n, m)))


@settings(max_examples=100, deadline=None)
@given(composable_cliques())
def test_partial_compose_matches_the_arc_rule(drawn):
    magma, (p, q) = drawn
    for i in range(1, p.arity + 1):
        composite = partial_compose(p, q, i)
        assert composite == _compose_reference(p, q, i)
        glued = composite.label(i, i + q.arity)
        assert glued == magma.op(p.label(i, i + 1), q.label(1, q.arity + 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: magma_with_cliques((n,))))
def test_reflect_rotate_and_split_match_the_arc_rule(drawn):
    magma, (p,) = drawn
    assert reflect(p) == _reflect_reference(p)
    assert rotate(p) == _rotate_reference(p)
    for x, y in arcs_of(p.arity):
        if y == x + 1 or (x, y) == (1, p.arity + 1):
            continue
        crossed = any(
            (a < x < b < y or x < a < y < b) and p.label(a, b) != magma.unit
            for a, b in arcs_of(p.arity)
        )
        if crossed:
            with pytest.raises(CliqueError):
                split_along_diagonal(p, (x, y))
            continue
        outer, inner = split_along_diagonal(p, (x, y))
        assert (outer, inner) == _split_reference(p, x, y)
        assert partial_compose(outer, inner, x) == p


def test_one_entry_plans_at_arity_one():
    magma = UnitaryMagma.from_table_data(_LEFT_ZERO)
    unit = Clique.unit(magma)
    for image in (partial_compose(unit, unit, 1), reflect(unit), rotate(unit)):
        assert image == unit and image.labels == (magma.unit,)
    assert partial_compose(unit, unit, 1) == _compose_reference(unit, unit, 1)


def test_compose_block_catches_swapped_glue_operands():
    # mutation: star[Y[:, b0], X[:, ei]] for the glued arc, which is the
    # transposed table read in the kept operand order; it builds C(M^op),
    # so only a comparison with partial_compose can see it
    from cliqueops.verify import _star

    magma = UnitaryMagma.from_table_data(_LEFT_ZERO)
    assert not _block_rows_match_partial_compose(magma, _star(magma).T)


def test_corrupt_compose_differs_from_real(d0):
    p = Clique.triangle(d0, 1, 0, 0)
    q = Clique.triangle(d0, 1, 0, 0)
    assert _compose_corrupt(p, q, 1) != partial_compose(p, q, 1)


def test_symmetries_finite_and_integer(d0, z):
    report = verify_symmetries(d0, 4)
    assert report.ok
    sampled = verify_symmetries(z, 4, samples=1000, seed=3)
    assert sampled.ok and sampled.checked == 1000


def test_cyclic(d0, n2):
    for magma in (d0, n2):
        report = verify_cyclic(magma, 4)
        assert report.ok, report.counterexample


def test_cyclic_law_needs_a_commutative_magma():
    # at slot 1 the rotation law compares p_1 * q_0 with q_0 * p_1; over the
    # left-zero magma (x * y = x for x != u) a * b = a but b * a = b
    magma = UnitaryMagma.from_table_data({
        "elements": ["u", "a", "b"], "unit": "u",
        "table": ["u", "a", "b", "a", "a", "a", "b", "b", "b"],
    })
    block, reference = verify_cyclic(magma, 3), reference_cyclic(magma, 3)
    failure = (False, "rotation law fails on Clique[table|2|(1,2)=a] o_1 "
                      "Clique[table|2|(1,3)=b]")
    assert (block.ok, block.counterexample) == failure
    assert (reference.ok, reference.counterexample) == failure
    # the block scan counts per arity pair in the order (i, p, q), the
    # reference in the order (p, q, i)
    assert (block.checked, reference.checked) == (1818, 2067)


def test_basic_basis_matches_cancelability(n2, n3, d0, e1, e2):
    for magma in (n2, n3, e1):
        report, witness = verify_basic_set_operad(magma, 4)
        assert report.ok and witness is None
        assert is_right_cancelable(magma)
    for magma in (d0, e2):
        report, witness = verify_basic_set_operad(magma, 4)
        assert not report.ok
        p, p2, q, i = witness
        assert partial_compose(p, q, i) == partial_compose(p2, q, i)
        assert p != p2
        assert not is_right_cancelable(magma)


def test_injectivity_scan_keys_rows_wider_than_one_word():
    # over a 300-element carrier a label takes 9 bits, so an arity-4
    # composite (10 labels) needs two key words; p0 and p1 differ only at
    # edge 1, which a non-unit base of q zeroes, and p0 and p2 only at
    # edge 2, which lands in the second word
    import numpy as np

    from cliqueops.verify import _first_collision, _key_words, _star

    magma = UnitaryMagma.zero_product(298)
    star = _star(magma)
    X = np.array([(5, 200, 9), (6, 200, 9), (5, 200, 10)], dtype=star.dtype)
    Y = np.array([(1, 2, 0, 3, 4, 5), (1, 2, 299, 3, 4, 5)], dtype=star.dtype)
    assert len(_key_words(np.zeros((1, 10), dtype=star.dtype), 9)) == 2
    ps = [Clique(magma, 2, row) for row in X.tolist()]
    expected = None
    for qi, q in enumerate(Clique(magma, 3, row) for row in Y.tolist()):
        for i in (1, 2):
            seen = {}
            for pi, p in enumerate(ps):
                result = partial_compose(p, q, i)
                if result in seen and expected is None:
                    expected = (seen[result], pi, qi, i)
                seen[result] = pi
    assert expected == (0, 1, 1, 1)
    assert _first_collision(X, 2, Y, 3, star) == expected


def test_axiom_budget_flagging(d0, n2):
    for engine in ("scalar", "vector"):
        report = verify_operad_axioms(d0, 5, budget=100, engine=engine)
        assert report.ok and not report.complete
        # the unit law alone has ~2 * 10^5 instances over N:2 up to arity 6
        report = verify_operad_axioms(n2, 6, budget=100, engine=engine)
        assert report.ok and not report.complete
        assert 100 < report.checked < 1000


def test_vector_engine_labels_do_not_wrap():
    # a 300-element carrier needs 16-bit labels; a hand-made two-row block
    # of arity-2 cliques checks the composed labels without a full sweep
    import numpy as np

    from cliqueops.verify import _compose_block, _label_block, _label_dtype

    magma = UnitaryMagma.cyclic(300)
    dtype = _label_dtype(magma)
    assert np.iinfo(dtype).max >= 299
    assert _label_block(magma, 1).dtype == dtype
    star = np.array(magma.table, dtype=dtype)
    rows = [(299, 1, 150), (0, 298, 299)]
    block = np.array(rows, dtype=dtype)
    for i in (1, 2):
        composed = _compose_block(block, 2, block, 2, i, star)
        expected = [
            partial_compose(Clique(magma, 2, p), Clique(magma, 2, q), i).labels
            for p in rows for q in rows
        ]
        assert composed.tolist() == [list(labels) for labels in expected]
        assert composed.max() >= 256


@pytest.mark.parametrize("spec", ["D:0", "D:1", "D:2"])  # sizes 2, 3 and 4
def test_label_block_rows_are_base_m_digits(spec):
    # uneven slices: empty, past the end, and straddling a column period
    from cliqueops import parse_magma_spec
    from cliqueops.verify import _label_block, _label_dtype

    magma = parse_magma_spec(spec)
    m = magma.size
    for n in range(1, 5):
        free = n * (n + 1) // 2 if n > 1 else 0
        space = m ** free
        slices = [(0, 0), (5, 5), (space - 3, space + 7), (space + 2, space + 9),
                  (m * m - 2, m * m + 3), (m ** 3 - 1, m ** 4 + 2), (1, 2 * m + 1),
                  (space // 2 - 1, space // 2 + 1)]
        if space <= 4096:
            slices.append((0, space))
        for lo, hi in slices:
            block = _label_block(magma, n, slice(lo, hi))
            assert block.dtype == _label_dtype(magma)
            want = [[(v // m ** (free - 1 - c)) % m for c in range(free)] or [0]
                    for v in range(space)[lo:hi]]
            assert block.shape == (len(want), len(arcs_of(n)))
            assert block.tolist() == want, (n, lo, hi)


@pytest.mark.parametrize("spec, lab", [
    ("D:1", "lab:\U0001d7d9,0;\U0001d7d9,0,d_1;\U0001d7d9,0,d_1"),
    ("E:2", "lab:\U0001d7d9;e_1,e_2;\U0001d7d9,e_1,e_2"),
])
def test_lab_block_flags_match_member(spec, lab):
    import warnings

    from cliqueops import parse_magma_spec, variant
    from cliqueops.verify import _label_block, _row_clique

    magma = parse_magma_spec(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the unit is not an edge label of E:2's spec
        var = variant(lab, magma)
    for n, rows in ((1, None), (2, None), (3, None), (4, slice(3 ** 9 + 500, 3 ** 9 + 2500))):
        block = _label_block(magma, n, rows)
        member, in_ambient = var._block_flags(n, block)
        assert member.tolist() == [var.member(_row_clique(magma, row)) for row in block]
        assert in_ambient.all()
        assert 0 < member.sum() < len(block) or n == 1


def _swap_first_entries_of_plan_3_1_2(monkeypatch):
    # mutation: arcs (1,2) and (1,3) of x o_2 unit at arity 3 trade sources,
    # in the index tuple and the picker alike, so `partial_compose` and the
    # plan-level law both see it
    from cliqueops import operad, verify
    from cliqueops.clique import index_plan

    real = operad.composition_plan

    def swapped(n, m, i):
        plan = real(n, m, i)
        if (n, m, i) == (3, 1, 2):
            source = (plan.source[1], plan.source[0]) + plan.source[2:]
            return operad.CompositionPlan(
                *index_plan(plan.arity, source), plan.edge, plan.base,
            )
        return plan

    monkeypatch.setattr(operad, "composition_plan", swapped)
    monkeypatch.setattr(verify, "composition_plan", swapped)


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_vector_unit_law_catches_a_broken_plan(monkeypatch, d0, engine):
    assert verify_operad_axioms(d0, 4, engine=engine).ok
    _swap_first_entries_of_plan_3_1_2(monkeypatch)
    report = verify_operad_axioms(d0, 4, engine=engine)
    reference = reference_unit_law(d0, 4)
    assert report.name == "unit-law" and report.checked > 0
    assert (report.ok, report.checked, report.counterexample) == (
        reference.ok, reference.checked, reference.counterexample,
    )
    assert " o_2 unit differs from " in report.counterexample


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_unit_law_above_the_cap_catches_a_broken_plan(monkeypatch, d0, engine):
    # with the cap at 0 every arity gets the plan check, one count per plan:
    # 2 at arity 1, 3 at arity 2, then o_1 and o_2 at arity 3
    from cliqueops import verify

    monkeypatch.setattr(verify, "UNIT_LAW_CAP", 0)
    assert verify_operad_axioms(d0, 4, engine=engine).ok
    _swap_first_entries_of_plan_3_1_2(monkeypatch)
    report = verify_operad_axioms(d0, 4, engine=engine)
    assert (report.name, report.ok, report.checked, report.counterexample) == (
        "unit-law", False, 7, "plan for arity 3 o_2 unit moves arc (1,2)",
    )


def test_scalar_engine_catches_a_broken_plan(monkeypatch, d0):
    # the picker and the index tuple are built together, so a plan with two
    # entries traded reaches `partial_compose` and with it the scalar engine
    from cliqueops import operad
    from cliqueops.clique import index_plan

    real = operad.composition_plan

    def swapped(n, m, i):
        plan = real(n, m, i)
        if (n, m, i) == (2, 2, 1):
            source = (plan.source[1], plan.source[0]) + plan.source[2:]
            return operad.CompositionPlan(
                *index_plan(plan.arity, source), plan.edge, plan.base,
            )
        return plan

    assert verify_operad_axioms(d0, 4, engine="scalar").ok
    monkeypatch.setattr(operad, "composition_plan", swapped)
    report = verify_operad_axioms(d0, 4, engine="scalar")
    assert not report.ok and report.name == "axioms"
    assert report.counterexample == (
        "series law fails at Clique[D_0|2|all-unit] o_1 Clique[D_0|2|all-unit], "
        "then z=Clique[D_0|2|(1,3)=0] at 1"
    )
    assert report.checked > 0


def test_vector_engine_catches_a_broken_plan(monkeypatch, d0):
    # one copy entry of the (2, 2, 1) plan reads the wrong arc of p: arc
    # (3, 4) copies p's (1, 2) instead of p's (2, 3)
    from cliqueops import operad, verify
    from cliqueops.clique import index_plan

    real = verify.composition_plan

    def broken(n, m, i):
        plan = real(n, m, i)
        if (n, m, i) == (2, 2, 1):
            source = plan.source[:-1] + (0,)
            return operad.CompositionPlan(
                *index_plan(plan.arity, source), plan.edge, plan.base,
            )
        return plan

    assert verify_operad_axioms(d0, 4, engine="vector").ok
    monkeypatch.setattr(verify, "composition_plan", broken)
    report = verify_operad_axioms(d0, 4, engine="vector")
    assert not report.ok and report.name == "axioms"
    # the scalar engine's words; the two engines scan in different orders,
    # so they need not name the same instance
    assert report.counterexample == (
        "series law fails at Clique[D_0|2|all-unit] o_1 Clique[D_0|2|(2,3)=0], "
        "then z=Clique[D_0|2|all-unit] at 1"
    )
    assert report.checked > 0


def test_unknown_engine_is_refused(d0):
    with pytest.raises(ValueError, match="'vectr'"):
        verify_operad_axioms(d0, 3, engine="vectr")


@pytest.mark.parametrize("name, verifier, message", [
    ("_rotate_plan", lambda magma: verify_cyclic(magma, 4), "rotation"),
    ("_reflect_plan", lambda magma: verify_symmetries(magma, 4), "reflection"),
])
def test_symmetry_verifiers_catch_a_broken_permutation(
    monkeypatch, d0, name, verifier, message
):
    from cliqueops import clique

    real = getattr(clique, name)

    def swapped(arity):
        # the first two arcs trade places in every plan past arity 1
        plan = real(arity)
        if arity == 1:
            return plan
        source = (plan.source[1], plan.source[0]) + plan.source[2:]
        return clique.index_plan(arity, source)

    assert verifier(d0).ok
    monkeypatch.setattr(clique, name, swapped)
    report = verifier(d0)
    assert not report.ok
    assert report.counterexample.startswith(message)
    assert report.checked > 0


def test_automorphism_law_catches_a_non_automorphism(monkeypatch):
    # mutation: the automorphism search offers 2 <-> 3 over N:4, which is
    # no automorphism (1 + 1 = 2 goes to 3, while 1 + 1 stays 2); the
    # reflection law passes first and counts its whole scan
    from cliqueops import parse_magma_spec, verify

    monkeypatch.setattr(verify, "automorphisms", lambda magma: [(0, 1, 3, 2).__getitem__])
    report = verify_symmetries(parse_magma_spec("N:4"), 3)
    assert (report.ok, report.checked, report.counterexample) == (
        False, 30087,
        "automorphism relabeling fails on Clique[N_4|2|(1,2)=1] o_1 Clique[N_4|2|(1,3)=1]",
    )


def _table_forgetting_the_edge(magma):
    # mutation: the glued arc takes q's base label and drops p's edge label,
    # a * b = b, as a star table for the label blocks
    import numpy as np

    from cliqueops.verify import _label_dtype

    labels = np.arange(magma.size, dtype=_label_dtype(magma))
    return np.tile(labels, (magma.size, 1))


def test_basic_set_operad_catches_a_lossy_composition(monkeypatch, n2):
    from cliqueops import verify

    monkeypatch.setattr(verify, "_star", _table_forgetting_the_edge)
    # the injectivity scan now finds a collision over a cancelable carrier,
    # which the cancelability cross-check refuses
    with pytest.raises(RuntimeError, match="injectivity scan over N_2 says False"):
        verify_basic_set_operad(n2, 3)
    monkeypatch.setattr(verify, "is_right_cancelable", lambda magma: False)
    report, witness = verify_basic_set_operad(n2, 3)
    assert not report.ok
    assert report.checked > 0
    assert report.counterexample.startswith("collision ")
    p, p2, q, i = witness
    assert p != p2 and partial_compose(p, q, i) != partial_compose(p2, q, i)


def _lopsided(d0):
    from cliqueops import LinComb

    return LinComb.of(Clique.triangle(d0, 0, 1, 0))  # not associative


def test_associativity_catches_a_broken_direct_route(monkeypatch, d0):
    from cliqueops import verify

    real = verify.partial_compose_lin
    # mutation: the direct route composes in the first slot on both sides
    monkeypatch.setattr(verify, "partial_compose_lin", lambda f, g, i: real(f, g, 1))
    with pytest.raises(RuntimeError, match=r"disagree on .* \(True vs False\)"):
        is_associative_element(_lopsided(d0))


def test_associativity_catches_a_broken_condition_route(monkeypatch, d0):
    from cliqueops import verify

    real = verify._associative_conditions
    # mutation: the coefficient conditions read the element less one term
    def one_term_short(f):
        from cliqueops import LinComb

        kept = list(f.terms.items())[1:]
        return real(LinComb(f.magma, f.arity, kept)) if kept else True

    monkeypatch.setattr(verify, "_associative_conditions", one_term_short)
    with pytest.raises(RuntimeError, match=r"disagree on .* \(False vs True\)"):
        is_associative_element(_lopsided(d0))
