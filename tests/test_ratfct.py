import random
from fractions import Fraction

import pytest

from cliqueops import (
    Clique, IntervalProduct, LinComb, MagmaMorphism, RankFunction, RatElem,
    RatFctError, UnitaryMagma, arcs_of, compose_product, interval_map, relabel,
    rf_compose, rf_image, rf_is_zero, star_product, verify_rf_laws,
    verify_rf_morphism,
)
from cliqueops import ratfct
from cliqueops.ratfct import (
    format_rat_elem, rf_evaluate, rf_expand_cleared, rf_probably_zero,
)

Z = UnitaryMagma.integers()
RANK = RankFunction.identity()


def test_interval_product_canonical():
    a = IntervalProduct(3, {(1, 2): 1, (2, 4): -2})
    b = IntervalProduct(3, [((2, 4), -2), ((1, 2), 1)])
    assert a == b and hash(a) == hash(b)
    assert IntervalProduct(3, {(1, 2): 0}) == IntervalProduct.one(3)
    with pytest.raises(RatFctError):
        IntervalProduct(3, {(1, 5): 1})
    assert a.multiply(a.inverse()) == IntervalProduct.one(3)
    # the exponents of a repeated interval add
    assert IntervalProduct(3, [((2, 4), -1), ((1, 2), 1), ((2, 4), -1)]) == a


@pytest.mark.parametrize("arity, powers", [
    (2, {(1, 2): 1.5}),
    (2, {(1, 2): True}),
    (2, {(1, 2): Fraction(2)}),
    (0, {}),
    (-1, {}),
    (True, {}),
    (2.0, {}),
    ("2", {}),
    (2, {(1, 2, 3): 1}),
    (2, {5: 1}),
    (2, [((1, 2), 1, 5)]),
    (2, [(1, 2)]),
    (2, {(True, 2): 1}),
    (2, {(1.0, 2): 1}),
    (1448, {}),
    (2, 5),
    (2, None),
    (2, 2.5),
], ids=[
    "fractional-exponent", "bool-exponent", "fraction-exponent", "arity-zero",
    "arity-negative", "bool-arity", "float-arity", "string-arity", "triple-key",
    "int-key", "triple-item", "bare-interval", "bool-coordinate",
    "float-coordinate", "row-over-bound", "int-powers", "none-powers",
    "float-powers",
])
def test_interval_product_input_boundary_is_strict(arity, powers):
    with pytest.raises(RatFctError):
        IntervalProduct(arity, powers)


def test_oversized_products_are_refused_before_allocating():
    import tracemalloc

    from cliqueops.magma import MAX_TABLE_ENTRIES

    tracemalloc.start()
    try:
        with pytest.raises(RatFctError, match="entry exponent row"):
            IntervalProduct(10 ** 9, {(1, 2): 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the largest arity whose row fits the bound is accepted
    assert 1447 * 1448 // 2 <= MAX_TABLE_ENTRIES < 1448 * 1449 // 2
    big = IntervalProduct(1447, {(1, 1448): 2, (1447, 1448): -1})
    assert big.powers == (((1, 1448), 2), ((1447, 1448), -1))


def test_row_plan_matches_the_dict_rule():
    # every (n, m, i) with n, m <= 5, arity 1 included; exponents -2..2, so
    # the two glued exponents cancel in about a fifth of the draws
    import random

    from cliqueops import arcs_of
    from test_verifier_references import reference_compose_product

    rng = random.Random(21)
    for n in range(1, 6):
        for m in range(1, 6):
            for i in range(1, n + 1):
                for _ in range(6):
                    drawn = [{iv: rng.randint(-2, 2) for iv in arcs_of(k)} for k in (n, m)]
                    p, q = (IntervalProduct(k, d) for k, d in zip((n, m), drawn))
                    assert p.powers == tuple(sorted(kv for kv in drawn[0].items() if kv[1]))
                    want = reference_compose_product(p, q, i)
                    got = ratfct.compose_product(p, q, i)
                    assert got.powers == want, (n, m, i)
                    assert got.row == IntervalProduct(n + m - 1, want).row
                    assert repr(got) == f"IntervalProduct({n + m - 1}, {want})"


def test_unit_composition():
    one1 = RatElem.one(1)
    one2 = RatElem.one(2)
    assert rf_compose(one2, one1, 1) == RatElem.one(2)
    assert rf_compose(one1, one2, 1) == RatElem.one(2)


def test_single_interval_reindexing():
    # a single variable composed into the second slot of a length-two sum
    inner = RatElem.of(IntervalProduct(1, {(1, 2): 1}))
    outer = RatElem.of(IntervalProduct(2, {(1, 3): 1}))
    expected = RatElem.of(IntervalProduct(2, {(1, 3): 1, (2, 3): 1}))
    assert rf_compose(outer, inner, 2) == expected


def test_image_of_cliques(z):
    assert interval_map(Clique.unit(z), RANK) == IntervalProduct.one(1)
    allunit = Clique.from_arcs(z, 4, {})
    assert interval_map(allunit, RANK) == IntervalProduct.one(4)
    big = Clique.from_arcs(
        z, 6, {(1, 2): -1, (1, 5): 2, (1, 7): 1, (3, 7): -2, (4, 5): 3, (5, 7): -1}
    )
    assert interval_map(big, RANK) == IntervalProduct(6, {
        (1, 2): -1, (1, 5): 2, (1, 7): 1, (3, 7): -2, (4, 5): 3, (5, 7): -1,
    })
    rendered = format_rat_elem(rf_image(big, RANK))
    assert "(u_1 + u_2 + u_3 + u_4)^2" in rendered
    assert "u_1^-1" in rendered
    assert "u_4^3" in rendered


def test_rank_function_required_to_match(z, n2):
    zero_rank = RankFunction.zero(n2)
    from cliqueops import MagmaError

    with pytest.raises(MagmaError):
        interval_map(Clique.from_arcs(z, 2, {}), zero_rank)


def test_kernel_examples_are_exactly_zero(z):
    first = (
        LinComb.of(Clique.triangle(z, 1, 0, 0))
        - LinComb.of(Clique.triangle(z, 0, 1, 0))
        - LinComb.of(Clique.triangle(z, 0, 0, 1))
    )
    assert rf_is_zero(rf_image(first, RANK))
    second = (
        LinComb.of(Clique.from_arcs(z, 3, {(2, 3): -1, (3, 4): -1}))
        - LinComb.of(Clique.from_arcs(z, 3, {(2, 4): -1, (3, 4): -1}))
        - LinComb.of(Clique.from_arcs(z, 3, {(2, 3): -1, (2, 4): -1}))
    )
    assert rf_is_zero(rf_image(second, RANK))
    single = rf_image(LinComb.of(Clique.triangle(z, 1, 2, 3)), RANK)
    assert not rf_is_zero(single)


def test_kernel_report_catches_a_nonzero_image(monkeypatch):
    triangle, arity3 = ratfct.kernel_examples()
    # dropping one term leaves a combination whose image is not zero
    broken = arity3 - LinComb.of(Clique.from_arcs(Z, 3, {(2, 3): -1, (3, 4): -1}))
    monkeypatch.setattr(ratfct, "kernel_examples", lambda: (triangle, broken))
    report = ratfct.verify_rf_kernel()
    assert not report.ok and report.checked == 2
    assert "is not zero" in report.counterexample


def test_zero_test_routes_agree(z):
    import random

    rng = random.Random(11)
    pool = [
        Clique.from_arcs(z, 2, {(1, 2): rng.randint(-2, 2), (2, 3): rng.randint(-2, 2),
                                (1, 3): rng.randint(-2, 2)})
        for _ in range(40)
    ]
    for _ in range(40):
        f = LinComb(z, 2, [(rng.choice(pool), rng.randint(-2, 2)) for _ in range(3)])
        image = rf_image(f, RANK)
        exact = not rf_expand_cleared(image) if image.terms else True
        probabilistic = rf_probably_zero(image, samples=20, seed=5)
        assert exact == probabilistic
        assert rf_is_zero(image) == exact


def test_evaluation_and_poles():
    f = RatElem.of(IntervalProduct(2, {(1, 3): -1}))
    assert rf_evaluate(f, [Fraction(1), Fraction(1)]) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        rf_evaluate(f, [Fraction(1), Fraction(-1)])


def test_morphism_law_small_exhaustive():
    report = verify_rf_morphism(labels=(-1, 0, 1), max_arity=2)
    assert report.ok
    # pair instance count: (1,1) + (1,2) + (2,1) with two slots + (2,2)
    assert report.checked == 1 + 27 + 54 + 27 * 27 * 2
    assert verify_rf_morphism(labels=(-1, 0, 1), max_arity=3).checked == 1697194


def test_compose_product_matches_rat_elem_compose(z):
    import random

    from cliqueops import arcs_of

    rng = random.Random(2)

    def random_clique(arity):
        if arity == 1:
            return Clique.unit(z)
        return Clique(z, arity, [rng.randint(-2, 2) for _ in arcs_of(arity)])

    for _ in range(100):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        p, q = random_clique(n), random_clique(m)
        i = rng.randint(1, n)
        lhs = RatElem.of(compose_product(interval_map(p, RANK), interval_map(q, RANK), i))
        rhs = rf_compose(rf_image(p, RANK), rf_image(q, RANK), i)
        assert lhs == rhs


def test_multiplicativity_and_inverse(z):
    p = Clique.from_arcs(z, 3, {(1, 3): 2, (2, 4): -1})
    q = Clique.from_arcs(z, 3, {(1, 3): 1, (1, 2): 4})
    assert rf_image(p, RANK) * rf_image(q, RANK) == rf_image(star_product(p, q), RANK)
    neg = MagmaMorphism.negation()
    assert interval_map(relabel(p, neg), RANK) == interval_map(p, RANK).inverse()


def test_laurent_monomial_bubble(z):
    # u_1^2 u_2^-1 is the image of the bubble with edges labeled 2, -1
    bubble = Clique.from_arcs(z, 3, {(1, 2): 2, (2, 3): -1})
    assert interval_map(bubble, RANK) == IntervalProduct(3, {(1, 2): 2, (2, 3): -1})


def test_verify_rf_laws():
    report = verify_rf_laws(max_arity=3, samples=100, seed=0)
    assert report.ok, report.counterexample
    # determinism: same seed, same traversal
    again = verify_rf_laws(max_arity=3, samples=100, seed=0)
    assert again.checked == report.checked


def test_rf_morphism_verifier_catches_an_off_by_one_reindex(monkeypatch):
    import test_verifier_references
    from test_verifier_references import reference_rf_morphism

    real = test_verifier_references.reference_compose_product

    def off_by_one(prod, other, i):
        # substitutes into the slot after the requested one, when there is one
        return real(prod, other, min(i + 1, prod.arity))

    # the reference loop of the morphism law substitutes by this dict rule
    assert reference_rf_morphism((0, 1), 2).ok
    monkeypatch.setattr(test_verifier_references, "reference_compose_product", off_by_one)
    report = reference_rf_morphism((0, 1), 2)
    assert not report.ok
    assert report.counterexample.startswith("image of")
    assert report.checked > 0


@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_rf_morphism_engines_catch_an_off_by_one_reindex_table(monkeypatch, engine):
    # "vector" is the slab verifier, "scalar" its one-instance-at-a-time
    # reference in test_verifier_references.py
    from cliqueops import ratfct
    from test_verifier_references import reference_rf_morphism

    run = ratfct.verify_rf_morphism if engine == "vector" else reference_rf_morphism
    real = ratfct._reindex

    def off_by_one(n, m, i):
        # the reindex table of the slot after the requested one, when there is one
        return real(n, m, min(i + 1, n))

    def clear():
        # a compiled row plan would hide the mutated table
        ratfct._row_plan.cache_clear()

    assert run((0, 1), 2).ok
    clear()
    monkeypatch.setattr(ratfct, "_reindex", off_by_one)
    try:
        report = run((0, 1), 2)
    finally:
        clear()
    assert not report.ok
    assert report.counterexample.startswith("image of")
    assert report.checked > 0


def test_rf_laws_verifier_catches_a_lossy_star_product(monkeypatch):
    from cliqueops import ratfct

    # mutation: the arcwise product drops its second factor
    monkeypatch.setattr(ratfct, "star_product", lambda p, q: p)
    report = verify_rf_laws(max_arity=3, samples=100, seed=0)
    assert not report.ok
    assert report.checked > 0
    assert report.counterexample.startswith("multiplicativity fails on ")


def _random_rat_elem(rng, arity, terms):
    intervals = [(x, y) for x in range(1, arity + 1) for y in range(x + 1, arity + 2)]
    out = []
    for _ in range(terms):
        chosen = rng.sample(intervals, rng.randint(0, min(3, len(intervals))))
        powers = {iv: rng.choice((-2, -1, 1, 2)) for iv in chosen}
        out.append((IntervalProduct(arity, powers),
                    Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))))
    return RatElem(arity, out)


def test_products_and_compositions_match_their_termwise_sums():
    # the integer-numerator sums of `RatElem.__mul__` and `rf_compose` against
    # the constructor's sum of every pairwise term, coefficient by coefficient
    rng = random.Random(41)
    merged = 0  # results with fewer terms than pairs: coinciding rows were summed
    for _ in range(100):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        f, g = _random_rat_elem(rng, n, 4), _random_rat_elem(rng, m, 4)
        h = _random_rat_elem(rng, n, 4)
        i = rng.randint(1, n)
        if rng.random() < 0.3:  # one side of a single term
            h = RatElem.of(*rng.choice(list(h.terms.items())))
            f, h = (h, f) if rng.random() < 0.5 else (f, h)
        composed = RatElem(n + m - 1, [
            (compose_product(p, q, i), a * b)
            for p, a in f.terms.items() for q, b in g.terms.items()
        ])
        multiplied = RatElem(n, [
            (p.multiply(q), a * b) for p, a in f.terms.items() for q, b in h.terms.items()
        ])
        for got, want, other in ((rf_compose(f, g, i), composed, g), (f * h, multiplied, h)):
            assert got == want
            assert all(type(c) is (int if c.denominator == 1 else Fraction)
                       for c in got.terms.values())
            merged += len(got.terms) < len(f.terms) * len(other.terms)
    assert merged > 20
    assert rf_compose(RatElem(2), RatElem.one(2), 1) == RatElem(3)


def _sympy_value(sympy, f):
    """f as a sympy expression in u_1, ..., u_arity."""
    u = sympy.symbols(f"u1:{f.arity + 1}")
    total = sympy.Integer(0)
    for prod, coeff in f.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for (x, y), exponent in prod.powers:
            term *= sympy.Add(*u[x - 1:y - 1]) ** exponent
        total += term
    return total


def test_zero_test_agrees_with_sympy():
    # an independent oracle: sympy's `cancel` brings f to one reduced fraction
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    kernels = [rf_image(example, RANK) for example in ratfct.kernel_examples()]
    elements = list(kernels)
    for k in range(4):
        # kernel composites vanish; a monomial added makes them nonzero
        kernel, g = rng.choice(kernels), _random_rat_elem(rng, rng.randint(1, 2), 2)
        if k % 2:
            zero = rf_compose(kernel, g, rng.randint(1, kernel.arity))
        else:
            zero = rf_compose(g, kernel, rng.randint(1, g.arity))
        monomial = _random_rat_elem(rng, zero.arity, 1)
        elements += [zero, zero + monomial,
                     _random_rat_elem(rng, rng.randint(1, 3), rng.randint(1, 4))]
    verdicts = []
    for f in elements:
        verdict = rf_is_zero(f)
        assert verdict == (sympy.cancel(_sympy_value(sympy, f)) == 0), format_rat_elem(f)
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_pole_draws_are_redrawn_not_counted(monkeypatch):
    # 1/(u_1 + u_2): the first draw puts the interval sum on 0 mod p
    p = ratfct._P
    f = RatElem.of(IntervalProduct(2, {(1, 3): -1}))
    draws = [[1, p - 1], [1, 2]]
    monkeypatch.setattr(ratfct, "_draw_point", lambda rng, arity: draws.pop(0))
    # one sample: only the redrawn point can be the one that certifies
    assert rf_probably_zero(f, samples=1) is False
    assert draws == []


def _reference_expansion(f):
    """rf_expand_cleared by hand: Fraction coefficients, exponent tuples, and
    each interval power multiplied out one linear factor at a time."""
    arcs = arcs_of(f.arity)
    need = {iv: max(0, *(-dict(p.powers).get(iv, 0) for p in f.terms)) for iv in arcs}
    total = {}
    for prod, coeff in f.terms.items():
        poly = {(0,) * f.arity: Fraction(coeff)}
        for (x, y) in arcs:
            for _ in range(need[(x, y)] + dict(prod.powers).get((x, y), 0)):
                product = {}
                for mono, c in poly.items():
                    for var in range(x, y):
                        key = mono[:var - 1] + (mono[var - 1] + 1,) + mono[var:]
                        product[key] = product.get(key, 0) + c
                poly = product
        for mono, c in poly.items():
            total[mono] = total.get(mono, 0) + c
    return {mono: c for mono, c in total.items() if c}


def test_expand_cleared_matches_a_reference():
    rng = random.Random(41)
    kernels = [rf_image(example, RANK) for example in ratfct.kernel_examples()]
    elements = []
    for arity in range(1, 5):
        for _ in range(12):
            elements.append(_random_rat_elem(rng, arity, rng.randint(1, 5)))
    for kernel in kernels:
        g = _random_rat_elem(rng, 2, 3)
        composite = rf_compose(g, kernel, 2)
        elements += [rf_compose(kernel, g, 1),
                     composite + _random_rat_elem(rng, composite.arity, 2)]
    assert any(any(c.denominator > 1 for c in f.terms.values()) for f in elements)
    assert any(min(p.row) < 0 for f in elements for p in f.terms)
    for f in elements:
        got = rf_expand_cleared(f)
        assert got == _reference_expansion(f), format_rat_elem(f)
        # coefficients in normal form: an int when integral
        assert all(type(c) is int or c.denominator > 1 for c in got.values())


def test_certificate_never_calls_a_kernel_composite_nonzero():
    kernels = [rf_image(example, RANK) for example in ratfct.kernel_examples()]
    for seed in range(50):
        rng = random.Random(seed)
        for kernel in kernels:
            g = _random_rat_elem(rng, rng.randint(1, 2), rng.randint(1, 3))
            composites = [rf_compose(kernel, g, i) for i in range(1, kernel.arity + 1)]
            composites += [rf_compose(g, kernel, i) for i in range(1, g.arity + 1)]
            for zero in composites:
                assert zero.terms
                assert rf_probably_zero(zero, samples=2, seed=seed), (seed, zero)


def test_certificate_reduces_mixed_denominators():
    # u_1/s + u_2/s - 1 and s/u_1 - 1 - u_2/u_1 vanish, s = u_1 + u_2; they
    # share the term 1, so (1/2) r1 + (1/3) r2 has the coefficients 1/2 and
    # 1/3 and -5/6, and only exact inverses of 2, 3 and 6 mod p cancel it
    def term(powers):
        return IntervalProduct(2, powers)

    s, u1, u2 = (1, 3), (1, 2), (2, 3)
    r1 = RatElem(2, [(term({u1: 1, s: -1}), 1), (term({u2: 1, s: -1}), 1),
                     (term({}), -1)])
    r2 = RatElem(2, [(term({s: 1, u1: -1}), 1), (term({}), -1),
                     (term({u2: 1, u1: -1}), -1)])
    zero = Fraction(1, 2) * r1 + Fraction(1, 3) * r2
    assert zero.coefficient(term({})) == Fraction(-5, 6) and rf_is_zero(zero)
    nonzero = zero + RatElem.of(term({s: -2}), Fraction(1, 7))
    for seed in range(20):
        assert rf_probably_zero(zero, samples=3, seed=seed)
        assert not rf_probably_zero(nonzero, samples=1, seed=seed)


def test_a_denominator_divisible_by_p_gives_no_certificate():
    f = RatElem.of(IntervalProduct(1, {(1, 2): 1}), Fraction(1, ratfct._P))
    assert rf_probably_zero(f)
    assert not rf_is_zero(f)
