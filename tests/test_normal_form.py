"""Stored coefficients have one normal form: an `int` when integral, a
`Fraction` only when its denominator is above 1.  Each operation of the
free-module core is checked for that form, and for equality with a
recomputation in plain `Fraction`s that shares no accumulation code with
`operad._accumulate`."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueops import (
    Clique, LinComb, RankFunction, RatElem, UnitaryMagma, arcs_of, below_be,
    below_d, compose_in_basis, compose_product, from_H, from_K, hamming,
    interval_map, partial_compose, partial_compose_lin, rf_compose, rf_image,
    star_product, to_H, to_K,
)

from magma_strategies import D1

Z = UnitaryMagma.integers()
RANK = RankFunction.identity()
# integers, integral Fractions, halves and a third: the cliques are drawn
# from a small space, so halves of one clique often sum to an integer and
# half of an even coefficient is one
COEFFICIENTS = (1, -1, 2, -4, Fraction(6, 3), Fraction(-3), Fraction(1, 2),
                Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3))
SCALARS = (0, 2, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2))


def cliques(magma, arity, labels):
    # the one arity-1 clique has the unit on its base
    labels = labels if arity > 1 else (magma.unit,)
    size = len(arcs_of(arity))
    return st.lists(st.sampled_from(labels), min_size=size, max_size=size).map(
        lambda drawn: Clique(magma, arity, drawn))


def term_lists(magma, arity, labels, max_size):
    return st.lists(
        st.tuples(cliques(magma, arity, labels), st.sampled_from(COEFFICIENTS)),
        max_size=max_size,
    )


def plain(pairs):
    """Sum (key, value) pairs as Fractions and drop the zero sums."""
    acc = {}
    for key, value in pairs:
        acc[key] = acc.get(key, Fraction(0)) + Fraction(value)
    return {key: value for key, value in acc.items() if value}


def bilinear(f, g, product):
    return plain((product(p, q), a * b) for p, a in f.items() for q, b in g.items())


def downset_sum(f, below, signed):
    return plain(
        (q, -a if signed and hamming(p, q) % 2 else a)
        for p, a in f.items() for q in below(p)
    )


def assert_normal(comb, want):
    for value in comb.terms.values():
        assert type(value) is int or (type(value) is Fraction and value.denominator > 1), (
            repr(value))
    assert comb.terms == want


def test_integral_sums_and_products_are_ints():
    p = Clique.triangle(D1, 1, 0, 2)
    halves = LinComb(D1, 2, [(p, Fraction(1, 2)), (p, Fraction(1, 2))])
    assert_normal(halves, {p: 1})
    assert_normal(Fraction(1, 2) * LinComb.of(p, 2), {p: 1})
    assert_normal(LinComb.of(p, Fraction(4, 2)), {p: 2})
    assert_normal(LinComb.of(p, "3/4") + LinComb.of(p, 0.25), {p: 1})
    zero = LinComb.zero(D1, 2).coefficient(p)
    assert type(zero) is int and zero == 0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_module_operations_store_the_normal_form(data):
    arity = data.draw(st.sampled_from((1, 2, 3)))
    f_pairs, g_pairs = (data.draw(term_lists(D1, arity, (0, 1, 2), 6)) for _ in range(2))
    scalar = data.draw(st.sampled_from(SCALARS))
    i = data.draw(st.integers(1, arity))
    f, g = LinComb(D1, arity, f_pairs), LinComb(D1, arity, g_pairs)
    F, G = plain(f_pairs), plain(g_pairs)
    assert_normal(f, F)
    assert_normal(f + g, plain([*F.items(), *G.items()]))
    assert_normal(f - g, plain([*F.items(), *((q, -b) for q, b in G.items())]))
    assert_normal(scalar * f, plain((p, Fraction(scalar) * a) for p, a in F.items()))
    assert_normal(partial_compose_lin(f, g, i),
                  bilinear(F, G, lambda p, q: partial_compose(p, q, i)))
    assert_normal(star_product(f, g), bilinear(F, G, star_product))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bases_store_the_normal_form(data):
    # mostly unit labels keep the down-sets of the composites small
    labels = (0, 0, 1, 2)
    f_pairs = data.draw(term_lists(D1, data.draw(st.sampled_from((2, 3))), labels, 4))
    g_pairs = data.draw(term_lists(D1, 2, labels, 3))
    if not f_pairs or not g_pairs:
        return
    f = LinComb(D1, f_pairs[0][0].arity, f_pairs)
    g = LinComb(D1, 2, g_pairs)
    F, G = plain(f_pairs), plain(g_pairs)
    i = data.draw(st.integers(1, f.arity))

    def composed(x, y):
        return bilinear(x, y, lambda p, q: partial_compose(p, q, i))

    assert_normal(from_H(f), downset_sum(F, below_be, signed=False))
    assert_normal(to_H(f), downset_sum(F, below_be, signed=True))
    assert_normal(from_K(f), downset_sum(F, below_d, signed=True))
    assert_normal(to_K(f), downset_sum(F, below_d, signed=False))
    assert_normal(compose_in_basis(f, g, i, "fundamental"), composed(F, G))
    # a basis element composes in H (or K) as the conversion of the
    # fundamental composite of its expansions
    for below, signed_from in ((below_be, False), (below_d, True)):
        want = downset_sum(composed(downset_sum(F, below, signed_from),
                                    downset_sum(G, below, signed_from)),
                           below, not signed_from)
        basis = "H" if below is below_be else "K"
        assert_normal(compose_in_basis(f, g, i, basis), want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rational_functions_store_the_normal_form(data):
    arity = data.draw(st.sampled_from((1, 2)))
    f_pairs, g_pairs = (data.draw(term_lists(Z, arity, (-1, 0, 1), 5)) for _ in range(2))
    h_pairs = data.draw(term_lists(Z, 2, (-1, 0, 1), 4))
    i = data.draw(st.integers(1, arity))
    F, G, H = (
        plain((interval_map(c, RANK), a) for c, a in plain(pairs).items())
        for pairs in (f_pairs, g_pairs, h_pairs)
    )
    f, g, h = (
        rf_image(LinComb(Z, n, pairs), RANK)
        for n, pairs in ((arity, f_pairs), (arity, g_pairs), (2, h_pairs))
    )
    assert_normal(f, F)
    assert_normal(RatElem(arity, list(F.items())), F)
    assert_normal(f * g, bilinear(F, G, lambda p, q: p.multiply(q)))
    assert_normal(rf_compose(f, h, i), bilinear(F, H, lambda p, q: compose_product(p, q, i)))
