import random
from fractions import Fraction

import pytest

from cliqueops import (
    Clique, CliqueError, IntervalProduct, LinComb, RatElem, RatFctError,
    UnitaryMagma, generate_cliques, is_associative_element, partial_compose,
    partial_compose_lin, star_product, unzip_clique, verify_product_iso,
    zip_cliques,
)

Z = UnitaryMagma.integers()


def test_unit_laws(d0, z):
    unit = Clique.unit(d0)
    for p in generate_cliques(d0, 3):
        assert partial_compose(unit, p, 1) == p
        for i in range(1, 4):
            assert partial_compose(p, unit, i) == p
    q = Clique.from_arcs(z, 2, {(1, 3): 9})
    assert partial_compose(Clique.unit(z), q, 1) == q


def test_triangle_composition_formula(z):
    # base a, edges b, c composed with base d, edges e, f at slot 1
    p = Clique.triangle(z, 5, 7, 11)
    q = Clique.triangle(z, 13, 17, 19)
    r = partial_compose(p, q, 1)
    assert r == Clique.from_arcs(
        z, 3, {(1, 4): 5, (1, 3): 7 + 13, (1, 2): 17, (2, 3): 19, (3, 4): 11}
    )
    assert r.label(2, 4) == 0
    # the glued arc always carries the product of the meeting labels
    s = partial_compose(p, q, 2)
    assert s.label(2, 4) == 11 + 13


def test_displayed_compositions(z):
    p = Clique.from_arcs(z, 4, {(1, 2): 1, (1, 5): -2, (2, 3): -2, (3, 5): 1})
    q1 = Clique.from_arcs(z, 3, {(1, 3): 1, (1, 4): 3, (2, 4): 1, (3, 4): 2})
    expected1 = Clique.from_arcs(
        z, 6,
        {(1, 2): 1, (1, 7): -2, (2, 4): 1, (2, 5): 1, (3, 5): 1, (4, 5): 2, (5, 7): 1},
    )
    assert partial_compose(p, q1, 2) == expected1
    q2 = Clique.from_arcs(z, 3, {(1, 3): 1, (1, 4): 2, (2, 4): 1, (3, 4): 2})
    expected2 = Clique.from_arcs(
        z, 6,
        {(1, 2): 1, (1, 7): -2, (2, 4): 1, (3, 5): 1, (4, 5): 2, (5, 7): 1},
    )
    assert partial_compose(p, q2, 2) == expected2


def test_associativity_spot_checks_over_integers(z):
    # the finite-magma verifiers cannot reach Z; sample the laws directly
    import random

    from cliqueops import arcs_of

    rng = random.Random(13)

    def rand(arity):
        if arity == 1:
            return Clique.unit(z)
        return Clique(z, arity, [rng.randint(-3, 3) for _ in arcs_of(arity)])

    for _ in range(400):
        n, m, k = (rng.randint(1, 3) for _ in range(3))
        x, y, w = rand(n), rand(m), rand(k)
        i, j = rng.randint(1, n), rng.randint(1, m)
        lhs = partial_compose(partial_compose(x, y, i), w, i + j - 1)
        rhs = partial_compose(x, partial_compose(y, w, j), i)
        assert lhs == rhs
        if n >= 2:
            i2 = rng.randint(1, n - 1)
            j2 = rng.randint(i2 + 1, n)
            lhs = partial_compose(partial_compose(x, y, i2), w, j2 + m - 1)
            rhs = partial_compose(partial_compose(x, w, j2), y, i2)
            assert lhs == rhs


def test_arity_bookkeeping(d0):
    for n, m in [(2, 2), (2, 3), (3, 2), (4, 2)]:
        p = next(iter(generate_cliques(d0, n)))
        q = next(iter(generate_cliques(d0, m)))
        assert partial_compose(p, q, 1).arity == n + m - 1
    with pytest.raises(CliqueError):
        partial_compose(p, q, 9)


def test_mixed_magma_rejected(d0, n2):
    p = Clique.from_arcs(d0, 2, {})
    q = Clique.from_arcs(n2, 2, {})
    with pytest.raises(CliqueError):
        partial_compose(p, q, 1)


def test_lincomb_canonicalization(d0):
    p = Clique.triangle(d0, 0, 1, 0)
    q = Clique.triangle(d0, 1, 1, 1)
    f = LinComb(d0, 2, [(p, 2), (q, 1), (p, -2)])
    assert f.terms == {q: Fraction(1)}
    assert (f - f).is_zero()
    with pytest.raises(CliqueError):
        LinComb(d0, 2, [(Clique.unit(d0), 1)])


_D2 = UnitaryMagma.zero_product(2)
# per combination class: constructor on (arity, terms), basis at an arity, error
_SPACES = {
    "LinComb": (
        lambda arity, terms: LinComb(_D2, arity, terms),
        lambda arity: list(generate_cliques(_D2, arity)),
        CliqueError,
    ),
    "RatElem": (
        RatElem,
        lambda arity: [IntervalProduct(arity, {(1, arity + 1): e, (1, 2): d})
                       for e in range(-4, 5) for d in range(-2, 3)],
        RatFctError,
    ),
}


@pytest.mark.parametrize("kind", sorted(_SPACES))
def test_free_module_laws(kind):
    make, basis_at, error = _SPACES[kind]
    rng = random.Random(5)
    basis = basis_at(3)

    def rand():
        return make(3, [
            (rng.choice(basis), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(12)
        ])

    f, g, h = rand(), rand(), rand()
    assert f + g == g + f and hash(f + g) == hash(g + f)
    assert (f + g) + h == f + (g + h)
    assert Fraction(5, 2) * (f + g) == Fraction(5, 2) * f + Fraction(5, 2) * g
    assert 3 * f == 2 * f + 1 * f
    zero = make(3, ())
    assert f - f == zero and (f - f).is_zero() and 0 * f == zero
    x, y = basis[0], basis[1]
    assert make(3, [(x, 2), (y, 0), (x, -2)]).terms == {}
    assert make(3, {x: 1, y: 0}).terms == {x: 1}
    assert (make(3, [(x, 1)]) - make(3, [(x, 1), (y, 1)])).terms == {y: -1}
    with pytest.raises(error):
        f + make(2, [(basis_at(2)[0], 1)])
    assert LinComb.zero(Z, 1) != RatElem(1)


def test_bilinearity(d0):
    p = Clique.triangle(d0, 0, 1, 0)
    q = Clique.triangle(d0, 1, 0, 1)
    r = Clique.triangle(d0, 0, 0, 1)
    two_p = 2 * LinComb.of(p)
    three_q = 3 * LinComb.of(q)
    assert partial_compose_lin(two_p, three_q, 1) == 6 * LinComb.of(
        partial_compose(p, q, 1)
    )
    left = partial_compose_lin(LinComb.of(p) + LinComb.of(r), LinComb.of(q), 2)
    right = (
        partial_compose_lin(LinComb.of(p), LinComb.of(q), 2)
        + partial_compose_lin(LinComb.of(r), LinComb.of(q), 2)
    )
    assert left == right
    zero = LinComb.zero(d0, 2)
    assert partial_compose_lin(zero, LinComb.of(q), 1).is_zero()


def test_star_product(z, d0):
    p = Clique.from_arcs(z, 5, {(2, 4): 2, (2, 6): -1, (3, 4): 1, (5, 6): -2})
    q = Clique.from_arcs(
        z, 5, {(1, 5): -1, (2, 3): 3, (2, 4): 1, (3, 4): 1, (5, 6): 2}
    )
    assert star_product(p, q) == Clique.from_arcs(
        z, 5, {(1, 5): -1, (2, 3): 3, (2, 4): 3, (2, 6): -1, (3, 4): 2}
    )
    allunit = Clique.from_arcs(z, 5, {})
    assert star_product(p, allunit) == p
    a = Clique.triangle(d0, 1, 0, 0)
    b = Clique.triangle(d0, 0, 1, 0)
    lhs = star_product(2 * LinComb.of(a), 3 * LinComb.of(b))
    assert lhs == 6 * LinComb.of(star_product(a, b))


def test_decimal_is_str_at_any_size(z):
    import sys

    from cliqueops.operad import decimal

    rng = random.Random(17)
    ints = [0, 1, -1, 10 ** 5000, -(10 ** 5000) + 1, 10 ** 602, 10 ** 603 - 1]
    for bits in (1, 64, 1999, 2000, 2001, 2100, 14000, 14300, 40000):
        ints += [rng.getrandbits(bits), -rng.getrandbits(bits), 1 << bits]
    values = ints + [Fraction(a, b) for a, b in zip(ints[1:], ints[2:] + [7]) if b]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # for the reference conversion only
    try:
        want = [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [decimal(v) for v in values] == want
    assert max(map(len, want)) > 4300
    big = LinComb.of(Clique.unit(z), Fraction(1, 10 ** 5000 + 1))
    assert repr(big) == f"1/1{'0' * 4999}1*{Clique.unit(z)!r}"


def test_fundamental_basis_closed_under_composition(d0):
    for p in generate_cliques(d0, 2):
        for q in generate_cliques(d0, 2):
            result = partial_compose_lin(LinComb.of(p), LinComb.of(q), 1)
            assert len(result.terms) == 1
            assert next(iter(result.terms.values())) == 1


def test_zip_unzip(d0, d0sq):
    p1 = Clique.from_arcs(d0, 3, {(1, 3): 1})
    p2 = Clique.from_arcs(d0, 3, {(2, 4): 1, (1, 3): 1})
    paired = zip_cliques(d0sq, p1, p2)
    assert unzip_clique(paired) == (p1, p2)
    unit = zip_cliques(d0sq, Clique.unit(d0), Clique.unit(d0))
    assert unit == Clique.unit(d0sq)
    report = verify_product_iso(d0sq, 3)
    assert report.ok, report.counterexample


def test_product_iso_needs_a_product_magma(d0):
    with pytest.raises(CliqueError, match="is not a product magma"):
        verify_product_iso(d0, 3)


def test_product_iso_catches_a_swapped_pair(monkeypatch, d0sq):
    from cliqueops import verify
    from cliqueops.magma import unpair_value

    def swapped(magma, value):
        # the pair (unit, 0) reads back as (0, unit)
        a, b = unpair_value(magma, value)
        return (b, a) if value == 1 else (a, b)

    monkeypatch.setattr(verify, "unpair_value", swapped)
    report = verify_product_iso(d0sq, 3)
    # the round trip of arity 2 fails after the commute law of arity 1 ran
    assert (report.ok, report.checked, report.counterexample) == (
        False, 4161, "unzip/zip round trip fails on Clique[D_0xD_0|2|(2,3)=(𝟙,0)]",
    )


def test_product_iso_catches_a_pairing_that_does_not_commute(monkeypatch, d0sq):
    import numpy as np

    from cliqueops import verify

    real = verify._star

    def forgetting_the_edge(magma):
        # mutation: the product's table reads a * b = b; the factors keep theirs
        table = real(magma)
        if magma.factors is None:
            return table
        return np.tile(np.arange(magma.size, dtype=table.dtype), (magma.size, 1))

    monkeypatch.setattr(verify, "_star", forgetting_the_edge)
    report = verify_product_iso(d0sq, 3)
    assert (report.ok, report.checked, report.counterexample) == (
        False, 4178,
        "pairing does not commute with o_1 on Clique[D_0xD_0|2|(1,2)=(𝟙,0)], "
        "Clique[D_0xD_0|1|all-unit]",
    )


def test_associative_elements_displayed(n2, d0):
    T = Clique.triangle
    one = LinComb.of(T(n2, 1, 1, 1))
    assert is_associative_element(one)
    big = (
        LinComb.of(T(n2, 0, 0, 0)) + LinComb.of(T(n2, 0, 1, 0))
        - LinComb.of(T(n2, 1, 0, 0)) + LinComb.of(T(n2, 0, 0, 1))
        - LinComb.of(T(n2, 1, 1, 0)) + LinComb.of(T(n2, 0, 1, 1))
        - LinComb.of(T(n2, 1, 0, 1)) - LinComb.of(T(n2, 1, 1, 1))
    )
    assert is_associative_element(big)
    first = LinComb.of(T(d0, 0, 1, 1)) - LinComb.of(T(d0, 1, 1, 1))
    assert is_associative_element(first)
    second = (
        LinComb.of(T(d0, 1, 0, 0)) - LinComb.of(T(d0, 1, 1, 0))
        - LinComb.of(T(d0, 1, 0, 1)) + LinComb.of(T(d0, 1, 1, 1))
    )
    assert is_associative_element(second)
    lopsided = LinComb.of(T(d0, 0, 1, 0))
    assert not is_associative_element(lopsided)


def test_associative_routes_agree_on_random_elements(d0):
    import random

    rng = random.Random(7)
    triangles = list(generate_cliques(d0, 2))
    for _ in range(300):
        f = LinComb(
            d0, 2,
            [(t, rng.randint(-2, 2)) for t in rng.sample(triangles, 4)],
        )
        is_associative_element(f)  # raises if the two routes disagree
