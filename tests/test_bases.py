import random

import pytest

from cliqueops import (
    Clique, CliqueError, LinComb, UnitaryMagma, below_be, below_d,
    compose_H, compose_K, compose_in_basis, from_H, from_K, generate_cliques,
    partial_compose_lin, star_product, to_H, to_K,
)

Z = UnitaryMagma.integers()


def test_downsets(d0, z):
    allunit = Clique.from_arcs(d0, 3, {})
    assert below_be(allunit) == [allunit]
    assert below_d(allunit) == [allunit]
    one_edge = Clique.from_arcs(d0, 2, {(1, 2): 1})
    assert len(below_be(one_edge)) == 2
    mixed = Clique.from_arcs(d0, 3, {(1, 2): 1, (1, 4): 1, (1, 3): 1})
    # base and one edge are erasable, the diagonal is not
    assert len(below_be(mixed)) == 4
    assert len(below_d(mixed)) == 2
    # erasure works over the integers too: down-sets stay finite
    p = Clique.from_arcs(z, 4, {(1, 3): 2, (2, 5): 1, (3, 4): 1, (4, 5): 2})
    assert len(below_be(p)) == 4


def test_displayed_H_and_K_expansions(z):
    p = Clique.from_arcs(z, 4, {(1, 3): 2, (2, 5): 1, (3, 4): 1, (4, 5): 2})
    expansion = from_H(LinComb.of(p))
    expected = (
        LinComb.of(Clique.from_arcs(z, 4, {(1, 3): 2, (2, 5): 1}))
        + LinComb.of(Clique.from_arcs(z, 4, {(1, 3): 2, (2, 5): 1, (4, 5): 2}))
        + LinComb.of(Clique.from_arcs(z, 4, {(1, 3): 2, (2, 5): 1, (3, 4): 1}))
        + LinComb.of(p)
    )
    assert expansion == expected
    k_expansion = from_K(LinComb.of(p))
    k_expected = (
        LinComb.of(p)
        - LinComb.of(Clique.from_arcs(z, 4, {(1, 3): 2, (3, 4): 1, (4, 5): 2}))
        - LinComb.of(Clique.from_arcs(z, 4, {(2, 5): 1, (3, 4): 1, (4, 5): 2}))
        + LinComb.of(Clique.from_arcs(z, 4, {(3, 4): 1, (4, 5): 2}))
    )
    assert k_expansion == k_expected


def test_round_trips_random(d0):
    rng = random.Random(3)
    pool = list(generate_cliques(d0, 3))
    for _ in range(200):
        f = LinComb(d0, 3, [(rng.choice(pool), rng.randint(-3, 3)) for _ in range(4)])
        assert to_H(from_H(f)) == f
        assert from_H(to_H(f)) == f
        assert to_K(from_K(f)) == f
        assert from_K(to_K(f)) == f


def test_round_trips_large(d0):
    # 300 terms at arity 4: each conversion accumulates into one dict
    rng = random.Random(11)
    cliques = rng.sample(list(generate_cliques(d0, 4)), 300)
    f = LinComb(d0, 4, [(c, rng.choice([-2, -1, 1, 3])) for c in cliques])
    assert to_H(from_H(f)) == f
    assert to_K(from_K(f)) == f


def test_unitriangularity(d0):
    for p in generate_cliques(d0, 3):
        h = from_H(LinComb.of(p))
        assert h.coefficient(p) == 1
        for q in h.terms:
            assert sum(1 for a, b in zip(q.labels, p.labels) if a != b) >= 0
        k = from_K(LinComb.of(p))
        assert k.coefficient(p) == 1


def test_compose_H_case_counts(z):
    solid = Clique.triangle(z, 2, 1, 1)   # base 2, so the two middle terms differ
    plain = Clique.triangle(z, 0, 0, 0)
    assert len(compose_H(solid, solid, 1).terms) == 4
    assert len(compose_H(solid, plain, 1).terms) == 2
    assert len(compose_H(plain, solid, 1).terms) == 2
    assert len(compose_H(plain, plain, 1).terms) == 1
    # when the erased middle terms coincide they merge with coefficient 2
    merged = compose_H(Clique.triangle(z, 1, 1, 1), Clique.triangle(z, 1, 1, 1), 1)
    assert sorted(merged.terms.values()) == [1, 1, 2]


def test_unit_arguments_rejected(d0):
    unit = Clique.unit(d0)
    other = Clique.triangle(d0, 0, 1, 0)
    for fn in (compose_H, compose_K):
        with pytest.raises(CliqueError):
            fn(unit, other, 1)
        with pytest.raises(CliqueError):
            fn(other, unit, 1)


def test_boundary_errors_are_clique_errors(d0, d1):
    unit = LinComb.of(Clique.unit(d0))
    f = LinComb.of(Clique.triangle(d0, 0, 1, 0)) - LinComb.of(Clique.triangle(d0, 1, 1, 1))
    g = 2 * LinComb.of(Clique.from_arcs(d0, 3, {(1, 4): 1, (2, 3): 1}))
    other = LinComb.of(Clique.triangle(d1, 1, 0, 1))
    p, q = next(iter(f.terms)), next(iter(g.terms))
    for basis in ("fundamental", "H", "K"):
        for i in (0, 3):  # f has arity 2
            with pytest.raises(CliqueError):
                compose_in_basis(f, g, i, basis)
        with pytest.raises(CliqueError):
            compose_in_basis(f, other, 1, basis)
        with pytest.raises(CliqueError):
            compose_in_basis(other, f, 2, basis)
    for basis in ("H", "K"):
        with pytest.raises(CliqueError):
            compose_in_basis(unit, g, 1, basis)
        with pytest.raises(CliqueError):
            compose_in_basis(g, unit, 2, basis)
    for fn in (compose_H, compose_K):
        with pytest.raises(CliqueError):
            fn(p, q, 3)
        with pytest.raises(CliqueError):
            fn(p, next(iter(other.terms)), 1)
    with pytest.raises(CliqueError):
        partial_compose_lin(g, f, 4)
    for left, right in ((f, g), (f, other), (p, q), (p, next(iter(other.terms))), (f, q)):
        with pytest.raises(CliqueError):
            star_product(left, right)


def test_displayed_H_K_compositions_arity_two(z):
    p = Clique.triangle(z, 0, 0, 1)  # base unit, second edge labeled 1
    q = Clique.triangle(z, 1, 0, 0)  # base labeled 1
    result_h = compose_H(p, q, 2)
    allunit = Clique.from_arcs(z, 3, {})
    diag1 = Clique.from_arcs(z, 3, {(2, 4): 1})
    diag2 = Clique.from_arcs(z, 3, {(2, 4): 2})
    assert result_h == LinComb(z, 3, [(allunit, 1), (diag1, 2), (diag2, 1)])
    result_k = compose_K(p, q, 2)
    assert result_k == LinComb(z, 3, [(allunit, 1), (diag2, 1)])


def test_displayed_H_K_compositions_arity_three(z):
    p = Clique.from_arcs(z, 3, {(1, 3): 2, (3, 4): 1})
    q = Clique.triangle(z, 2, 1, 2)
    base = {(1, 3): 2, (3, 4): 1, (4, 5): 2}
    result_h = compose_H(p, q, 3)
    expected_h = LinComb(z, 4, [
        (Clique.from_arcs(z, 4, base), 1),
        (Clique.from_arcs(z, 4, {**base, (3, 5): 1}), 1),
        (Clique.from_arcs(z, 4, {**base, (3, 5): 2}), 1),
        (Clique.from_arcs(z, 4, {**base, (3, 5): 3}), 1),
    ])
    assert result_h == expected_h
    result_k = compose_K(p, q, 3)
    expected_k = LinComb(z, 4, [
        (Clique.from_arcs(z, 4, base), 1),
        (Clique.from_arcs(z, 4, {**base, (3, 5): 3}), 1),
    ])
    assert result_k == expected_k


def test_displayed_H_K_compositions_arity_three_at_two(z):
    p = Clique.from_arcs(z, 3, {(2, 3): -1, (2, 4): 2, (3, 4): 1})
    q = Clique.from_arcs(z, 3, {(1, 3): -1, (1, 4): 1, (2, 3): 1})
    shared = {(2, 4): -1, (2, 6): 2, (3, 4): 1, (5, 6): 1}
    result_h = compose_H(p, q, 2)
    expected_h = LinComb(z, 5, [
        (Clique.from_arcs(z, 5, {**shared, (2, 5): -1}), 1),
        (Clique.from_arcs(z, 5, shared), 2),
        (Clique.from_arcs(z, 5, {**shared, (2, 5): 1}), 1),
    ])
    assert result_h == expected_h
    # the glued labels cancel, so the K rule gives a single term
    result_k = compose_K(p, q, 2)
    assert result_k == LinComb.of(Clique.from_arcs(z, 5, shared))


def test_displayed_H_K_compositions_over_d1(d1):
    zero = d1.elem("0")
    dd = d1.elem("d_1")
    p = Clique.from_arcs(d1, 3, {(2, 3): zero, (2, 4): dd, (3, 4): zero})
    q = Clique.from_arcs(d1, 3, {(1, 3): zero, (1, 4): zero, (2, 3): zero})
    shared = {(2, 4): zero, (2, 6): dd, (3, 4): zero, (5, 6): zero}
    with_glue = {**shared, (2, 5): zero}
    result_h = compose_H(p, q, 2)
    assert result_h == LinComb(d1, 5, [
        (Clique.from_arcs(d1, 5, with_glue), 3),
        (Clique.from_arcs(d1, 5, shared), 1),
    ])
    result_k = compose_K(p, q, 2)
    assert result_k == LinComb(d1, 5, [
        (Clique.from_arcs(d1, 5, with_glue), 1),
        (Clique.from_arcs(d1, 5, shared), 1),
    ])
