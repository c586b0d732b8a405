"""Alternative bases obtained from the label-erasure orders.

One order erases solid edge/base labels, the other erases solid diagonal
labels.  Summing a clique's down-set (unsigned for the first order,
signed by Hamming distance for the second) gives two triangular bases;
Moebius inversion gives the inverse conversions; all four conversions
are one down-set sum accumulated through operad.py's combination core.
Closed composition
formulas in both bases are implemented from their case analyses and are
cross-checked against conversion through the fundamental basis.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, repeat
from math import comb

from .clique import Clique, CliqueError, arc_class, arcs_of
from .operad import LinComb, _accumulate, partial_compose, partial_compose_lin

H_BASIS = "H"
K_BASIS = "K"
FUNDAMENTAL = "fundamental"

_BOUNDARY, _DIAGONAL = 0, 1


@lru_cache(maxsize=1 << 16)
def _erasure_downset(clique, mode):
    """All cliques obtained by erasing subsets of the selected solid arcs,
    the subsets taken by size (the order `_erased_parities` follows).

    Down-sets only erase labels, never invent them, so they are finite
    even over the integer magma; results are memoized per clique.
    """
    unit = clique.magma.unit
    wanted = ("edge", "base") if mode == _BOUNDARY else ("diagonal",)
    positions = [
        idx for idx, ((x, y), lab) in enumerate(zip(arcs_of(clique.arity), clique.labels))
        if lab != unit and arc_class(clique.arity, x, y) in wanted
    ]
    out = []
    for k in range(len(positions) + 1):
        for subset in combinations(positions, k):
            labels = list(clique.labels)
            for idx in subset:
                labels[idx] = unit
            out.append(Clique._unsafe(clique.magma, clique.arity, tuple(labels)))
    return tuple(out)


@lru_cache(maxsize=None)
def _erased_parities(size):
    """For a down-set of `size` = 2^k elements, the parity of the number of
    arcs each element erases, in `_erasure_downset`'s order: one `bytes`
    per size, shared by every down-set of that size."""
    k = size.bit_length() - 1
    return bytes(j % 2 for j in range(k + 1) for _ in range(comb(k, j)))


def below_be(clique):
    """The down-set of a clique for the erase-edges-and-base order."""
    return list(_erasure_downset(clique, _BOUNDARY))


def below_d(clique):
    """The down-set of a clique for the erase-diagonals order."""
    return list(_erasure_downset(clique, _DIAGONAL))


def d_base(clique):
    """The clique with its base label replaced by the unit."""
    return clique.with_label(1, clique.arity + 1, clique.magma.unit)


def d_edge(clique, i):
    """The clique with its i-th edge label replaced by the unit."""
    if clique.arity < 2:
        raise CliqueError("arity-1 clique has no edges")
    return clique.with_label(i, i + 1, clique.magma.unit)


def _downset_sum(f, mode, signed):
    """Replace each term by its down-set for the order `mode`, each element
    signed by the parity of the number of arcs it erases when `signed`."""

    def pairs():
        for clique, coeff in f.terms.items():
            down = _erasure_downset(clique, mode)
            if signed:
                signs = (coeff, -coeff)
                yield from zip(down, map(signs.__getitem__, _erased_parities(len(down))))
            else:
                yield from zip(down, repeat(coeff))

    return LinComb._unsafe((f.magma, f.arity), _accumulate(pairs()))


def from_H(f):
    """Expand an H-tagged combination into the fundamental basis (unsigned down-sets)."""
    return _downset_sum(f, _BOUNDARY, signed=False)


def to_H(f):
    """Write a fundamental combination in the H basis via the signed Moebius sum."""
    return _downset_sum(f, _BOUNDARY, signed=True)


def from_K(f):
    """Expand a K-tagged combination into the fundamental basis (signed down-sets)."""
    return _downset_sum(f, _DIAGONAL, signed=True)


def to_K(f):
    """Write a fundamental combination in the K basis (unsigned Moebius sum)."""
    return _downset_sum(f, _DIAGONAL, signed=False)


def _reject_unit(p, q):
    if p.arity == 1 or q.arity == 1:
        raise CliqueError(
            "composition in the H/K bases is undefined on the arity-1 clique"
        )


def compose_H(p, q, i):
    """Composition of two basis elements in the H basis (four-case formula)."""
    _reject_unit(p, q)
    unit = p.magma.unit
    p_solid = p.edge_label(i) != unit
    q_solid = q.base_label != unit
    terms = [partial_compose(p, q, i)]
    if p_solid:
        terms.append(partial_compose(d_edge(p, i), q, i))
    if q_solid:
        terms.append(partial_compose(p, d_base(q), i))
    if p_solid and q_solid:
        terms.append(partial_compose(d_edge(p, i), d_base(q), i))
    # trusted: the composites share a space, but may coincide (over D:0
    # the glued 0 * 0 is the unerased 0), so they are accumulated
    return LinComb._unsafe((p.magma, p.arity + q.arity - 1), _accumulate(zip(terms, repeat(1))))


def compose_K(p, q, i):
    """Composition of two basis elements in the K basis (two-case formula)."""
    _reject_unit(p, q)
    terms = [partial_compose(p, q, i)]
    if p.magma.op(p.edge_label(i), q.base_label) != p.magma.unit:
        terms.append(partial_compose(d_edge(p, i), d_base(q), i))
    return LinComb._unsafe((p.magma, p.arity + q.arity - 1), _accumulate(zip(terms, repeat(1))))


def compose_in_basis(f, g, i, basis):
    """Compose two combinations read in the given basis, returning the same basis."""
    if basis == FUNDAMENTAL:
        return partial_compose_lin(f, g, i)
    rule = compose_H if basis == H_BASIS else compose_K
    return LinComb._unsafe((f.magma, f.arity + g.arity - 1), _accumulate(
        (r, a * b * c)
        for p, a in f.terms.items()
        for q, b in g.terms.items()
        for r, c in rule(p, q, i).terms.items()
    ))
