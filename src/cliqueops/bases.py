"""Alternative bases obtained from the label-erasure orders.

One order erases solid edge/base labels, the other erases solid diagonal
labels.  Summing a clique's down-set (unsigned for the first order,
signed by Hamming distance for the second) gives two triangular bases;
Moebius inversion gives the inverse conversions; all four conversions
are one down-set sum accumulated through operad.py's combination core.

Composition in either basis is a glue rule: erasing p's edge i or q's
base changes only the glued arc of p o_i q, so each basis lists the
labels that arc takes, from a = p_i and b = q_0.  H: a * b; b when a is
solid; a when b is solid; the unit when both are.  K: a * b; the unit
when a * b is not.  `operad.compose_sum` sums the composites on label
rows; the rules are cross-checked against conversion through the
fundamental basis (acceptance criterion 4).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, repeat
from math import comb

from .clique import Clique, CliqueError, arc_class, arcs_of
from .operad import LinComb, _accumulate, compose_sum, partial_compose_lin

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


def _h_glues(magma, a, b):
    """The H glue labels for a = p_i, b = q_0: a * b, then with p's edge i,
    q's base, or both erased where solid."""
    unit = magma.unit
    glues = [magma.op(a, b)]
    if a != unit:
        glues.append(b)
    if b != unit:
        glues.append(a)
    if a != unit and b != unit:
        glues.append(unit)
    return glues


def _k_glues(magma, a, b):
    """The K glue labels for a = p_i, b = q_0: a * b, then with both
    erased unless a * b is the unit."""
    glue = magma.op(a, b)
    return (glue,) if glue == magma.unit else (glue, magma.unit)


_GLUES = {H_BASIS: _h_glues, K_BASIS: _k_glues}


def compose_in_basis(f, g, i, basis):
    """Compose two combinations read in the given basis, returning the same basis."""
    if basis == FUNDAMENTAL:
        return partial_compose_lin(f, g, i)
    if f.arity == 1 or g.arity == 1:
        raise CliqueError(
            "composition in the H/K bases is undefined on the arity-1 clique"
        )
    return compose_sum(f, g, i, _GLUES[basis])


def compose_H(p, q, i):
    """Composition of two basis elements in the H basis (four-case formula)."""
    return compose_in_basis(LinComb.of(p), LinComb.of(q), i, H_BASIS)


def compose_K(p, q, i):
    """Composition of two basis elements in the K basis (two-case formula)."""
    return compose_in_basis(LinComb.of(p), LinComb.of(q), i, K_BASIS)
