"""Partial composition of decorated cliques and its linear extension.

The composition p o_i q glues the base of q onto the i-th edge of p,
labels the glued arc by p_i * q_0, and fills every new diagonal with the
unit.  Each arc of the result reads its label through the index plan
`composition_plan(|p|, |q|, i)` (which also locates p_i and q_0) from
the source tuple `p.labels + q.labels + (glue, unit)`.  The plan is
built once per shape with `clique.index_plan`: its index tuple feeds
the numpy block engine of verify.py, and its compiled picker builds a
single composite in one `itemgetter` call.  Linear
combinations carry exact rational coefficients; mixed-arity sums are
rejected so index bugs surface early.

`_Combination` is the exact free-module core shared by `LinComb` here
and `RatElem` in ratfct.py: every sum and basis conversion feeds its
(element, coefficient) pairs to `_accumulate`.  A coefficient has one
normal form: an `int` when it is integral, a `Fraction` only when its
denominator is above 1; both agree on `==`, `hash` and `str`.
The bilinear products (`partial_compose_lin`, `compose_sum` for the H
and K bases, `star_product` on combinations) sum label rows instead:
`int` numerators over each side's lcm denominator, keyed by the result's
label tuple, divided once and made one trusted `Clique` per distinct row.
`_numerators` and `_from_rows` take the row accessor and the element
class, so the products of ratfct.py sum exponent rows the same way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from math import gcd, lcm
from operator import add, attrgetter, getitem
from typing import Callable, NamedTuple

from .clique import Clique, CliqueError, _arc_at, arcs_of, index_plan, row_width
from .magma import pair_value, unpair_value


class CompositionPlan(NamedTuple):
    arity: int  # n + m - 1
    source: tuple  # per result arc, its label's index in p.labels + q.labels + (glue, unit)
    pick: Callable  # that source tuple -> the result's labels (`index_plan`)
    edge: int  # the index of p's edge (i, i+1) in p.labels
    base: int  # the index of q's base (1, m+1) in q.labels


@lru_cache(maxsize=None)
def composition_plan(n, m, i):
    """The index plan of |p|=n o_i |q|=m.

    With P and Q the label counts of p and q, source index P + Q is the
    glued arc (i, i+m) and P + Q + 1 the unit of every new diagonal.
    """
    if type(i) is not int or not 1 <= i <= n:
        raise CliqueError(f"index {i!r} out of range for arity {n}")
    P, Q = row_width(n), row_width(m)
    plan = []
    for (x, y) in arcs_of(n + m - 1):
        if (x, y) == (i, i + m):
            plan.append(P + Q)
        elif y <= i:
            plan.append(_arc_at(n, x, y))
        elif x <= i and i + m <= y:
            plan.append(_arc_at(n, x, y - m + 1))
        elif i + m <= x:
            plan.append(_arc_at(n, x - m + 1, y - m + 1))
        elif i <= x and y <= i + m:
            plan.append(P + _arc_at(m, x - i + 1, y - i + 1))
        else:
            plan.append(P + Q + 1)
    # at arity 1 the one arc (1, 2) is both the edge and the base
    return CompositionPlan(
        *index_plan(n + m - 1, plan), _arc_at(n, i, i + 1), _arc_at(m, 1, m + 1),
    )


def composable_pairs(max_arity):
    """Arity pairs (n, m), n-major, whose composite arity n + m - 1 stays within the bound."""
    return [
        (n, m)
        for n in range(1, max_arity + 1)
        for m in range(1, max_arity + 2 - n)
    ]


_new = object.__new__


def partial_compose(p, q, i):
    """The clique p o_i q of arity |p| + |q| - 1."""
    magma = p.magma
    if magma is not q.magma and magma != q.magma:
        raise CliqueError("cannot compose cliques over different magmas")
    arity, _, pick, edge, base = composition_plan(p.arity, q.arity, i)
    a, b = p.labels, q.labels
    # the kernel of every composition loop, so it reads a finite carrier's
    # table, which `magma.op` reads too, and fills the slots of
    # `Clique._unsafe` itself
    table = magma.table
    glue = table[a[edge]][b[base]] if table is not None else magma.op(a[edge], b[base])
    result = _new(Clique)
    result.magma = magma
    result.arity = arity
    result.labels = pick(a + b + (glue, magma.unit))
    result._hash = None
    return result


def compose_glued(p, q, i, glue):
    """p o_i q with the glued arc labeled `glue` (p_i * q_0 in `partial_compose`),
    for mutation tests (trusted: p, q and `glue` share a magma)."""
    plan = composition_plan(p.arity, q.arity, i)
    return Clique._unsafe(
        p.magma, plan.arity, plan.pick(p.labels + q.labels + (glue, p.magma.unit)),
    )


def _exact(value):
    """An `int` or `Fraction` in normal form: an `int` when it is integral."""
    return value.numerator if value.denominator == 1 else value


def decimal(value):
    """The `str` of an int or a `Fraction`, exact at any size.

    Python refuses to convert an int of more than 4300 digits (by default)
    to a string.  An int of at most 2000 bits has at most 603 digits, under
    the least value that limit may be set to (640), and is written by
    `str`; a larger one is split by `divmod` with a power of ten and each
    part written on its own, so no process-wide setting is read or changed.
    """
    if value.denominator != 1:
        return f"{decimal(value.numerator)}/{decimal(value.denominator)}"
    value = value.numerator
    if value < 0:
        return "-" + decimal(-value)
    if value.bit_length() <= 2000:
        return str(value)
    digits = value.bit_length() * 3 // 20  # about half its digits: log10(2) > 0.3
    high, low = divmod(value, 10 ** digits)
    return decimal(high) + decimal(low).zfill(digits)


def _accumulate(pairs):
    """Sum (key, value) pairs into one dict and drop the keys whose sum is
    zero; each sum is stored in the normal form of `_exact`."""
    acc = {}
    for key, value in pairs:
        if key in acc:
            acc[key] += value
        else:
            acc[key] = value
    # `_exact` inlined: this pass runs once per stored term
    return {
        key: value.numerator if value.denominator == 1 else value
        for key, value in acc.items() if value
    }


class _Combination:
    """A finite combination with exact coefficients: an element of the free
    module over the rationals on some basis.

    `terms` maps basis elements to nonzero coefficients in normal form:
    an `int` when integral, else a `Fraction`.  A subclass names
    in `_SPACE` the attributes that fix its space, which every basis
    element must share; it raises `_ERROR` on mixing spaces and gives the
    print order of its basis elements in `_order`.
    """

    __slots__ = ("terms",)
    _SPACE = ()
    _ERROR = ValueError

    def _validated(self, terms):
        space = self._space
        items = terms.items() if isinstance(terms, dict) else terms
        pairs = []
        for key, coeff in items:
            found = tuple(getattr(key, name) for name in self._SPACE)
            if found != space:
                raise self._ERROR(
                    f"mixed {'/'.join(self._SPACE)} in combination: {found} vs {space}"
                )
            # Fraction() refuses NaN, infinities and non-numeric strings;
            # _accumulate stores the normal form
            pairs.append((key, Fraction(coeff)))
        return _accumulate(pairs)

    @classmethod
    def _unsafe(cls, space, terms):
        # trusted fast path: `terms` is zero-free and every key lies in `space`
        self = object.__new__(cls)
        for name, value in zip(cls._SPACE, space):
            setattr(self, name, value)
        self.terms = terms
        return self

    @property
    def _space(self):
        return tuple(getattr(self, name) for name in self._SPACE)

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: self._order(kv[0]))

    def is_zero(self):
        return not self.terms

    def coefficient(self, key):
        return self.terms.get(key, 0)

    def __add__(self, other):
        if type(other) is not type(self) or other._space != self._space:
            raise self._ERROR(
                f"cannot add combinations over different spaces: {self._space} "
                f"and {getattr(other, '_space', type(other).__name__)}"
            )
        return self._unsafe(
            self._space, _accumulate(chain(self.terms.items(), other.terms.items()))
        )

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = _exact(Fraction(scalar))
        terms = {k: _exact(scalar * v) for k, v in self.terms.items()} if scalar else {}
        return self._unsafe(self._space, terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._space == other._space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._space, frozenset(self.terms.items())))


class LinComb(_Combination):
    """A finite rational combination of same-arity cliques over one magma.

    Zero coefficients are never stored; iteration order is the canonical
    clique order, so equal combinations print identically.
    """

    __slots__ = ("magma", "arity")
    _SPACE = ("magma", "arity")
    _ERROR = CliqueError

    def __init__(self, magma, arity, terms=()):
        row_width(arity)
        self.magma = magma
        self.arity = arity
        self.terms = self._validated(terms)

    @staticmethod
    def _order(clique):
        return clique.labels

    @staticmethod
    def of(clique, coeff=1):
        # an int is already in normal form; Fraction() validates the rest
        coeff = coeff if type(coeff) is int else _exact(Fraction(coeff))
        return LinComb._unsafe((clique.magma, clique.arity), {clique: coeff} if coeff else {})

    @staticmethod
    def zero(magma, arity):
        return LinComb(magma, arity)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{decimal(v)}*{c!r}" for c, v in self.items())


_LABELS, _DENOMINATOR = attrgetter("labels"), attrgetter("denominator")


def _numerators(f, row=_LABELS):
    """f's terms as (row, numerator) pairs over one common denominator, the
    lcm of f's denominators, and that denominator; `row` reads a term's row
    of ints (a clique's labels, an interval product's exponents)."""
    den = lcm(*map(_DENOMINATOR, f.terms.values()))
    return [(row(p), c.numerator * (den // c.denominator)) for p, c in f.terms.items()], den


def _by_label(rows, index):
    """The rows grouped by their label at `index`."""
    groups = {}
    for row in rows:
        groups.setdefault(row[0][index], []).append(row)
    return groups


def _from_rows(combination, element, space, acc, den):
    """The `combination` over `space` of {row: numerator} over the
    denominator `den`: each nonzero numerator divided once into the normal
    form of `_exact`, on the term `element._unsafe(*space, row)`."""
    make = partial(element._unsafe, *space)
    terms = {}
    for row, v in acc.items():
        if v:
            k = gcd(v, den)
            terms[make(row)] = v // k if k == den else Fraction(v // k, den // k)
    return combination._unsafe(space, terms)


def _glue(magma, a, b):
    """The glued-arc label of p o_i q, a = p_i and b = q_0: p_i * q_0."""
    return (magma.op(a, b),)


def compose_sum(f, g, i, glues):
    """The sum of a*b * (p o_i q with its glued arc labeled c) over the terms
    a*p of f, b*q of g and the labels c in glues(magma, p_i, q_0).

    p's edge i and q's base appear nowhere else in the composite, so the
    glues are found once per pair of row groups: f's by p_i, g's by q_0.
    """
    magma = f.magma
    if magma != g.magma:
        raise CliqueError("cannot compose combinations over different magmas")
    arity, _, pick, edge, base = composition_plan(f.arity, g.arity, i)
    unit = magma.unit
    rows_f, den_f = _numerators(f)
    rows_g, den_g = _numerators(g)
    by_base = _by_label(rows_g, base)
    acc = {}
    get = acc.get
    for a_edge, p_rows in _by_label(rows_f, edge).items():
        for b_base, q_rows in by_base.items():
            for glue in glues(magma, a_edge, b_base):
                tail = (glue, unit)
                q_tails = [(b + tail, y) for b, y in q_rows]
                for a, x in p_rows:
                    for b, y in q_tails:
                        row = pick(a + b)
                        acc[row] = get(row, 0) + x * y
    return _from_rows(LinComb, Clique, (magma, arity), acc, den_f * den_g)


def partial_compose_lin(f, g, i):
    """Bilinear extension of partial composition, canonicalized."""
    return compose_sum(f, g, i, _glue)


def _left_factor(magma, labels):
    """(left, op) with tuple(map(op, left, b)) the arcwise product of the label
    row `labels` with b: the table rows of a finite carrier, read once, or the
    integers added."""
    table = magma.table
    if table is None:
        return labels, add
    return tuple(map(table.__getitem__, labels)), getitem


def star_product(f, g):
    """Arcwise magma product, extended bilinearly to combinations."""
    if isinstance(f, Clique) and isinstance(g, Clique):
        if f.arity != g.arity or f.magma != g.magma:
            raise CliqueError("arcwise product needs equal arities and magmas")
        left, op = _left_factor(f.magma, f.labels)
        return Clique._unsafe(f.magma, f.arity, tuple(map(op, left, g.labels)))
    if isinstance(f, Clique):
        f = LinComb.of(f)
    if isinstance(g, Clique):
        g = LinComb.of(g)
    if f.arity != g.arity or f.magma != g.magma:
        raise CliqueError("arcwise product needs equal arities and magmas")
    rows_f, den_f = _numerators(f)
    rows_g, den_g = _numerators(g)
    acc = {}
    get = acc.get
    for a, x in rows_f:
        left, op = _left_factor(f.magma, a)
        for b, y in rows_g:
            row = tuple(map(op, left, b))
            acc[row] = get(row, 0) + x * y
    return _from_rows(LinComb, Clique, (f.magma, f.arity), acc, den_f * den_g)


def zip_cliques(product_magma, p1, p2):
    """Pair two same-arity cliques into one over the product magma."""
    if p1.arity != p2.arity:
        raise CliqueError("can only pair cliques of equal arities")
    m1, m2 = product_magma.factors or (None, None)
    if (m1, m2) != (p1.magma, p2.magma):
        raise CliqueError("product magma factors do not match the cliques")
    labels = tuple(
        pair_value(product_magma, a, b) for a, b in zip(p1.labels, p2.labels)
    )
    return Clique._unsafe(product_magma, p1.arity, labels)


def unzip_clique(clique):
    """Split a product-magma clique back into its two components."""
    magma = clique.magma
    if magma.factors is None:
        raise CliqueError(f"{magma.name} is not a product magma")
    m1, m2 = magma.factors
    pairs = [unpair_value(magma, lab) for lab in clique.labels]
    left = Clique._unsafe(m1, clique.arity, tuple(a for a, _ in pairs))
    right = Clique._unsafe(m2, clique.arity, tuple(b for _, b in pairs))
    return left, right
