"""Exact arithmetic in the interval-power fragment of rational functions.

Elements are rational combinations of products of interval sums
(u_x + ... + u_{y-1}) raised to integer exponents; `RatElem` shares the
exact combination core of operad.py with `LinComb`.  A product is its
exponent row: the exponent of [x, y) for each arc (x, y) of `arcs_of`.
Under the identity rank that row is a clique's label row, so
`interval_map` is one `rank.of_labels` call; products multiply arcwise,
and the substitution-based partial composition is one pick through
`_row_plan`, the `_reindex` table compiled per shape.  `rf_compose` and
`RatElem` products sum `int` numerators keyed by exponent row, through the
row helpers of operad.py; a product with a one-term side has nothing to
sum.  The fragment carries the clique morphism built from a rank
function, which `verify_rf_morphism` checks on label blocks through
`verify.slab_laws`, scattering `_row_plan` with `verify._apply_plan`.
It admits an exact zero test: evaluation at a random point of F_p,
p = 2^61 - 1, can only prove an element nonzero (a nonzero residue is a
nonzero value), and "zero" is decided by clearing denominators and
expanding the numerator as a multivariate polynomial with `int`
coefficients and packed `int` monomial keys.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, product as iproduct
from math import lcm
from operator import add, attrgetter, neg

from .clique import Clique, arc_position, arcs_of, index_plan, relabel, row_width
from .magma import MagmaError, MagmaMorphism, RankFunction, UnitaryMagma
from .operad import (
    CompositionPlan, LinComb, _accumulate, _Combination, _exact, _from_rows,
    _new, _numerators, star_product,
)
from .report import VerifyReport
from .verify import _apply_plan, _compose_block, slab_laws


class RatFctError(ValueError):
    """Index out of range, objects from incompatible arities, or a malformed product."""


class IntervalProduct:
    """A product of interval sums with integer exponents, stored as its
    exponent row in `arcs_of(arity)` order (0 for an absent interval).

    Two products are equal as rational functions iff their rows are
    equal, because distinct interval sums are pairwise non-proportional
    irreducible linear forms.  `powers`, the sorted ((x, y), exponent)
    pairs with a nonzero exponent, is a cached view of the row that
    printing and the term order of `RatElem` read.  The constructor adds
    the exponents of a repeated interval, takes `int` exponents only, and
    checks the arity and each interval [x, y) by the rules of clique.py,
    `row_width` and `arc_position`, raising `RatFctError`.
    """

    __slots__ = ("arity", "row", "_powers", "_hash")

    def __init__(self, arity, powers):
        row = [0] * row_width(arity, RatFctError, "exponent")
        try:
            items = iter(powers.items() if isinstance(powers, dict) else powers)
        except TypeError:
            raise RatFctError(
                f"powers must be a dict or an iterable of pairs, not {powers!r}"
            ) from None
        for item in items:
            try:
                (x, y), exponent = item
            except (TypeError, ValueError):
                raise RatFctError(f"{item!r} is not an ((x, y), exponent) pair") from None
            if type(exponent) is not int:
                raise RatFctError(f"exponent {exponent!r} of {(x, y)} is not an int")
            row[arc_position(arity, (x, y), RatFctError)] += exponent
        self.arity = arity
        self.row = tuple(row)
        self._powers = self._hash = None

    @staticmethod
    def one(arity):
        return IntervalProduct(arity, ())

    @classmethod
    def _unsafe(cls, arity, row):
        # trusted fast path: `row` is a tuple of ints in arcs_of(arity) order
        self = object.__new__(cls)
        self.arity = arity
        self.row = row
        self._powers = self._hash = None
        return self

    @property
    def powers(self):
        if self._powers is None:
            self._powers = tuple(compress(zip(arcs_of(self.arity), self.row), self.row))
        return self._powers

    def multiply(self, other):
        if self.arity != other.arity:
            raise RatFctError("cannot multiply products of different arities")
        return IntervalProduct._unsafe(self.arity, tuple(map(add, self.row, other.row)))

    def inverse(self):
        return IntervalProduct._unsafe(self.arity, tuple(map(neg, self.row)))

    def __eq__(self, other):
        # rows of different arities differ in length, so the row decides
        return isinstance(other, IntervalProduct) and self.row == other.row

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.row)
        return self._hash

    def __repr__(self):
        return f"IntervalProduct({self.arity}, {self.powers})"


_ROW = attrgetter("row")


class RatElem(_Combination):
    """A finite rational combination of interval products, one arity."""

    __slots__ = ("arity",)
    _SPACE = ("arity",)
    _ERROR = RatFctError

    def __init__(self, arity, terms=()):
        row_width(arity, RatFctError, "exponent")
        self.arity = arity
        self.terms = self._validated(terms)

    @staticmethod
    def _order(prod):
        return prod.powers

    @staticmethod
    def one(arity):
        return RatElem(arity, [(IntervalProduct.one(arity), 1)])

    @staticmethod
    def of(prod, coeff=1):
        return RatElem(prod.arity, [(prod, coeff)])

    def __mul__(self, other):
        if self.arity != other.arity:
            raise RatFctError("cannot multiply rational elements of different arities")
        f, g = (other, self) if len(other.terms) == 1 else (self, other)
        if len(f.terms) == 1:
            # multiplying by one product is injective, so no two terms meet
            # and nothing needs summing
            (p, a), = f.terms.items()
            return RatElem._unsafe((self.arity,), {
                p.multiply(q): _exact(a * b) for q, b in g.terms.items()
            })
        rows_f, den_f = _numerators(f, _ROW)
        rows_g, den_g = _numerators(g, _ROW)
        acc = {}
        get = acc.get
        for a, x in rows_f:
            for b, y in rows_g:
                row = tuple(map(add, a, b))
                acc[row] = get(row, 0) + x * y
        return _from_rows(RatElem, IntervalProduct, (self.arity,), acc, den_f * den_g)

    def __repr__(self):
        return format_rat_elem(self)


def _reindex(n, m, i):
    """Where substituting an arity-m block into slot i of arity n sends the
    intervals of the outer product and those of the inner one."""
    outer = {}
    for x, y in arcs_of(n):
        if y - 1 < i:
            outer[(x, y)] = (x, y)
        elif x > i:
            outer[(x, y)] = (x + m - 1, y + m - 1)
        else:
            outer[(x, y)] = (x, y + m - 1)
    inner = {(x, y): (x + i - 1, y + i - 1) for x, y in arcs_of(m)}
    return outer, inner


@lru_cache(maxsize=None)
def _row_plan(n, m, i):
    """`_reindex(n, m, i)` compiled into the plan of a composite's exponent
    row over `a + b + (glue, 0)`, with a and b the two rows.  Both
    reindexings are injective, so only the one outer and the one inner
    interval sent to the same place meet; `edge` and `base` are their
    indices in a and b, and the glue is a[edge] + b[base]."""
    outer, inner = _reindex(n, m, i)
    P, Q = len(outer), len(inner)
    source = {outer[arc]: k for k, arc in enumerate(arcs_of(n))}
    for k, arc in enumerate(arcs_of(m)):
        target = inner[arc]
        if target in source:
            edge, base = source[target], k
            source[target] = P + Q
        else:
            source[target] = P + k
    return CompositionPlan(*index_plan(
        n + m - 1, [source.get(arc, P + Q + 1) for arc in arcs_of(n + m - 1)],
    ), edge, base)


def compose_product(prod, other, i):
    """Partial composition of two single interval products: substitute
    `other` (arity m) into slot i of `prod`, one pick."""
    if not 1 <= i <= prod.arity:
        raise RatFctError(f"index {i} out of range for arity {prod.arity}")
    arity, _, pick, edge, base = _row_plan(prod.arity, other.arity, i)
    a, b = prod.row, other.row
    # fills the slots of `IntervalProduct._unsafe` itself, as
    # `partial_compose` does for `Clique`
    result = _new(IntervalProduct)
    result.arity = arity
    result.row = pick(a + b + (a[edge] + b[base], 0))
    result._powers = result._hash = None
    return result


def rf_compose(f, g, i):
    """Partial composition: substitute the sum block for slot i and multiply.

    As `operad.compose_sum` does for cliques, the coefficients are summed as
    `int` numerators over each side's lcm denominator, keyed by the
    composite's exponent row, and divided once per distinct row.
    """
    if not 1 <= i <= f.arity:
        raise RatFctError(f"index {i} out of range for arity {f.arity}")
    arity, _, pick, edge, base = _row_plan(f.arity, g.arity, i)
    rows_f, den_f = _numerators(f, _ROW)
    rows_g, den_g = _numerators(g, _ROW)
    acc = {}
    get = acc.get
    for a, x in rows_f:
        a_edge = a[edge]
        for b, y in rows_g:
            row = pick(a + b + (a_edge + b[base], 0))
            acc[row] = get(row, 0) + x * y
    return _from_rows(RatElem, IntervalProduct, (arity,), acc, den_f * den_g)


def interval_map(clique, rank):
    """The map taking a clique to its single interval product under a rank
    function: the row of exponents is the clique's row of ranks."""
    if rank.magma is not clique.magma and rank.magma != clique.magma:
        raise MagmaError("rank function does not belong to the clique's magma")
    result = _new(IntervalProduct)
    result.arity = clique.arity
    result.row = rank.of_labels(clique.labels)
    result._powers = result._hash = None
    return result


def rf_image(f, rank):
    """Linear extension of the clique-to-rational-function morphism."""
    if isinstance(f, LinComb):
        return RatElem._unsafe((f.arity,), _accumulate(
            (interval_map(clique, rank), coeff) for clique, coeff in f.terms.items()
        ))
    return RatElem._unsafe((f.arity,), {interval_map(f, rank): 1})


def kernel_examples():
    """Two integer-clique combinations whose images under the identity rank
    are zero: a triangle relation and an arity-3 relation."""
    z = UnitaryMagma.integers()
    triangle = (
        LinComb.of(Clique.triangle(z, 1, 0, 0))
        - LinComb.of(Clique.triangle(z, 0, 1, 0))
        - LinComb.of(Clique.triangle(z, 0, 0, 1))
    )
    arity3 = (
        LinComb.of(Clique.from_arcs(z, 3, {(2, 3): -1, (3, 4): -1}))
        - LinComb.of(Clique.from_arcs(z, 3, {(2, 4): -1, (3, 4): -1}))
        - LinComb.of(Clique.from_arcs(z, 3, {(2, 3): -1, (2, 4): -1}))
    )
    return triangle, arity3


def verify_rf_kernel():
    """Each of `kernel_examples()` has the exactly zero image under the
    identity rank."""
    rank = RankFunction.identity()
    checked = 0
    for example in kernel_examples():
        checked += 1
        if not rf_is_zero(rf_image(example, rank)):
            return VerifyReport(
                "ratfct-kernel", False, checked, f"image of {example!r} is not zero",
            )
    return VerifyReport("ratfct-kernel", True, checked, None)


# -- exact zero test -----------------------------------------------------------


def rf_expand_cleared(f):
    """Clear denominators with the least common interval multiple, expand, and
    sum: the numerator polynomial as {exponent tuple: coefficient}.

    Coefficients are summed as `int`s over their lcm denominator and divided
    once at the end.  A monomial is keyed by one `int` packing its exponent
    vector in fields of `width` bits, wide enough for the largest total
    degree, so adding two keys adds their exponent vectors without a carry.
    Interval powers are expanded once per call.
    """
    arity = f.arity
    arcs = arcs_of(arity)
    need = (0,) * len(arcs)
    for prod in f.terms:
        need = tuple(map(max, need, map(neg, prod.row)))
    den = lcm(*(c.denominator for c in f.terms.values()))
    cleared = [(tuple(map(add, need, prod.row)), c.numerator * (den // c.denominator))
               for prod, c in f.terms.items()]
    width = max((sum(row) for row, _ in cleared), default=0).bit_length() or 1
    powers = {}  # (arc index, exponent) -> {key: int}

    def power(k, e):
        poly = powers.get((k, e))
        if poly is None:
            x, y = arcs[k]
            poly = dict.fromkeys([1 << (width * (var - 1)) for var in range(x, y)], 1)
            if e > 1:
                poly = _poly_times(power(k, e - 1), poly)
            powers[k, e] = poly
        return poly

    acc = {}
    get = acc.get
    for row, coeff in cleared:
        poly = {0: coeff}
        for k, e in enumerate(row):
            if e < 0:
                raise AssertionError("denominator clearing left a negative power")
            if e:
                poly = _poly_times(poly, power(k, e))
        for key, value in poly.items():
            acc[key] = get(key, 0) + value
    mask = (1 << width) - 1
    shifts = range(0, width * arity, width)
    return {
        tuple((key >> shift) & mask for shift in shifts):
            value // den if value % den == 0 else Fraction(value, den)
        for key, value in acc.items() if value
    }


def _poly_times(p, q):
    """The product of two polynomials keyed by packed exponent vectors."""
    product = {}
    get = product.get
    for ka, ca in p.items():
        for kb, cb in q.items():
            key = ka + kb
            product[key] = get(key, 0) + ca * cb
    return product


def rf_evaluate(f, point):
    """Evaluate at a rational point; raises ZeroDivisionError on a pole."""
    arcs = arcs_of(f.arity)
    # the interval sum over [x, y) is prefix[y - 1] - prefix[x - 1]
    prefix = list(accumulate(point, initial=Fraction(0)))
    total = Fraction(0)
    for prod, coeff in f.terms.items():
        value = coeff
        for (x, y), e in compress(zip(arcs, prod.row), prod.row):
            value *= (prefix[y - 1] - prefix[x - 1]) ** e
        total += value
    return total


# the Mersenne prime 2^61 - 1: the field of the nonzero certificate
_P = (1 << 61) - 1


def _draw_point(rng, arity):
    """A random point of F_p^arity, as 61-bit ints."""
    return [rng.getrandbits(61) for _ in range(arity)]


def rf_probably_zero(f, samples=20, seed=0):
    """False when evaluating f at one of `samples` random points of F_p,
    p = 2^61 - 1, gives a nonzero residue; True when none does.

    False is a proof that f is not zero.  Reduction mod p is a ring map
    from the rationals whose denominators p does not divide onto F_p, so
    at an integer point where no interval sum with a negative exponent
    vanishes mod p, f's value lies in that ring and its residue is the
    residue computed here; a nonzero residue means a nonzero value.
    A point where such an interval sum vanishes mod p is redrawn, and a
    coefficient denominator that p divides gives no certificate (True).
    True is only evidence: a nonzero f whose cleared numerator has degree
    d vanishes at a random point with probability about d/p at most.
    """
    p = _P
    arcs = arcs_of(f.arity)
    width = len(arcs)
    terms = []  # (coefficient mod p, factors); factor (k, e) reads bases[k] ** e
    for prod, coeff in f.terms.items():
        den = coeff.denominator
        if den % p == 0:
            return True
        terms.append((coeff.numerator * pow(den, -1, p) if den > 1 else coeff, [
            # bases[k] is arc k's value and bases[width + k] its inverse
            (k, e) if e > 0 else (width + k, -e)
            for k, e in compress(enumerate(prod.row), prod.row)
        ]))
    poles = sorted({k - width for _, factors in terms for k, _ in factors if k >= width})
    rng = random.Random(seed)
    for _ in range(samples):
        for _attempt in range(100):
            # the interval sum over [x, y) is prefix[y - 1] - prefix[x - 1]
            prefix = list(accumulate(_draw_point(rng, f.arity), initial=0))
            values = [(prefix[y - 1] - prefix[x - 1]) % p for x, y in arcs]
            if all(values[k] for k in poles):
                break
        else:
            raise RuntimeError("could not find a pole-free evaluation point")
        bases = values + values
        for k in poles:
            bases[width + k] = pow(values[k], -1, p)
        total = 0
        for value, factors in terms:
            for k, e in factors:
                value *= bases[k] if e == 1 else pow(bases[k], e, p)
            total += value % p
        if total % p:
            return False
    return True


def rf_is_zero(f, seed=0):
    """Exact zero decision.  A nonzero residue mod p at one random point
    (`rf_probably_zero`) proves f nonzero; otherwise the cleared numerator
    is expanded.  More points would only catch the nonzero f that vanish
    at the first, with probability at most deg/p, which the expansion
    decides anyway."""
    if not f.terms:
        return True
    if not rf_probably_zero(f, samples=1, seed=seed):
        return False
    return not rf_expand_cleared(f)


class _ZSum:
    """The star table of integer addition for `_apply_plan`: indexing it
    with two label arrays adds them, in a dtype that holds every sum."""

    def __init__(self, dtype):
        self.dtype = dtype

    def __getitem__(self, pair):
        return pair[0] + pair[1]


def verify_rf_morphism(labels=(-1, 0, 1), max_arity=3):
    """Exhaustively check image(p o_i q) = image(p) o_i image(q) on integer
    cliques with the given labels, all arities up to the bound, all i,
    comparing label blocks slab by slab.

    Under the identity rank an interval product's exponent row is the
    clique's label row.  Both sides scatter the two label blocks with
    `_apply_plan` and the glue p_i + q_0: the clique side through
    `composition_plan`, the rational-function side through `_row_plan`,
    compiled from `_reindex`.
    """
    import numpy as np

    z = UnitaryMagma.integers()
    pools = {1: [Clique.unit(z)]}
    for n in range(2, max_arity + 1):
        pools[n] = [
            Clique._unsafe(z, n, labs)
            for labs in iproduct(labels, repeat=len(arcs_of(n)))
        ]
    bound = max(abs(lab) for pool in pools.values() for p in pool for lab in p.labels)
    star = _ZSum(np.min_scalar_type(-2 * bound - 1))
    blocks = {n: np.array([p.labels for p in pool], dtype=star.dtype)
              for n, pool in pools.items()}

    def broken(n, m, i, rows):
        X, Y = blocks[n][rows], blocks[m]
        return _compose_block(X, n, Y, m, i, star) != _apply_plan(X, Y, _row_plan(n, m, i), star)

    def describe(p, i, q):
        return f"image of {p!r} o_{i} {q!r} is not the composition of the images"

    return slab_laws("ratfct-morphism", [
        ([(n, m) for n in pools for m in pools], pools, pools, broken, describe),
    ])


def verify_rf_laws(max_arity=4, samples=500, seed=0):
    """Sampled checks of the three laws tying cliques to rational functions.

    (a) the image of an arcwise product is the product of the images;
    (b) negating every label inverts the image;
    (c) every Laurent monomial is the image of an explicit bubble.
    """
    z = UnitaryMagma.integers()
    identity_rank = RankFunction.identity()
    negate = MagmaMorphism.negation()
    rng = random.Random(seed)
    checked = 0

    def random_clique(arity):
        if arity == 1:
            return Clique.unit(z)
        labels = tuple(rng.randint(-2, 2) for _ in range(len(arcs_of(arity))))
        return Clique._unsafe(z, arity, labels)

    for _ in range(samples):
        arity = rng.randint(1, max_arity)
        p = random_clique(arity)
        q = random_clique(arity)
        checked += 1
        if rf_image(p, identity_rank) * rf_image(q, identity_rank) != rf_image(
            star_product(p, q), identity_rank
        ):
            return VerifyReport(
                "ratfct-laws", False, checked,
                f"multiplicativity fails on {p!r} * {q!r}",
            )
        checked += 1
        image = interval_map(p, identity_rank)
        if interval_map(relabel(p, negate), identity_rank) != image.inverse():
            return VerifyReport(
                "ratfct-laws", False, checked, f"inverse law fails on {p!r}"
            )
        variables = rng.randint(1, max_arity)
        exponents = [rng.randint(-3, 3) for _ in range(variables)]
        bubble_arcs = {
            (pos, pos + 1): alpha
            for pos, alpha in enumerate(exponents, start=1) if alpha
        }
        bubble = Clique.from_arcs(z, variables + 1, bubble_arcs)
        monomial = IntervalProduct(
            variables + 1,
            {(pos, pos + 1): alpha for pos, alpha in enumerate(exponents, start=1)},
        )
        checked += 1
        if interval_map(bubble, identity_rank) != monomial:
            return VerifyReport(
                "ratfct-laws", False, checked,
                f"Laurent construction fails on exponents {exponents}",
            )
    return VerifyReport("ratfct-laws", True, checked, None)


# -- rendering -----------------------------------------------------------------


def _format_interval(interval, exponent):
    x, y = interval
    if y == x + 1:
        body = f"u_{x}"
    else:
        body = "(" + " + ".join(f"u_{v}" for v in range(x, y)) + ")"
    return body if exponent == 1 else f"{body}^{exponent}"


def format_rat_elem(f):
    if not f.terms:
        return "0"
    chunks = []
    for prod, coeff in f.items():
        if not prod.powers:
            chunks.append(str(coeff))
            continue
        body = " ".join(_format_interval(iv, e) for iv, e in prod.powers)
        if coeff == 1:
            chunks.append(body)
        elif coeff == -1:
            chunks.append(f"-{body}")
        else:
            chunks.append(f"{coeff} {body}")
    return " + ".join(chunks).replace("+ -", "- ")
