"""Exact arithmetic in the interval-power fragment of rational functions.

Elements are rational combinations of products of interval sums
(u_x + ... + u_{y-1}) raised to integer exponents; `RatElem` shares the
exact combination core of operad.py with `LinComb`.  The fragment is
closed under the substitution-based partial composition, carries the
clique morphism built from a rank function, and admits an exact zero
test by clearing denominators and expanding numerators as multivariate
polynomials.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, product as iproduct

from .clique import Clique, arc_index, arcs_of, relabel
from .magma import MagmaError, MagmaMorphism, RankFunction, UnitaryMagma
from .operad import (
    LinComb, _accumulate, _Combination, star_product,
)
from .report import VerifyReport


class RatFctError(ValueError):
    """Index out of range or objects from incompatible arities."""


class IntervalProduct:
    """A product of interval sums with nonzero integer exponents.

    Two products are equal as rational functions iff their exponent maps
    are equal, because distinct interval sums are pairwise
    non-proportional irreducible linear forms.
    """

    __slots__ = ("arity", "powers", "_hash")

    def __init__(self, arity, powers):
        cleaned = []
        for (x, y), exponent in (powers.items() if isinstance(powers, dict) else powers):
            if exponent == 0:
                continue
            if not 1 <= x < y <= arity + 1:
                raise RatFctError(f"[{x},{y}) is not an interval at arity {arity}")
            cleaned.append(((x, y), int(exponent)))
        cleaned.sort()
        self.arity = arity
        self.powers = tuple(cleaned)
        self._hash = None

    @staticmethod
    def one(arity):
        return IntervalProduct(arity, ())

    @classmethod
    def _unsafe(cls, arity, sorted_powers):
        # trusted fast path: powers already sorted, zero-free, in range
        self = object.__new__(cls)
        self.arity = arity
        self.powers = sorted_powers
        self._hash = None
        return self

    def exponent(self, interval):
        for iv, e in self.powers:
            if iv == interval:
                return e
        return 0

    def multiply(self, other):
        if self.arity != other.arity:
            raise RatFctError("cannot multiply products of different arities")
        return IntervalProduct(self.arity, _accumulate(chain(self.powers, other.powers)))

    def inverse(self):
        return IntervalProduct(self.arity, {iv: -e for iv, e in self.powers})

    def __eq__(self, other):
        return (
            isinstance(other, IntervalProduct)
            and self.arity == other.arity
            and self.powers == other.powers
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.arity, self.powers))
        return self._hash

    def __repr__(self):
        return f"IntervalProduct({self.arity}, {self.powers})"


class RatElem(_Combination):
    """A finite rational combination of interval products, one arity."""

    __slots__ = ("arity",)
    _SPACE = ("arity",)
    _ERROR = RatFctError

    def __init__(self, arity, terms=()):
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
        return RatElem._unsafe((self.arity,), _accumulate(
            (p.multiply(q), a * b)
            for p, a in self.terms.items() for q, b in other.terms.items()
        ))

    def __repr__(self):
        return format_rat_elem(self)


@lru_cache(maxsize=None)
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


def _compose_product(prod, other, i):
    """Substitute `other` (arity m) into slot i of `prod`, reindexing intervals."""
    outer, inner = _reindex(prod.arity, other.arity, i)
    # both reindexings are injective, so only an outer and an inner
    # interval can meet (on the glued interval)
    powers = {outer[iv]: e for iv, e in prod.powers}
    for iv, e in other.powers:
        key = inner[iv]
        powers[key] = powers.get(key, 0) + e
    if 0 in powers.values():
        powers = {iv: e for iv, e in powers.items() if e}
    return IntervalProduct._unsafe(
        prod.arity + other.arity - 1, tuple(sorted(powers.items())),
    )


def rf_compose(f, g, i):
    """Partial composition: substitute the sum block for slot i and multiply."""
    if not 1 <= i <= f.arity:
        raise RatFctError(f"index {i} out of range for arity {f.arity}")
    return RatElem._unsafe((f.arity + g.arity - 1,), _accumulate(
        (_compose_product(p, q, i), a * b)
        for p, a in f.terms.items() for q, b in g.terms.items()
    ))


def interval_map(clique, rank):
    """The map taking a clique to its single interval product under a rank function."""
    if rank.magma != clique.magma:
        raise MagmaError("rank function does not belong to the clique's magma")
    exponents = rank.of_labels(clique.labels)
    return IntervalProduct._unsafe(
        clique.arity, tuple(compress(zip(arcs_of(clique.arity), exponents), exponents)),
    )


def rf_image(f, rank):
    """Linear extension of the clique-to-rational-function morphism."""
    if isinstance(f, LinComb):
        return RatElem._unsafe((f.arity,), _accumulate(
            (interval_map(clique, rank), coeff) for clique, coeff in f.terms.items()
        ))
    return RatElem.of(interval_map(f, rank))


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


def _interval_poly(interval, arity):
    """The linear form u_x + ... + u_{y-1} as an exponent-vector polynomial."""
    x, y = interval
    poly = {}
    for var in range(x, y):
        exps = [0] * arity
        exps[var - 1] = 1
        poly[tuple(exps)] = 1
    return poly


def _poly_mul(p, q):
    return _accumulate(
        (tuple(a + b for a, b in zip(ea, eb)), ca * cb)
        for ea, ca in p.items() for eb, cb in q.items()
    )


def _poly_pow(base, exponent, arity):
    result = {(0,) * arity: 1}
    for _ in range(exponent):
        result = _poly_mul(result, base)
    return result


def rf_expand_cleared(f):
    """Clear denominators with the least common interval multiple, expand, and sum."""
    need = {}
    for prod in f.terms:
        for iv, e in prod.powers:
            if e < 0:
                need[iv] = max(need.get(iv, 0), -e)
    arity = f.arity
    pairs = []
    for prod, coeff in f.terms.items():
        poly = {(0,) * arity: coeff}
        for iv, e in sorted(_accumulate(chain(need.items(), prod.powers)).items()):
            if e < 0:
                raise AssertionError("denominator clearing left a negative power")
            poly = _poly_mul(poly, _poly_pow(_interval_poly(iv, arity), e, arity))
        pairs.extend(poly.items())
    return _accumulate(pairs)


def rf_evaluate(f, point):
    """Evaluate at a rational point; raises ZeroDivisionError on a pole."""
    total = Fraction(0)
    for prod, coeff in f.terms.items():
        value = coeff
        for (x, y), e in prod.powers:
            span = sum(point[x - 1:y - 1], Fraction(0))
            value *= span ** e
        total += value
    return total


def rf_probably_zero(f, samples=20, seed=0):
    """Evaluate at `samples` random rational points, redrawing on pole hits."""
    rng = random.Random(seed)
    for _ in range(samples):
        for _attempt in range(100):
            point = [
                Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(f.arity)
            ]
            try:
                if rf_evaluate(f, point) != 0:
                    return False
                break
            except ZeroDivisionError:
                continue
        else:
            raise RuntimeError("could not find a pole-free evaluation point")
    return True


def rf_is_zero(f, seed=0):
    """Exact zero decision, with a probabilistic pre-check for early exits."""
    if not f.terms:
        return True
    if not rf_probably_zero(f, samples=5, seed=seed):
        return False
    return not rf_expand_cleared(f)


def compose_product(prod, other, i):
    """Partial composition of two single interval products."""
    if not 1 <= i <= prod.arity:
        raise RatFctError(f"index {i} out of range for arity {prod.arity}")
    return _compose_product(prod, other, i)


class _ZSum:
    """The star table of integer addition for `_compose_block`: indexing it
    with two label arrays adds them, in a dtype that holds every sum."""

    def __init__(self, dtype):
        self.dtype = dtype

    def __getitem__(self, pair):
        return pair[0] + pair[1]


def _rf_vector(pools, arity_pairs):
    """Label blocks: under the identity rank an interval product's exponent
    map is the clique's label vector over `arcs_of`.  The clique side
    composes through `composition_plan` with glue p_i + q_0; the
    rational-function side scatter-adds p's labels through `_reindex`'s
    outer map and q's through its inner map."""
    # imported on first use, so that numpy loads last in the package
    # import: that keeps the peak memory of `import cliqueops` about 2 MB lower
    import numpy as np

    from .verify import _compose_block, morphism_slabs

    bound = max(abs(lab) for pool in pools.values() for p in pool for lab in p.labels)
    dtype = np.min_scalar_type(-2 * bound - 1)
    blocks = {n: np.array([p.labels for p in pool], dtype=dtype)
              for n, pool in pools.items()}
    star = _ZSum(dtype)

    def clique_side(n, m, i, rows):
        return _compose_block(blocks[n][rows], n, blocks[m], m, i, star)

    def interval_side(n, m, i, rows):
        X, Y = blocks[n][rows], blocks[m]
        outer, inner = _reindex(n, m, i)
        column = arc_index(n + m - 1)
        out = np.zeros((X.shape[0], Y.shape[0], len(column)), dtype=dtype)
        for k, arc in enumerate(arcs_of(n)):
            out[:, :, column[outer[arc]]] += X[:, k, None]
        for k, arc in enumerate(arcs_of(m)):
            out[:, :, column[inner[arc]]] += Y[None, :, k]
        return out.reshape(-1, len(column))

    return morphism_slabs(arity_pairs, pools, clique_side, interval_side)


def verify_rf_morphism(labels=(-1, 0, 1), max_arity=3):
    """Exhaustively check image(p o_i q) = image(p) o_i image(q) on integer
    cliques with the given labels, all arities up to the bound, all i,
    comparing label blocks slab by slab.
    """
    z = UnitaryMagma.integers()
    pools = {1: [Clique.unit(z)]}
    for n in range(2, max_arity + 1):
        pools[n] = [
            Clique._unsafe(z, n, labs)
            for labs in iproduct(labels, repeat=len(arcs_of(n)))
        ]
    checked, failure = _rf_vector(pools, [(n, m) for n in pools for m in pools])
    if failure is None:
        return VerifyReport("ratfct-morphism", True, checked, None)
    p, i, q = failure
    return VerifyReport(
        "ratfct-morphism", False, checked,
        f"image of {p!r} o_{i} {q!r} is not the composition of the images",
    )


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
