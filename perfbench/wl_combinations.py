"""combinations: a seeded stream of requests on exact rational combinations.

`LinComb`/`RatElem` accumulation and basis conversion dominate, and both
grow quadratically with the number of terms at the seed commit.  Few
compositions run on large combinations, the opposite of operad-laws, so
a kernel gain that costs combination arithmetic shows here.

Every pass runs the same schedule of request kinds and sizes in a seeded
order.  Half of the requests draw their cliques from a shared pool of
POOL_SIZE cliques that every pass reuses; the other half draw fresh
cliques, per pass, from the 4^10-clique arity-4 space over D:2, larger
than the 65,536-entry down-set cache.  Outputs are checked against
straightforward recomputations in this file (down-sets by bitmask,
bilinear sums in plain dicts), which share no code with cliqueops'
accumulation or conversion paths.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cliqueops import (
    Clique, LinComb, RankFunction, UnitaryMagma, arcs_of, compose_in_basis,
    from_H, from_K, interval_map, is_associative_element, parse_magma_spec,
    partial_compose, partial_compose_lin, rf_image, rf_is_zero, star_product,
    to_H, to_K, variant, variant_compose,
)
from cliqueops.clique import arc_class

from ops import Op, random_clique

POOL_SIZE = 512
CONVERSIONS = {  # request kind -> (function, erase boundary arcs?, signed?)
    "from_H": (from_H, True, False),
    "to_H": (to_H, True, True),
    "from_K": (from_K, False, True),
    "to_K": (to_K, False, False),
}
# 113 request slots per pass, so that request_p90_ms has ten slots above it.
# It lands inside the slowest block, the 16 72-term conversions, and
# request_p50_ms inside the block of 16-term conversions, not on their edges
CONVERSION_TERMS = (4, 8, 16, 16, 24, 72, 72)
SOLID = 0.5  # chance that an arc of a drawn clique carries a non-unit label
COMPOSE_TERMS = {"fundamental": (6, 12, 20, 40), "H": (3, 6, 10), "K": (3, 6, 10)}
VARIANT_TERMS = (3, 6, 16)
VARIANT_SPECS = ("acy", "pat", "deg:2")  # quotients with hundreds of arity-3 members
MEMBER_POOL = 128
STAR_TERMS = (10, 40)
SUM_SHAPES = ((4, 60), (8, 120))  # (summands, terms each)
RF_TERMS = (2, 4, 6, 16)  # terms of the combination composed with a kernel element
ASSOCIATIVE_MAGMAS = ("N:2", "D:0", "D:1")
ASSOCIATIVE_PER_MAGMA = 4

_Z = UnitaryMagma.integers()
_RANK = RankFunction.identity()


# -- recomputation used by the checks ---------------------------------------


def _downsets(f, boundary, signed):
    """Sum each term's erasure down-set: erase subsets of its solid boundary
    (edge and base) arcs, or of its solid diagonals, signed by how many."""
    n, unit = f.arity, f.magma.unit
    acc = {}
    for clique, coeff in f.terms.items():
        positions = [
            k for k, ((x, y), lab) in enumerate(zip(arcs_of(n), clique.labels))
            if lab != unit and (arc_class(n, x, y) != "diagonal") == boundary
        ]
        for mask in range(1 << len(positions)):
            labels = list(clique.labels)
            erased = 0
            for bit, k in enumerate(positions):
                if mask >> bit & 1:
                    labels[k] = unit
                    erased += 1
            term = Clique(f.magma, n, labels)
            acc[term] = acc.get(term, 0) + (-coeff if signed and erased % 2 else coeff)
    return {c: v for c, v in acc.items() if v}


def _bilinear(f_terms, g_terms, product):
    acc = {}
    for p, a in f_terms.items():
        for q, b in g_terms.items():
            key = product(p, q)
            acc[key] = acc.get(key, 0) + a * b
    return {c: v for c, v in acc.items() if v}


def _composed(f_terms, g_terms, i):
    return _bilinear(f_terms, g_terms, lambda p, q: partial_compose(p, q, i))


def _arcwise(p, q):
    op = p.magma.op
    return Clique(p.magma, p.arity, [op(a, b) for a, b in zip(p.labels, q.labels)])


def _mismatch(got, want):
    if got == want:
        return None
    missing = len(set(want) - set(got))
    extra = len(set(got) - set(want))
    return (f"{len(got)} terms against {len(want)} expected "
            f"({missing} missing, {extra} unexpected)")


# -- request generation ------------------------------------------------------


def _distinct(draw, count, keep=lambda clique: True):
    found = {}
    while len(found) < count:
        clique = draw()
        if keep(clique):
            found[clique] = None
    return list(found)


def _coefficient(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _combination(rng, cliques, terms):
    chosen = rng.sample(cliques, terms)
    return LinComb(chosen[0].magma, chosen[0].arity,
                   [(c, _coefficient(rng)) for c in chosen])


class _Requests:
    """Makes each pass's requests; the clique pools are shared by every pass."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.seed = seed
        self.d2 = parse_magma_spec("D:2")
        # cliques are collected in dicts, never sets: set order follows the
        # per-process string hash and would make inputs differ between runs
        self.pool = {
            arity: _distinct(lambda: random_clique(rng, self.d2, arity, SOLID), POOL_SIZE)
            for arity in (3, 4)
        }
        self.variants = {spec: variant(spec, self.d2) for spec in VARIANT_SPECS}
        self.members = {}
        for spec, var in self.variants.items():
            self.members[spec] = _distinct(
                lambda: random_clique(rng, self.d2, 3, solid=0.35), MEMBER_POOL, var.member)
        self.kernel = (LinComb.of(Clique.triangle(_Z, 1, 0, 0))
                       - LinComb.of(Clique.triangle(_Z, 0, 1, 0))
                       - LinComb.of(Clique.triangle(_Z, 0, 0, 1)))
        self.associative_magmas = [parse_magma_spec(s) for s in ASSOCIATIVE_MAGMAS]
        self.triangles = {
            m: [Clique(m, 2, (a, b, c)) for a in range(m.size) for b in range(m.size)
                for c in range(m.size)]
            for m in self.associative_magmas
        }

    def cliques(self, rng, arity, shared, count):
        if shared:
            return self.pool[arity]
        return _distinct(lambda: random_clique(rng, self.d2, arity, SOLID), count)

    def ops(self, pass_index):
        rng = random.Random(f"{self.seed}/{pass_index}")
        ops = []
        for shared in (True, False):
            where = "pool" if shared else "fresh"
            for kind in CONVERSIONS:
                for slot, terms in enumerate(CONVERSION_TERMS):
                    f = _combination(rng, self.cliques(rng, 4, shared, terms), terms)
                    ops.append(self._conversion(f"{kind}.{slot}.{terms}.{where}", kind, f))
            for basis, sizes in COMPOSE_TERMS.items():
                for terms in sizes:
                    f = _combination(rng, self.cliques(rng, 3, shared, terms), terms)
                    g = _combination(rng, self.cliques(rng, 3, shared, terms), terms)
                    ops.append(self._compose(f"compose.{basis}.{terms}.{where}",
                                             basis, f, g, rng.randint(1, 3)))
            for terms in STAR_TERMS:
                cliques = self.cliques(rng, 4, shared, 2 * terms)
                f, g = _combination(rng, cliques, terms), _combination(rng, cliques, terms)
                ops.append(self._star(f"star.{terms}.{where}", f, g))
            for summands, terms in SUM_SHAPES:
                cliques = self.cliques(rng, 4, shared, terms)
                parts = [_combination(rng, cliques, terms) for _ in range(summands)]
                ops.append(self._sum(f"sum.{summands}x{terms}.{where}", parts))
        for spec in VARIANT_SPECS:
            for terms in VARIANT_TERMS:
                members = self.members[spec]
                f, g = _combination(rng, members, terms), _combination(rng, members, terms)
                ops.append(self._variant(f"variant.{spec}.{terms}", spec, f, g,
                                         rng.randint(1, 3)))
        for terms in RF_TERMS:
            for zero in (True, False):
                ops.append(self._rf(f"rf.{terms}.{'zero' if zero else 'nonzero'}",
                                    rng, terms, zero))
        for magma in self.associative_magmas:
            for slot in range(ASSOCIATIVE_PER_MAGMA):
                f = LinComb(magma, 2, [(t, rng.randint(-3, 3)) for t in self.triangles[magma]])
                ops.append(self._associative(f"associative.{magma.name}.{slot}", f))
        rng.shuffle(ops)
        return ops

    # -- one method per request kind, each returning an Op -------------------

    def _conversion(self, name, kind, f):
        fn, boundary, signed = CONVERSIONS[kind]

        def run(tr):
            with tr.span(f"bases.{kind}", items=len(f.terms)):
                return fn(f)

        return Op(name, "bases", run,
                  lambda got: _mismatch(got.terms, _downsets(f, boundary, signed)))

    def _compose(self, name, basis, f, g, i):
        if basis == "fundamental":
            def run(tr):
                with tr.span("operad.partial_compose_lin"):
                    return partial_compose_lin(f, g, i)

            def check(got):
                return _mismatch(got.terms, _composed(f.terms, g.terms, i))
            return Op(name, "operad", run, check)

        boundary, signed = (True, False) if basis == "H" else (False, True)

        def run(tr):
            with tr.span(f"bases.compose_in_basis.{basis}"):
                return compose_in_basis(f, g, i, basis)

        def check(got):
            # reading both sides in the fundamental basis must commute with o_i
            want = _composed(_downsets(f, boundary, signed),
                             _downsets(g, boundary, signed), i)
            return _mismatch(_downsets(got, boundary, signed), want)

        return Op(name, "bases", run, check)

    def _star(self, name, f, g):
        def run(tr):
            with tr.span("operad.star_product"):
                return star_product(f, g)
        return Op(name, "operad", run,
                  lambda got: _mismatch(got.terms, _bilinear(f.terms, g.terms, _arcwise)))

    def _sum(self, name, parts):
        def run(tr):
            with tr.span("operad.lincomb_sum", items=sum(len(p.terms) for p in parts)):
                total = parts[0]
                for part in parts[1:]:
                    total = total + part
                return total

        def check(got):
            want = {}
            for part in parts:
                for clique, coeff in part.terms.items():
                    want[clique] = want.get(clique, 0) + coeff
            return _mismatch(got.terms, {c: v for c, v in want.items() if v})

        return Op(name, "operad", run, check)

    def _variant(self, name, spec, f, g, i):
        var = self.variants[spec]

        def run(tr):
            with tr.span("variants.variant_compose"):
                return variant_compose(var, f, g, i)

        def check(got):
            # every variant here is a quotient: compose, then drop non-members
            want = {c: v for c, v in _composed(f.terms, g.terms, i).items()
                    if var.member(c)}
            return _mismatch(got.terms, want)

        return Op(name, "variants", run, check)

    def _rf(self, name, rng, terms, zero):
        """kernel o_i g is in the kernel; adding one clique leaves it."""
        arity = rng.randint(1, 2)
        cliques = [Clique(_Z, arity, [rng.randint(-1, 1) for _ in arcs_of(arity)])
                   if arity > 1 else Clique.unit(_Z) for _ in range(terms)]
        g = LinComb(_Z, arity, [(c, _coefficient(rng)) for c in cliques])
        if not g.terms:
            g = LinComb.of(Clique.unit(_Z) if arity == 1 else cliques[0])
        i = rng.randint(1, 2)
        f = (partial_compose_lin(self.kernel, g, i) if rng.random() < 0.5
             else partial_compose_lin(g, self.kernel, rng.randint(1, arity)))
        if not zero:
            f = f + LinComb.of(Clique(_Z, f.arity, [rng.randint(-2, 2)
                                                     for _ in arcs_of(f.arity)]), 2)

        def run(tr):
            with tr.span("ratfct.rf_image"):
                image = rf_image(f, _RANK)
            with tr.span("ratfct.rf_is_zero"):
                return image, rf_is_zero(image)

        def check(got):
            image, is_zero = got
            if is_zero != zero:
                return f"rf_is_zero gave {is_zero}, expected {zero}"
            want = {}
            for clique, coeff in f.terms.items():
                prod = interval_map(clique, _RANK)
                want[prod] = want.get(prod, 0) + coeff
            return _mismatch(image.terms, {p: v for p, v in want.items() if v})

        return Op(name, "ratfct", run, check)

    def _associative(self, name, f):
        def run(tr):
            with tr.span("verify.is_associative_element"):
                return is_associative_element(f)

        def check(got):
            want = _composed(f.terms, f.terms, 1) == _composed(f.terms, f.terms, 2)
            return None if got == want else f"got {got}, expected {want}"

        return Op(name, "verify", run, check)


def setup(seed):
    return _Requests(seed).ops
