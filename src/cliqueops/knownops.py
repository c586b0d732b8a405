"""Multi-tildes, double multi-tildes, gravity chord diagrams, and their
embeddings into clique operads.

The composition of multi-tildes is implemented directly from the index
shift rules (not by transporting through cliques), so the morphism
checks really compare two independent computations.  Gravity chord
diagrams likewise compose by their own gluing rule and embed into the
two-element zero-product magma's cliques.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product as iproduct

from .clique import Clique, arcs_of
from .magma import UnitaryMagma, magma_product, pair_value, unpair_value
from .operad import composable_pairs, partial_compose
from .report import VerifyReport


class KnownOperadError(ValueError):
    """Ill-formed multi-tilde data or an excluded morphism argument."""


_D0 = UnitaryMagma.zero_product(0)
_D0_SQUARED = magma_product(_D0, _D0)


def clique_magma_for_multitildes():
    return _D0


def clique_magma_for_double_multitildes():
    return _D0_SQUARED


class MultiTilde:
    """A pair (arity, set of index intervals (x, y) with 1 <= x <= y <= arity)."""

    __slots__ = ("arity", "pairs")

    def __init__(self, arity, pairs):
        if arity < 1:
            raise KnownOperadError("multi-tilde arity must be positive")
        pairs = frozenset((int(x), int(y)) for x, y in pairs)
        for x, y in pairs:
            if not 1 <= x <= y <= arity:
                raise KnownOperadError(f"pair ({x},{y}) outside arity {arity}")
        self.arity = arity
        self.pairs = pairs

    @staticmethod
    def unit():
        return MultiTilde(1, ())

    def __eq__(self, other):
        return (
            isinstance(other, MultiTilde)
            and self.arity == other.arity
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.arity, self.pairs))

    def __repr__(self):
        body = ", ".join(f"({x},{y})" for x, y in sorted(self.pairs))
        return f"MultiTilde({self.arity}, {{{body}}})"


def _shift(pair, pivot, block):
    """Shift a pair around an insertion of `block` slots at position `pivot`."""
    x, y = pair
    if y <= pivot - 1:
        return (x, y)
    if x <= pivot <= y:
        return (x, y + block - 1)
    return (x + block - 1, y + block - 1)


def mt_compose(s, t, i):
    """Partial composition of multi-tildes via the two shift rules."""
    if not 1 <= i <= s.arity:
        raise KnownOperadError(f"index {i} out of range for arity {s.arity}")
    m = t.arity
    shifted = {_shift(pair, i, m) for pair in s.pairs}
    shifted |= {(x + i - 1, y + i - 1) for x, y in t.pairs}
    return MultiTilde(s.arity + m - 1, shifted)


def all_multitildes(arity):
    """Every multi-tilde of the given arity (2^(n(n+1)/2) of them)."""
    universe = [(x, y) for x in range(1, arity + 1) for y in range(x, arity + 1)]
    for size in range(len(universe) + 1):
        for chosen in combinations(universe, size):
            yield MultiTilde(arity, chosen)


_EXCLUDED_MT = MultiTilde(1, {(1, 1)})


def phi_mt(tilde):
    """The clique picture of a multi-tilde: arc (x, y) solid iff (x, y-1) is a pair."""
    if tilde == _EXCLUDED_MT:
        raise KnownOperadError(
            "the nontrivial arity-1 multi-tilde has no clique counterpart"
        )
    solid = 1  # the non-unit label of the two-element zero-product magma
    labels = tuple(
        solid if (x, y - 1) in tilde.pairs else 0
        for (x, y) in arcs_of(tilde.arity)
    )
    return Clique._unsafe(_D0, tilde.arity, labels)


def phi_mt_inverse(clique):
    if clique.magma != _D0:
        raise KnownOperadError("expected a clique over the two-element zero-product magma")
    pairs = {(x, y - 1) for (x, y) in clique.solid_arcs()}
    return MultiTilde(clique.arity, pairs)


class DoubleMultiTilde:
    """Two pair-sets over one arity, composing componentwise."""

    __slots__ = ("arity", "pairs1", "pairs2")

    def __init__(self, arity, pairs1, pairs2):
        first = MultiTilde(arity, pairs1)
        second = MultiTilde(arity, pairs2)
        self.arity = arity
        self.pairs1 = first.pairs
        self.pairs2 = second.pairs

    @staticmethod
    def unit():
        return DoubleMultiTilde(1, (), ())

    def components(self):
        return MultiTilde(self.arity, self.pairs1), MultiTilde(self.arity, self.pairs2)

    def __eq__(self, other):
        return (
            isinstance(other, DoubleMultiTilde)
            and self.arity == other.arity
            and self.pairs1 == other.pairs1
            and self.pairs2 == other.pairs2
        )

    def __hash__(self):
        return hash((self.arity, self.pairs1, self.pairs2))

    def __repr__(self):
        one = ", ".join(f"({x},{y})" for x, y in sorted(self.pairs1))
        two = ", ".join(f"({x},{y})" for x, y in sorted(self.pairs2))
        return f"DoubleMultiTilde({self.arity}, {{{one}}}, {{{two}}})"


def dmt_compose(s, t, i):
    first_s, second_s = s.components()
    first_t, second_t = t.components()
    first = mt_compose(first_s, first_t, i)
    second = mt_compose(second_s, second_t, i)
    return DoubleMultiTilde(first.arity, first.pairs, second.pairs)


def all_double_multitildes(arity):
    universe = [(x, y) for x in range(1, arity + 1) for y in range(x, arity + 1)]
    subsets = []
    for size in range(len(universe) + 1):
        subsets.extend(combinations(universe, size))
    for pairs1 in subsets:
        for pairs2 in subsets:
            yield DoubleMultiTilde(arity, pairs1, pairs2)


def phi_dmt(dmt):
    """The pair-magma clique of a double multi-tilde (four-case labeling)."""
    if dmt.arity == 1 and (dmt.pairs1 or dmt.pairs2):
        raise KnownOperadError(
            "the three nontrivial arity-1 double multi-tildes have no clique counterpart"
        )
    labels = []
    for (x, y) in arcs_of(dmt.arity):
        a = 1 if (x, y - 1) in dmt.pairs1 else 0
        b = 1 if (x, y - 1) in dmt.pairs2 else 0
        labels.append(pair_value(_D0_SQUARED, a, b))
    return Clique._unsafe(_D0_SQUARED, dmt.arity, tuple(labels))


def phi_dmt_inverse(clique):
    if clique.magma != _D0_SQUARED:
        raise KnownOperadError("expected a clique over the squared zero-product magma")
    pairs1, pairs2 = set(), set()
    for (x, y), lab in zip(arcs_of(clique.arity), clique.labels):
        a, b = unpair_value(_D0_SQUARED, lab)
        if a:
            pairs1.add((x, y - 1))
        if b:
            pairs2.add((x, y - 1))
    return DoubleMultiTilde(clique.arity, pairs1, pairs2)


# -- gravity ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _boundary(arity):
    """The edges and the base of the polygon of an arity."""
    return frozenset((x, x + 1) for x in range(1, arity + 1)) | {(1, arity + 1)}


def is_gravity_arcset(arity, marked):
    """The gravity condition on a set of marked arcs: nothing marked at
    arity 1; otherwise every edge and the base marked, and crossing marked
    diagonals (x,y), (x',y') with x < x' leave the arc (x', y) unmarked."""
    marked = frozenset(marked)
    if arity == 1:
        return not marked
    boundary = _boundary(arity)
    if not boundary <= marked:
        return False
    diags = [arc for arc in marked if arc not in boundary]
    for x, y in diags:
        for xp, yp in diags:
            if x < xp < y < yp and (xp, y) in marked:
                return False
    return True


class ChordDiagram:
    """A gravity chord diagram: all edges and the base marked, plus a set of
    diagonals such that crossing diagonals (x,y), (x',y') with x < x' leave
    the arc (x', y) unmarked."""

    __slots__ = ("arity", "diagonals")

    def __init__(self, arity, diagonals):
        if arity < 1:
            raise KnownOperadError("diagram arity must be positive")
        diagonals = frozenset((int(x), int(y)) for x, y in diagonals)
        if arity == 1 and diagonals:
            raise KnownOperadError("the arity-1 diagram has no diagonals")
        boundary = _boundary(arity)
        for x, y in diagonals:
            if not (1 <= x < y <= arity + 1) or (x, y) in boundary:
                raise KnownOperadError(f"({x},{y}) is not a diagonal at arity {arity}")
        if arity > 1 and not is_gravity_arcset(arity, diagonals | boundary):
            raise KnownOperadError(
                f"diagonals {sorted(diagonals)} break the gravity condition: "
                "a crossing pair (x,y), (x',y') with x < x' has (x',y) marked"
            )
        self.arity = arity
        self.diagonals = diagonals

    @staticmethod
    def unit():
        return ChordDiagram(1, ())

    def __eq__(self, other):
        return (
            isinstance(other, ChordDiagram)
            and self.arity == other.arity
            and self.diagonals == other.diagonals
        )

    def __hash__(self):
        return hash((self.arity, self.diagonals))

    def __repr__(self):
        body = ", ".join(f"({x},{y})" for x, y in sorted(self.diagonals))
        return f"ChordDiagram({self.arity}, {{{body}}})"


def chord_compose(c, d, i):
    """Glue d's base onto c's i-th edge; the glued arc stays marked."""
    if not 1 <= i <= c.arity:
        raise KnownOperadError(f"index {i} out of range for arity {c.arity}")
    m = d.arity
    n = c.arity
    out = set()
    for (x, y) in c.diagonals:
        if y <= i:
            out.add((x, y))
        elif x <= i:
            out.add((x, y + m - 1))
        else:
            out.add((x + m - 1, y + m - 1))
    for (x, y) in d.diagonals:
        out.add((x + i - 1, y + i - 1))
    glued = (i, i + m)
    if glued not in _boundary(n + m - 1):
        out.add(glued)
    return ChordDiagram(n + m - 1, out)


def phi_grav(diagram):
    """The zero-product-magma clique with every marked arc solid."""
    if diagram.arity == 1:
        return Clique.unit(_D0)
    marked = _boundary(diagram.arity) | diagram.diagonals
    labels = tuple(
        1 if (x, y) in marked else 0 for (x, y) in arcs_of(diagram.arity)
    )
    return Clique._unsafe(_D0, diagram.arity, labels)


def grav_check(clique):
    """The gravity condition over an arbitrary magma: the unit clique, or all
    edges and the base solid with crossing solid diagonals (x,y), (x',y'),
    x < x', forcing a non-solid (x', y)."""
    return is_gravity_arcset(clique.arity, clique.solid_arcs())


def grav_compose(p, q, i):
    """Composition restricted to gravity cliques; closure is asserted."""
    if not (grav_check(p) and grav_check(q)):
        raise KnownOperadError("grav_compose needs gravity cliques on both sides")
    result = partial_compose(p, q, i)
    if not grav_check(result):
        raise RuntimeError(
            "internal failure: composing gravity cliques left the family, "
            f"on {p!r} o_{i} {q!r}"
        )
    return result


def gravity_diagrams(arity):
    """All gravity chord diagrams of an arity, by scanning diagonal sets."""
    if arity == 1:
        return [ChordDiagram.unit()]
    diagonals = [
        (x, y) for (x, y) in arcs_of(arity)
        if y != x + 1 and (x, y) != (1, arity + 1)
    ]
    found = []
    for size in range(len(diagonals) + 1):
        for chosen in combinations(diagonals, size):
            try:
                found.append(ChordDiagram(arity, chosen))
            except KnownOperadError:
                continue
    return found


def gravity_cliques(magma, arity):
    """All cliques over a finite magma satisfying the gravity condition."""
    if arity == 1:
        return [Clique.unit(magma)]
    nonunit = list(magma.nonunit_elements())
    out = []
    for diagram in gravity_diagrams(arity):
        marked = [(x, x + 1) for x in range(1, arity + 1)]
        marked.append((1, arity + 1))
        marked.extend(sorted(diagram.diagonals))
        for labeling in iproduct(nonunit, repeat=len(marked)):
            out.append(
                Clique.from_arcs(magma, arity, dict(zip(marked, labeling)))
            )
    return out


def lie_maximal(arity):
    """Gravity cliques with the most solid diagonals at this arity."""
    diagrams = gravity_diagrams(arity)
    best = max(len(d.diagonals) for d in diagrams)
    return [phi_grav(d) for d in diagrams if len(d.diagonals) == best]


def verify_known_ops(max_arity):
    """The multi-tilde and gravity embeddings commute with composition on
    every composable pair up to composite arity `max_arity` (the nontrivial
    arity-1 multi-tilde, which has no clique, excluded); gravity closure is
    asserted by `grav_compose` throughout."""
    checked = 0
    for n, m in composable_pairs(max_arity):
        right = [t for t in all_multitildes(m) if t != _EXCLUDED_MT]
        for s in all_multitildes(n):
            if s == _EXCLUDED_MT:
                continue
            for t in right:
                for i in range(1, n + 1):
                    checked += 1
                    if phi_mt(mt_compose(s, t, i)) != partial_compose(
                        phi_mt(s), phi_mt(t), i
                    ):
                        return VerifyReport(
                            "known-ops", False, checked,
                            f"multi-tilde morphism fails on {s!r} o_{i} {t!r}",
                        )
    for n, m in composable_pairs(max_arity):
        for c in gravity_diagrams(n):
            for d in gravity_diagrams(m):
                for i in range(1, n + 1):
                    checked += 1
                    if phi_grav(chord_compose(c, d, i)) != grav_compose(
                        phi_grav(c), phi_grav(d), i
                    ):
                        return VerifyReport(
                            "known-ops", False, checked,
                            f"gravity morphism fails on {c!r} o_{i} {d!r}",
                        )
    return VerifyReport("known-ops", True, checked, None)


def multitilde_to_json(tilde):
    return {"arity": tilde.arity, "pairs": sorted([x, y] for x, y in tilde.pairs)}


def multitilde_from_json(data):
    try:
        return MultiTilde(int(data["arity"]), [tuple(p) for p in data["pairs"]])
    except (KeyError, TypeError) as exc:
        raise KnownOperadError(f"bad multi-tilde JSON: {exc}")


def double_multitilde_to_json(dmt):
    return {
        "arity": dmt.arity,
        "pairs1": sorted([x, y] for x, y in dmt.pairs1),
        "pairs2": sorted([x, y] for x, y in dmt.pairs2),
    }


def double_multitilde_from_json(data):
    try:
        return DoubleMultiTilde(
            int(data["arity"]),
            [tuple(p) for p in data["pairs1"]],
            [tuple(p) for p in data["pairs2"]],
        )
    except (KeyError, TypeError) as exc:
        raise KnownOperadError(f"bad double multi-tilde JSON: {exc}")
