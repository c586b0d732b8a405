"""Multi-tildes, double multi-tildes, gravity chord diagrams, and their
embeddings into clique operads.

A multi-tilde of arity n is a set of pairs (x, y), 1 <= x <= y <= n.
These pairs are in one-to-one correspondence with the arcs (x, y + 1) of
the arity-n polygon, so a multi-tilde is stored as an int bitmask: bit k
is set when the pair (x, y - 1) of arc k of `arcs_of(n)` belongs to it.
A double multi-tilde is two such masks.  A pair's bit is the
`arc_position` of its arc; `pairs`, `pairs1` and `pairs2` decode the
masks into frozensets on demand, reading `arcs_of` with no table of
their own.

The composition of multi-tildes comes from the substitution rule of
rational functions (`ratfct._reindex`: insert a block of m slots at slot
i), not from transporting through cliques: the rule is applied to every
bit once per (n, m, i), cached as bit-remap tables, and a composition
remaps the masks through them.  The morphism checks therefore compare
two independent computations, as laws of the slab engine
`verify.slab_laws`.  Each shape's remap is compiled once
(`_composer`): two table lookups when both operands have arity 3 or
less, the chunk loop otherwise.

The images in clique operads are label rows read from flag tables, one
row per 8-bit chunk of a mask, concatenated; a `phi_dmt` image is the
arcwise sum of the rows of its two masks.

Values are shared where a family is small.  A family with at most 4096
values at an arity (multi-tildes up to arity 4, double multi-tildes up to
arity 3, gravity diagrams up to arity 7) has one table there, built on
first use and never at import, of its instances and one of their images,
each entry built by the general path above.  Compositions, images and
pools read those tables and build nothing; a gravity composite absent
from its arity's table has left the family, and raises.  Above the bound
each call builds its value.  Instances are immutable by contract, like
cliques, so sharing them is safe.

A gravity chord diagram is the mask of its marked arcs (edges, base and
diagonals), bit k for arc k.  It composes by the multi-tilde remap,
which moves each arc as `ratfct._reindex` does.  The gravity condition
is the `grav` rule of variants.py (`variants._gravity_rule`, whose
per-arc tests are `variants._gravity_tests`): the census walk folds it
over partial masks, and every whole-mask question that the tabled
families do not answer folds it with `variants._accepts`.

Public constructors and families validate their input by the rules of
clique.py, raising `KnownOperadError`: an arity by `row_width`, an arc
(a pair (x, y) as its arc (x, y + 1)) by `arc_position`.  Enumeration
and composition read shared instances or build on `_unsafe` paths.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations, islice, product as iproduct
from operator import add

from . import ratfct, variants
from .clique import Clique, _arc_at, arc_position, arcs_of, row_width
from .magma import UnitaryMagma, magma_product, pair_value, unpair_value
from .operad import composable_pairs, partial_compose
from .verify import _compose_block, _label_dtype, _star, slab_laws


class KnownOperadError(ValueError):
    """Ill-formed multi-tilde data or an excluded morphism argument."""


_D0 = UnitaryMagma.zero_product(0)
_D0_SQUARED = magma_product(_D0, _D0)
_SOLID = 1  # the non-unit label of the two-element zero-product magma
_FIRST, _SECOND = pair_value(_D0_SQUARED, 1, 0), pair_value(_D0_SQUARED, 0, 1)


# -- input boundary --------------------------------------------------------


def _coordinates(pairs):
    """The entries of `pairs` as (int, int) tuples."""
    try:
        entries = list(pairs)
    except TypeError:
        raise KnownOperadError(f"expected a collection of pairs, got {pairs!r}") from None
    for pair in entries:
        if (not isinstance(pair, (tuple, list)) or len(pair) != 2
                or type(pair[0]) is not int or type(pair[1]) is not int):
            raise KnownOperadError(f"{pair!r} is not a pair of integers")
    return [tuple(pair) for pair in entries]


# -- bitmask encoding ------------------------------------------------------


def _mask(arity, pairs):
    mask = 0
    for x, y in _coordinates(pairs):
        mask |= 1 << arc_position(arity, (x, y + 1), KnownOperadError)
    return mask


def _pairs(arity, mask):
    arcs = arcs_of(arity)
    return frozenset(
        (arcs[k][0], arcs[k][1] - 1) for k in range(mask.bit_length()) if mask >> k & 1
    )


def _format_pairs(pairs):
    return ", ".join(f"({x},{y})" for x, y in sorted(pairs))


def _chunk_tables(images):
    """For each 8-bit chunk of a source mask, the OR of the image bits of
    every byte value (bit k of the source goes to `images[k]`)."""
    tables = []
    for lo in range(0, len(images), 8):
        chunk = images[lo:lo + 8]
        table = [0] * (1 << len(chunk))
        for value in range(1, len(table)):
            low = (value & -value).bit_length() - 1
            table[value] = table[value & (value - 1)] | chunk[low]
        tables.append(tuple(table))
    return tuple(tables)


def _remap(mask, tables):
    out = 0
    for table in tables:
        out |= table[mask & 0xFF]
        mask >>= 8
    return out


@lru_cache(maxsize=None)
def _flag_tables(width, value):
    """For each 8-bit chunk of a width-bit mask, the labels of every byte
    value, low bit first: `value` where the bit is set, 0 where it is not."""
    tables = []
    for lo in range(0, width, 8):
        size = min(8, width - lo)
        tables.append(tuple(
            tuple(value if byte >> b & 1 else 0 for b in range(size))
            for byte in range(1 << size)
        ))
    return tuple(tables)


def _flags(mask, width, value):
    out = ()
    for table in _flag_tables(width, value):
        out += table[mask & 0xFF]
        mask >>= 8
    return out


def _masks(arity):
    """Every mask of an arity by size, then in lexicographic order of the
    chosen pairs: the order of `combinations` over the pair universe."""
    width = len(arcs_of(arity))
    for size in range(width + 1):
        for chosen in combinations(range(width), size):
            yield sum(1 << k for k in chosen)


# -- shared values ---------------------------------------------------------

# A family with at most _TABLE_BOUND values at an arity shares them there:
# its instances and their images are read from tables built on first use,
# one per family and arity, whose entries the general path builds.  Above
# the bound, each call builds its value.
_TABLE_BITS = 12
_TABLE_BOUND = 1 << _TABLE_BITS


def _solid_clique(arity, mask):
    """The zero-product-magma clique with the mask's arcs solid: the image
    of `phi_mt` and `phi_grav`."""
    return Clique._unsafe(_D0, arity, _flags(mask, len(arcs_of(arity)), _SOLID))


def _pair_clique(arity, mask1, mask2):
    """The pair-magma clique of two masks, the image of `phi_dmt`: _FIRST
    where only mask1 has the arc, _SECOND where only mask2 has it, their sum
    where both do."""
    width = len(arcs_of(arity))
    return Clique._unsafe(_D0_SQUARED, arity, tuple(map(
        add, _flags(mask1, width, _FIRST), _flags(mask2, width, _SECOND),
    )))


def _tabled_masks(arity, components):
    """The masks of an arity, range(2^width), when a family of values made
    of `components` masks has at most _TABLE_BOUND of them there; else None."""
    width = len(arcs_of(arity))
    return range(1 << width) if components * width <= _TABLE_BITS else None


@lru_cache(maxsize=None)
def _multitildes(arity):
    """The shared multi-tildes of an arity (4 or less), by mask; else None."""
    masks = _tabled_masks(arity, 1)
    return None if masks is None else tuple(MultiTilde._unsafe(arity, mask) for mask in masks)


@lru_cache(maxsize=None)
def _multitilde_images(arity):
    """The shared `phi_mt` images of an arity (4 or less), by mask; else None."""
    masks = _tabled_masks(arity, 1)
    return None if masks is None else tuple(_solid_clique(arity, mask) for mask in masks)


@lru_cache(maxsize=None)
def _double_multitildes(arity):
    """The shared double multi-tildes of an arity (3 or less), by mask1 and
    then mask2; else None."""
    masks = _tabled_masks(arity, 2)
    return None if masks is None else tuple(
        tuple(DoubleMultiTilde._unsafe(arity, mask1, mask2) for mask2 in masks)
        for mask1 in masks
    )


@lru_cache(maxsize=None)
def _double_multitilde_images(arity):
    """The shared `phi_dmt` images of an arity (3 or less), by mask1 and then
    mask2; else None."""
    masks = _tabled_masks(arity, 2)
    return None if masks is None else tuple(
        tuple(_pair_clique(arity, mask1, mask2) for mask2 in masks) for mask1 in masks
    )


def _gravity_masks(arity):
    """The diagonal masks of the census walk of the `grav` rule, unsorted."""
    for block, _ in variants._skeleton_blocks(arity, variants._gravity_rule):
        yield from block.ints() if isinstance(block, variants._MaskBlock) else block


@lru_cache(maxsize=None)
def _gravity_family(arity):
    """The shared gravity diagrams of an arity (7 or less), marked-arc mask
    to diagram in `gravity_diagrams` order; else None.  The census walk
    stops at the first mask past the bound."""
    masks = list(islice(_gravity_masks(arity), _TABLE_BOUND + 1))
    if len(masks) > _TABLE_BOUND:
        return None
    return {diagram.mask: diagram for diagram in _sorted_diagrams(arity, masks)}


@lru_cache(maxsize=None)
def _gravity_images(arity):
    """The shared `phi_grav` images of an arity (7 or less), by marked-arc
    mask; else None."""
    family = _gravity_family(arity)
    return None if family is None else {mask: _solid_clique(arity, mask) for mask in family}


# -- multi-tildes ----------------------------------------------------------


class MultiTilde:
    """A pair (arity, set of index intervals (x, y) with 1 <= x <= y <= arity)."""

    __slots__ = ("arity", "mask")

    def __init__(self, arity, pairs):
        row_width(arity, KnownOperadError)
        self.arity = arity
        self.mask = _mask(arity, pairs)

    @classmethod
    def _unsafe(cls, arity, mask):
        # trusted fast path: mask already within the arity's pair universe
        self = object.__new__(cls)
        self.arity = arity
        self.mask = mask
        return self

    @staticmethod
    def unit():
        return MultiTilde._unsafe(1, 0)

    @property
    def pairs(self):
        return _pairs(self.arity, self.mask)

    def __eq__(self, other):
        return (
            isinstance(other, MultiTilde)
            and self.arity == other.arity
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.arity, self.mask))

    def __repr__(self):
        return f"MultiTilde({self.arity}, {{{_format_pairs(self.pairs)}}})"


@lru_cache(maxsize=None)
def _compose_tables(n, m, i):
    """Bit-remap tables of s o_i t for arities n, m: arc k of s goes to the
    bit of the arc `ratfct._reindex` sends it to, and likewise for t."""
    outer, inner = ratfct._reindex(n, m, i)
    arity = n + m - 1
    return (_chunk_tables([1 << _arc_at(arity, *outer[arc]) for arc in arcs_of(n)]),
            _chunk_tables([1 << _arc_at(arity, *inner[arc]) for arc in arcs_of(m)]))


@lru_cache(maxsize=None)
def _composer(n, m, i):
    """(n + m - 1, remap) for s o_i t at arities n, m, with `i` checked:
    `remap(a, b)` is the composite of an outer mask a and an inner mask b
    through `_compose_tables`, two lookups when both sides fit one chunk
    (arity 3 or less), else the chunk loop of `_remap`."""
    if type(i) is not int or not 1 <= i <= n:
        raise KnownOperadError(f"index {i!r} out of range for arity {n}")
    outer, inner = _compose_tables(n, m, i)
    if len(outer) == 1 and len(inner) == 1:
        outer, inner = outer[0], inner[0]

        def remap(a, b):
            return outer[a] | inner[b]
    else:
        def remap(a, b):
            return _remap(a, outer) | _remap(b, inner)
    return n + m - 1, remap


def mt_compose(s, t, i):
    """Partial composition of multi-tildes via the two shift rules."""
    arity, remap = _composer(s.arity, t.arity, i)
    mask, values = remap(s.mask, t.mask), _multitildes(arity)
    return MultiTilde._unsafe(arity, mask) if values is None else values[mask]


def all_multitildes(arity):
    """Every multi-tilde of the given arity (2^(n(n+1)/2) of them)."""
    row_width(arity, KnownOperadError)
    values = _multitildes(arity)
    for mask in _masks(arity):
        yield MultiTilde._unsafe(arity, mask) if values is None else values[mask]


def phi_mt(tilde):
    """The clique picture of a multi-tilde: arc (x, y) solid iff (x, y-1) is a pair."""
    if tilde.arity == 1 and tilde.mask:
        raise KnownOperadError(
            "the nontrivial arity-1 multi-tilde has no clique counterpart"
        )
    images = _multitilde_images(tilde.arity)
    return _solid_clique(tilde.arity, tilde.mask) if images is None else images[tilde.mask]


def phi_mt_inverse(clique):
    if clique.magma != _D0:
        raise KnownOperadError("expected a clique over the two-element zero-product magma")
    return MultiTilde._unsafe(clique.arity, variants._solid_mask(clique))


# -- double multi-tildes ---------------------------------------------------


class DoubleMultiTilde:
    """Two pair-sets over one arity, composing componentwise."""

    __slots__ = ("arity", "mask1", "mask2")

    def __init__(self, arity, pairs1, pairs2):
        row_width(arity, KnownOperadError)
        self.arity = arity
        self.mask1 = _mask(arity, pairs1)
        self.mask2 = _mask(arity, pairs2)

    @classmethod
    def _unsafe(cls, arity, mask1, mask2):
        self = object.__new__(cls)
        self.arity = arity
        self.mask1 = mask1
        self.mask2 = mask2
        return self

    @staticmethod
    def unit():
        return DoubleMultiTilde._unsafe(1, 0, 0)

    @property
    def pairs1(self):
        return _pairs(self.arity, self.mask1)

    @property
    def pairs2(self):
        return _pairs(self.arity, self.mask2)

    def components(self):
        return (
            MultiTilde._unsafe(self.arity, self.mask1),
            MultiTilde._unsafe(self.arity, self.mask2),
        )

    def __eq__(self, other):
        return (
            isinstance(other, DoubleMultiTilde)
            and self.arity == other.arity
            and self.mask1 == other.mask1
            and self.mask2 == other.mask2
        )

    def __hash__(self):
        return hash((self.arity, self.mask1, self.mask2))

    def __repr__(self):
        return (f"DoubleMultiTilde({self.arity}, {{{_format_pairs(self.pairs1)}}}, "
                f"{{{_format_pairs(self.pairs2)}}})")


def dmt_compose(s, t, i):
    """Componentwise composition of double multi-tildes."""
    arity, remap = _composer(s.arity, t.arity, i)
    mask1, mask2 = remap(s.mask1, t.mask1), remap(s.mask2, t.mask2)
    values = _double_multitildes(arity)
    if values is None:
        return DoubleMultiTilde._unsafe(arity, mask1, mask2)
    return values[mask1][mask2]


def all_double_multitildes(arity):
    row_width(arity, KnownOperadError)
    values, masks = _double_multitildes(arity), list(_masks(arity))
    for mask1 in masks:
        for mask2 in masks:
            yield (DoubleMultiTilde._unsafe(arity, mask1, mask2) if values is None
                   else values[mask1][mask2])


def phi_dmt(dmt):
    """The pair-magma clique of a double multi-tilde (four-case labeling)."""
    if dmt.arity == 1 and (dmt.mask1 or dmt.mask2):
        raise KnownOperadError(
            "the three nontrivial arity-1 double multi-tildes have no clique counterpart"
        )
    images = _double_multitilde_images(dmt.arity)
    if images is None:
        return _pair_clique(dmt.arity, dmt.mask1, dmt.mask2)
    return images[dmt.mask1][dmt.mask2]


def phi_dmt_inverse(clique):
    if clique.magma != _D0_SQUARED:
        raise KnownOperadError("expected a clique over the squared zero-product magma")
    mask1 = mask2 = 0
    for k, lab in enumerate(clique.labels):
        a, b = unpair_value(_D0_SQUARED, lab)
        mask1 |= a << k
        mask2 |= b << k
    return DoubleMultiTilde._unsafe(clique.arity, mask1, mask2)


# -- gravity ---------------------------------------------------------------


class ChordDiagram:
    """A gravity chord diagram: all edges and the base marked, plus a set of
    diagonals such that crossing diagonals (x,y), (x',y') with x < x' leave
    the arc (x', y) unmarked.  `mask` holds the marked arcs (none at arity
    1), bit k for arc k; `diagonals` decodes it on demand."""

    __slots__ = ("arity", "mask")

    def __init__(self, arity, diagonals):
        row_width(arity, KnownOperadError)
        diagonals = frozenset(_coordinates(diagonals))
        if arity == 1 and diagonals:
            raise KnownOperadError("the arity-1 diagram has no diagonals")
        mask = variants._frame_mask(arity)
        for x, y in diagonals:
            k = arc_position(arity, (x, y), KnownOperadError)
            if mask >> k & 1:
                raise KnownOperadError(f"({x},{y}) is not a diagonal at arity {arity}")
            mask |= 1 << k
        if not variants._accepts(variants._gravity_rule, arity, mask):
            raise KnownOperadError(
                f"diagonals {sorted(diagonals)} break the gravity condition: "
                "a crossing pair (x,y), (x',y') with x < x' has (x',y) marked"
            )
        self.arity = arity
        self.mask = mask

    @classmethod
    def _unsafe(cls, arity, mask):
        # trusted fast path: a marked-arc mask meeting the gravity condition
        self = object.__new__(cls)
        self.arity = arity
        self.mask = mask
        return self

    @staticmethod
    def unit():
        return ChordDiagram._unsafe(1, 0)

    @property
    def diagonals(self):
        arcs, mask = arcs_of(self.arity), self.mask & ~variants._frame_mask(self.arity)
        return frozenset(arcs[k] for k in range(mask.bit_length()) if mask >> k & 1)

    def __eq__(self, other):
        return (
            isinstance(other, ChordDiagram)
            and self.arity == other.arity
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.arity, self.mask))

    def __repr__(self):
        return f"ChordDiagram({self.arity}, {{{_format_pairs(self.diagonals)}}})"


def chord_compose(c, d, i):
    """Glue d's base onto c's i-th edge by the multi-tilde remap, which sends
    both to the glued arc (i, i+m), so it stays marked.  Closure (the result
    meets the gravity condition) is asserted: by a lookup in the family of
    the composite's arity when it is tabled, else by the `grav` rule."""
    arity, remap = _composer(c.arity, d.arity, i)
    mask, family = remap(c.mask, d.mask), _gravity_family(arity)
    if family is not None:
        diagram = family.get(mask)
        if diagram is not None:
            return diagram
    elif variants._accepts(variants._gravity_rule, arity, mask):
        return ChordDiagram._unsafe(arity, mask)
    raise _left_the_family(c, i, d)


def _left_the_family(c, i, d):
    return RuntimeError(
        "internal failure: composing chord diagrams left the family, "
        f"on {c!r} o_{i} {d!r}"
    )


def phi_grav(diagram):
    """The zero-product-magma clique with every marked arc solid."""
    images = _gravity_images(diagram.arity)
    return _solid_clique(diagram.arity, diagram.mask) if images is None else images[diagram.mask]


def grav_check(clique):
    """The gravity condition over an arbitrary magma: the unit clique, or all
    edges and the base solid with crossing solid diagonals (x,y), (x',y'),
    x < x', forcing a non-solid (x', y).  The solid-arc mask is looked up in
    the family of its arity when it is tabled, else folded by the `grav` rule."""
    mask, family = variants._solid_mask(clique), _gravity_family(clique.arity)
    if family is None:
        return variants._accepts(variants._gravity_rule, clique.arity, mask)
    return mask in family


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
    """All gravity chord diagrams of an arity, by number of diagonals and
    then in lexicographic order of the chosen diagonals: the census walk of
    the `grav` rule, sorted."""
    row_width(arity, KnownOperadError)
    family = _gravity_family(arity)
    if family is not None:
        return list(family.values())
    return _sorted_diagrams(arity, list(_gravity_masks(arity)))


def _sorted_diagrams(arity, masks):
    """The diagrams of diagonal masks in `gravity_diagrams` order.  Of two
    masks with as many bits, the one with the lowest differing bit comes
    first: the larger bit-reversed mask."""
    frame, width = variants._frame_mask(arity), len(arcs_of(arity))
    masks.sort(key=lambda mask: (mask.bit_count(), -int(f"{mask:0{width}b}"[::-1], 2)))
    return [ChordDiagram._unsafe(arity, frame | mask) for mask in masks]


def gravity_cliques(magma, arity):
    """All cliques over a finite magma satisfying the gravity condition: each
    diagram's marked arcs take every non-unit labeling."""
    diagrams = gravity_diagrams(arity)
    nonunit, width = list(magma.nonunit_elements()), len(arcs_of(arity))
    out = []
    for diagram in diagrams:
        marked = [k for k in range(width) if diagram.mask >> k & 1]
        row = [magma.unit] * width
        for labeling in iproduct(nonunit, repeat=len(marked)):
            for k, label in zip(marked, labeling):
                row[k] = label
            out.append(Clique._unsafe(magma, arity, tuple(row)))
    return out


def lie_maximal(arity):
    """Gravity cliques with the most solid diagonals at this arity."""
    diagrams = gravity_diagrams(arity)
    best = max(d.mask.bit_count() for d in diagrams)
    return [phi_grav(d) for d in diagrams if d.mask.bit_count() == best]


# -- morphism checks -------------------------------------------------------


def _morphism_law(family, arity_pairs, pool, phi, encoding):
    """The slab law phi(a o_i b) == phi(a) o_i phi(b) over every pair
    (a, b) from the pools of the given arity pairs and every i.  Each
    arity's pool and images are built once.

    `encoding` is the family's mask encoding: the clique magma, the masks
    of an element, the label of each mask's bits, and the family's
    membership test of a composite's masks (None when every mask is a
    member).  The label blocks hold one column per component.  The family
    side remaps the masks through `_compose_tables` and reads the flag
    tables; the clique side composes the images' labels with
    `_compose_block`.  The membership test, when given, is asserted once
    per distinct composite in each slab.
    """
    import numpy as np

    magma, masks, values, member = encoding
    arities = {n for pair in arity_pairs for n in pair}
    pools = {n: list(pool(n)) for n in arities}
    dtype = _label_dtype(magma)
    star = _star(magma)
    bits = {n: np.array([masks(a) for a in pool], dtype=np.int64)
            for n, pool in pools.items()}
    labels = {n: np.array([phi(a).labels for a in pool], dtype=dtype)
              for n, pool in pools.items()}

    def remap(masks, tables):
        # `_remap` over a mask array
        out = np.zeros_like(masks)
        for c, table in enumerate(tables):
            out |= np.array(table, dtype=np.int64)[masks >> 8 * c & 0xFF]
        return out

    def flags(masks, width, value):
        # `_flags` over a mask array: one label row per mask
        return np.concatenate([
            np.array(table, dtype=dtype)[masks >> 8 * c & 0xFF]
            for c, table in enumerate(_flag_tables(width, value))
        ], axis=-1)

    def family_side(n, m, i, rows):
        outer, inner = _compose_tables(n, m, i)
        composed = (remap(bits[n][rows], outer)[:, None]
                    | remap(bits[m], inner)[None, :]).reshape(-1, len(values))
        if member is not None:
            # one test per distinct composite; the first one outside, in slab
            # order, names the failing pair
            distinct, where = np.unique(composed, axis=0, return_inverse=True)
            outside = np.array([not member(n + m - 1, *row) for row in distinct.tolist()])
            left = np.flatnonzero(outside[where.reshape(-1)])
            if left.size:
                k, ny = int(left[0]), len(pools[m])
                raise _left_the_family(pools[n][rows.start + k // ny], i, pools[m][k % ny])
        width = len(arcs_of(n + m - 1))
        return sum(flags(composed[:, c], width, value) for c, value in enumerate(values))

    def broken(n, m, i, rows):
        return family_side(n, m, i, rows) != _compose_block(
            labels[n][rows], n, labels[m], m, i, star,
        )

    def describe(a, i, b):
        return f"{family} morphism fails on {a!r} o_{i} {b!r}"

    return arity_pairs, pools, pools, broken, describe


def _clique_multitildes(arity):
    """Multi-tildes with a clique picture: all but the nontrivial arity-1 one."""
    return (s for s in all_multitildes(arity) if arity > 1 or not s.mask)


def _clique_double_multitildes(arity):
    return (s for s in all_double_multitildes(arity)
            if arity > 1 or not (s.mask1 or s.mask2))


def verify_known_ops(max_arity):
    """The multi-tilde and gravity embeddings commute with composition on
    every composable pair up to composite arity `max_arity` (the nontrivial
    arity-1 multi-tilde, which has no clique, excluded).

    Both laws run on label blocks, through the slab engine.  A gravity
    diagram is a multi-tilde mask, so gravity shares the multi-tilde
    encoding; every distinct composite mask of a slab is asserted to meet
    the gravity condition, and the clique side, equal row for row, is then
    closed as well: gravity closure is asserted throughout.
    """
    arity_pairs = composable_pairs(max_arity)
    return slab_laws("known-ops", (_morphism_law(*law) for law in (
        ("multi-tilde", arity_pairs, _clique_multitildes, phi_mt,
         (_D0, lambda s: (s.mask,), (_SOLID,), None)),
        ("gravity", arity_pairs, gravity_diagrams, phi_grav,
         (_D0, lambda c: (c.mask,), (_SOLID,),
          partial(variants._accepts, variants._gravity_rule))),
    )))


def verify_double_multitildes(arity_pairs):
    """The double multi-tilde embedding commutes with composition on every
    pair of the given (n, m) arities and every i (the three nontrivial
    arity-1 double multi-tildes, which have no clique, excluded), on label
    blocks as in `verify_known_ops`.
    """
    return slab_laws("known-ops", [_morphism_law(
        "double multi-tilde", arity_pairs, _clique_double_multitildes, phi_dmt,
        (_D0_SQUARED, lambda s: (s.mask1, s.mask2), (_FIRST, _SECOND), None),
    )])
