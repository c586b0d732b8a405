"""Named subfamilies of decorated cliques and their operad status.

Each variant is a membership predicate together with its algebraic
status: suboperads compose as in the ambient operad (closure asserted),
quotients compose and then annihilate every non-member basis clique.
`_KINDS` holds every per-kind fact of the label-blind variants, once:
status, skeleton rule, ambient suboperad and applicability.  Two kinds
(white-noncrossing and dissections) live inside the white suboperad
rather than the whole clique operad, so their ideal checks quantify over
white cliques only.  `QUOTIENT_SPECS` is read from the table; `lab:` is
the one label-sensitive kind, built by `make_lab`.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, compress
from typing import Callable, NamedTuple

from .clique import _arc_at, arc_class, arcs_of, clique_space_size, crossing, nested_in
from .magma import has_nontrivial_unit_divisors
from .operad import LinComb, composable_pairs, partial_compose_lin
from .report import VerifyReport
from .verify import (
    VECTOR_CHUNK, _compose_block, _label_block, _label_blocks, _row_clique, _star,
    slab_laws,
)


class VariantError(ValueError):
    """Unknown variant spec or a variant over an inapplicable magma."""


# -- skeleton rules on arc bitmasks --------------------------------------------
# Bit j of a mask stands for arcs_of(arity)[j].  Each downward-closed rule is
# one test per arity, `rule.at(arity)(mask, comp, j)`: may arc j join the
# accepted set `mask`?  The same definition answers for one mask (a Python
# int) and for a `_MaskBlock` of masks (one answer per row), so it is
# written with `&`, `|`, `==`, `<` and `bit_count()` only.  A forest rule
# also reads `comp`, component labels of the polygon's vertices under the
# accepted arcs: bytes indexed by vertex for one mask, an (arity+2, N) int8
# array for a block (so comp[x] is vertex x's label in every row).
# Accepting arc (x, y) merges the labels of x and y (`_merge`); other rules
# get comp=None.  Membership of a whole mask folds the test over its bits
# in arc order, which is exact for a downward-closed rule, so the census
# can prune partial skeletons.  A framed rule (grav) counts its frame, the
# edges and the base, as solid and refuses their bits.  The clique-level
# statistics in clique.py are the independent formulations the tests
# compare against.


class Rule(NamedTuple):
    """A downward-closed skeleton rule: `at(arity)` is its test
    `admits(mask, comp, j)` at that arity, `forest` says whether the test
    reads component labels and `framed` whether it has a `_frame`."""

    at: Callable
    forest: bool = False
    framed: bool = False


def _rule(at, forest=False, framed=False):
    """The Rule whose per-arity tests `at` builds, each built once."""
    return Rule(lru_cache(maxsize=None)(at), forest, framed)


def _merge(comp, x, y):
    """Component labels once arc (x, y) is accepted: y's component takes
    x's label, in one mask's bytes or in every row of a block."""
    if isinstance(comp, bytes):
        return comp.replace(comp[y:y + 1], comp[x:x + 1])
    import numpy as np

    return np.where(comp == comp[y], comp[x], comp)


@lru_cache(maxsize=None)
def _start_labels(arity):
    """Component labels of the empty skeleton: every vertex on its own."""
    return bytes(range(arity + 2))


def _arc_masks(arity, related):
    arcs = arcs_of(arity)
    return tuple(
        sum(1 << k for k, b in enumerate(arcs) if related(a, b)) for a in arcs
    )


def _cross_masks(arity):
    """Per arc, the arcs crossing it (only diagonals ever cross)."""
    return _arc_masks(arity, crossing)


def _cross_bits(cross):
    """Per arc, (bit, crossing mask) of every arc that could cross it, from
    the arcs' `_cross_masks`."""
    return tuple(
        tuple((1 << c, cross[c]) for c in range(len(cross)) if mask >> c & 1)
        for mask in cross
    )


def _nest_masks(arity):
    """Per arc, the other arcs nested in it or around it."""
    return _arc_masks(
        arity, lambda a, b: a != b and (nested_in(a, b) or nested_in(b, a))
    )


def _incidence_masks(arity):
    """Per vertex 0..arity+1, the arcs meeting it."""
    arcs = arcs_of(arity)
    return tuple(
        sum(1 << k for k, arc in enumerate(arcs) if v in arc)
        for v in range(arity + 2)
    )


def _diagonal_flags(arity):
    return tuple(arc_class(arity, x, y) == "diagonal" for x, y in arcs_of(arity))


@lru_cache(maxsize=None)
def _degree_rule(k):
    """deg:k -- both endpoints of the arc meet fewer than k accepted arcs."""
    def at(arity):
        incident = _incidence_masks(arity)
        ends = [(incident[x], incident[y]) for x, y in arcs_of(arity)]

        def admits(mask, comp, j):
            ex, ey = ends[j]
            return ((ex & mask).bit_count() < k) & ((ey & mask).bit_count() < k)
        return admits
    return _rule(at)


@lru_cache(maxsize=None)
def _crossing_rule(k):
    """cro:k -- the arc meets at most k accepted crossers, and each of them
    meets fewer than k."""
    def at(arity):
        cross = _cross_masks(arity)
        crossers = _cross_bits(cross)

        def admits(mask, comp, j):
            ok = (cross[j] & mask).bit_count() <= k
            if k:  # with k = 0 no crosser is accepted, so none needs its own test
                for bit, theirs in crossers[j]:
                    ok = ok & (((bit & mask) == 0) | ((theirs & mask).bit_count() < k))
            return ok
        return admits
    return _rule(at)


def _nesting_at(arity):
    """nes -- no accepted arc is nested in the arc or around it."""
    nest = _nest_masks(arity)

    def admits(mask, comp, j):
        return (nest[j] & mask) == 0
    return admits


def _acyclic_at(arity):
    """acy -- the endpoints of the arc lie in different components yet."""
    arcs = arcs_of(arity)

    def admits(mask, comp, j):
        x, y = arcs[j]
        return comp[x] != comp[y]
    return admits


def _white_at(arity):
    """whi -- the arc is a diagonal."""
    diagonal = _diagonal_flags(arity)

    def admits(mask, comp, j):
        return diagonal[j]
    return admits


def _bubble_at(arity):
    """bub -- the arc is an edge or the base."""
    diagonal = _diagonal_flags(arity)

    def admits(mask, comp, j):
        return not diagonal[j]
    return admits


def _gravity_tests(arity):
    """grav, per arc: None for an edge or the base, which the rule refuses,
    and for a diagonal (x', y') the pair (edge_left, middles) that says no y
    with x' < y < y' has (x', y) marked (always, for the edge y = x'+1)
    together with a marked diagonal (x, y), x < x'.  With x < x'
    throughout, `edge_left` is the mask of the (x, x'+1) and `middles`
    holds, for each y > x'+1, the bit of (x', y) with the mask of the
    (x, y).  Every arc a test reads is a diagonal before (x', y') in arc
    order."""
    tests = []
    for (xp, yp), is_diagonal in zip(arcs_of(arity), _diagonal_flags(arity)):
        if not is_diagonal:
            tests.append(None)
            continue
        left = {y: sum(1 << _arc_at(arity, x, y) for x in range(1, xp))
                for y in range(xp + 1, yp)}
        tests.append((left[xp + 1], tuple(
            (1 << _arc_at(arity, xp, y), left[y]) for y in range(xp + 2, yp) if left[y]
        )))
    return tuple(tests)


def _gravity_at(arity):
    """grav -- the arc passes its `_gravity_tests` against the accepted arcs."""
    tests = _gravity_tests(arity)

    def admits(mask, comp, j):
        test = tests[j]
        if test is None:
            return False
        edge_left, middles = test
        ok = (mask & edge_left) == 0
        for middle, left in middles:
            ok = ok & (((mask & middle) == 0) | ((mask & left) == 0))
        return ok
    return admits


_nesting_rule = _rule(_nesting_at)
_acyclic_rule = _rule(_acyclic_at, forest=True)
_white_rule = _rule(_white_at)
_bubble_rule = _rule(_bubble_at)
_gravity_rule = _rule(_gravity_at, framed=True)


def _conjunction(*rules):
    def at(arity):
        tests = tuple(rule.at(arity) for rule in rules)

        def admits(mask, comp, j):
            ok = True
            for test in tests:
                ok = ok & test(mask, comp, j)
                if ok is False:  # one mask, refused: the other tests need not run
                    return ok
            return ok
        return admits
    return _rule(at, any(rule.forest for rule in rules))


@lru_cache(maxsize=None)
def _frame_mask(arity):
    """The edges and the base, but nothing at arity 1 (the unit clique)."""
    if arity == 1:
        return 0
    return sum(1 << j for j, diagonal in enumerate(_diagonal_flags(arity)) if not diagonal)


def _frame(rule, arity):
    """The arcs solid in every mask a rule accepts, left out of its test."""
    return _frame_mask(arity) if rule.framed else 0


def _accepts(rule, arity, mask):
    """Whether a rule accepts a whole solid-arc mask: its frame is solid (a
    frame arc missing from the mask is a set bit that the rule refuses),
    and every other arc, taken in arc order, joins the arcs before it.  A
    forest rule's fold also carries the component labels of the accepted
    arcs.  This is the one whole-mask test of every skeleton rule."""
    mask ^= _frame(rule, arity)
    admits, forest = rule.at(arity), rule.forest
    arcs, comp = (arcs_of(arity), _start_labels(arity)) if forest else (None, None)
    accepted = 0
    while mask:
        low = mask & -mask
        j = low.bit_length() - 1
        if not admits(accepted, comp, j):
            return False
        if forest:
            x, y = arcs[j]  # _merge, inlined: member is called per clique
            comp = comp.replace(comp[y:y + 1], comp[x:x + 1])
        accepted |= low
        mask ^= low
    return True


# -- the census walk over blocks of accepted masks ------------------------------


SKELETON_BLOCK = 1 << 14  # most masks in one block of the census walk
SCALAR_ROWS = 64  # blocks with fewer rows are extended one mask at a time
MASK_BITS = 63  # bits per int64 word of a mask: all but the sign bit


def _mask_words(masks, count):
    """Python int masks as a (count, len(masks)) array of MASK_BITS-bit words."""
    import numpy as np

    low = (1 << MASK_BITS) - 1
    return np.array(
        [[m >> (w * MASK_BITS) & low for m in masks] for w in range(count)],
        dtype=np.int64,
    ).reshape(count, len(masks))


@lru_cache(maxsize=None)
def _word_column(value, count):
    return _mask_words([value], count)


class _MaskBlock:
    """A block of arc masks, MASK_BITS bits per int64 word: row r is the sum
    over w of words[w, r] << (w * MASK_BITS).  It answers `&`, `|`, `==`
    and `bit_count()` row by row as a Python int answers them, so a rule
    tests a block with the definition it tests one mask with."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def __len__(self):
        return self.words.shape[1]

    def __getitem__(self, rows):
        return _MaskBlock(self.words[:, rows])

    def ints(self):
        return [
            sum(v << (w * MASK_BITS) for w, v in enumerate(column))
            for column in zip(*self.words.tolist())
        ]

    def _other(self, other):
        if isinstance(other, _MaskBlock):
            return other.words
        return _word_column(other, len(self.words))

    def __and__(self, other):
        return _MaskBlock(self.words & self._other(other))

    __rand__ = __and__

    def __or__(self, other):
        return _MaskBlock(self.words | self._other(other))

    def __eq__(self, other):
        equal = self.words == self._other(other)
        return equal[0] if len(equal) == 1 else equal.all(axis=0)

    def bit_count(self):
        import numpy as np

        counts = np.bitwise_count(self.words)
        return counts[0] if len(counts) == 1 else counts.sum(axis=0)


def _extend_block(arity, admits, masks, comp, live, j):
    """Children of a _MaskBlock from arc j on, all rows tested at once per
    arc, until SKELETON_BLOCK children wait.  Returns them, their count per
    arc and the next arc to try."""
    import numpy as np

    arcs = arcs_of(arity)
    added = [0] * len(arcs)
    children, waiting = [], 0
    while j < len(arcs) and waiting < SKELETON_BLOCK:
        n = live[j]
        part = None if comp is None else comp[:n].T  # part[x]: vertex x in every row
        ok = admits(masks[:n], part, j)
        rows = np.arange(n) if ok is True else np.flatnonzero(ok)
        if rows.size:
            added[j] = rows.size
            waiting += rows.size
            children.append((
                masks[rows] | 1 << j,
                None if comp is None else _merge(part[:, rows], *arcs[j]).T,
            ))
        j += 1
    if not children:
        return None, added, j
    masks = _MaskBlock(np.concatenate([c[0].words for c in children], axis=1))
    if comp is not None:
        comp = np.concatenate([c[1] for c in children])
    return (masks, comp), added, j


def _extend_rows(arity, admits, masks, comp, live):
    """Children of a small block, tested one mask at a time on Python ints,
    in the order _extend_block finds them, with their count per arc.  They
    stay Python ints and bytes unless there are SCALAR_ROWS of them."""
    arcs = arcs_of(arity)
    width = len(arcs)
    if isinstance(masks, _MaskBlock):
        masks = masks.ints()
        comp = None if comp is None else list(map(bytes, comp.tolist()))
    by_arc = [[] for _ in arcs]
    for r, (mask, lab) in enumerate(zip(masks, comp or [None] * len(masks))):
        for j in range(bisect_right(live, r), width):  # r < live[j]
            if admits(mask, lab, j):
                by_arc[j].append((
                    mask | 1 << j, None if lab is None else _merge(lab, *arcs[j]),
                ))
    found = [child for arc in by_arc for child in arc]
    if not found:
        return None, [0] * width
    masks = [m for m, _ in found]
    comp = None if comp is None else [c for _, c in found]
    if len(found) >= SCALAR_ROWS:  # the next extension tests them as a block
        import numpy as np

        masks = _MaskBlock(_mask_words(masks, max(1, -(-width // MASK_BITS))))
        if comp is not None:
            comp = np.frombuffer(b"".join(comp), dtype=np.int8).reshape(len(found), -1)
    return (masks, comp), list(map(len, by_arc))


def _skeleton_blocks(arity, rule):
    """Yield (masks, k): every mask the downward-closed rule accepts, once,
    in blocks of at most SKELETON_BLOCK masks that all have k arcs.

    A block is a list of Python ints or, from SCALAR_ROWS masks on, a
    _MaskBlock.  Its rows are sorted by their first free arc, and for a
    forest rule each row carries its component labels (bytes, or one row of
    an int8 array per mask).  The children of a block are its rows extended
    by one later arc that the rule admits.  A _MaskBlock tests all its rows
    at once, one arc after another, and once SKELETON_BLOCK children wait
    they are walked first, so a few blocks per arc count are held at any
    time, however many masks the rule accepts.  A smaller block is cheaper
    to test one mask at a time.
    """
    admits, width = rule.at(arity), len(arcs_of(arity))
    comp = [_start_labels(arity)] if rule.forest else None
    yield [0], 0
    # a frame: masks, their labels, their arc count, live[j] = how many
    # leading rows may take arc j (their first free arc is <= j), next arc
    stack = [[[0], comp, 0, [1] * width, 0]]
    while stack:
        frame = stack[-1]
        masks, comp, k, live, j = frame
        if isinstance(masks, list) or len(masks) < SCALAR_ROWS:
            children, added = _extend_rows(arity, admits, masks, comp, live)
            j = width
        else:
            children, added, j = _extend_block(arity, admits, masks, comp, live, j)
        if j == width:
            stack.pop()
        else:
            frame[4] = j
        if children is None:
            continue
        masks, comp = children
        # a child added by arc i has i + 1 as its first free arc
        child_live = list(accumulate([0] + added[:-1]))
        for lo in range(0, len(masks), SKELETON_BLOCK):
            hi = min(lo + SKELETON_BLOCK, len(masks))
            live = child_live
            if hi - lo < len(masks):
                live = [min(max(v - lo, 0), hi - lo) for v in child_live]
            yield masks[lo:hi], k + 1
            stack.append([
                masks[lo:hi], None if comp is None else comp[lo:hi], k + 1,
                live, bisect_right(live, 0),
            ])


@lru_cache(maxsize=None)
def _arc_bits(arity):
    return tuple(1 << j for j in range(len(arcs_of(arity))))


def _solid_mask(clique):
    """The solid-arc mask of a clique: bit j set when arcs_of(arity)[j] is solid."""
    return sum(compress(_arc_bits(clique.arity), clique.labels))  # solid = truthy


class VariantPredicate:
    """A clique subfamily with its status ("suboperad", "quotient" or
    "both") relative to the ambient operad.

    Subclasses define `status`, `label_blind`, `_member(clique)`,
    `in_ambient(clique)` and `_block_flags(arity, block)`: `member` and
    `in_ambient` of every row of a label block of that arity.
    """

    __slots__ = ("spec", "magma")
    label_set_sizes = None  # (b, e, d) for label-restricted variants

    def __init__(self, spec, magma):
        self.spec = spec
        self.magma = magma

    def member(self, clique):
        if clique.magma != self.magma:
            raise VariantError("clique magma does not match the variant's magma")
        return self._member(clique)

    def __repr__(self):
        return f"VariantPredicate({self.spec} over {self.magma.name}, {self.status})"


class _SkeletonVariant(VariantPredicate):
    """Variant whose membership depends only on the set of solid arcs.

    `rule` is its downward-closed Rule and `ambient_rule` the Rule of the
    ambient suboperad, if any.
    """

    __slots__ = ("status", "rule", "_ambient_rule")
    label_blind = True

    def __init__(self, spec, magma, status, rule, ambient_rule):
        super().__init__(spec, magma)
        self.status = status
        self.rule = rule
        self._ambient_rule = ambient_rule

    def _member(self, clique):
        return _accepts(self.rule, clique.arity, _solid_mask(clique))

    def in_ambient(self, clique):
        """Whether the clique lies in the ambient operad the variant is cut from."""
        return (self._ambient_rule is None
                or _accepts(self._ambient_rule, clique.arity, _solid_mask(clique)))

    def _block_flags(self, arity, block):
        """`member` and `in_ambient` of every row of a label block, read from
        a per-arity table with one entry per solid-arc mask."""
        import numpy as np

        table = _flag_table(arity, self.rule, self._ambient_rule)
        weights = 2 ** np.arange(block.shape[1], dtype=np.int64)
        flags = table[(block != self.magma.unit).astype(np.int64) @ weights]
        return (flags & 1).astype(bool), (flags & 2).astype(bool)


def _accepted(arity, rule):
    """1 for every solid-arc mask a downward-closed rule accepts, else 0:
    the masks the census walk reaches, with the rule's frame."""
    import numpy as np

    accepted = np.zeros(1 << len(arcs_of(arity)), dtype=np.int8)
    frame = _frame(rule, arity)
    for masks, _ in _skeleton_blocks(arity, rule):
        rows = masks.words[0] if isinstance(masks, _MaskBlock) else np.array(masks)
        accepted[rows | frame] = 1
    return accepted


@lru_cache(maxsize=None)
def _flag_table(arity, rule, ambient_rule):
    """member + 2 * in_ambient for every solid-arc mask at the arity, built
    once for every variant with the same rules (none depends on the magma)."""
    return _accepted(arity, rule) + 2 * (
        1 if ambient_rule is None else _accepted(arity, ambient_rule)
    )


class _LabelVariant(VariantPredicate):
    """Label-restricted suboperad: the base, each edge and each diagonal take
    labels from their own set.

    Its one rule is a per-arity table `allowed[arc][label]`; `member` reads a
    clique's labels from it and `_block_flags` a whole block at once.
    """

    __slots__ = ("_class_sets", "_allowed_tables", "label_set_sizes")
    status = "suboperad"
    label_blind = False

    def __init__(self, spec, magma, base_set, edge_set, diag_set):
        super().__init__(spec, magma)
        self._class_sets = {"base": base_set, "edge": edge_set, "diagonal": diag_set}
        self._allowed_tables = {}  # arity -> allowed[arc][label], built on first use
        self.label_set_sizes = (len(base_set), len(edge_set), len(diag_set))

    def _member(self, clique):
        return all(map(list.__getitem__, self._allowed(clique.arity), clique.labels))

    def in_ambient(self, clique):
        return True

    def _allowed(self, arity):
        """allowed[arc][label] as nested lists, for looking up one clique's
        labels."""
        table = self._allowed_tables.get(arity)
        if table is None:
            sets = [self._class_sets[arc_class(arity, x, y)] for x, y in arcs_of(arity)]
            table = self._allowed_tables[arity] = [
                [label in allowed for label in range(self.magma.size)] for allowed in sets
            ]
        return table

    def _block_flags(self, arity, block):
        """`member` and `in_ambient` of every row of a label block: one
        lookup of each column in its arc's row of `allowed`, ANDed."""
        import numpy as np

        table = np.array(self._allowed(arity), dtype=bool)
        member = table[0][block[:, 0]]
        for col in range(1, len(table)):
            member &= table[col][block[:, col]]
        return member, np.ones(len(block), dtype=bool)


def make_lab(magma, base_set, edge_set, diag_set, unchecked=False):
    """Label-restricted suboperad: base in B, edges in E, diagonals in D."""
    base_set, edge_set, diag_set = sets = tuple(map(frozenset, (base_set, edge_set, diag_set)))
    if not unchecked:
        if magma.unit not in base_set:
            raise VariantError("label restriction needs the unit in the base set")
        if magma.unit not in diag_set:
            raise VariantError("label restriction needs the unit in the diagonal set")
        if not magma.is_finite:
            raise VariantError("label restriction needs a finite magma")
        products = {
            magma.op(e, b) for e in edge_set for b in base_set
        }
        if not products <= diag_set:
            raise VariantError(
                "label restriction needs edge*base products inside the diagonal set"
            )
        if magma.unit not in edge_set:
            warnings.warn(
                "unit not in the edge label set: membership is still closed under "
                "composition, but the white suboperad does not embed",
                stacklevel=2,
            )

    names = (",".join(sorted(magma.elem_name(v) for v in labels)) for labels in sets)
    return _LabelVariant("lab:" + ";".join(names), magma, *sets)


class Kind(NamedTuple):
    """One row of `_KINDS`.  A kind that takes a bound k has as its rule the
    function of k that builds the Rule; an ambient of None is all cliques."""

    status: str  # "suboperad" | "quotient" | "both"
    rule: Rule | Callable
    ambient: Rule | None = None
    no_unit_divisors: bool = False  # needs a magma without nontrivial unit divisors


# Every label-blind kind, once; lab: is the one label-sensitive kind.
# kind -> Kind(status, rule, ambient rule, needs no unit divisors)
_KINDS = {
    "cro": Kind("both", _crossing_rule),
    "deg": Kind("quotient", _degree_rule, None, True),
    "bub": Kind("quotient", _bubble_rule),
    "nes": Kind("quotient", _nesting_rule, None, True),
    "acy": Kind("quotient", _acyclic_rule, None, True),
    "whi": Kind("suboperad", _white_rule),
    "wnc": Kind("both", _conjunction(_white_rule, _crossing_rule(0)), _white_rule),
    "pat": Kind("quotient", _conjunction(_degree_rule(2), _acyclic_rule), None, True),
    "for": Kind("quotient", _conjunction(_crossing_rule(0), _acyclic_rule), None, True),
    "mot": Kind("quotient", _conjunction(_crossing_rule(0), _degree_rule(1)), None, True),
    "dis": Kind("quotient", _conjunction(_white_rule, _crossing_rule(0), _degree_rule(1)),
                _white_rule, True),
    "luc": Kind("quotient", _conjunction(_bubble_rule, _degree_rule(1)), None, True),
    "grav": Kind("suboperad", _gravity_rule),
}


def variant(spec, magma, unchecked=False):
    """Build a variant from its spec string over the given magma.

    A spec is a kind of `_KINDS`, followed by `:k` when the kind takes a
    bound (k >= 0, in ASCII decimal digits; the variant's spec is then
    `kind:k`), or lab:<B>;<E>;<D>.  `unchecked` skips the applicability
    condition (used by the ideal verifier to exhibit failures).
    """
    spec = spec.strip()
    kind, colon, arg = spec.partition(":")
    if kind == "lab":
        parts = arg.split(";")
        if len(parts) != 3:
            raise VariantError("lab spec needs three ;-separated label lists")
        sets = [{magma.elem(nm) for nm in part.split(",") if nm} for part in parts]
        return make_lab(magma, *sets, unchecked=unchecked)
    row = _KINDS.get(kind)
    if row is None:
        raise VariantError(f"unknown variant spec {spec!r}")
    rule = row.rule
    if not isinstance(rule, Rule):
        if not (arg.isascii() and arg.isdigit()):
            raise VariantError(
                f"variant spec {spec!r} bounds a count, so k must be >= 0, "
                "in decimal digits after ':'"
            )
        spec, rule = f"{kind}:{int(arg)}", rule(int(arg))
    elif colon:
        raise VariantError(f"variant {kind!r} takes no bound, so {spec!r} is not a spec")
    if row.no_unit_divisors and not unchecked and has_nontrivial_unit_divisors(magma):
        raise VariantError(
            f"variant {kind!r} needs a magma without nontrivial unit divisors; "
            f"{magma.name} has some"
        )
    return _SkeletonVariant(spec, magma, row.status, rule, row.ambient)


VARIANT_SPECS = (
    "cro:0", "cro:1", "bub", "deg:0", "deg:1", "deg:2", "nes", "acy",
    "whi", "wnc", "pat", "for", "mot", "dis", "luc", "grav",
)

# The variants with a quotient structure, whose non-members form an ideal.
QUOTIENT_SPECS = tuple(
    spec for spec in VARIANT_SPECS if _KINDS[spec.partition(":")[0]].status != "suboperad"
)


def variant_compose(var, f, g, i):
    """Compose inside the variant: project for quotients, assert closure otherwise."""
    for h in (f, g):
        for clique in h.terms:
            if not var.in_ambient(clique) or not var.member(clique):
                raise VariantError(
                    f"operand clique {clique!r} is not a member of {var.spec}"
                )
    raw = partial_compose_lin(f, g, i)
    if var.status in ("quotient", "both"):
        kept = {c: v for c, v in raw.terms.items() if var.member(c)}
        projected = LinComb._unsafe((raw.magma, raw.arity), kept)
        if var.status == "both" and len(kept) != len(raw.terms):
            raise RuntimeError(
                f"variant {var.spec} is flagged suboperad-and-quotient but "
                "composition left the family; status flag is wrong"
            )
        return projected
    dropped = [c for c in raw.terms if not var.member(c)]
    if dropped:
        raise RuntimeError(
            f"variant {var.spec} is flagged as a suboperad but composing "
            f"members produced the non-member {dropped[0]!r}"
        )
    return raw


def verify_ideal(var, magma, max_arity):
    """Exhaustively check that non-members absorb composition on both sides:
    no composite of a non-member with an ambient clique, in either order, is
    a member.  Runs on label blocks, reading membership from the variant's
    flag tables."""
    if magma != var.magma:
        raise VariantError("clique magma does not match the variant's magma")
    outside, ambient = {}, {}
    for n, block in _label_blocks(magma, max_arity).items():
        member, in_ambient = var._block_flags(n, block)
        outside[n] = block[in_ambient & ~member]
        ambient[n] = block[in_ambient]
    star = _star(magma)

    def members(left, right):
        # the law breaks where a composite is a member
        def flags(n, m, i, rows):
            composed = _compose_block(left[n][rows], n, right[m], m, i, star)
            return var._block_flags(n + m - 1, composed)[0]

        return flags

    def clique(row):
        return _row_clique(magma, row)

    outside_first = (outside, ambient, members(outside, ambient), lambda p, i, q: (
        f"non-member {clique(p)!r} o_{i} {clique(q)!r} re-entered {var.spec}"
    ))
    ambient_first = (ambient, outside, members(ambient, outside), lambda q, i, p: (
        f"{clique(q)!r} o_{i} non-member {clique(p)!r} re-entered {var.spec}"
    ))
    return slab_laws(f"ideal:{var.spec}", [
        law for a, b in composable_pairs(max_arity)
        for law in (([(a, b)], *outside_first), ([(b, a)], *ambient_first))
    ])


# The containments behind the morphism diagrams, written as membership
# implications premise => conclusion between variant specs.
INCLUSION_IMPLICATIONS = (
    # ideal containments of the inclusion lemma
    ("deg:1", "acy"),      # not acyclic forces degree >= 2
    ("deg:0", "nes"),      # a nesting needs a solid arc
    ("deg:0", "bub"),      # a solid diagonal is a solid arc
    ("bub", "cro:0"),      # a crossing needs a solid diagonal
    ("bub", "deg:2"),      # degree >= 3 forces a solid diagonal
    ("nes", "deg:2"),      # degree >= 3 forces a nesting
    ("nes", "acy"),        # a solid cycle contains a nesting
    # main-diagram edges not already listed
    ("cro:0", "cro:1"),
    ("deg:0", "deg:1"),
    ("deg:1", "deg:2"),
    ("deg:0", "whi"),
    # secondary-diagram edges
    ("wnc", "whi"),
    ("wnc", "cro:0"),
    ("pat", "deg:2"),
    ("pat", "acy"),
    ("deg:1", "pat"),
    ("nes", "pat"),
    ("for", "cro:0"),
    ("for", "acy"),
    ("mot", "for"),
    ("mot", "cro:0"),
    ("mot", "deg:1"),
    ("dis", "wnc"),
    ("dis", "mot"),
    ("luc", "mot"),
    ("luc", "bub"),
    ("luc", "deg:1"),
)


def verify_inclusions(magma, max_arity):
    """Check the lemma containments and diagram implications on all cliques.

    Runs on label blocks of at most VECTOR_CHUNK labels, reading membership
    from the variants' flag tables; each clique counts once per
    implication, in the order of `generate_cliques` and then of
    INCLUSION_IMPLICATIONS.
    """
    import numpy as np

    if has_nontrivial_unit_divisors(magma):
        raise VariantError(
            "the inclusion diagrams need a magma without nontrivial unit divisors"
        )
    variants = {
        spec: variant(spec, magma)
        for spec in dict.fromkeys(spec for pair in INCLUSION_IMPLICATIONS for spec in pair)
    }
    checked = 0
    for n in range(1, max_arity + 1):
        step = max(1, VECTOR_CHUNK // len(arcs_of(n)))
        for lo in range(0, clique_space_size(magma, n), step):
            block = _label_block(magma, n, slice(lo, lo + step))
            member = {spec: var._block_flags(n, block)[0] for spec, var in variants.items()}
            broken = np.stack(
                [member[lhs] & ~member[rhs] for lhs, rhs in INCLUSION_IMPLICATIONS], axis=1
            )
            if broken.any():
                k = int(np.argmax(broken.ravel()))  # first (clique, implication) pair
                row, t = divmod(k, len(INCLUSION_IMPLICATIONS))
                lhs, rhs = INCLUSION_IMPLICATIONS[t]
                return VerifyReport(
                    "inclusions", False, checked + k + 1,
                    f"{_row_clique(magma, block[row])!r} is in {lhs} but not in {rhs}",
                )
            checked += broken.size
    return VerifyReport("inclusions", True, checked, None)
