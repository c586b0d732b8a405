"""Named subfamilies of decorated cliques and their operad status.

Each variant is a membership predicate together with its algebraic
status: suboperads compose as in the ambient operad (closure asserted),
quotients compose and then annihilate every non-member basis clique.
Two of the variants (white-noncrossing and dissections) live inside the
white suboperad rather than the whole clique operad, so their ideal
checks quantify over white cliques only.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

from .clique import arc_class, arcs_of, crossing, nested_in
from .enumeration import clique_space_size
from .knownops import is_gravity_arcset
from .magma import has_nontrivial_unit_divisors
from .operad import LinComb, composable_pairs, partial_compose_lin
from .report import VerifyReport
from .verify import (
    VECTOR_CHUNK, _compose_block, _label_block, _label_blocks, _row_clique, _star,
    morphism_slabs,
)

# numpy after the package modules: imported first, it would be loaded before
# enumeration.py and verify.py are compiled (see __init__.py)
import numpy as np  # noqa: E402


class VariantError(ValueError):
    """Unknown variant spec or a variant over an inapplicable magma."""


# -- skeleton rules on arc bitmasks --------------------------------------------
# Bit j of a mask stands for arcs_of(arity)[j].  Each downward-closed rule
# is one stateless test `admits(arity, mask, j)`: may arc j join the
# accepted set `mask`?  Membership of a whole mask folds the test over its
# bits in arc order, which is exact for a downward-closed rule, so the
# census can prune partial skeletons.  The clique-level statistics in
# clique.py are the independent formulations the tests compare against.


def _arc_masks(arity, related):
    arcs = arcs_of(arity)
    return tuple(
        sum(1 << k for k, b in enumerate(arcs) if related(a, b)) for a in arcs
    )


@lru_cache(maxsize=None)
def _cross_masks(arity):
    """Per arc, the arcs crossing it (only diagonals ever cross)."""
    return _arc_masks(arity, crossing)


@lru_cache(maxsize=None)
def _nest_masks(arity):
    """Per arc, the other arcs nested in it or around it."""
    return _arc_masks(
        arity, lambda a, b: a != b and (nested_in(a, b) or nested_in(b, a))
    )


@lru_cache(maxsize=None)
def _incidence_masks(arity):
    """Per vertex 0..arity+1, the arcs meeting it."""
    arcs = arcs_of(arity)
    return tuple(
        sum(1 << k for k, arc in enumerate(arcs) if v in arc)
        for v in range(arity + 2)
    )


@lru_cache(maxsize=None)
def _neighbours(arity):
    """Per vertex, (arc bit, other endpoint) for every arc meeting it."""
    arcs = arcs_of(arity)
    return tuple(
        tuple((1 << k, x + y - v) for k, (x, y) in enumerate(arcs) if v in (x, y))
        for v in range(arity + 2)
    )


@lru_cache(maxsize=None)
def _diagonal_flags(arity):
    return tuple(arc_class(arity, x, y) == "diagonal" for x, y in arcs_of(arity))


def _degree_rule(k):
    """deg:k -- both endpoints of the arc meet fewer than k accepted arcs."""
    def admits(arity, mask, j):
        x, y = arcs_of(arity)[j]
        incident = _incidence_masks(arity)
        return (incident[x] & mask).bit_count() < k and (incident[y] & mask).bit_count() < k
    return admits


def _crossing_rule(k):
    """cro:k -- the arc meets at most k accepted crossers, and each of them
    meets fewer than k."""
    def admits(arity, mask, j):
        cross = _cross_masks(arity)
        crossers = cross[j] & mask
        if crossers.bit_count() > k:
            return False
        while crossers:
            low = crossers & -crossers
            if (cross[low.bit_length() - 1] & mask).bit_count() >= k:
                return False
            crossers ^= low
        return True
    return admits


def _nesting_rule(arity, mask, j):
    """nes -- no accepted arc is nested in the arc or around it."""
    return not _nest_masks(arity)[j] & mask


def _acyclic_rule(arity, mask, j):
    """acy -- no path of accepted arcs joins the endpoints of the arc yet."""
    x, y = arcs_of(arity)[j]
    incident = _incidence_masks(arity)
    if not (incident[x] & mask and incident[y] & mask):
        return True
    neighbours = _neighbours(arity)
    seen, stack = 1 << x, [x]
    while stack:
        for bit, w in neighbours[stack.pop()]:
            if mask & bit and not seen >> w & 1:
                if w == y:
                    return False
                seen |= 1 << w
                stack.append(w)
    return True


def _white_rule(arity, mask, j):
    """whi -- the arc is a diagonal."""
    return _diagonal_flags(arity)[j]


def _bubble_rule(arity, mask, j):
    """bub -- the arc is an edge or the base."""
    return not _diagonal_flags(arity)[j]


def _conjunction(*rules):
    def admits(arity, mask, j):
        for rule in rules:
            if not rule(arity, mask, j):
                return False
        return True
    return admits


def _fold(admits, arity, mask):
    """Whether a downward-closed rule accepts a whole mask: every arc, taken
    in arc order, joins the arcs before it."""
    accepted = 0
    while mask:
        low = mask & -mask
        if not admits(arity, accepted, low.bit_length() - 1):
            return False
        accepted |= low
        mask ^= low
    return True


def _gravity_mask(arity, mask):
    arcs = arcs_of(arity)
    return is_gravity_arcset(arity, [arcs[j] for j in range(len(arcs)) if mask >> j & 1])


def _solid_mask(clique):
    """The solid-arc mask of a clique: bit j set when arcs_of(arity)[j] is solid."""
    unit = clique.magma.unit
    return sum(1 << j for j, lab in enumerate(clique.labels) if lab != unit)


class VariantPredicate:
    """A clique subfamily with its status relative to the ambient operad.

    Subclasses answer `_block_flags(arity, block)`: `member` and
    `in_ambient` of every row of a label block of that arity.
    """

    __slots__ = (
        "spec", "magma", "status", "_member", "_ambient",
        "label_blind", "erasure_closed", "label_set_sizes",
    )

    def __init__(self, spec, magma, status, member, ambient=None,
                 label_blind=True, erasure_closed=True):
        self.spec = spec
        self.magma = magma
        self.status = status  # "suboperad" | "quotient" | "both"
        self._member = member
        self._ambient = ambient
        self.label_blind = label_blind
        self.erasure_closed = erasure_closed
        self.label_set_sizes = None  # (b, e, d) for label-restricted variants

    def member(self, clique):
        if clique.magma != self.magma:
            raise VariantError("clique magma does not match the variant's magma")
        return self._member(clique)

    def in_ambient(self, clique):
        """Whether the clique lies in the ambient operad the variant is cut from."""
        if self._ambient is None:
            return True
        return self._ambient(clique)

    def __repr__(self):
        return f"VariantPredicate({self.spec} over {self.magma.name}, {self.status})"


class _SkeletonVariant(VariantPredicate):
    """Variant whose membership depends only on the set of solid arcs.

    `admits` is its downward-closed rule, or None when membership is the
    whole-mask test `whole` instead (erasing arcs can leave the family);
    `ambient_admits` is the rule of the ambient suboperad, if any.
    """

    __slots__ = ("admits", "_whole", "_ambient_admits", "_flag_tables")

    def __init__(self, spec, magma, status, admits=None, ambient_admits=None,
                 whole=None):
        self.admits = admits
        self._whole = whole
        self._ambient_admits = ambient_admits
        self._flag_tables = {}  # arity -> flags by solid-arc mask
        super().__init__(
            spec, magma, status,
            member=lambda p: self.mask_member(p.arity, _solid_mask(p)),
            ambient=(None if ambient_admits is None
                     else (lambda p: self.mask_in_ambient(p.arity, _solid_mask(p)))),
            label_blind=True,
            erasure_closed=admits is not None,
        )

    def mask_member(self, arity, mask):
        """Membership of the cliques whose solid-arc mask is `mask`."""
        if self.admits is None:
            return self._whole(arity, mask)
        return _fold(self.admits, arity, mask)

    def mask_in_ambient(self, arity, mask):
        """Whether the cliques whose solid-arc mask is `mask` lie in the ambient."""
        return self._ambient_admits is None or _fold(self._ambient_admits, arity, mask)

    def _block_flags(self, arity, block):
        """`member` and `in_ambient` of every row of a label block, read from
        a per-arity table with one entry per solid-arc mask."""
        table = self._flag_tables.get(arity)
        if table is None:
            table = self._flag_tables[arity] = self._flag_table(arity)
        weights = 2 ** np.arange(block.shape[1], dtype=np.int64)
        flags = table[(block != self.magma.unit).astype(np.int64) @ weights]
        return (flags & 1).astype(bool), (flags & 2).astype(bool)

    def _flag_table(self, arity):
        # member + 2 * in_ambient for every mask at once; under a
        # downward-closed rule a mask's flags are its arc-order prefix's
        # (the mask less its last arc) and one test
        width = len(arcs_of(arity))
        if self.admits is None:
            flags = bytearray(
                self.mask_member(arity, mask) + 2 * self.mask_in_ambient(arity, mask)
                for mask in range(1 << width)
            )
            return np.frombuffer(flags, dtype=np.int8)
        admits, ambient = self.admits, self._ambient_admits
        flags = bytearray([3])
        for j in range(width):
            for prefix in range(1 << j):
                f = flags[prefix]
                if f & 1 and not admits(arity, prefix, j):
                    f -= 1
                if f & 2 and ambient is not None and not ambient(arity, prefix, j):
                    f -= 2
                flags.append(f)
        return np.frombuffer(flags, dtype=np.int8)


class _LabelVariant(VariantPredicate):
    """Label-restricted suboperad: the base, each edge and each diagonal take
    labels from their own set.

    Its one rule is a per-arity table `allowed[arc, label]`; `member` reads a
    clique's labels from it and `_block_flags` a whole block at once.
    """

    __slots__ = ("_class_sets", "_allowed_tables")

    def __init__(self, spec, magma, base_set, edge_set, diag_set):
        self._class_sets = {"base": base_set, "edge": edge_set, "diagonal": diag_set}
        self._allowed_tables = {}  # arity -> allowed[arc, label], built on first use
        super().__init__(
            spec, magma, "suboperad",
            member=lambda p: all(map(list.__getitem__, self._allowed(p.arity)[1], p.labels)),
            label_blind=False,
        )
        self.label_set_sizes = (len(base_set), len(edge_set), len(diag_set))

    def _allowed(self, arity):
        """allowed[arc, label] as a numpy table, and as nested lists for
        looking up one clique's labels."""
        tables = self._allowed_tables.get(arity)
        if tables is None:
            arcs = arcs_of(arity)
            table = np.zeros((len(arcs), self.magma.size), dtype=bool)
            for j, (x, y) in enumerate(arcs):
                table[j, list(self._class_sets[arc_class(arity, x, y)])] = True
            tables = self._allowed_tables[arity] = (table, table.tolist())
        return tables

    def _block_flags(self, arity, block):
        """`member` and `in_ambient` of every row of a label block."""
        table = self._allowed(arity)[0]
        return (table[np.arange(len(table)), block].all(axis=1),
                np.ones(len(block), dtype=bool))


NO_UNIT_DIVISOR_VARIANTS = ("deg", "nes", "acy", "pat", "for", "mot", "dis", "luc")


def _require_no_unit_divisors(kind, magma):
    if has_nontrivial_unit_divisors(magma):
        raise VariantError(
            f"variant {kind!r} needs a magma without nontrivial unit divisors; "
            f"{magma.name} has some"
        )


def make_lab(magma, base_set, edge_set, diag_set, unchecked=False):
    """Label-restricted suboperad: base in B, edges in E, diagonals in D."""
    base_set = frozenset(base_set)
    edge_set = frozenset(edge_set)
    diag_set = frozenset(diag_set)
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

    names = ",".join(sorted(magma.elem_name(v) for v in base_set))
    namee = ",".join(sorted(magma.elem_name(v) for v in edge_set))
    named = ",".join(sorted(magma.elem_name(v) for v in diag_set))
    return _LabelVariant(
        f"lab:{names};{namee};{named}", magma, base_set, edge_set, diag_set,
    )


def _int_arg(spec, arg):
    try:
        k = int(arg)
    except ValueError:
        raise VariantError(f"variant spec {spec!r} needs an integer after ':'") from None
    if k < 0:
        raise VariantError(f"variant spec {spec!r} bounds a count, so k must be >= 0")
    return k


# kind -> (status, rule, rule of the ambient suboperad or None)
_SKELETON_KINDS = {
    "bub": ("quotient", _bubble_rule, None),
    "nes": ("quotient", _nesting_rule, None),
    "acy": ("quotient", _acyclic_rule, None),
    "whi": ("suboperad", _white_rule, None),
    "wnc": ("both", _conjunction(_white_rule, _crossing_rule(0)), _white_rule),
    "pat": ("quotient", _conjunction(_degree_rule(2), _acyclic_rule), None),
    "for": ("quotient", _conjunction(_crossing_rule(0), _acyclic_rule), None),
    "mot": ("quotient", _conjunction(_crossing_rule(0), _degree_rule(1)), None),
    "dis": ("quotient", _conjunction(_white_rule, _crossing_rule(0), _degree_rule(1)),
            _white_rule),
    "luc": ("quotient", _conjunction(_bubble_rule, _degree_rule(1)), None),
}


def variant(spec, magma, unchecked=False):
    """Build a variant from its spec string over the given magma.

    Specs: cro:<k>, deg:<k> (k >= 0), bub, nes, acy, whi, lab:<B>;<E>;<D>, wnc,
    pat, for, mot, dis, luc, grav.  `unchecked` skips the applicability
    condition (used by the ideal verifier to exhibit failures).
    """
    spec = spec.strip()
    kind, _, arg = spec.partition(":")
    if kind in NO_UNIT_DIVISOR_VARIANTS and not unchecked:
        _require_no_unit_divisors(kind, magma)

    if kind in ("cro", "deg"):
        k = _int_arg(spec, arg)
        rule = _crossing_rule(k) if kind == "cro" else _degree_rule(k)
        return _SkeletonVariant(spec, magma, "both" if kind == "cro" else "quotient", rule)
    if kind in _SKELETON_KINDS:
        status, rule, ambient = _SKELETON_KINDS[kind]
        return _SkeletonVariant(spec, magma, status, rule, ambient_admits=ambient)
    if kind == "grav":
        # needs every edge and the base solid, so it is not erasure-closed
        return _SkeletonVariant(spec, magma, "suboperad", whole=_gravity_mask)
    if kind == "lab":
        parts = arg.split(";")
        if len(parts) != 3:
            raise VariantError("lab spec needs three ;-separated label lists")
        sets = []
        for part in parts:
            names = [nm for nm in part.split(",") if nm]
            sets.append({magma.elem(nm) for nm in names})
        return make_lab(magma, *sets, unchecked=unchecked)
    raise VariantError(f"unknown variant spec {spec!r}")


VARIANT_SPECS = (
    "cro:0", "cro:1", "bub", "deg:0", "deg:1", "deg:2", "nes", "acy",
    "whi", "wnc", "pat", "for", "mot", "dis", "luc", "grav",
)

# The variants with a quotient structure, whose non-members form an ideal.
QUOTIENT_SPECS = (
    "cro:0", "bub", "deg:0", "deg:1", "deg:2", "nes", "acy",
    "wnc", "pat", "for", "mot", "dis", "luc",
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

    def absorbed(left, right):
        # the two sides of the law: member flags of every composite, all false
        def members(n, m, i, rows):
            composed = _compose_block(left[n][rows], n, right[m], m, i, star)
            return var._block_flags(n + m - 1, composed)[0][:, None]

        def none(n, m, i, rows):
            return np.zeros(((rows.stop - rows.start) * len(right[m]), 1), dtype=bool)

        return members, none

    def clique(row):
        return _row_clique(magma, row)

    name = f"ideal:{var.spec}"
    checked = 0
    for a, b in composable_pairs(max_arity):
        more, failure = morphism_slabs(
            [(a, b)], outside, *absorbed(outside, ambient), right_pools=ambient,
        )
        checked += more
        if failure is not None:
            p, i, q = failure
            return VerifyReport(
                name, False, checked,
                f"non-member {clique(p)!r} o_{i} {clique(q)!r} re-entered {var.spec}",
            )
        more, failure = morphism_slabs(
            [(b, a)], ambient, *absorbed(ambient, outside), right_pools=outside,
        )
        checked += more
        if failure is not None:
            q, i, p = failure
            return VerifyReport(
                name, False, checked,
                f"{clique(q)!r} o_{i} non-member {clique(p)!r} re-entered {var.spec}",
            )
    return VerifyReport(name, True, checked, None)


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
