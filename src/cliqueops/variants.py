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

from .clique import Clique, arc_class, arcs_of, crossing, nested_in
from .enumeration import generate_cliques
from .knownops import is_gravity_arcset
from .magma import has_nontrivial_unit_divisors
from .operad import LinComb, composable_pairs, partial_compose_lin
from .report import VerifyReport
from .verify import _compose_block, _label_blocks, _row_clique, _star, morphism_slabs

# numpy after the package modules: imported first, it would be loaded before
# enumeration.py and verify.py are compiled (see __init__.py)
import numpy as np  # noqa: E402


class VariantError(ValueError):
    """Unknown variant spec or a variant over an inapplicable magma."""


# -- predicates on solid-arc sets ------------------------------------------
# These operate on the skeleton only, so the census can prune partial
# labelings; the clique-level statistics in clique.py are the
# independent formulations the tests compare against.


def _max_degree(arcset):
    counts = {}
    for x, y in arcset:
        counts[x] = counts.get(x, 0) + 1
        counts[y] = counts.get(y, 0) + 1
    return max(counts.values(), default=0)


def _crossing_ok(arity, arcset, k):
    diags = [a for a in arcset if arc_class(arity, *a) == "diagonal"]
    for d in diags:
        if sum(1 for e in diags if crossing(d, e)) > k:
            return False
    return True


def _nesting_free(arcset):
    return not any(
        a != b and nested_in(a, b) for a in arcset for b in arcset
    )


def _acyclic(arcset):
    adjacency = {}
    for x, y in arcset:
        adjacency.setdefault(x, []).append(y)
        adjacency.setdefault(y, []).append(x)
    seen = set()
    for start in adjacency:
        if start in seen:
            continue
        stack = [(start, None)]
        while stack:
            node, parent = stack.pop()
            if node in seen:
                return False
            seen.add(node)
            stack.extend((nxt, node) for nxt in adjacency[node] if nxt != parent)
    return True


def _white(arity, arcset):
    return all(arc_class(arity, x, y) == "diagonal" for x, y in arcset)


def _bubble(arity, arcset):
    return all(arc_class(arity, x, y) != "diagonal" for x, y in arcset)


class VariantPredicate:
    """A clique subfamily with its status relative to the ambient operad."""

    __slots__ = (
        "spec", "magma", "status", "_member", "_ambient",
        "label_blind", "erasure_closed", "label_set_sizes", "_flag_tables",
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
        self._flag_tables = {}  # arity -> flags by key, filled by _block_flags

    def member(self, clique):
        if clique.magma != self.magma:
            raise VariantError("clique magma does not match the variant's magma")
        return self._member(clique)

    def in_ambient(self, clique):
        """Whether the clique lies in the ambient operad the variant is cut from."""
        if self._ambient is None:
            return True
        return self._ambient(clique)

    def skeleton_ok(self, arity, arcset):
        """Membership as a predicate on a solid-arc set (label-blind variants only)."""
        if not self.label_blind:
            raise VariantError(f"{self.spec} membership depends on labels")
        return self._member_skeleton(arity, tuple(arcset))

    def _member_skeleton(self, arity, arcset):
        raise NotImplementedError

    def _block_flags(self, arity, block):
        """`member` and `in_ambient` of every row of a label block of this arity.

        A row's key is its solid-arc mask for a label-blind variant and its
        label row otherwise, read as digits.  Both predicates run once per
        distinct key, on a clique with that key, and their answers stay in a
        per-arity table with one entry per possible key, so a warm call
        evaluates no predicate.
        """
        radix = 2 if self.label_blind else self.magma.size
        digits = block != self.magma.unit if self.label_blind else block
        width = block.shape[1]
        keys = digits.astype(np.int64) @ radix ** np.arange(width, dtype=np.int64)
        table = self._flag_tables.get(arity)
        if table is None:
            table = self._flag_tables[arity] = np.full(radix ** width, -1, dtype=np.int8)
        flags = table[keys]
        unknown = keys[flags < 0]
        if unknown.size:
            for key in dict.fromkeys(unknown.tolist()):
                labels = tuple(key // radix ** k % radix for k in range(width))
                clique = Clique._unsafe(self.magma, arity, labels)
                table[key] = self.member(clique) + 2 * self.in_ambient(clique)
            flags = table[keys]
        return (flags & 1).astype(bool), (flags & 2).astype(bool)

    def __repr__(self):
        return f"VariantPredicate({self.spec} over {self.magma.name}, {self.status})"


class _SkeletonVariant(VariantPredicate):
    """Variant whose membership depends only on the set of solid arcs."""

    __slots__ = ("_skel",)

    def __init__(self, spec, magma, status, skel, skel_ambient=None,
                 erasure_closed=True):
        self._skel = skel
        super().__init__(
            spec, magma, status,
            member=lambda p: skel(p.arity, p.solid_arcs()),
            ambient=(None if skel_ambient is None
                     else (lambda p: skel_ambient(p.arity, p.solid_arcs()))),
            label_blind=True,
            erasure_closed=erasure_closed,
        )

    def _member_skeleton(self, arity, arcset):
        return self._skel(arity, arcset)


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

    def member(p):
        for (x, y), lab in zip(arcs_of(p.arity), p.labels):
            cls = arc_class(p.arity, x, y)
            allowed = base_set if cls == "base" else edge_set if cls == "edge" else diag_set
            if lab not in allowed:
                return False
        return True

    names = ",".join(sorted(magma.elem_name(v) for v in base_set))
    namee = ",".join(sorted(magma.elem_name(v) for v in edge_set))
    named = ",".join(sorted(magma.elem_name(v) for v in diag_set))
    var = VariantPredicate(
        f"lab:{names};{namee};{named}", magma, "suboperad", member,
        label_blind=False,
    )
    var.label_set_sizes = (len(base_set), len(edge_set), len(diag_set))
    return var


def _int_arg(spec, arg):
    try:
        return int(arg)
    except ValueError:
        raise VariantError(f"variant spec {spec!r} needs an integer after ':'") from None


def variant(spec, magma, unchecked=False):
    """Build a variant from its spec string over the given magma.

    Specs: cro:<k>, deg:<k>, bub, nes, acy, whi, lab:<B>;<E>;<D>, wnc,
    pat, for, mot, dis, luc, grav.  `unchecked` skips the applicability
    condition (used by the ideal verifier to exhibit failures).
    """
    spec = spec.strip()
    kind, _, arg = spec.partition(":")
    if kind in NO_UNIT_DIVISOR_VARIANTS and not unchecked:
        _require_no_unit_divisors(kind, magma)

    if kind == "cro":
        k = _int_arg(spec, arg)
        return _SkeletonVariant(
            spec, magma, "both",
            lambda n, a, k=k: _crossing_ok(n, a, k),
        )
    if kind == "deg":
        k = _int_arg(spec, arg)
        return _SkeletonVariant(
            spec, magma, "quotient",
            lambda n, a, k=k: _max_degree(a) <= k,
        )
    if kind == "bub":
        return _SkeletonVariant(spec, magma, "quotient", _bubble)
    if kind == "nes":
        return _SkeletonVariant(
            spec, magma, "quotient", lambda n, a: _nesting_free(a)
        )
    if kind == "acy":
        return _SkeletonVariant(
            spec, magma, "quotient", lambda n, a: _acyclic(a)
        )
    if kind == "whi":
        return _SkeletonVariant(spec, magma, "suboperad", _white)
    if kind == "wnc":
        return _SkeletonVariant(
            spec, magma, "both",
            lambda n, a: _white(n, a) and _crossing_ok(n, a, 0),
            skel_ambient=_white,
        )
    if kind == "pat":
        return _SkeletonVariant(
            spec, magma, "quotient",
            lambda n, a: _max_degree(a) <= 2 and _acyclic(a),
        )
    if kind == "for":
        return _SkeletonVariant(
            spec, magma, "quotient",
            lambda n, a: _crossing_ok(n, a, 0) and _acyclic(a),
        )
    if kind == "mot":
        return _SkeletonVariant(
            spec, magma, "quotient",
            lambda n, a: _crossing_ok(n, a, 0) and _max_degree(a) <= 1,
        )
    if kind == "dis":
        return _SkeletonVariant(
            spec, magma, "quotient",
            lambda n, a: (_white(n, a) and _crossing_ok(n, a, 0)
                          and _max_degree(a) <= 1),
            skel_ambient=_white,
        )
    if kind == "luc":
        return _SkeletonVariant(
            spec, magma, "quotient",
            lambda n, a: _bubble(n, a) and _max_degree(a) <= 1,
        )
    if kind == "grav":
        # needs every edge and the base solid, so it is not erasure-closed
        return _SkeletonVariant(
            spec, magma, "suboperad", is_gravity_arcset, erasure_closed=False,
        )
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
    """Check the lemma containments and diagram implications on all cliques."""
    if has_nontrivial_unit_divisors(magma):
        raise VariantError(
            "the inclusion diagrams need a magma without nontrivial unit divisors"
        )
    variants = {}
    for lhs, rhs in INCLUSION_IMPLICATIONS:
        for spec in (lhs, rhs):
            if spec not in variants:
                variants[spec] = variant(spec, magma)
    checked = 0
    for n in range(1, max_arity + 1):
        for p in generate_cliques(magma, n):
            for lhs, rhs in INCLUSION_IMPLICATIONS:
                checked += 1
                if variants[lhs].member(p) and not variants[rhs].member(p):
                    return VerifyReport(
                        "inclusions", False, checked,
                        f"{p!r} is in {lhs} but not in {rhs}",
                    )
    return VerifyReport("inclusions", True, checked, None)
