"""Decorated cliques: total arc labelings of a polygon by magma elements.

An arity-n clique labels every arc (x, y), 1 <= x < y <= n + 1, by an
element of its magma.  Arcs labeled by the unit count as missing; the
statistics (degree, crossing, nesting, acyclicity) are those of the
underlying configuration of solid arcs.

Every reindexing of arcs (composition, reflection, rotation, splitting
along a diagonal) is an index plan: a tuple whose k-th entry says which
entry of a source tuple the k-th arc of the result reads.  `index_plan`
builds each plan once per shape, under `lru_cache`, as an `IndexPlan`:
the index tuple, which numpy label blocks take as a column selection,
and its picker, an `operator.itemgetter` that builds one result clique's
labels from a source tuple in a single C call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product as iproduct
from operator import itemgetter
from typing import Callable, NamedTuple

from .magma import MAX_TABLE_ENTRIES, MagmaError, UnitaryMagma, parse_magma_spec


class CliqueError(ValueError):
    """Ill-formed clique data or an inapplicable clique operation."""


def row_width(arity, error=CliqueError, row="label"):
    """The number of arcs at the arity, counted without building them.

    The one arity check: `error` refuses anything but an `int` (a bool, a
    float or a string), an arity below 1, and an arity whose row of one
    entry per arc would pass MAX_TABLE_ENTRIES (an arity above 1447), so
    that a public constructor refuses it before building `arcs_of`.
    """
    if type(arity) is not int:
        raise error(f"arity must be an int, not {arity!r}")
    if arity < 1:
        raise error(f"arity must be positive, not {arity}")
    width = arity * (arity + 1) // 2
    if width > MAX_TABLE_ENTRIES:
        raise error(
            f"arity {arity} needs a {width}-entry {row} row; "
            f"at most {MAX_TABLE_ENTRIES} entries are supported"
        )
    return width


def arc_position(arity, arc, error=CliqueError):
    """The index of `arc` in `arcs_of(arity)`, by `_arc_at`.  The one arc
    check: at an arity `row_width` passed, `error` refuses anything but a
    pair (tuple or list) of `int`s x, y with 1 <= x < y <= arity + 1."""
    if (not isinstance(arc, (tuple, list)) or len(arc) != 2
            or type(arc[0]) is not int or type(arc[1]) is not int
            or not 1 <= arc[0] < arc[1] <= arity + 1):
        raise error(f"{arc!r} is not an arc at arity {arity}")
    return _arc_at(arity, *arc)


def _arc_at(arity, x, y):
    """The index of the arc (x, y) in `arcs_of(arity)`, from the arc alone:
    the one position rule.  Trusted: (x, y) comes from `arcs_of` or has
    passed `arc_position`."""
    # arcs_of order: each x' < x comes first, with arity + 1 - x' arcs
    return (x - 1) * (2 * arity + 2 - x) // 2 + y - x - 1


@lru_cache(maxsize=None)
def arcs_of(arity):
    """All arcs of an arity-n polygon in lexicographic order."""
    return tuple(
        (x, y) for x in range(1, arity + 1) for y in range(x + 1, arity + 2)
    )


@lru_cache(maxsize=None)
def diagonals_of(arity):
    """The arcs that `arc_class` calls diagonals, in arc order."""
    return tuple(arc for arc in arcs_of(arity) if arc_class(arity, *arc) == "diagonal")


def arc_class(arity, x, y):
    """Classify the arc (x, y) as "base" (1, arity+1), "edge" (x, x+1) or
    "diagonal", derived, never stored; at arity 1 the one arc is the base.
    Trusted: (x, y) is an arc, as `arc_position` checks."""
    if x == 1 and y == arity + 1:
        return "base"
    if y == x + 1:
        return "edge"
    return "diagonal"


def crossing(a, b):
    """Whether two arcs (x, y) and (x', y') cross: x < x' < y < y' either way."""
    (x, y), (xp, yp) = a, b
    return x < xp < y < yp or xp < x < yp < y


def nested_in(inner, outer):
    """Whether arc `inner` is nested in arc `outer`: x <= x' < y' <= y."""
    (xp, yp), (x, y) = inner, outer
    return x <= xp < yp <= y


class Clique:
    """An immutable M-decorated clique, stored as labels in arc order."""

    __slots__ = ("magma", "arity", "labels", "_hash")

    def __init__(self, magma, arity, labels):
        width = row_width(arity)
        labels = tuple(labels)
        if len(labels) != width:
            raise CliqueError(f"arity {arity} needs {width} labels, got {len(labels)}")
        for lab in labels:
            if not magma.contains(lab):
                raise CliqueError(f"label {lab!r} is not an element of {magma.name}")
        if arity == 1 and labels[0] != magma.unit:
            raise CliqueError("the only arity-1 clique has its base labeled by the unit")
        self.magma = magma
        self.arity = arity
        self.labels = labels
        self._hash = None

    @classmethod
    def _unsafe(cls, magma, arity, labels):
        # trusted fast path for enumeration loops
        self = object.__new__(cls)
        self.magma = magma
        self.arity = arity
        self.labels = labels
        self._hash = None
        return self

    @staticmethod
    def unit(magma):
        return Clique._unsafe(magma, 1, (magma.unit,))

    @staticmethod
    def from_arcs(magma, arity, arc_labels):
        """Build a clique from a {(x, y): label} mapping; missing arcs get the unit."""
        labels = [magma.unit] * row_width(arity)
        for arc, lab in arc_labels.items():
            labels[arc_position(arity, arc)] = lab
        return Clique(magma, arity, labels)

    @staticmethod
    def triangle(magma, base, edge1, edge2):
        """The arity-2 clique with the given base and edge labels."""
        return Clique(magma, 2, (edge1, base, edge2))

    # -- access -----------------------------------------------------------

    def label(self, x, y):
        return self.labels[arc_position(self.arity, (x, y))]

    @property
    def base_label(self):
        return self.labels[_arc_at(self.arity, 1, self.arity + 1)]

    def edge_label(self, i):
        """The label of the edge (i, i+1); at arity 1 that is the base."""
        if type(i) is not int or not 1 <= i <= self.arity:  # the arc rule for (i, i+1)
            raise CliqueError(f"no edge {i!r} at arity {self.arity}")
        return self.labels[_arc_at(self.arity, i, i + 1)]

    def is_solid(self, x, y):
        return self.label(x, y) != self.magma.unit

    def solid_arcs(self):
        """The solid arcs in lexicographic order."""
        return tuple(iter_solid_arcs(self))

    def solid_diagonals(self):
        return tuple(
            arc for arc in self.solid_arcs()
            if arc_class(self.arity, *arc) == "diagonal"
        )

    def with_label(self, x, y, lab):
        labels = list(self.labels)
        labels[arc_position(self.arity, (x, y))] = lab
        return Clique(self.magma, self.arity, labels)

    def skeleton(self):
        """Vertex count and the set of solid arcs as undirected pairs."""
        return self.arity + 1, frozenset(frozenset(a) for a in self.solid_arcs())

    def __eq__(self, other):
        return (
            isinstance(other, Clique)
            and self.arity == other.arity
            and self.labels == other.labels
            and self.magma == other.magma
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.arity, self.labels, self.magma))
        return self._hash

    def __lt__(self, other):
        if self.arity != other.arity:
            return self.arity < other.arity
        return self.labels < other.labels

    def __repr__(self):
        solid = ", ".join(
            f"({x},{y})={self.magma.elem_name(lab)}"
            for (x, y), lab in zip(arcs_of(self.arity), self.labels)
            if lab != self.magma.unit
        )
        return f"Clique[{self.magma.name}|{self.arity}|{solid or 'all-unit'}]"


def _label_count(arity):
    """How many free labels a clique of the arity has: one per arc,
    n(n+1)/2, counted without building the arcs; none at arity 1, whose
    only clique is the unit."""
    return arity * (arity + 1) // 2 if arity > 1 else 0


def clique_space_size(magma, arity):
    return magma.size ** _label_count(arity)


# The largest clique space `generate_cliques` keeps, in cliques.  Under
# tracemalloc (CPython 3.11) the largest spaces it admits hold at most
# 10.8 MiB each: 59,049 cliques of arity 4 over a 3-element magma (D:1,
# N:3), 32,768 of arity 5 over D:0 7.25 MiB, 59,319 of arity 2 over E:38
# 7.7 MiB.
_SHARED_SPACE_CAP = 1 << 16


def _power_exceeds(base, exponent, bound):
    """Whether base^exponent > bound, exactly.  For base >= 2 the power
    exceeds the bound as soon as the exponent reaches the bound's bit
    length, so it is only built when it is small: built in full, a huge
    power costs more than the space it measures."""
    return (base > 1 and exponent >= bound.bit_length()) or base ** exponent > bound


def _shares_space(magma, arity):
    """Whether clique_space_size(magma, arity) <= _SHARED_SPACE_CAP."""
    return not _power_exceeds(magma.size, _label_count(arity), _SHARED_SPACE_CAP)


def generate_cliques(magma, arity):
    """An iterator over all cliques of the given arity, in lexicographic
    label order, each once.

    A space of at most `_SHARED_SPACE_CAP` cliques (2^16; such a space
    holds at most 10.8 MiB) is built once per magma object and arity, on
    first use, and kept on the magma (`_spaces`) for the magma's lifetime:
    every later call returns an iterator over the same `Clique` instances,
    which are immutable by contract, and builds none.  Equal magmas keep
    their own spaces, so each clique's `.magma` is the magma it was asked
    for.  A larger space streams, one new clique at a time, and is never
    held.  Errors (an infinite magma, an arity `row_width` refuses) are
    raised at the first `next()`, not by the call.
    """
    space = magma._spaces.get(arity)
    if space is not None and type(arity) is int:  # 2.0 and True hash as 2 and 1
        return iter(space)  # no generator frame resumed per clique
    return _first_enumeration(magma, arity)


def _first_enumeration(magma, arity):
    """`generate_cliques` before the space is kept: checks the arguments,
    then streams the space or builds, keeps and yields it."""
    if not magma.is_finite:
        raise MagmaError("cannot enumerate cliques over an infinite magma")
    row_width(arity)
    if not _shares_space(magma, arity):
        yield from _stream_cliques(magma, arity)
        return
    space = magma._spaces.get(arity)
    if space is None:
        space = magma._spaces[arity] = tuple(_stream_cliques(magma, arity))
    yield from space


def _stream_cliques(magma, arity):
    """New cliques of a finite magma and a positive arity, in the order of
    `generate_cliques`."""
    if arity == 1:
        yield Clique.unit(magma)
        return
    new = object.__new__
    for labels in iproduct(range(magma.size), repeat=len(arcs_of(arity))):
        # the slots of `Clique._unsafe`, filled in the census loop itself
        clique = new(Clique)
        clique.magma = magma
        clique.arity = arity
        clique.labels = labels
        clique._hash = None
        yield clique


def iter_solid_arcs(clique):
    """The solid arcs of a clique in lexicographic order, one at a time."""
    return compress(arcs_of(clique.arity), clique.labels)  # solid = truthy


class IndexPlan(NamedTuple):
    arity: int  # the arity of the result
    source: tuple  # per result arc, the index of its label in the source tuple
    pick: Callable  # source tuple -> the result's labels, one C call


def index_plan(arity, source):
    """The plan of an arity-`arity` result whose k-th arc reads source[k].

    `pick(labels)` equals `tuple(labels[k] for k in source)`; a one-entry
    plan (arity 1) picks a one-entry slice, since `itemgetter(k)` alone
    would return the bare label.
    """
    source = tuple(source)
    if len(source) == 1:
        pick = itemgetter(slice(source[0], source[0] + 1))
    else:
        pick = itemgetter(*source)
    return IndexPlan(arity, source, pick)


# -- statistics -----------------------------------------------------------


def degree(clique):
    """Maximal number of solid arcs meeting a vertex."""
    counts = [0] * (clique.arity + 2)
    for x, y in clique.solid_arcs():
        counts[x] += 1
        counts[y] += 1
    return max(counts)


def crossing_number(clique):
    """Maximum over solid diagonals of the number of solid diagonals crossing it."""
    diags = clique.solid_diagonals()
    best = 0
    for d in diags:
        best = max(best, sum(1 for e in diags if crossing(d, e)))
    return best


def is_noncrossing(clique):
    diags = clique.solid_diagonals()
    return not any(
        crossing(diags[i], diags[j])
        for i in range(len(diags)) for j in range(i + 1, len(diags))
    )


def is_nesting_free(clique):
    """No solid arc nested in another.  Solid arcs come in lexicographic
    order, so that holds iff their starts and their ends both strictly
    increase along them: a repeated start or a non-increasing end is a
    nesting, and two arcs increasing in both cannot nest.  Their starts lie
    in 1..arity, so more solid arcs than the arity prove a nesting before
    the pass (the unit is 0: the non-zero labels are the solid arcs)."""
    labels = clique.labels
    if len(labels) - labels.count(0) > clique.arity:
        return False
    last_x = last_y = 0
    for x, y in compress(arcs_of(clique.arity), labels):
        if x <= last_x or y <= last_y:
            return False
        last_x, last_y = x, y
    return True


def is_acyclic(clique):
    _, arcset = clique.skeleton()
    adjacency = {}
    for pair in arcset:
        x, y = tuple(pair)
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
            stack.extend(
                (nxt, node) for nxt in adjacency[node] if nxt != parent
            )
    return True


def is_white(clique):
    """No solid edges and no solid base."""
    return all(
        arc_class(clique.arity, x, y) == "diagonal"
        for (x, y) in clique.solid_arcs()
    )


def is_bubble(clique):
    return not clique.solid_diagonals()


def is_triangle(clique):
    return clique.arity == 2


def is_prime(clique):
    """Whether every diagonal, solid or not, is crossed by some solid diagonal.

    Arity 1 is never prime; triangles have no diagonals and are vacuously
    prime.  Only the solidity of the diagonal labels matters.
    """
    if clique.arity < 2:
        return False
    solid = clique.solid_diagonals()
    return all(
        any(crossing(d, e) for e in solid)
        for d in diagonals_of(clique.arity)
    )


def is_minimal_prime(clique):
    """Prime, and erasing any single solid arc destroys primality."""
    if not is_prime(clique):
        return False
    unit = clique.magma.unit
    return all(
        not is_prime(clique.with_label(x, y, unit))
        for (x, y) in clique.solid_arcs()
    )


def hamming(p, q):
    """Number of arcs on which two same-arity cliques disagree."""
    if p.arity != q.arity or p.magma != q.magma:
        raise CliqueError("Hamming distance needs equal arities and magmas")
    return sum(1 for a, b in zip(p.labels, q.labels) if a != b)


# -- symmetries -------------------------------------------------------------


@lru_cache(maxsize=None)
def _reflect_plan(arity):
    return index_plan(
        arity, (_arc_at(arity, arity - y + 2, arity - x + 2) for (x, y) in arcs_of(arity)),
    )


@lru_cache(maxsize=None)
def _rotate_plan(arity):
    return index_plan(arity, (
        _arc_at(arity, x + 1, y + 1) if y <= arity else _arc_at(arity, 1, x + 1)
        for (x, y) in arcs_of(arity)
    ))


def reflect(clique):
    """Reflection through the vertical line through the base: (x, y) reads (n-y+2, n-x+2)."""
    n = clique.arity
    return Clique._unsafe(clique.magma, n, _reflect_plan(n).pick(clique.labels))


def rotate(clique):
    """One counterclockwise rotation step: (x, y) reads (x+1, y+1), wrapping through the base."""
    n = clique.arity
    return Clique._unsafe(clique.magma, n, _rotate_plan(n).pick(clique.labels))


def relabel(clique, morphism):
    """Apply a validated magma morphism to every arc label."""
    if morphism.source != clique.magma:
        raise CliqueError("morphism source does not match the clique's magma")
    labels = tuple(morphism(lab) for lab in clique.labels)
    return Clique(morphism.target, clique.arity, labels)


# -- factorization ----------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def _split_plan(arity, x, y):
    """The outer and inner plans into `labels + (unit,)` for splitting along
    the diagonal (x, y), and the indices of the diagonals crossing it.

    (x, y) is checked by `arc_position` when its plans are built, and only
    then: the cache is typed, so 2.0 and True never read the plans of 2
    and 1.
    """
    arc_position(arity, (x, y))
    if arc_class(arity, x, y) != "diagonal":
        raise CliqueError(f"({x},{y}) is not a diagonal at arity {arity}")
    shift = y - x - 1
    outer_arity = arity + x - y + 1
    outer = index_plan(outer_arity, (
        _arc_at(arity, z, t) if t <= x
        else _arc_at(arity, z, t + shift) if z <= x
        else _arc_at(arity, z + shift, t + shift)
        for (z, t) in arcs_of(outer_arity)
    ))
    inner_arity = y - x
    unit = row_width(arity)
    inner = index_plan(inner_arity, (
        unit if (z, t) == (1, inner_arity + 1) else _arc_at(arity, z + x - 1, t + x - 1)
        for (z, t) in arcs_of(inner_arity)
    ))
    crossers = tuple(
        _arc_at(arity, *d) for d in diagonals_of(arity) if crossing((x, y), d)
    )
    return outer, inner, crossers


def split_along_diagonal(clique, diag):
    """Factor p = q o_x r along an uncrossed diagonal (x, y).

    q has arity n + x - y + 1 and keeps everything outside the diagonal,
    with the diagonal's label moved to its edge x; r has arity y - x,
    copies the inside, and gets a unit base.  `diag` is an arc by the rule
    of `arc_position`, else `CliqueError`.
    """
    n = clique.arity
    if not isinstance(diag, (tuple, list)) or len(diag) != 2:
        raise CliqueError(f"{diag!r} is not an arc at arity {n}")
    x, y = diag
    outer, inner, crossers = _split_plan(n, x, y)
    magma = clique.magma
    source = clique.labels + (magma.unit,)
    for k in crossers:
        if source[k] != magma.unit:
            raise CliqueError(
                f"diagonal ({x},{y}) is crossed by solid {arcs_of(n)[k]}; "
                "no factorization"
            )
    return (
        Clique._unsafe(magma, outer.arity, outer.pick(source)),
        Clique._unsafe(magma, inner.arity, inner.pick(source)),
    )


# -- serialization ------------------------------------------------------------


def clique_to_json(clique):
    """The JSON form: magma spec, arity, and the solid labels keyed "x,y"."""
    if clique.magma.spec is not None:
        magma_field = clique.magma.spec
    elif clique.magma.is_finite:
        magma_field = clique.magma.table_data()
    else:
        raise CliqueError("cannot serialize a clique over an unnamed infinite magma")
    labels = {
        f"{x},{y}": clique.magma.elem_name(lab)
        for (x, y), lab in zip(arcs_of(clique.arity), clique.labels)
        if lab != clique.magma.unit
    }
    return {"magma": magma_field, "arity": clique.arity, "labels": labels}


def clique_from_json(data, magma=None):
    """Read the JSON clique format; arcs omitted from `labels` default to the unit."""
    if not isinstance(data, dict):
        raise CliqueError(f"clique JSON must be an object, got {type(data).__name__}")
    if magma is None:
        field = data.get("magma")
        if isinstance(field, str):
            magma = parse_magma_spec(field)
        elif isinstance(field, dict):
            magma = UnitaryMagma.from_table_data(field)
        else:
            raise CliqueError("clique JSON needs a magma spec or table object")
    arity = data.get("arity")
    labels = data.get("labels", {})
    if not isinstance(labels, dict):
        raise CliqueError(f"clique JSON labels must be an object, got {type(labels).__name__}")
    arc_labels = {}
    for key, name in labels.items():
        try:
            x, y = (int(part) for part in key.split(","))
        except ValueError:
            raise CliqueError(f"bad arc key {key!r}")
        arc_labels[(x, y)] = magma.elem(name)
    return Clique.from_arcs(magma, arity, arc_labels)


def format_clique(clique):
    """Human-readable arc table, one row per starting vertex."""
    n = clique.arity
    lines = [f"arity {n} over {clique.magma.name}"]
    width = max(
        (len(clique.magma.elem_name(lab)) for lab in clique.labels), default=1
    )
    for x in range(1, n + 1):
        cells = []
        for y in range(x + 1, n + 2):
            cells.append(f"({x},{y})={clique.magma.elem_name(clique.label(x, y)):>{width}}")
        lines.append("  " + "  ".join(cells))
    return "\n".join(lines)
