"""Census engines: dimension formulas, prime counts, the Dyck-path
bijection for nesting-free cliques, and sequence export.  Clique
generation itself (`generate_cliques`) lives in clique.py, so that the
verifiers and variants, which this module imports, need not import it.

Counting a label-blind variant goes over solid-arc masks (bit j is
arcs_of(arity)[j]) and weights each accepted mask by (m-1)^#arcs.  Its
rule is one downward-closed test per arc (the rules of the kinds in
`variants._KINDS`), and the walk `variants._skeleton_blocks` extends only
accepted masks, block by block: a block holds masks with the same arc
count, and the rule tests all its rows at once, one arc after another
(small blocks one mask at a time).  The walk's result is a histogram of
accepted masks by arc count, which no magma enters: it is kept once per
arity and rule (`_SKELETON_HISTOGRAMS`), and each count weights it by
(m-1)^k in Python ints.  The budget counts walked masks as the walk
yields them; a kept histogram serves a call only when its total, the
masks the walk yielded, fits that call's budget, and otherwise the walk
runs again and refuses as before.  grav's n + 1 edges and base are solid
in every member and left out of the walk, which they multiply by
(m-1)^(n+1).  Label-sensitive variants (lab:) are counted over numpy
label blocks of the dense label space, one `_block_flags` call per
block, under the clique budget m^#arcs.

The prime census scans the 2^#diagonals diagonal-solidity patterns in
numpy blocks, in one process, and its budget is measured in patterns.
Its result is also a histogram, of kept patterns by solid-diagonal count,
kept once per size and minimality (`_PRIME_HISTOGRAMS`) and weighted per
magma; the budget is checked before the histogram is read or built.  The
pattern and clique budgets count their space from the arity alone,
without building any arc, and state it as a power.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import compress

from .clique import (
    Clique, CliqueError, _arc_at, _label_count, _power_exceeds, arcs_of,
    clique_space_size, crossing, diagonals_of, is_nesting_free, row_width,
)
from .magma import has_nontrivial_unit_divisors
from . import variants
from .verify import VECTOR_CHUNK, _label_block

DEFAULT_BUDGET = 2 ** 24


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the configured size budget."""


def _diagonal_count(arity):
    """len(diagonals_of(arity)): every arc but the n edges and the base."""
    return _label_count(arity) - arity - 1 if arity > 1 else 0


def _check_budget(base, exponent, unit, arity, budget):
    """Refuse a space of base^exponent `unit` at an arity over the budget,
    by the exact `clique._power_exceeds`, which builds no huge power."""
    if budget is not None and _power_exceeds(base, exponent, budget):
        raise BudgetError(
            f"{base}^{exponent} {unit} at arity {arity} exceed the budget "
            f"{budget}; raise it explicitly to proceed"
        )


# -- closed dimension formulas ----------------------------------------------


def narayana(n, k):
    """The Narayana number C(n-2, k) * C(n-1, k) / (k + 1)."""
    if k < 0 or k > n - 2:
        return 0
    return math.comb(n - 2, k) * math.comb(n - 1, k) // (k + 1)


def dim_all_cliques(m, n):
    if n == 1:
        return 1
    return m ** math.comb(n + 1, 2)


def dim_label_restricted(bed, n):
    if not isinstance(bed, (tuple, list)) or len(bed) != 3:
        raise variants.VariantError("label-restricted dimensions need (b, e, d) sizes")
    if n == 1:
        return 1
    b, e, d = bed
    return b * e ** n * d ** ((n + 1) * (n - 2) // 2)


def dim_white(m, n):
    return dim_label_restricted((1, 1, m), n)


def dim_bubble(m, n):
    if n == 1:
        return 1
    return m ** (n + 1)


def dim_nesting_free(m, n):
    if n == 1:
        return 1
    return sum((m - 1) ** k * narayana(n + 2, k) for k in range(n + 1))


# kind -> closed dimension formula(m or (b, e, d), n); "all" is every clique
_FORMULAS = {
    "all": dim_all_cliques, "lab": dim_label_restricted, "whi": dim_white,
    "bub": dim_bubble, "nes": dim_nesting_free,
}


def dim_formula(spec, m_or_bed, n):
    """Closed dimension for the variants that have one; others are rejected."""
    row_width(n)
    formula = _FORMULAS.get(spec.partition(":")[0])
    if formula is None:
        raise variants.VariantError(f"no closed dimension formula for {spec!r}")
    return formula(m_or_bed, n)


# -- weighted skeleton census -------------------------------------------------


# (arity, rule) -> accepted masks per arc count k; its sum is the masks walked
_SKELETON_HISTOGRAMS = {}


def _weigh(histogram, weight):
    """Sum weight^k over a histogram of items by k, in Python ints: the
    weights outgrow int64."""
    return sum(h * weight ** k for k, h in enumerate(histogram))


def _census_skeletons(arity, rule, budget):
    """How many masks the downward-closed rule accepts, per arc count.

    The walk runs once per (arity, rule) and its histogram is kept.  It
    refuses to pass more than `budget` masks (checked once per block; None
    for no budget), so a kept histogram serves only a budget its total fits
    in; under a smaller one the walk runs again and refuses at the block,
    and with the message, of a walk with nothing kept.
    """
    key = (arity, rule)
    histogram = _SKELETON_HISTOGRAMS.get(key)
    if histogram is not None and (budget is None or sum(histogram) <= budget):
        return histogram
    counts = [0] * (len(arcs_of(arity)) + 1)
    walked = 0
    for masks, k in variants._skeleton_blocks(arity, rule):
        walked += len(masks)
        if budget is not None and walked > budget:
            raise BudgetError(
                f"the walk passed {walked} skeleton masks at arity {arity}, over "
                f"the budget {budget}; raise it explicitly to proceed"
            )
        counts[k] += len(masks)
    histogram = _SKELETON_HISTOGRAMS[key] = tuple(counts)
    return histogram


def _count_label_blocks(var, magma, arity):
    """Members of a label-sensitive variant, counted over label blocks of at
    most VECTOR_CHUNK cells."""
    step = max(1, VECTOR_CHUNK // len(arcs_of(arity)))
    count = 0
    for lo in range(0, clique_space_size(magma, arity), step):
        member, in_ambient = var._block_flags(
            arity, _label_block(magma, arity, slice(lo, lo + step)),
        )
        count += int((member & in_ambient).sum())
    return count


def _closed_count(var, arity):
    """The closed formula's count of the variant at this arity, or None when
    it has no formula."""
    sizes = var.magma.size if var.label_set_sizes is None else var.label_set_sizes
    formula = _FORMULAS.get(var.spec.partition(":")[0])
    return None if formula is None else formula(sizes, arity)


def count_by_enumeration(spec, magma, arity, budget=DEFAULT_BUDGET):
    """Number of arity-n members of the variant, with formula cross-check.

    A label-blind variant is counted over solid-arc masks, each weighted by
    (m-1)^#arcs, by the pruned walk of its rule (and its frame), under a
    budget in walked masks.  A label-sensitive variant is counted over
    label blocks of the full clique space, under the clique budget.
    """
    row_width(arity)
    var = variants.variant(spec, magma)
    if arity == 1:
        return 1
    weight = magma.size - 1
    if var.label_blind:
        frame = variants._frame(var.rule, arity)
        count = weight ** frame.bit_count() * _weigh(
            _census_skeletons(arity, var.rule, budget), weight,
        )
    else:
        _check_budget(magma.size, _label_count(arity), "cliques", arity, budget)
        count = _count_label_blocks(var, magma, arity)
    expected = _closed_count(var, arity)
    if expected is not None and count != expected:
        raise RuntimeError(
            f"census of {spec} at arity {arity} gave {count}, but the closed "
            f"formula gives {expected}"
        )
    return count


# -- prime census --------------------------------------------------------------


PATTERN_BLOCK = 1 << 20  # int64 patterns per numpy block of the prime census


def _diagonal_cross_masks(arity):
    """The diagonals of the arity and, per diagonal, the mask of the
    diagonals crossing it (bit j for diagonals_of(arity)[j])."""
    diags = diagonals_of(arity)
    masks = []
    for d in diags:
        mask = 0
        for j, e in enumerate(diags):
            if crossing(d, e):
                mask |= 1 << j
        masks.append(mask)
    return diags, tuple(masks)


# (arity, want_minimal) -> kept diagonal patterns per solid-diagonal count
_PRIME_HISTOGRAMS = {}


def _prime_patterns(arity, want_minimal):
    """How many prime (or minimal prime) diagonal patterns have each number
    of solid diagonals, over all 2^#diagonals patterns taken in numpy
    blocks of at most PATTERN_BLOCK patterns.

    A pattern is prime when it meets every diagonal's crossing mask.  A
    prime pattern p is minimal when no solid diagonal can be dropped: b can
    go unless it is the only crosser in p of some diagonal, so p is minimal
    exactly when the single-bit values among p & mask, over all masks,
    OR up to p.
    """
    import numpy as np

    diags, masks = _diagonal_cross_masks(arity)
    size = 1 << len(diags)
    histogram = np.zeros(len(diags) + 1, dtype=np.int64)  # kept patterns by #solid
    for start in range(0, size, PATTERN_BLOCK):
        patterns = np.arange(start, min(start + PATTERN_BLOCK, size), dtype=np.int64)
        for mask in masks:
            patterns = patterns[(patterns & mask) != 0]
        if want_minimal:
            sole = np.zeros_like(patterns)
            for mask in masks:
                crossers = patterns & mask
                sole |= np.where((crossers & (crossers - 1)) == 0, crossers, 0)
            patterns = patterns[sole == patterns]
        histogram += np.bincount(np.bitwise_count(patterns), minlength=len(histogram))
    return tuple(histogram.tolist())


def _prime_pattern_weight(magma, arity, want_minimal, budget):
    # A clique is prime iff every diagonal is crossed by a solid diagonal,
    # so primality is a property of the diagonal-solidity pattern alone,
    # and the scan of the patterns is kept per (arity, want_minimal).  The
    # budget counts the whole pattern space, so it is checked first.
    row_width(arity)
    if arity < 2:
        return 0
    _check_budget(2, _diagonal_count(arity), "diagonal patterns", arity, budget)
    key = (arity, want_minimal)
    histogram = _PRIME_HISTOGRAMS.get(key)
    if histogram is None:
        histogram = _PRIME_HISTOGRAMS[key] = _prime_patterns(arity, want_minimal)
    return _weigh(histogram, magma.size - 1)


def count_white_prime(magma, arity, budget=DEFAULT_BUDGET):
    """Number of prime cliques with non-solid edges and base."""
    return _prime_pattern_weight(magma, arity, False, budget)


def prime_from_white(magma, arity, white):
    """Number of prime cliques given the white ones: a clique is prime iff
    its diagonals are, so each of the m^(n+1) labelings of the edges and
    the base turns a white prime into a prime."""
    return magma.size ** (arity + 1) * white


def count_prime(magma, arity, budget=DEFAULT_BUDGET):
    """Number of prime cliques."""
    white = count_white_prime(magma, arity, budget=budget)
    return prime_from_white(magma, arity, white)


def count_minimal_prime(magma, arity, budget=DEFAULT_BUDGET):
    """Number of minimal prime cliques (all of them are white)."""
    return _prime_pattern_weight(magma, arity, True, budget)


# -- Dyck-path bijection ---------------------------------------------------------


class ColoredDyckWord:
    """A balanced word over {a, b} whose even-position a letters carry colors.

    Positions are 1-based; `colors` maps the position of each colored a
    to a non-unit label of the magma (checked with `magma.contains`).
    """

    __slots__ = ("magma", "letters", "colors")

    def __init__(self, magma, letters, colors):
        self.magma = magma
        self.letters = tuple(letters)
        self.colors = dict(colors)
        word = self.letters
        if len(word) % 2:
            raise CliqueError("colored word length must be even")
        depth = 0
        for ch in word:
            if ch not in ("a", "b"):
                raise CliqueError(f"bad letter {ch!r}")
            depth += 1 if ch == "a" else -1
            if depth < 0:
                raise CliqueError("word is not prefix-dominated")
        if depth != 0:
            raise CliqueError("word is not balanced")
        for pos in self.colors:
            if pos % 2 or word[pos - 1] != "a":
                raise CliqueError("colors are allowed exactly on even-position a letters")
            color = self.colors[pos]
            if not self.magma.contains(color):
                raise CliqueError(f"color {color!r} is not an element of {self.magma.name}")
            if color == self.magma.unit:
                raise CliqueError("colors must be non-unit labels")
        for pos in range(2, len(word) + 1, 2):
            if word[pos - 1] == "a" and pos not in self.colors:
                raise CliqueError(f"even-position a at {pos} is uncolored")

    def __eq__(self, other):
        return (
            isinstance(other, ColoredDyckWord)
            and self.magma == other.magma
            and self.letters == other.letters
            and self.colors == other.colors
        )

    def __hash__(self):
        return hash((self.magma, self.letters, tuple(sorted(self.colors.items()))))

    def __str__(self):
        parts = []
        for pos, ch in enumerate(self.letters, start=1):
            if pos in self.colors:
                parts.append(f"a[{self.magma.elem_name(self.colors[pos])}]")
            else:
                parts.append(ch)
        return "".join(parts)


def dyck_encode(clique):
    """Encode a nesting-free clique as a colored Dyck word, vertex by vertex.

    Vertex x contributes `aa` when it only starts a solid arc, `bb` when
    it only ends one, `ba` when it does both, and `ab` otherwise; the
    second letter of a starting vertex carries the arc's label.
    """
    if has_nontrivial_unit_divisors(clique.magma):
        raise variants.VariantError(
            "the Dyck correspondence needs a magma without nontrivial unit divisors"
        )
    if not is_nesting_free(clique):
        raise CliqueError("clique is not nesting-free")
    labels = clique.labels
    outgoing = {}
    incoming = set()
    for (x, y), lab in compress(zip(arcs_of(clique.arity), labels), labels):
        outgoing[x] = lab
        incoming.add(y)
    letters = []
    colors = {}
    for vertex in range(1, clique.arity + 2):
        starts = vertex in outgoing
        ends = vertex in incoming
        if starts and not ends:
            letters += ["a", "a"]
            colors[len(letters)] = outgoing[vertex]
        elif ends and not starts:
            letters += ["b", "b"]
        elif starts and ends:
            letters += ["b", "a"]
            colors[len(letters)] = outgoing[vertex]
        else:
            letters += ["a", "b"]
    return ColoredDyckWord(clique.magma, tuple(letters), colors)


def dyck_decode(word):
    """Rebuild the unique nesting-free clique encoded by a colored word."""
    length = len(word.letters)
    if length % 2:
        raise CliqueError("colored word length must be even")
    vertex_count = length // 2
    arity = vertex_count - 1
    labels = [word.magma.unit] * row_width(arity)
    starts = []  # start vertices waiting for an end, in order
    letters = word.letters
    for vertex in range(1, vertex_count + 1):
        pair = letters[2 * vertex - 2] + letters[2 * vertex - 1]
        if pair == "ab":
            continue
        if pair in ("bb", "ba"):
            if not starts:
                raise CliqueError("word closes an arc that never opened")
            src, lab = starts.pop(0)
            if vertex <= src:
                raise CliqueError("arc closes before it opens")
            labels[_arc_at(arity, src, vertex)] = lab
        if pair in ("aa", "ba"):
            starts.append((vertex, word.colors[2 * vertex]))
    if starts:
        raise CliqueError("word leaves an arc open")
    clique = Clique(word.magma, arity, labels)
    if not is_nesting_free(clique):
        raise CliqueError("decoded arc set is not nesting-free")
    return clique


# -- sequence export -----------------------------------------------------------


@dataclass
class SequenceRecord:
    """A computed integer sequence with its provenance."""

    variant: str
    magma_spec: str
    entries: list  # list of (arity, count)
    provenance: str = "enumeration"  # "formula" | "enumeration" | "both"

    def __post_init__(self):
        if self.provenance not in ("formula", "enumeration", "both"):
            raise ValueError(f"bad provenance {self.provenance!r}")


def sequence_for(spec, magma, max_arity, budget=DEFAULT_BUDGET):
    """Counts for arities 1..max_arity, with provenance recorded."""
    row_width(max_arity)
    var = variants.variant(spec, magma)
    if not var.label_blind:
        # the largest arity has the most cliques: refuse it before counting any
        _check_budget(magma.size, _label_count(max_arity), "cliques", max_arity, budget)
    entries = [
        (n, count_by_enumeration(spec, magma, n, budget=budget))
        for n in range(1, max_arity + 1)
    ]
    has_formula = all(_closed_count(var, n) is not None for n, _ in entries)
    return SequenceRecord(
        var.spec, magma.spec or magma.name, entries,
        "both" if has_formula else "enumeration",
    )


def export_sequence(record, fmt):
    """Render a sequence as OEIS b-file lines, CSV, or JSON."""
    if fmt == "b":
        return "".join(f"{n} {count}\n" for n, count in record.entries)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["arity", "count"])
        for n, count in record.entries:
            writer.writerow([n, count])
        return buffer.getvalue()
    if fmt == "json":
        return json.dumps(
            {
                "variant": record.variant,
                "magma": record.magma_spec,
                "provenance": record.provenance,
                "entries": [[n, count] for n, count in record.entries],
            },
            indent=2,
        ) + "\n"
    raise ValueError(f"unknown sequence format {fmt!r}")
