"""Exhaustive verifiers for the operad laws on decorated cliques.

Associativity is checked on every triple of basis cliques whose
composite arity stays within the bound.  Triples containing the arity-1
clique reduce to the unit law, which is checked separately, so the
triple scan runs over arities >= 2.  The default engine is the
plan-level vector engine.  In p o_i q every arc copies an arc of p or q,
is the unit, or is the glued product p_i * q_0, so per shape
(n, m, k, i, j) it composes both sides' index plans symbolically: it
compares the copy and unit entries once, and evaluates the product
entries through the star table on every instance of the (x, y, z) grid,
one slab at a time.  The scalar engine, one instance at a time on clique
objects, is its cross-check on the small carriers; both name a failure
in the same words.  The unit law x o_i 1 = x = 1 o_1 x
is one plan-level law that both engines share, the deliberately broken
`corrupt` rule included: it evaluates the product entries on every
clique of an arity up to UNIT_LAW_CAP, and checks the plans alone beyond.

The same label blocks check every other composition law exhaustively:
`slab_laws` runs a list of laws slab by slab, each flagging the pairs
that break it, and builds the report.  It runs the reflection,
automorphism and rotation laws (the last holds over commutative magmas
only; see `verify_cyclic`), the product isomorphism and the ideal law of
variants.py.  It is the only engine of the operad-morphism laws of
ratfct.py and knownops.py (rational functions, multi-tildes, double
multi-tildes and gravity); their one-instance-at-a-time loops are kept
as test references.  A block composite is one scatter, `_apply_plan`, of
an index plan over two label blocks.  The injectivity scan of the
basic-set basis composes label blocks too, and finds a repeated
composite by its radix key.
"""

from __future__ import annotations

import math
import random
from functools import partial

from . import clique as _clique
from .clique import (
    Clique, CliqueError, _label_count, arcs_of, clique_space_size, generate_cliques,
    reflect, rotate,
)
from .magma import (
    MagmaError, UnitaryMagma, automorphisms, is_right_cancelable, pair_value,
    unpair_value,
)
from .operad import (
    composable_pairs, compose_glued, composition_plan, partial_compose,
    partial_compose_lin,
)
from .report import VerifyReport

_Z = UnitaryMagma.integers()

# the unit law evaluates every clique of an arity up to this many; larger
# spaces get the label-independent plan check
UNIT_LAW_CAP = 1 << 16
VECTOR_CHUNK = 1 << 22  # cells per numpy slab: result labels, or axiom instances


def _compose_corrupt(p, q, i):
    # deliberately wrong rule: the glued arc forgets q's base label
    return compose_glued(p, q, i, p.edge_label(i))


def _axiom_configs(max_arity):
    """Arity triples (all >= 2) whose axiom-1/2 composites stay in bound."""
    configs = []
    for n in range(2, max_arity + 1):
        for m in range(2, max_arity + 1):
            for k in range(2, max_arity + 1):
                if n + m + k - 2 <= max_arity:
                    configs.append((n, m, k))
    return configs


def _law_failure(parallel, x, y, z, i, j, checked):
    """The report of a failing series or parallel law, in the words both
    engines use."""
    if parallel:
        text = f"parallel law fails at {x!r}, {y!r}, {z!r}, i={i}, j={j}"
    else:
        text = f"series law fails at {x!r} o_{i} {y!r}, then z={z!r} at {i + j - 1}"
    return VerifyReport("axioms", False, checked, text), checked


def _scalar_axioms(magma, max_arity, budget, compose):
    checked = 0
    needed = {a for config in _axiom_configs(max_arity) for a in config}
    cliques = {n: list(generate_cliques(magma, n)) for n in needed}
    for (n, m, k) in _axiom_configs(max_arity):
        for x in cliques[n]:
            for y in cliques[m]:
                xy = [compose(x, y, i) for i in range(1, n + 1)]
                for z in cliques[k]:
                    yz = [compose(y, z, j) for j in range(1, m + 1)]
                    xz = [compose(x, z, j) for j in range(2, n + 1)]
                    for i in range(1, n + 1):
                        for j in range(1, m + 1):
                            checked += 1
                            lhs = compose(xy[i - 1], z, i + j - 1)
                            rhs = compose(x, yz[j - 1], i)
                            if lhs != rhs:
                                return _law_failure(False, x, y, z, i, j, checked)
                        for j in range(i + 1, n + 1):
                            checked += 1
                            lhs = compose(xy[i - 1], z, j + m - 1)
                            rhs = compose(xz[j - 2], y, i)
                            if lhs != rhs:
                                return _law_failure(True, x, y, z, i, j, checked)
                    if budget is not None and checked > budget:
                        return VerifyReport(
                            "axioms", True, checked, None, complete=False,
                        ), checked
    return None, checked


# -- numpy block engine ---------------------------------------------------------


def _label_dtype(magma):
    """The smallest unsigned dtype that holds every label of the magma."""
    import numpy as np

    return np.min_scalar_type(magma.size - 1)


def _star(magma):
    """The operation table of a finite magma as a label array."""
    import numpy as np

    return np.array(magma.table, dtype=_label_dtype(magma))


def _label_block(magma, arity, rows=None):
    """Every clique of the arity as one row of labels, in the order of
    `generate_cliques`; only the rows in the contiguous slice `rows` when
    given.

    Row r holds the w base-m digits of r, one per arc (w = 0 at arity 1,
    whose one row is the unit).  Column c changes every power = m^(w-1-c)
    rows, so it is built from runs, in the label dtype: the slice's runs
    read their digits from one tiled digit range, and each is repeated
    `power` times and cut to the slice.  A slice shorter than a run meets
    at most two runs, which are written as two constant pieces.
    """
    import numpy as np

    if not magma.is_finite:
        raise MagmaError("cannot enumerate cliques over an infinite magma")
    dtype = _label_dtype(magma)
    m, free = magma.size, _label_count(arity)  # no free label at arity 1
    lo, hi, _ = (rows or slice(None)).indices(m ** free)
    size = max(hi - lo, 0)
    out = np.zeros((size, len(arcs_of(arity))), dtype=dtype)
    if not (size and free):
        return out
    digits = np.arange(m, dtype=dtype)[None, :]
    cycle = np.repeat(digits, size // m + 2, axis=0).ravel()  # cycle[k] = k % m
    for col in range(free):
        power = m ** (free - 1 - col)
        first = lo // power  # the first run meeting the slice
        start = first % m
        if power > size:
            cut = min(power * (first + 1) - lo, size)
            out[:cut, col] = cycle[start]
            out[cut:, col] = cycle[start + 1]
        else:
            runs = cycle[start:start + (hi - 1) // power - first + 1]
            offset = lo - first * power
            out[:, col] = np.repeat(runs, power)[offset:offset + size]
    return out


def _apply_plan(X, Y, plan, star):
    """The scatter of an index plan over every pair of rows of two label
    blocks, rows ordered (x, y): plan entries below P (X's width) copy X,
    below P + Q copy Y, P + Q is the glue star[x[edge], y[base]], and the
    unit entry P + Q + 1 is 0."""
    import numpy as np

    Nx, Ny = X.shape[0], Y.shape[0]
    P, Q = X.shape[1], Y.shape[1]
    width = len(plan.source)
    out = np.zeros((Nx, Ny, width), dtype=star.dtype)
    for r, src in enumerate(plan.source):
        if src < P:
            out[:, :, r] = X[:, src][:, None]
        elif src < P + Q:
            out[:, :, r] = Y[:, src - P][None, :]
        elif src == P + Q:
            out[:, :, r] = star[X[:, plan.edge][:, None], Y[:, plan.base][None, :]]
    return out.reshape(Nx * Ny, width)


def _compose_block(X, nx, Y, ny, i, star):
    """All pairwise compositions of two label blocks; rows ordered (x, y)."""
    return _apply_plan(X, Y, composition_plan(nx, ny, i), star)


def _label_blocks(magma, max_arity):
    """The label block of every arity up to the bound."""
    return {n: _label_block(magma, n) for n in range(1, max_arity + 1)}


def _row_clique(magma, row):
    """The clique whose labels are one row of a label block."""
    arity = (math.isqrt(8 * len(row) + 1) - 1) // 2  # len(row) = arity (arity + 1) / 2
    return Clique._unsafe(magma, arity, tuple(row.tolist()))


def slab_laws(name, laws):
    """The slab engine of the exhaustive composition laws: the report
    `name` of the laws, run in order until one breaks.

    A law is (arity_pairs, pools, right_pools, broken, describe).  The
    pools map an arity to its sequence of elements, x from `pools` and y
    from `right_pools`.  For each arity pair (n, m), each i in 1..n and
    each slice `rows` of the arity-n pool, `broken(n, m, i, rows)` returns
    one flag, or one row of flags, per pair (x, y), x in `rows` and y in
    the whole arity-m right pool, rows ordered (x, y): the pair breaks the
    law when any of its flags is set.  A comparison flags `lhs != rhs`.
    A slice holds at most VECTOR_CHUNK result cells.  `describe(x, i, y)`
    words the first broken pair of the first failing slab, which `checked`
    counts.  `laws` may be lazy: a law is built once those before it hold.
    """
    checked = 0
    for arity_pairs, pools, right_pools, broken, describe in laws:
        for n, m in arity_pairs:
            Nx, Ny = len(pools[n]), len(right_pools[m])
            if not (Nx and Ny):
                continue
            step = max(1, VECTOR_CHUNK // (Ny * len(arcs_of(n + m - 1))))
            for i in range(1, n + 1):
                for lo in range(0, Nx, step):
                    rows = slice(lo, min(lo + step, Nx))
                    size = (rows.stop - lo) * Ny
                    flags = broken(n, m, i, rows)
                    if flags.any():
                        k = int(flags.reshape(size, -1).any(axis=1).argmax())
                        return VerifyReport(name, False, checked + k + 1, describe(
                            pools[n][lo + k // Ny], i, right_pools[m][k % Ny],
                        ))
                    checked += size
    return VerifyReport(name, True, checked, None)


_UNIT = ("unit",)


def _compose_exprs(left, right, n, m, i, corrupt):
    """p o_i q on symbolic labels, through the plan of (n, m, i).

    A label is a copy (factor, arc), `_UNIT`, or a product ("*", a, b) of
    two labels.  `corrupt` applies `_compose_corrupt`'s rule: the glued
    arc copies p's edge.
    """
    plan = composition_plan(n, m, i)
    edge = left[plan.edge]
    glue = edge if corrupt else ("*", edge, right[plan.base])
    source = left + right + [glue, _UNIT]
    return [source[k] for k in plan.source]


def _law_sides(n, m, k, i, j, parallel, corrupt):
    """Both sides of the series (x o_i y) o_{i+j-1} z = x o_i (y o_j z) or
    the parallel (x o_i y) o_{j+m-1} z = (x o_j z) o_i y law as symbolic
    labels, arc by arc."""
    compose = partial(_compose_exprs, corrupt=corrupt)
    x, y, z = (
        [(factor, arc) for arc in range(len(arcs_of(arity)))]
        for factor, arity in (("x", n), ("y", m), ("z", k))
    )
    xy = compose(x, y, n, m, i)
    if parallel:
        lhs = compose(xy, z, n + m - 1, k, j + m - 1)
        rhs = compose(compose(x, z, n, k, j), y, n + k - 1, m, i)
    else:
        lhs = compose(xy, z, n + m - 1, k, i + j - 1)
        rhs = compose(x, compose(y, z, m, k, j), n, m + k - 1, i)
    return lhs, rhs


def _laws(n, m):
    """The (i, j, parallel) laws of one arity triple in scan order: per i,
    every series j, then every parallel j."""
    for i in range(1, n + 1):
        yield from ((i, j, False) for j in range(1, m + 1))
        yield from ((i, j, True) for j in range(i + 1, n + 1))


def _evaluate(label, columns, star):
    """The values of a symbolic label over a slab of the (x, y, z) grid;
    `columns` maps each factor to its block, broadcast along its grid axis
    and indexed by arc on the last axis."""
    if label[0] == "*":
        return star[_evaluate(label[1], columns, star), _evaluate(label[2], columns, star)]
    if label == _UNIT:
        return 0  # the unit's label
    factor, arc = label
    return columns[factor][..., arc]


def _evaluated(lhs, rhs):
    """The entry pairs of two sides that need the labels: every product
    entry, and every entry whose two sides differ.  The rest are equal
    copy or unit entries, which hold on every instance."""
    return [(a, b) for a, b in zip(lhs, rhs) if a != b or a[0] == "*"]


def _differs(evaluated, columns, star, shape):
    """Where the two sides of the evaluated entries differ on a slab."""
    import numpy as np

    diff = np.zeros(shape, dtype=bool)
    for a, b in evaluated:
        diff |= _evaluate(a, columns, star) != _evaluate(b, columns, star)
    return diff


def _unit_law(magma, max_arity, budget, corrupt):
    """x o_i unit = x and unit o_1 x = x by plan, arity by arity.

    Up to UNIT_LAW_CAP cliques, the entries `_evaluated` picks are evaluated
    on every row of the arity's label block: per i every x o_i unit, then
    every unit o_1 x, with one budget check per (arity, side).  Beyond the
    cap each plan counts once: against the unit the glued label is
    x_i * unit (resp. unit * x_0), so when every differing entry is such a
    product of the entry it stands against, the unit axiom of the magma
    (checked exhaustively at construction) gives the law on every clique.
    """
    star = _star(magma)
    checked = 0
    for n in range(1, max_arity + 1):
        arcs = arcs_of(n)
        x = [("x", arc) for arc in range(len(arcs))]
        sides = [(i, _compose_exprs(x, [_UNIT], n, 1, i, corrupt)) for i in range(1, n + 1)]
        sides.append((None, _compose_exprs([_UNIT], x, 1, n, 1, corrupt)))
        dense = clique_space_size(magma, n) <= UNIT_LAW_CAP
        X = _label_block(magma, n) if dense else None
        for i, lhs in sides:
            if dense:
                diff = _differs(_evaluated(lhs, x), {"x": X}, star, len(X))
                if diff.any():
                    k = int(diff.argmax())
                    checked += k + 1
                    clique = _row_clique(magma, X[k])
                    side = f"{clique!r} o_{i} unit" if i else f"unit o_1 {clique!r}"
                    return VerifyReport(
                        "unit-law", False, checked, f"{side} differs from {clique!r}",
                    ), checked
                checked += len(X)
            else:
                checked += 1
                moved = next((
                    arc for arc, a, b in zip(arcs, lhs, x)
                    if a != b and a not in (("*", b, _UNIT), ("*", _UNIT, b))
                ), None)
                if moved is not None:
                    side = f"arity {n} o_{i} unit" if i else f"unit o_1 arity {n}"
                    return VerifyReport(
                        "unit-law", False, checked,
                        f"plan for {side} moves arc ({moved[0]},{moved[1]})",
                    ), checked
            if budget is not None and checked > budget:
                return VerifyReport(
                    "axioms", True, checked, None, complete=False,
                ), checked
    return None, checked


def _vector_axioms(magma, max_arity, budget, corrupt=False):
    """The series and parallel laws by plan.  Per shape (n, m, k, i, j) the
    copy and unit entries of both sides are compared once; every product
    entry, and every entry whose two sides differ, is evaluated through the
    star table on each instance of the (x, y, z) grid, in slabs of at most
    VECTOR_CHUNK instances."""
    import numpy as np

    star = _star(magma)
    needed = {a for config in _axiom_configs(max_arity) for a in config}
    blocks = {n: _label_block(magma, n) for n in needed}
    checked = 0
    for (n, m, k) in _axiom_configs(max_arity):
        X, Y, Z = blocks[n], blocks[m], blocks[k]
        Nx, Ny, Nz = X.shape[0], Y.shape[0], Z.shape[0]
        zstep = max(1, VECTOR_CHUNK // (Nx * Ny))
        for i, j, parallel in _laws(n, m):
            evaluated = _evaluated(*_law_sides(n, m, k, i, j, parallel, corrupt))
            for lo in range(0, Nz, zstep):
                columns = {
                    "x": X[:, None, None, :],
                    "y": Y[None, :, None, :],
                    "z": Z[None, None, lo:lo + zstep, :],
                }
                diff = _differs(evaluated, columns, star, (Nx, Ny, min(zstep, Nz - lo)))
                checked += diff.size
                if diff.any():
                    xi, yi, zi = np.argwhere(diff)[0]
                    return _law_failure(
                        parallel, _row_clique(magma, X[xi]), _row_clique(magma, Y[yi]),
                        _row_clique(magma, Z[lo + zi]), i, j, checked,
                    )
                if budget is not None and checked > budget:
                    return VerifyReport(
                        "axioms", True, checked, None, complete=False,
                    ), checked
    return None, checked


def verify_operad_axioms(magma, max_arity, budget=None, engine="vector", corrupt=False):
    """Exhaustively check the unit law and both associativity laws.

    Returns a report with the instance count; the first counterexample,
    if any, is spelled out.  Both engines share the plan-level unit law;
    the series and parallel laws run on `engine`: "vector" (the
    plan-level engine) or "scalar" (one instance at a time, the
    cross-check).  `budget` caps the instances of all three laws
    together: past it the report is marked incomplete.  `corrupt` swaps
    in a deliberately broken composition rule so tests can watch the
    verifier catch it; every law of both engines runs it.
    """
    if engine not in ("scalar", "vector"):
        raise ValueError(f"engine must be 'scalar' or 'vector', not {engine!r}")
    if not magma.is_finite:
        raise MagmaError("axiom verification enumerates a finite carrier")
    if max_arity < 2:
        raise ValueError("max_arity must be at least 2")
    failure, unit_checked = _unit_law(magma, max_arity, budget, corrupt)
    if failure is not None:
        return failure
    rest = None if budget is None else budget - unit_checked
    if engine == "vector":
        failure, checked = _vector_axioms(magma, max_arity, rest, corrupt)
    else:
        compose = _compose_corrupt if corrupt else partial_compose
        failure, checked = _scalar_axioms(magma, max_arity, rest, compose)
    if failure is not None:
        failure.checked += unit_checked
        return failure
    return VerifyReport("axioms", True, checked + unit_checked, None)


# -- symmetry, rotation, basic-basis checks -------------------------------------


def verify_symmetries(magma, max_arity, samples=1000, seed=0):
    """Reflection is an antiautomorphism; magma automorphisms relabel functorially.

    Over a finite magma both laws are checked on every composable pair, on
    label blocks; over the integers reflection is checked on random samples.
    """
    if magma.is_finite:
        return _block_symmetries(magma, max_arity)
    checked = 0
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, max_arity)
        m = rng.randint(1, max_arity)
        p = _random_integer_clique(rng, n)
        q = _random_integer_clique(rng, m)
        i = rng.randint(1, n)
        checked += 1
        lhs = reflect(partial_compose(p, q, i))
        rhs = partial_compose(reflect(p), reflect(q), n - i + 1)
        if lhs != rhs:
            return VerifyReport(
                "symmetries", False, checked,
                f"reflection fails on {p!r} o_{i} {q!r}",
            )
    return VerifyReport("symmetries", True, checked, None)


def _block_symmetries(magma, max_arity):
    """reflect(p o_i q) = reflect(p) o_{n-i+1} reflect(q), then
    theta(p o_i q) = theta(p) o_i theta(q) for each automorphism theta."""
    import numpy as np

    pairs = composable_pairs(max_arity)
    star = _star(magma)
    X = _label_blocks(magma, max_arity)
    R = {n: block[:, _clique._reflect_plan(n).source] for n, block in X.items()}

    def composed(n, m, i, rows):
        return _compose_block(X[n][rows], n, X[m], m, i, star)

    def reflection(n, m, i, rows):
        lhs = composed(n, m, i, rows)[:, _clique._reflect_plan(n + m - 1).source]
        return lhs != _compose_block(R[n][rows], n, R[m], m, n - i + 1, star)

    def relabeling(values):
        T = {n: values[block] for n, block in X.items()}
        return lambda n, m, i, rows: (
            values[composed(n, m, i, rows)] != _compose_block(T[n][rows], n, T[m], m, i, star)
        )

    def fails(law):
        return lambda p, i, q: (
            f"{law} fails on {_row_clique(magma, p)!r} o_{i} {_row_clique(magma, q)!r}"
        )

    def laws():
        yield pairs, X, X, reflection, fails("reflection")
        for theta in automorphisms(magma):
            values = np.array([theta(v) for v in magma.elements()], dtype=star.dtype)
            yield pairs, X, X, relabeling(values), fails("automorphism relabeling")

    return slab_laws("symmetries", laws())


def _random_integer_clique(rng, arity):
    if arity == 1:
        return Clique.unit(_Z)
    labels = tuple(
        rng.choice((-1, 0, 1)) for _ in range(len(arcs_of(arity)))
    )
    return Clique._unsafe(_Z, arity, labels)


def verify_cyclic(magma, max_arity):
    """The rotation laws: unit fixed, order n+1 at arity n, and the composition
    rule, on label blocks.

    The composition rule holds only over a commutative magma: at slot 1,
    rotate(p o_1 q) = rotate(q) o_m rotate(p) compares the glued label
    p_1 * q_0 with q_0 * p_1, and p_1, q_0 range over the whole carrier.
    So from max_arity 3 on the verifier fails on every noncommutative
    magma.  On failure `checked` counts in the block scan's order (per
    arity pair: i, then p, then q), not in the clique-at-a-time order
    (p, q, i), so the two counts differ.
    """
    import numpy as np

    unit = Clique.unit(magma)
    if rotate(unit) != unit:
        return VerifyReport("cyclic", False, 1, "rotation moves the unit clique")
    X = _label_blocks(magma, max_arity)
    turned = {n: block[:, _clique._rotate_plan(n).source] for n, block in X.items()}
    checked = 0
    for n, block in X.items():
        current = block
        for _ in range(n + 1):
            current = current[:, _clique._rotate_plan(n).source]
        moved = np.flatnonzero((current != block).any(axis=1))
        if moved.size:
            p = _row_clique(magma, block[moved[0]])
            return VerifyReport(
                "cyclic", False, checked + int(moved[0]) + 1,
                f"rotation order exceeds {n + 1} on {p!r}",
            )
        checked += len(block)
    star = _star(magma)

    def rotation(n, m, i, rows):
        # rotate(p o_i q) against rotate(p) o_{i-1} q, and for i = 1 against
        # rotate(q) o_m rotate(p), whose rows come out ordered (y, x)
        lhs = _compose_block(X[n][rows], n, X[m], m, i, star)
        lhs = lhs[:, _clique._rotate_plan(n + m - 1).source]
        if i > 1:
            return lhs != _compose_block(turned[n][rows], n, X[m], m, i - 1, star)
        yx = _compose_block(turned[m], m, turned[n][rows], n, m, star)
        width = yx.shape[1]
        return lhs != yx.reshape(len(X[m]), -1, width).transpose(1, 0, 2).reshape(-1, width)

    def describe(p, i, q):
        return f"rotation law fails on {_row_clique(magma, p)!r} o_{i} {_row_clique(magma, q)!r}"

    report = slab_laws("cyclic", [(composable_pairs(max_arity), X, X, rotation, describe)])
    report.checked += checked
    return report


def _key_words(rows, bits):
    """The radix keys of the label rows along the last axis, `bits` bits
    per label, as int64 words of at most 63 bits each: one word while a
    row fits, more once it outgrows one.  Equal rows have equal words."""
    import numpy as np

    per_word = 63 // bits
    words = []
    for lo in range(0, rows.shape[-1], per_word):
        word = np.zeros(rows.shape[:-1], dtype=np.int64)
        for col in range(lo, min(lo + per_word, rows.shape[-1])):
            word = (word << bits) | rows[..., col]
        words.append(word)
    return words


def _first_collision(X, n, Y, m, star):
    """The first collision of the right-composition maps p -> p o_i q in the
    scan order q, i, p, as row indices (p, p2, q, i): p2 is the first p
    whose composite repeats an earlier one, p that earlier row; None if
    every map is injective."""
    import numpy as np

    Nx, Ny = len(X), len(Y)
    if Nx < 2:
        return None
    width = len(arcs_of(n + m - 1))
    bits = max(1, (star.shape[0] - 1).bit_length())
    step = max(1, VECTOR_CHUNK // (Nx * width))
    for lo in range(0, Ny, step):
        qs = min(step, Ny - lo)
        best = None
        for i in range(1, n + 1):
            composed = _compose_block(X, n, Y[lo:lo + qs], m, i, star)
            # one row of keys per q, in p order; a stable sort keeps equal
            # composites in p order, so a repeat follows its predecessor
            words = _key_words(composed.reshape(Nx, qs, width).swapaxes(0, 1), bits)
            order = np.lexsort(words[::-1], axis=-1)
            same = np.ones((qs, Nx - 1), dtype=bool)
            for word in words:
                ranked = np.take_along_axis(word, order, axis=-1)
                same &= ranked[:, 1:] == ranked[:, :-1]
            repeats = np.where(same, order[:, 1:], Nx)
            hit = np.flatnonzero(repeats.min(axis=-1) < Nx)
            if hit.size and (best is None or hit[0] < best[2]):
                q = int(hit[0])
                k = int(repeats[q].argmin())
                best = (int(order[q, k]), int(order[q, k + 1]), q, i)
        if best is not None:
            p, p2, q, i = best
            return p, p2, lo + q, i
    return None


def verify_basic_set_operad(magma, max_arity):
    """Injectivity of every right-composition map p -> p o_i q on basis
    cliques, on label blocks.

    For each arity pair (n, m) and slot i, the arity-n block is composed
    with slabs of the arity-m block; a collision is a repeated composite
    row within one (q, i) column.  The scan finishes the arity pair of the
    first collision, which `checked` counts.  Returns (report, witness):
    the witness is the first collision (p, p', q, i) in the order q, i, p,
    with p the most recent earlier clique composing like p'.  Agreement
    with right cancelability is asserted from max arity 3 on.
    """
    X = _label_blocks(magma, max_arity)
    star = _star(magma)
    checked = 0
    witness = None
    for (n, m) in composable_pairs(max_arity):
        checked += len(X[n]) * len(X[m]) * n
        found = _first_collision(X[n], n, X[m], m, star)
        if found is not None:
            p, p2, q, i = found
            witness = (
                _row_clique(magma, X[n][p]), _row_clique(magma, X[n][p2]),
                _row_clique(magma, X[m][q]), i,
            )
            break
    injective = witness is None
    cancelable = is_right_cancelable(magma)
    # a collision needs p and q of arity 2 or more: none below max arity 3
    if injective != (cancelable or max_arity < 3):
        raise RuntimeError(
            f"internal failure: injectivity scan over {magma.name} says "
            f"{injective} but right cancelability says {cancelable}"
        )
    report = VerifyReport(
        "basic-basis", injective, checked,
        None if injective else
        f"collision {witness[0]!r} and {witness[1]!r} compose equally "
        f"with {witness[2]!r} at {witness[3]}",
    )
    return report, witness


# -- associative elements ---------------------------------------------------------


def _associative_direct(f):
    return (partial_compose_lin(f, f, 1) - partial_compose_lin(f, f, 2)).is_zero()


def _associative_conditions(f):
    magma = f.magma
    table = magma.table
    unit = magma.unit
    support = [
        ((p.base_label, p.edge_label(1), p.edge_label(2)), coeff)
        for p, coeff in f.terms.items()
    ]
    acc1 = {}
    acc2 = {}
    acc3 = {}
    for (p0, p1, p2), lam_p in support:
        # the products p1 * - and p2 * -, read from two rows of the table
        row1, row2 = table[p1], table[p2]
        for (q0, q1, q2), lam_q in support:
            weight = lam_p * lam_q
            delta = row1[q0]
            if delta != unit:
                key = (p0, p2, q1, q2, delta)
                acc1[key] = acc1.get(key, 0) + weight
            else:
                key = (p0, p2, q1, q2)
                acc2[key] = acc2.get(key, 0) + weight
            delta = row2[q0]
            if delta != unit:
                key = (p0, p1, q1, q2, delta)
                acc3[key] = acc3.get(key, 0) + weight
            else:
                # second summand of the middle condition, reindexed onto the
                # square it produces: lambda(p0,q1,p1) lambda(q0,q2,p2)
                key = (p0, q2, p1, q1)
                acc2[key] = acc2.get(key, 0) - weight
    return (
        all(v == 0 for v in acc1.values())
        and all(v == 0 for v in acc2.values())
        and all(v == 0 for v in acc3.values())
    )


def is_associative_element(f):
    """Whether f o_1 f = f o_2 f, decided twice: directly and by the
    coefficient-system conditions; a disagreement is an internal failure."""
    if f.arity != 2:
        raise ValueError("associativity is a property of arity-2 elements")
    if not f.magma.is_finite:
        raise MagmaError("the coefficient conditions need a finite magma")
    direct = _associative_direct(f)
    conditions = _associative_conditions(f)
    if direct != conditions:
        raise RuntimeError(
            "internal failure: direct expansion and the coefficient conditions "
            f"disagree on {f!r} ({direct} vs {conditions})"
        )
    return direct


# -- Cartesian product ------------------------------------------------------------


def verify_product_iso(product_magma, max_arity):
    """zip/unzip are mutually inverse and commute with composition, on label
    blocks: the projections of every product composite against the
    compositions in the factors."""
    import numpy as np

    if product_magma.factors is None:
        raise CliqueError(f"{product_magma.name} is not a product magma")
    m1, m2 = product_magma.factors
    halves = [unpair_value(product_magma, v) for v in product_magma.elements()]
    first = np.array([a for a, _ in halves], dtype=_label_dtype(m1))
    second = np.array([b for _, b in halves], dtype=_label_dtype(m2))
    pair = np.array(
        [[pair_value(product_magma, a, b) for b in m2.elements()] for a in m1.elements()],
        dtype=_label_dtype(product_magma),
    )
    star, star1, star2 = _star(product_magma), _star(m1), _star(m2)
    X = _label_blocks(product_magma, max_arity)
    X1 = {n: first[block] for n, block in X.items()}
    X2 = {n: second[block] for n, block in X.items()}

    def noncommuting(n, m, i, rows):
        # the projections of every product composite against the factors'
        composed = _compose_block(X[n][rows], n, X[m], m, i, star)
        return (
            (first[composed] != _compose_block(X1[n][rows], n, X1[m], m, i, star1))
            | (second[composed] != _compose_block(X2[n][rows], n, X2[m], m, i, star2))
        )

    def describe(p, i, q):
        return (f"pairing does not commute with o_{i} on "
                f"{_row_clique(product_magma, p)!r}, {_row_clique(product_magma, q)!r}")

    # the round trip of an arity is checked before the composites of that
    # arity: the commute law runs on the arities below the first failure
    trips = {n: (pair[X1[n], X2[n]] != block).any(axis=1) for n, block in X.items()}
    bad = next((n for n, broken in trips.items() if broken.any()), max_arity + 1)
    pairs = [(n, m) for n, m in composable_pairs(max_arity) if n < bad]
    report = slab_laws("product-iso", [(pairs, X, X, noncommuting, describe)])
    if not report.ok or bad > max_arity:
        return report
    row = X[bad][trips[bad].argmax()]
    return VerifyReport(
        "product-iso", False, report.checked,
        f"unzip/zip round trip fails on {_row_clique(product_magma, row)!r}",
    )
