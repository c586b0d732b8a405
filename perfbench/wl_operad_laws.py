"""operad-laws: the exhaustive operad verifiers plus direct kernel sweeps.

Composition-kernel work dominates here: `partial_compose`, magma
equality, clique hashing and the numpy block engine.  It makes almost no
LinComb, ratfct, knownops or census calls, so a faster composition
kernel should show on this workload first.

Golden `checked` totals marked "acceptance" are the ones the acceptance
battery asserts; the rest were recorded from the seed commit of this
benchmark, where every verifier passes.
"""

from __future__ import annotations

import random

from cliqueops import (
    is_right_cancelable, parse_magma_spec, partial_compose,
    reflect, rotate, split_along_diagonal, variant, verify_basic_set_operad,
    verify_cyclic, verify_ideal, verify_operad_axioms, verify_product_iso,
    verify_symmetries,
)

from ops import Op, batch, call, first_mismatch, random_clique, report_is

QUOTIENT_SPECS = (
    "cro:0", "bub", "deg:0", "deg:1", "deg:2", "nes", "acy",
    "wnc", "pat", "for", "mot", "dis", "luc",
)

# (magma spec, max arity, engine, golden checked)
AXIOM_RUNS = (
    ("N:2", 4, "scalar", 7962),
    ("D:0", 4, "scalar", 7962),
    ("E:1", 4, "scalar", 7962),
    ("prod(D:0,D:0)", 4, "vector", 1327303),
    ("D:0", 5, "vector", 290586),  # acceptance: equals the scalar count at arity 5
)
SYMMETRIES = ("D:0", 4, 16178)
CYCLIC = ("D:0", 4, 9186)
# (magma spec, max arity, golden checked); outcome must equal right cancelability
BASIC_RUNS = (("N:2", 4, 8089), ("N:3", 3, 4456), ("D:0", 3, 217), ("E:1", 3, 409))
PRODUCT_ISO = ("prod(D:0,D:0)", 3, 24769)
IDEAL_ARITY = 4
IDEAL_CHECKED = {
    "cro:0": 4064, "bub": 7072, "deg:0": 10372, "deg:1": 8786, "deg:2": 4867,
    "nes": 8175, "acy": 5164, "wnc": 114, "pat": 5765, "for": 5934,
    "mot": 8855, "dis": 139, "luc": 8993,
}
SWEEP_SIZE = 6000  # seeded (p, q, i) triples over D:1 for the kernel sweep


def _axioms_op(spec, arity, engine, golden):
    magma = parse_magma_spec(spec)
    return Op(
        f"axioms.{engine}.{spec}.{arity}", "verify",
        lambda tr: call(tr, f"verify.verify_operad_axioms.{engine}",
                        verify_operad_axioms, magma, arity, engine=engine),
        report_is(golden),
    )


def _basic_op(spec, arity, golden):
    magma = parse_magma_spec(spec)
    cancelable = is_right_cancelable(magma)

    def check(result):
        report, witness = result
        if report.ok != cancelable or report.checked != golden:
            return (f"expected ok={cancelable} with {golden} checked, got "
                    f"ok={report.ok} checked={report.checked}")
        if not report.ok:
            p, p2, q, i = witness
            if p == p2 or partial_compose(p, q, i) != partial_compose(p2, q, i):
                return f"witness {witness!r} is not a collision"
        return None

    return Op(
        f"basic.{spec}.{arity}", "verify",
        lambda tr: call(tr, "verify.verify_basic_set_operad",
                        verify_basic_set_operad, magma, arity),
        check,
    )


def _ideal_op(d0, spec):
    var = variant(spec, d0)
    return Op(
        f"ideal.{spec}", "variants",
        lambda tr: call(tr, "variants.verify_ideal", verify_ideal, var, d0, IDEAL_ARITY),
        report_is(IDEAL_CHECKED[spec]),
    )


def _kernel_sweep_op(triples):
    """Compose, split the glued diagonal, recompose, reflect and rotate, in phases."""
    compose_args = [(p, q, i) for p, q, i in triples]
    diagonals = [(i, i + q.arity) for _, q, i in triples]

    def run(tr):
        composed = batch(tr, "operad.partial_compose", partial_compose, compose_args)
        splits = batch(tr, "clique.split_along_diagonal", split_along_diagonal,
                       list(zip(composed, diagonals)))
        back = batch(tr, "operad.partial_compose", partial_compose,
                     [(outer, inner, i) for (outer, inner), (_, _, i)
                      in zip(splits, triples)])
        reflected = batch(tr, "clique.reflect", reflect, [(r,) for r in composed])
        rotated = batch(tr, "clique.rotate", rotate, [(r,) for r in composed])
        return composed, splits, back, reflected, rotated

    def check(result):
        composed, splits, back, reflected, rotated = result
        want_split, want_reflect, want_rotate = [], [], []
        for p, q, i in triples:
            magma, n, m = p.magma, p.arity, q.arity
            glue = magma.op(p.edge_label(i), q.base_label)
            want_split.append((p.with_label(i, i + 1, glue),
                               q.with_label(1, m + 1, magma.unit)))
            want_reflect.append(partial_compose(reflect(p), reflect(q), n - i + 1))
            want_rotate.append(
                partial_compose(rotate(q), rotate(p), m) if i == 1
                else partial_compose(rotate(p), q, i - 1)
            )
        return (
            first_mismatch(zip(splits, want_split), "split of p o_i q")
            or first_mismatch(zip(back, composed), "split then compose")
            or first_mismatch(zip(reflected, want_reflect), "reflection law")
            or first_mismatch(zip(rotated, want_rotate), "rotation law")
        )

    return Op("kernel-sweep", "operad", run, check)


def setup(seed):
    rng = random.Random(seed)
    d0, d1 = parse_magma_spec("D:0"), parse_magma_spec("D:1")
    triples = []
    for k in range(SWEEP_SIZE):
        # arities cycle through all nine pairs so the sweep's cost is the same
        # for every seed; labels and the index are seeded
        n, m = 2 + k % 3, 2 + k // 3 % 3
        triples.append((random_clique(rng, d1, n), random_clique(rng, d1, m),
                        rng.randint(1, n)))
    sym_spec, sym_arity, sym_checked = SYMMETRIES
    cyc_spec, cyc_arity, cyc_checked = CYCLIC
    iso_spec, iso_arity, iso_checked = PRODUCT_ISO
    sym_magma = parse_magma_spec(sym_spec)
    cyc_magma = parse_magma_spec(cyc_spec)
    iso_magma = parse_magma_spec(iso_spec)
    ops = [_axioms_op(*run) for run in AXIOM_RUNS]
    ops += [
        Op("symmetries", "verify",
           lambda tr: call(tr, "verify.verify_symmetries",
                           verify_symmetries, sym_magma, sym_arity),
           report_is(sym_checked)),
        Op("cyclic", "verify",
           lambda tr: call(tr, "verify.verify_cyclic", verify_cyclic, cyc_magma, cyc_arity),
           report_is(cyc_checked)),
        Op("product-iso", "verify",
           lambda tr: call(tr, "verify.verify_product_iso",
                           verify_product_iso, iso_magma, iso_arity),
           report_is(iso_checked)),
    ]
    ops += [_basic_op(*run) for run in BASIC_RUNS]
    ops += [_ideal_op(d0, spec) for spec in QUOTIENT_SPECS]
    ops.append(_kernel_sweep_op(triples))
    return lambda pass_index: ops
