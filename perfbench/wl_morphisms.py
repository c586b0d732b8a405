"""morphisms: clique-operad morphisms from known operads and to rational functions.

Known-operad encodings and interval-product arithmetic dominate.  The
multi-tilde, double multi-tilde and gravity loops follow the acceptance
battery's criterion 10, batched per function so that microsecond calls
get one span per batch; `partial_compose` appears only as the comparison
side.  Seeded integer cliques, rational elements and zero-test inputs
come from --seed; everything else is exhaustive.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cliqueops import (
    Clique, DoubleMultiTilde, IntervalProduct, LinComb, MultiTilde, RankFunction,
    RatElem, UnitaryMagma, arcs_of, chord_compose, compose_product, dmt_compose,
    grav_compose, interval_map, mt_compose, partial_compose, phi_dmt, phi_grav,
    phi_mt, rf_compose, rf_image, rf_is_zero, verify_rf_laws, verify_rf_morphism,
)
from cliqueops.knownops import (
    all_double_multitildes, all_multitildes, gravity_diagrams,
)
from cliqueops.ratfct import rf_evaluate

from ops import Op, batch, call, equals, first_mismatch, report_is

RF_LABELS = (-2, -1, 0, 1, 2)
# arity 1 holds the unit clique only and arity 2 has k = 5^3 cliques, so the
# exhaustive scan checks 1 + k + 2k + 2k^2 instances (n, m <= 2, every i)
_K = len(RF_LABELS) ** 3
RF_MORPHISM_CHECKED = 1 + 3 * _K + 2 * _K * _K
RF_LAWS_SAMPLES = 500  # verify_rf_laws checks three laws per sample
MT_ARITY, MT_CHECKED = 4, 8089  # composite arity bound, instances (criterion 10)
DMT_ARITY, DMT_CHECKED = 3, 24769
DMT_SAMPLES = 3000  # seeded composite-arity-4 double multi-tilde instances
GRAV_ARITY, GRAV_CHECKED = 6, 3744
RF_SWEEP = 8000  # seeded integer (p, q, i) triples through interval_map
RF_COMPOSE_PAIRS = 150
ZERO_TESTS = 24  # seeded elements per zero-test batch, half of them zero

_Z = UnitaryMagma.integers()
_RANK = RankFunction.identity()
_EXCLUDED_MT = MultiTilde(1, {(1, 1)})


def _composable(max_arity):
    return [(n, m) for n in range(1, max_arity + 1) for m in range(1, max_arity + 1)
            if n + m - 1 <= max_arity]


def _morphism_loop(tr, pools, images, source_compose, target_compose, image_fn,
                   triples):
    """Images of all composites against compositions of images, in phases."""
    composites = batch(tr, source_compose[0], source_compose[1],
                       [(pools[n][a], pools[m][b], i) for n, a, m, b, i in triples])
    lhs = batch(tr, image_fn[0], image_fn[1], [(c,) for c in composites])
    rhs = batch(tr, target_compose[0], target_compose[1],
                [(images[n][a], images[m][b], i) for n, a, m, b, i in triples])
    return lhs, rhs


def _loop_check(golden):
    def check(result):
        lhs, rhs = result
        if len(lhs) != golden:
            return f"expected {golden} instances, got {len(lhs)}"
        return first_mismatch(zip(lhs, rhs), "morphism instance")
    return check


def _all_triples(pools, max_arity):
    return [
        (n, a, m, b, i)
        for n, m in _composable(max_arity)
        for a in range(len(pools[n])) for b in range(len(pools[m]))
        for i in range(1, n + 1)
    ]


def _mt_op():
    def run(tr):
        with tr.span("knownops.all_multitildes"):
            pools = {n: [x for x in all_multitildes(n) if x != _EXCLUDED_MT]
                     for n in range(1, MT_ARITY + 1)}
        images = {n: batch(tr, "knownops.phi_mt", phi_mt, [(x,) for x in xs])
                  for n, xs in pools.items()}
        return _morphism_loop(
            tr, pools, images, ("knownops.mt_compose", mt_compose),
            ("operad.partial_compose", partial_compose), ("knownops.phi_mt", phi_mt),
            _all_triples(pools, MT_ARITY),
        )
    return Op("multitilde-loop", "knownops", run, _loop_check(MT_CHECKED))


def _dmt_op():
    def run(tr):
        pools = {}
        for n in range(1, DMT_ARITY + 1):
            with tr.span("knownops.all_double_multitildes") as record:
                pools[n] = [x for x in all_double_multitildes(n)
                            if n > 1 or not (x.pairs1 or x.pairs2)]
            if record is not None:
                record["items"] = len(pools[n])
        images = {n: batch(tr, "knownops.phi_dmt", phi_dmt, [(x,) for x in xs])
                  for n, xs in pools.items()}
        return _morphism_loop(
            tr, pools, images, ("knownops.dmt_compose", dmt_compose),
            ("operad.partial_compose", partial_compose), ("knownops.phi_dmt", phi_dmt),
            _all_triples(pools, DMT_ARITY),
        )
    return Op("double-multitilde-loop", "knownops", run, _loop_check(DMT_CHECKED))


def _random_pairs(rng, arity):
    universe = [(x, y) for x in range(1, arity + 1) for y in range(x, arity + 1)]
    return [pair for pair in universe if rng.random() < 0.5]


def _dmt_sample_op(rng):
    triples = []
    for k in range(DMT_SAMPLES):
        n, m = ((2, 3), (3, 2))[k % 2]
        x = DoubleMultiTilde(n, _random_pairs(rng, n), _random_pairs(rng, n))
        y = DoubleMultiTilde(m, _random_pairs(rng, m), _random_pairs(rng, m))
        triples.append((x, y, rng.randint(1, n)))

    def run(tr):
        xs = batch(tr, "knownops.phi_dmt", phi_dmt, [(x,) for x, _, _ in triples])
        ys = batch(tr, "knownops.phi_dmt", phi_dmt, [(y,) for _, y, _ in triples])
        composites = batch(tr, "knownops.dmt_compose", dmt_compose, triples)
        lhs = batch(tr, "knownops.phi_dmt", phi_dmt, [(c,) for c in composites])
        rhs = batch(tr, "operad.partial_compose", partial_compose,
                    [(px, py, i) for px, py, (_, _, i) in zip(xs, ys, triples)])
        return lhs, rhs

    return Op("double-multitilde-sample", "knownops", run, _loop_check(DMT_SAMPLES))


def _grav_op():
    def run(tr):
        with tr.span("knownops.gravity_diagrams"):
            pools = {n: gravity_diagrams(n) for n in range(1, GRAV_ARITY + 1)}
        images = {n: batch(tr, "knownops.phi_grav", phi_grav, [(x,) for x in xs])
                  for n, xs in pools.items()}
        return _morphism_loop(
            tr, pools, images, ("knownops.chord_compose", chord_compose),
            ("knownops.grav_compose", grav_compose), ("knownops.phi_grav", phi_grav),
            _all_triples(pools, GRAV_ARITY),
        )
    return Op("gravity-loop", "knownops", run, _loop_check(GRAV_CHECKED))


def _random_int_clique(rng, arity):
    if arity == 1:
        return Clique.unit(_Z)
    return Clique(_Z, arity, [rng.choice(RF_LABELS) for _ in arcs_of(arity)])


def _rf_sweep_op(rng):
    triples = []
    for k in range(RF_SWEEP):
        n, m = 1 + k % 3, 1 + k // 3 % 3  # every arity pair equally often
        triples.append((_random_int_clique(rng, n), _random_int_clique(rng, m),
                        rng.randint(1, n)))

    def run(tr):
        fp = batch(tr, "ratfct.interval_map", interval_map,
                   [(p, _RANK) for p, _, _ in triples])
        fq = batch(tr, "ratfct.interval_map", interval_map,
                   [(q, _RANK) for _, q, _ in triples])
        composed = batch(tr, "operad.partial_compose", partial_compose, triples)
        lhs = batch(tr, "ratfct.interval_map", interval_map,
                    [(r, _RANK) for r in composed])
        rhs = batch(tr, "ratfct.compose_product", compose_product,
                    [(a, b, i) for a, b, (_, _, i) in zip(fp, fq, triples)])
        return lhs, rhs

    return Op("interval-map-sweep", "ratfct", run, _loop_check(RF_SWEEP))


def _random_rat_elem(rng, arity, terms):
    intervals = [(x, y) for x in range(1, arity + 1) for y in range(x + 1, arity + 2)]
    out = []
    for _ in range(terms):
        chosen = rng.sample(intervals, rng.randint(0, min(3, len(intervals))))
        powers = {iv: rng.choice((-2, -1, 1, 2)) for iv in chosen}
        out.append((IntervalProduct(arity, powers), Fraction(rng.randint(-5, 5) or 1,
                                                             rng.randint(1, 4))))
    return RatElem(arity, out)


def _substitution_point(point, i, m):
    """Values of f's and g's variables when g is substituted into slot i of f."""
    block = point[i - 1:i - 1 + m]
    return point[:i - 1] + [sum(block, Fraction(0))] + point[i - 1 + m:], block


def _rf_compose_op(rng, check_seed):
    triples = []
    for k in range(RF_COMPOSE_PAIRS):
        n, m = 1 + k % 3, 1 + k // 3 % 3
        triples.append((_random_rat_elem(rng, n, rng.randint(2, 10)),
                        _random_rat_elem(rng, m, rng.randint(2, 10)), rng.randint(1, n)))

    def check(results):
        # exact evaluation at seeded rational points off the poles
        points = random.Random(check_seed)
        for k, (h, (f, g, i)) in enumerate(zip(results, triples)):
            for _ in range(2):
                while True:
                    point = [Fraction(points.randint(1, 40), points.randint(1, 9))
                             * points.choice((1, -1)) for _ in range(h.arity)]
                    pf, pg = _substitution_point(point, i, g.arity)
                    try:
                        want = rf_evaluate(f, pf) * rf_evaluate(g, pg)
                        got = rf_evaluate(h, point)
                    except ZeroDivisionError:
                        continue
                    break
                if got != want:
                    return f"rf_compose #{k} evaluates to {got}, expected {want}"
        return None

    return Op(
        "rf-compose", "ratfct",
        lambda tr: batch(tr, "ratfct.rf_compose", rf_compose, triples),
        check,
    )


def _kernel_elements():
    """The two displayed elements of the kernel of the rational-function morphism."""
    first = (LinComb.of(Clique.triangle(_Z, 1, 0, 0))
             - LinComb.of(Clique.triangle(_Z, 0, 1, 0))
             - LinComb.of(Clique.triangle(_Z, 0, 0, 1)))
    second = (LinComb.of(Clique.from_arcs(_Z, 3, {(2, 3): -1, (3, 4): -1}))
              - LinComb.of(Clique.from_arcs(_Z, 3, {(2, 4): -1, (3, 4): -1}))
              - LinComb.of(Clique.from_arcs(_Z, 3, {(2, 3): -1, (2, 4): -1})))
    return rf_image(first, _RANK), rf_image(second, _RANK)


def _zero_test_op(rng):
    """Composites with a kernel element vanish; adding a monomial makes them nonzero."""
    kernels = _kernel_elements()
    elements, expected = list(kernels), [True, True]
    for k in range(ZERO_TESTS):
        kernel = rng.choice(kernels)
        g = _random_rat_elem(rng, rng.randint(1, 2), rng.randint(1, 3))
        if rng.random() < 0.5:
            zero = rf_compose(kernel, g, rng.randint(1, kernel.arity))
        else:
            zero = rf_compose(g, kernel, rng.randint(1, g.arity))
        if k % 2:
            monomial = _random_rat_elem(rng, zero.arity, 1)
            elements.append(zero + RatElem.of(next(iter(monomial.terms)), 3))
            expected.append(False)
        else:
            elements.append(zero)
            expected.append(True)
    return Op(
        "rf-is-zero", "ratfct",
        lambda tr: batch(tr, "ratfct.rf_is_zero", rf_is_zero, [(f,) for f in elements]),
        equals(expected),
    )


def setup(seed):
    rng = random.Random(seed)
    ops = [
        Op("rf-morphism", "ratfct",
           lambda tr: call(tr, "ratfct.verify_rf_morphism", verify_rf_morphism,
                           labels=RF_LABELS, max_arity=2),
           report_is(RF_MORPHISM_CHECKED)),
        _rf_sweep_op(rng),
        _mt_op(),
        _dmt_op(),
        _dmt_sample_op(rng),
        _grav_op(),
        Op("rf-laws", "ratfct",
           lambda tr: call(tr, "ratfct.verify_rf_laws", verify_rf_laws,
                           max_arity=4, samples=RF_LAWS_SAMPLES, seed=seed),
           report_is(3 * RF_LAWS_SAMPLES)),
        _rf_compose_op(rng, seed),
        _zero_test_op(rng),
    ]
    return lambda pass_index: ops
