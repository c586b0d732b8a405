"""census: counting, the Dyck bijection, inclusion checks and the CLI.

`enumeration`, `variants` and `cli` would otherwise go unmeasured.
`partial_compose` and `LinComb` are never called, so this workload is the
no-change control for work on the composition kernel and on combination
arithmetic.  Nothing here depends on --seed.

Golden values marked "acceptance" are asserted by the acceptance
battery; the others were recorded from the seed commit of this
benchmark or follow from a closed formula.
"""

from __future__ import annotations

import contextlib
import io

from cliqueops import (
    count_by_enumeration, count_minimal_prime, count_prime, count_white_prime,
    dim_formula, dyck_decode, dyck_encode, generate_cliques, is_nesting_free,
    parse_magma_spec, verify_inclusions,
)
from cliqueops import cli
from cliqueops.knownops import gravity_cliques

from ops import Op, batch, call, equals, first_mismatch, report_is

PRIME_SIZES = range(1, 7)
PRIMES = {  # magma -> (prime, white-prime, minimal-prime) counts, sizes 1..6
    "D:0": ([0, 8, 16, 352, 16448, 1380224],  # acceptance
            [0, 1, 1, 11, 257, 10783],
            [0, 1, 1, 5, 22, 119]),
    "D:1": ([0, 27, 324, 36936, 11594016, 9597290832],
            [0, 1, 4, 152, 15904, 4388336],
            [0, 1, 4, 40, 320, 2800]),
}
SKELETON_ARITIES = range(1, 7)
SKELETONS = {  # label-blind variants over D:0, arities 1..6
    "acy": [1, 7, 38, 291, 2932, 36961],  # acceptance up to arity 5
    "pat": [1, 7, 34, 206, 1486, 12412],  # acceptance up to arity 5
    "for": [1, 7, 33, 181, 1083, 6854],  # acceptance (corrected) up to arity 5
    "cro:0": [1, 8, 48, 352, 2880, 25216],
    "deg:2": [1, 8, 41, 253, 1858, 15796],  # acceptance up to arity 5
    "mot": [1, 4, 9, 21, 51, 127],  # acceptance
    "nes": [1, 5, 14, 42, 132, 429],  # acceptance, and the closed formula
}
STREAM_ARITIES = range(1, 5)
LAB_SPEC = "lab:\U0001d7d9,0;\U0001d7d9,0,d_1;\U0001d7d9,0,d_1"  # over D:1
LAB_SIZES = (2, 3, 3)
DYCK_ARITY, DYCK_COUNT = 4, 197  # nesting-free cliques over D:1 (acceptance)
INCLUSION_ARITY = 4
# 27 implications on every D:0 clique of arity 1..4 (one clique at arity 1)
INCLUSIONS_CHECKED = 27 * (1 + sum(2 ** (n * (n + 1) // 2) for n in range(2, 5)))
SEQUENCE_ARGS = ["sequence", "--variant", "nes", "--magma", "D:1", "--max-arity", "5"]
SEQUENCE_STDOUT = "1 1\n2 11\n3 45\n4 197\n5 903\n"  # acceptance
PRIMES_ARGS = ["primes", "--magma", "D:0", "--max-size", "6"]
PRIMES_STDOUT = "size prime white-prime minimal-prime\n" + "".join(
    f"{n} {p} {w} {m}\n" for n, p, w, m in zip(PRIME_SIZES, *PRIMES["D:0"])
)


def _prime_ops(spec, counts):
    magma = parse_magma_spec(spec)
    functions = (("count_prime", count_prime), ("count_white_prime", count_white_prime),
                 ("count_minimal_prime", count_minimal_prime))
    return [
        Op(f"{name}.{spec}", "enumeration",
           lambda tr, fn=fn, name=name: [
               call(tr, f"enumeration.{name}", fn, magma, n) for n in PRIME_SIZES
           ],
           equals(want))
        for (name, fn), want in zip(functions, counts)
    ]


def _census_op(name, span, spec, magma, arities, want):
    return Op(
        name, "enumeration",
        lambda tr: [call(tr, span, count_by_enumeration, spec, magma, n) for n in arities],
        equals(want),
    )


def _dyck_op(d1):
    def run(tr):
        with tr.span("enumeration.generate_cliques") as record:
            cliques = list(generate_cliques(d1, DYCK_ARITY))
        if record is not None:
            record["items"] = len(cliques)
        flags = batch(tr, "clique.is_nesting_free", is_nesting_free,
                      [(c,) for c in cliques])
        nesting_free = [c for c, keep in zip(cliques, flags) if keep]
        words = batch(tr, "enumeration.dyck_encode", dyck_encode,
                      [(c,) for c in nesting_free])
        decoded = batch(tr, "enumeration.dyck_decode", dyck_decode, [(w,) for w in words])
        return nesting_free, words, decoded

    def check(result):
        nesting_free, words, decoded = result
        if len(nesting_free) != DYCK_COUNT or DYCK_COUNT != dim_formula("nes", 3, DYCK_ARITY):
            return f"expected {DYCK_COUNT} nesting-free cliques, got {len(nesting_free)}"
        if len({str(w) for w in words}) != len(words):
            return "two cliques share a colored Dyck word"
        return first_mismatch(zip(decoded, nesting_free), "decode of encode")

    return Op("dyck-round-trip", "enumeration", run, check)


def _cli_op(name, argv, want):
    def run(tr):
        out = io.StringIO()
        with tr.span(f"cli.main.{argv[0]}"), contextlib.redirect_stdout(out):
            code = cli.main(["--threads", "1", *argv])
        return code, out.getvalue()
    return Op(name, "cli", run, equals((0, want)))


def setup(seed):
    d0, d1 = parse_magma_spec("D:0"), parse_magma_spec("D:1")
    ops = []
    for spec, counts in PRIMES.items():
        ops += _prime_ops(spec, counts)
    for spec, want in SKELETONS.items():
        ops.append(_census_op(f"skeleton.{spec}", "enumeration.count_by_enumeration.skeleton",
                              spec, d0, SKELETON_ARITIES, want))
    ops.append(Op(
        "stream.grav", "enumeration",
        lambda tr: [call(tr, "enumeration.count_by_enumeration.stream",
                         count_by_enumeration, "grav", d1, n) for n in STREAM_ARITIES],
        # gravity cliques built diagram by diagram, independently of the stream
        lambda got: equals([len(gravity_cliques(d1, n)) for n in STREAM_ARITIES])(got),
    ))
    ops.append(_census_op("stream.lab", "enumeration.count_by_enumeration.stream",
                          LAB_SPEC, d1, STREAM_ARITIES,
                          [dim_formula("lab", LAB_SIZES, n) for n in STREAM_ARITIES]))
    ops.append(_dyck_op(d1))
    ops.append(Op("inclusions", "variants",
                  lambda tr: call(tr, "variants.verify_inclusions", verify_inclusions,
                                  d0, INCLUSION_ARITY),
                  report_is(INCLUSIONS_CHECKED)))
    ops.append(_cli_op("cli.sequence", SEQUENCE_ARGS, SEQUENCE_STDOUT))
    ops.append(_cli_op("cli.primes", PRIMES_ARGS, PRIMES_STDOUT))
    return lambda pass_index: ops
