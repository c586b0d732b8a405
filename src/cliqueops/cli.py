"""Command-line surface: enumeration, composition, verification, export.

`verify` is the one verification command. `verify <what> --magma M`
runs the verifiers `what` names over M, at arities up to `--max-arity`;
`verify ratfct` and `verify known-ops` need no magma and print the same
with or without one. Every such run prints one `describe()` line per
report, or under `--json` a list of report objects. `verify all` without
`--magma` runs the acceptance battery instead: one verdict line per
criterion, or under `--json` a list of {criterion, ok, detail} objects,
with each criterion's timing on stderr.

Exit codes: 0 success, 1 a verification found a counterexample or a
golden value mismatched, 2 usage error (bad flags, inapplicable magma or
variant, malformed input files).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from . import bases, enumeration, knownops, ratfct, variants, verify
from .clique import (
    CliqueError, _label_count, _power_exceeds, clique_from_json, clique_to_json,
    format_clique, generate_cliques, row_width,
)
from .magma import (
    MagmaError, has_nontrivial_unit_divisors,
    is_right_cancelable, parse_magma_spec,
)
from .operad import LinComb, decimal
from .report import VerifyReport


class UsageError(Exception):
    pass


def _read_json(path, **options):
    """The JSON document of a file named on the command line; a directory
    or a file that cannot be read as UTF-8 is a usage error."""
    try:
        with open(path) as handle:
            return json.load(handle, **options)
    except (IsADirectoryError, PermissionError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


# Every number of a combination file has at most this many digits, and a
# decimal exponent at most this size, so reading one stays within the 4300
# digits Python converts from str to int.  Sums and products can grow past
# that; results are written by `decimal`, which no such limit governs.
MAX_COEFFICIENT_DIGITS = 1000


def _bounded(text):
    """A number literal of a combination file (a JSON number, or a
    coefficient string), refused before it is expanded when it has more
    than MAX_COEFFICIENT_DIGITS digits or a larger decimal exponent."""
    _, _, exponent = text.lower().partition("e")
    if (sum(map(str.isdigit, text)) > MAX_COEFFICIENT_DIGITS
            or exponent and abs(int(exponent)) > MAX_COEFFICIENT_DIGITS):
        shown = text if len(text) <= 24 else text[:20] + "..."
        raise UsageError(
            f"number {shown} has more than {MAX_COEFFICIENT_DIGITS} digits "
            f"or an exponent past {MAX_COEFFICIENT_DIGITS}"
        )
    return text


def _load_lincomb(path, magma):
    # JSON decimals are read exactly: a coefficient 0.1 is 1/10
    data = _read_json(path, parse_float=lambda text: Fraction(_bounded(text)),
                      parse_int=lambda text: int(_bounded(text)))
    if isinstance(data, dict):
        clique = clique_from_json(data, magma=magma)
        return LinComb.of(clique)
    if not isinstance(data, list):
        raise UsageError("a combination file holds one clique or a list of terms")
    terms = []
    for entry in data:
        try:
            clique_data, coeff = entry["clique"], entry["coefficient"]
            if isinstance(coeff, bool):
                raise TypeError("a boolean is not a coefficient")
            # refuses NaN and, by OverflowError, infinities
            coeff = Fraction(_bounded(coeff) if isinstance(coeff, str) else coeff)
        except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise UsageError(
                f"combination term {entry!r} needs a clique and a rational "
                f"coefficient ({type(exc).__name__}: {exc})"
            ) from None
        terms.append((clique_from_json(clique_data, magma=magma), coeff))
    if not terms:
        raise UsageError("empty combination file needs an arity; give one term")
    return LinComb(terms[0][0].magma, terms[0][0].arity, terms)


def _dump_lincomb(comb):
    return [
        {"coefficient": f"{decimal(v.numerator)}/{decimal(v.denominator)}",
         "clique": clique_to_json(c)}
        for c, v in comb.items()
    ]


def _emit(args, payload, human):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def cmd_magma_check(args):
    magma = parse_magma_spec(args.magma)
    info = {
        "name": magma.name,
        "finite": magma.is_finite,
        "unit_two_sided": True,  # construction rejects anything else
        "monoid": magma.is_monoid(),
        "right_cancelable": is_right_cancelable(magma) if magma.is_finite or magma.kind == "int" else None,
        "nontrivial_unit_divisors": has_nontrivial_unit_divisors(magma),
    }
    if magma.is_finite:
        info["size"] = magma.size
        info["elements"] = list(magma.names)
    lines = [f"magma {magma.name}: unit axioms hold"]
    lines.append(f"  monoid (diagnostic): {info['monoid']}")
    lines.append(f"  right cancelable: {info['right_cancelable']}")
    lines.append(f"  nontrivial unit divisors: {info['nontrivial_unit_divisors']}")
    if magma.is_finite:
        lines.append(f"  elements: {' '.join(magma.names)}")
        header = "      " + " ".join(f"{nm:>4}" for nm in magma.names)
        lines.append(header)
        for i, nm in enumerate(magma.names):
            row = " ".join(f"{magma.names[magma.table[i][j]]:>4}" for j in range(magma.size))
            lines.append(f"  {nm:>4} {row}")
    _emit(args, info, "\n".join(lines))
    return 0


def cmd_compose(args):
    magma = parse_magma_spec(args.magma)
    lhs = _load_lincomb(args.lhs, magma)
    rhs = _load_lincomb(args.rhs, magma)
    if args.variant:
        var = variants.variant(args.variant, magma)
        result = variants.variant_compose(var, lhs, rhs, args.index)
    else:
        result = bases.compose_in_basis(lhs, rhs, args.index, args.basis)
    payload = {"basis": args.basis, "terms": _dump_lincomb(result)}
    human = "\n".join(
        _term_line(result.magma, c, v) for c, v in result.items()
    ) or "0"
    _emit(args, payload, human)
    return 0


def _term_line(magma, clique, coefficient):
    solid = clique.solid_arcs()
    if not solid:
        return f"{decimal(coefficient)} * <all-unit arity {clique.arity}>"
    labels = ", ".join(f"({x},{y})={magma.elem_name(clique.label(x, y))}" for x, y in solid)
    return f"{decimal(coefficient)} * <{labels}>"


def cmd_enumerate(args):
    magma = parse_magma_spec(args.magma)
    var = variants.variant(args.variant, magma) if args.variant else None
    enumeration._check_budget(
        magma.size, _label_count(args.arity), "cliques", args.arity, args.budget,
    )
    row_width(args.arity, UsageError)  # a one-element carrier passes any budget
    rows = []
    for clique in generate_cliques(magma, args.arity):
        if var is None or (var.in_ambient(clique) and var.member(clique)):
            rows.append(clique)
    if args.json:
        print(json.dumps([clique_to_json(c) for c in rows], indent=2))
    else:
        for clique in rows:
            print(format_clique(clique))
            print()
        print(f"total: {len(rows)}")
    return 0


def cmd_sequence(args):
    magma = parse_magma_spec(args.magma)
    record = enumeration.sequence_for(
        args.variant, magma, args.max_arity, budget=args.budget,
    )
    sys.stdout.write(enumeration.export_sequence(record, args.format))
    return 0


def cmd_primes(args):
    magma = parse_magma_spec(args.magma)
    # the largest size has the most patterns: refuse it before counting any
    enumeration._check_budget(
        2, enumeration._diagonal_count(args.max_size), "diagonal patterns",
        args.max_size, args.budget,
    )
    row_width(args.max_size, UsageError)
    rows = []
    for n in range(1, args.max_size + 1):
        white = enumeration.count_white_prime(magma, n, budget=args.budget)
        rows.append((
            n,
            enumeration.prime_from_white(magma, n, white),
            white,
            enumeration.count_minimal_prime(magma, n, budget=args.budget),
        ))
    if args.json:
        print(json.dumps(
            [
                {"size": n, "prime": p, "white_prime": w, "minimal_prime": mi}
                for n, p, w, mi in rows
            ],
            indent=2,
        ))
    else:
        print("size prime white-prime minimal-prime")
        for n, p, w, mi in rows:
            print(f"{n} {p} {w} {mi}")
    return 0


def cmd_dyck(args):
    magma = parse_magma_spec(args.magma)
    if args.encode:
        clique = clique_from_json(_read_json(args.encode), magma=magma)
        word = enumeration.dyck_encode(clique)
        print(str(word))
        return 0
    if args.decode:
        word = _parse_colored_word(magma, args.decode)
        clique = enumeration.dyck_decode(word)
        if args.json:
            print(json.dumps(clique_to_json(clique), indent=2))
        else:
            print(format_clique(clique))
        return 0
    raise UsageError("dyck needs --encode <clique.json> or --decode <word>")


def _parse_colored_word(magma, text):
    letters = []
    colors = {}
    pos = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch not in ("a", "b"):
            raise UsageError(f"bad letter {ch!r} in word")
        letters.append(ch)
        pos += 1
        i += 1
        if i < len(text) and text[i] == "[":
            close = text.find("]", i)
            if close < 0:
                raise UsageError(f"unclosed '[' at position {i} in word")
            colors[pos] = magma.elem(text[i + 1:close])
            i = close + 1
    return enumeration.ColoredDyckWord(magma, tuple(letters), colors)


# `verify` targets that build label blocks over a finite --magma
_BLOCK_VERIFIERS = ("symmetries", "cyclic", "basic", "ideal", "inclusions", "product", "all")


def _verify_reports(args):
    what = args.what
    # below these every verifier either raises or checks nothing
    if args.max_arity < 2:
        raise UsageError(f"--max-arity must be at least 2, not {args.max_arity}")
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, not {args.samples}")
    if args.magma is None and what not in ("ratfct", "known-ops"):
        raise UsageError(f"verify {what} needs --magma")
    magma = None if args.magma is None else parse_magma_spec(args.magma)
    # the block verifiers build label blocks of the max arity's clique space,
    # over D:0 and its square for known-ops: refuse one over the default
    # budget before any block is built.  No verify option raises that budget
    # (--budget reaches axioms alone), so the advice is a smaller arity.
    if what == "known-ops" or what in _BLOCK_VERIFIERS and magma.is_finite:
        size = 2 if what == "known-ops" else max(magma.size, 2)
        cells, budget = _label_count(args.max_arity), enumeration.DEFAULT_BUDGET
        if _power_exceeds(size, cells, budget):
            raise UsageError(
                f"{size}^{cells} cliques at arity {args.max_arity} exceed the "
                f"budget {budget}; lower --max-arity to proceed"
            )
    reports = []
    if what in ("axioms", "all"):
        reports.append(verify.verify_operad_axioms(
            magma, args.max_arity, budget=args.budget,
        ))
    if what in ("symmetries", "all"):
        reports.append(verify.verify_symmetries(
            magma, args.max_arity, samples=args.samples, seed=args.seed,
        ))
    if what in ("cyclic", "all"):
        reports.append(verify.verify_cyclic(magma, args.max_arity))
    if what in ("basic", "all"):
        report, _ = verify.verify_basic_set_operad(magma, args.max_arity)
        # non-injectivity is a property, not a failure, unless it disagrees
        # with cancelability (which raises); report it as informational
        reports.append(VerifyReport(
            report.name, True, report.checked,
            report.counterexample and "not basic: " + report.counterexample,
        ))
    if what in ("ideal", "all"):
        specs = [args.variant] if args.variant else variants.QUOTIENT_SPECS
        for spec in specs:
            try:
                var = variants.variant(spec, magma)
            except variants.VariantError:
                if args.variant:
                    raise
                continue
            reports.append(variants.verify_ideal(var, magma, args.max_arity))
    if what in ("inclusions", "all"):
        if not has_nontrivial_unit_divisors(magma):
            reports.append(variants.verify_inclusions(magma, args.max_arity))
    if what in ("product", "all") and magma.factors is not None:
        reports.append(verify.verify_product_iso(magma, args.max_arity))
    if what in ("ratfct", "all"):
        reports.append(ratfct.verify_rf_laws(
            max_arity=args.max_arity, samples=args.samples, seed=args.seed,
        ))
        reports.append(ratfct.verify_rf_kernel())
    if what in ("known-ops", "all"):
        reports.append(knownops.verify_known_ops(args.max_arity))
    if not reports:
        raise UsageError(f"nothing to verify for {what!r} over {args.magma}")
    return reports


def cmd_verify(args):
    if args.magma is None and args.what == "all":
        from . import acceptance

        return 0 if acceptance.run_all(as_json=args.json) else 1
    reports = _verify_reports(args)
    if args.json:
        print(json.dumps(
            [
                {
                    "name": r.name, "ok": r.ok, "checked": r.checked,
                    "complete": r.complete, "counterexample": r.counterexample,
                }
                for r in reports
            ],
            indent=2,
        ))
    else:
        for r in reports:
            print(r.describe())
    return 0 if all(r.ok for r in reports) else 1


def _positive_threads(text):
    # read here, not by argparse, so a bad value exits 2 with an `error:` line
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(
            f"--threads must be a positive integer, not {text!r} "
            "(it is accepted for compatibility and has no effect)"
        )
    return threads


def build_parser():
    """The argument parser of `main`.  It holds no function and reads no
    environment: `main` dispatches on the command's name each time it
    runs, so one parser serves every call."""
    parser = argparse.ArgumentParser(
        prog="cliqueops",
        description="operads of magma-decorated cliques: compose, enumerate, verify",
    )
    parser.add_argument(
        "--threads", default="1",
        help="accepted for compatibility and has no effect: every command "
             "runs in one process (a positive integer; default: 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("magma-check", help="validate a magma spec and print its table")
    p.add_argument("--magma", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("compose", help="compose two combinations from JSON files")
    p.add_argument("--magma", required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--basis", choices=["fundamental", "H", "K"], default="fundamental")
    p.add_argument("--variant", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enumerate", help="list cliques (optionally variant members)")
    p.add_argument("--magma", required=True)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--variant", default=None)
    p.add_argument("--budget", type=int, default=enumeration.DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sequence", help="dimension sequence of a variant")
    p.add_argument("--variant", required=True)
    p.add_argument("--magma", required=True)
    p.add_argument("--max-arity", type=int, required=True)
    p.add_argument("--format", choices=["b", "csv", "json"], default="b")
    p.add_argument("--budget", type=int, default=enumeration.DEFAULT_BUDGET)

    p = sub.add_parser(
        "verify",
        help="run a verifier and report counterexamples; `verify all` with "
             "no --magma runs the full acceptance battery",
    )
    p.add_argument(
        "what",
        choices=[
            "axioms", "symmetries", "cyclic", "basic", "ideal",
            "inclusions", "product", "ratfct", "known-ops", "all",
        ],
    )
    p.add_argument("--magma", default=None)
    p.add_argument("--max-arity", type=int, default=4)
    p.add_argument("--variant", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("primes", help="prime / white / minimal prime census")
    p.add_argument("--magma", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--budget", type=int, default=enumeration.DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("dyck", help="encode or decode nesting-free cliques")
    p.add_argument("--magma", required=True)
    p.add_argument("--encode", default=None, metavar="CLIQUE_JSON")
    p.add_argument("--decode", default=None, metavar="WORD")
    p.add_argument("--json", action="store_true")

    return parser


@lru_cache(maxsize=None)
def _parser():
    # built by the first `main` call, not at import, and reused by the rest
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)  # argparse exits 2 on usage errors itself
    try:
        args.threads = _positive_threads(args.threads)
        if getattr(args, "max_arity", None) is not None:
            # the library's arity bound, before any table is built
            row_width(args.max_arity, UsageError)
        if getattr(args, "budget", None) is not None and args.budget < 0:
            raise UsageError(f"--budget must be at least 0, not {args.budget}")
        # looked up per call, so a replaced `cmd_*` is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (UsageError, MagmaError, CliqueError, variants.VariantError,
            enumeration.BudgetError, knownops.KnownOperadError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
