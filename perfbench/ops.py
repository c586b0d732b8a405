"""Operations, the unit of work a workload is made of.

An operation runs one or more calls into cliqueops under spans and
returns its raw result; its check, run after the timed region, compares
that result with a golden value or an independent recomputation and
returns a mismatch description, or None when the output is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from cliqueops import Clique, arcs_of


@dataclass
class Op:
    name: str
    layer: str  # the layer a failure of this operation is charged to
    run: Callable[[Any], Any]  # run(tracer) -> result
    check: Callable[[Any], Any]  # check(result) -> None | str


def random_clique(rng, magma, arity, solid=None):
    """A clique over a finite magma with uniform labels, or with each arc
    solid with probability `solid` and carrying a uniform non-unit label."""
    if solid is None:
        return Clique(magma, arity, [rng.randrange(magma.size) for _ in arcs_of(arity)])
    return Clique(magma, arity, [
        rng.randint(1, magma.size - 1) if rng.random() < solid else magma.unit
        for _ in arcs_of(arity)
    ])


def call(tracer, span_name, fn, *args, **kwargs):
    """One traced call; a verifier's `checked` count becomes the span's items."""
    with tracer.span(span_name) as record:
        result = fn(*args, **kwargs)
    if record is not None:
        report = result[0] if isinstance(result, tuple) else result
        record["items"] = getattr(report, "checked", 0)
    return result


def batch(tracer, span_name, fn, arg_tuples, items=0):
    """Many calls of one function under a single span, results in order."""
    with tracer.span(span_name, calls=len(arg_tuples), items=items):
        return [fn(*args) for args in arg_tuples]


def report_is(checked):
    """Check for a VerifyReport: ok, complete, and exactly `checked` instances."""
    def check(report):
        if not (report.ok and report.complete and report.checked == checked):
            return (f"expected ok and complete with {checked} checked, got "
                    f"ok={report.ok} complete={report.complete} "
                    f"checked={report.checked}: {report.counterexample}")
        return None
    return check


def equals(expected):
    def check(result):
        return None if result == expected else f"expected {expected!r}, got {result!r}"
    return check


def first_mismatch(pairs, what):
    """Compare (got, want) pairs; describe the first that differ."""
    for k, (got, want) in enumerate(pairs):
        if got != want:
            return f"{what} #{k}: got {got!r}, expected {want!r}"
    return None
