"""Unitary magmas shared by the verifier tests and their references."""

from hypothesis import strategies as st

from cliqueops import UnitaryMagma

# The one D:0 and the one D:1 object of a test session, behind the `d0` and
# `d1` fixtures and the modules that need them outside a test: each magma
# object keeps its own shared clique spaces.
D0 = UnitaryMagma.zero_product(0)
D1 = UnitaryMagma.zero_product(1)

# a noncommutative unitary magma: x * y = x for x, y non-units
_LEFT_ZERO = {
    "elements": ["u", "a", "b"],
    "unit": "u",
    "table": ["u", "a", "b", "a", "a", "a", "b", "b", "b"],
}


@st.composite
def unitary_magmas(draw, max_size=4, unit_divisors=True):
    """A table magma of 2 to `max_size` (at most 4) elements with unit "u"
    and every product of two non-units drawn: in general neither
    commutative nor associative.  Without `unit_divisors` no such product
    is the unit."""
    names = ["u", "a", "b", "c"][:draw(st.integers(2, max_size))]
    entries = st.sampled_from(names if unit_divisors else names[1:])
    table = [y if x == "u" else x if y == "u" else draw(entries)
             for x in names for y in names]
    return UnitaryMagma.from_table_data({"elements": names, "unit": "u", "table": table})
