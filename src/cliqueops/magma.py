"""Unitary magmas: operation tables, built-in families, and structure checks.

A unitary magma is a set with a binary operation admitting a two-sided
unit; associativity is never assumed.  Finite magmas are stored as dense
operation tables indexed by element position, with element 0 always the
unit.  The additive integers are the single rule-defined infinite magma.

Every magma has `unit == 0`: `UnitaryMagma.__init__` sets it, a table
file is renumbered so that its unit comes first, a product puts
(unit, unit) at index 0, and `Z` adds integers.  Labels are ints, so a
label is solid (not the unit) exactly when it is truthy, and the census
kernels test solidity by truthiness.
"""

from __future__ import annotations

import json
from itertools import permutations


class MagmaError(ValueError):
    """Malformed magma specification, bad table, or mixed-magma operands."""


UNIT_NAME = "\U0001d7d9"  # the symbol used when rendering the unit of a table magma

# The largest operation table a built-in family or a product may have, in
# entries (a 1024-element carrier).  Specs beyond it are refused before any
# table is allocated: E:100000 would need 10^10 entries.
MAX_TABLE_ENTRIES = 1 << 20


def _check_table_size(size):
    if size * size > MAX_TABLE_ENTRIES:
        raise MagmaError(
            f"a {size}-element carrier needs a {size * size}-entry table; "
            f"at most {MAX_TABLE_ENTRIES} entries are supported"
        )


class UnitaryMagma:
    """A unitary magma, either a finite operation table or the integers.

    Finite carriers are element indices 0..size-1 with index 0 the unit;
    the integer magma uses plain ints with unit 0.  Instances are
    immutable and hashable; equality is structural so that two parses of
    the same spec compare equal.
    """

    __slots__ = ("kind", "name", "names", "table", "unit", "factors", "spec",
                 "_index", "_key", "_hash", "_spaces", "_unit_divisors")

    def __init__(self, kind, name, names=None, table=None, factors=None, spec=None):
        self.kind = kind  # "table" | "int"
        self.name = name
        self.names = tuple(names) if names is not None else None
        self.table = tuple(tuple(row) for row in table) if table is not None else None
        self.factors = factors
        self.spec = spec
        self.unit = 0
        self._index = {nm: i for i, nm in enumerate(self.names)} if self.names else None
        if kind == "table":
            self._check_unit_axioms()
        # equality and hashing read only this key: name, spec and factors do not count
        self._key = ("int",) if kind == "int" else ("table", self.names, self.table)
        self._hash = hash(self._key)
        # values derived from this object alone, filled on first use and kept
        # out of `_key`: arity -> the shared cliques of `clique.generate_cliques`
        # (which keep this object as their magma), and the answer of
        # `has_nontrivial_unit_divisors`
        self._spaces = {}
        self._unit_divisors = None

    # -- construction ---------------------------------------------------

    @staticmethod
    def integers():
        """The additive unitary magma on all integers: one shared instance,
        so magma checks between integer cliques, ranks and morphisms pass
        on identity."""
        return _INTEGERS

    @staticmethod
    def trivial():
        return UnitaryMagma("table", "trivial", [UNIT_NAME], [[0]], spec="trivial")

    @staticmethod
    def cyclic(modulus):
        """Additive group of integers mod `modulus` (written N:<modulus>)."""
        if modulus < 1:
            raise MagmaError("cyclic magma needs modulus >= 1")
        _check_table_size(modulus)
        names = [str(i) for i in range(modulus)]
        table = [[(i + j) % modulus for j in range(modulus)] for i in range(modulus)]
        return UnitaryMagma("table", f"N_{modulus}", names, table, spec=f"N:{modulus}")

    @staticmethod
    def zero_product(count):
        """Unit, an absorbing 0, and `count` generators whose products are 0 (written D:<count>)."""
        if count < 0:
            raise MagmaError("zero_product magma needs count >= 0")
        _check_table_size(count + 2)
        names = [UNIT_NAME, "0"] + [f"d_{i}" for i in range(1, count + 1)]
        size = count + 2
        table = [[0] * size for _ in range(size)]
        for i in range(size):
            table[0][i] = i
            table[i][0] = i
        for i in range(1, size):
            for j in range(1, size):
                table[i][j] = 1  # absorbing element
        return UnitaryMagma("table", f"D_{count}", names, table, spec=f"D:{count}")

    @staticmethod
    def unit_product(count):
        """Unit and `count` generators whose pairwise products are the unit (written E:<count>)."""
        if count < 0:
            raise MagmaError("unit_product magma needs count >= 0")
        _check_table_size(count + 1)
        names = [UNIT_NAME] + [f"e_{i}" for i in range(1, count + 1)]
        size = count + 1
        table = [[0] * size for _ in range(size)]
        for i in range(size):
            table[0][i] = i
            table[i][0] = i
        return UnitaryMagma("table", f"E_{count}", names, table, spec=f"E:{count}")

    @staticmethod
    def from_table_data(data, spec=None, name=None):
        """Build a table magma from {"elements": [...], "unit": name, "table": row-major [...]}."""
        try:
            names = list(data["elements"])
            unit_name = data["unit"]
            flat = list(data["table"])
        except (KeyError, TypeError) as exc:
            raise MagmaError(f"table data must carry elements/unit/table: {exc}")
        size = len(names)
        if not all(isinstance(name, str) for name in names):
            raise MagmaError(f"element names must be strings, got {names!r}")
        if len(set(names)) != size:
            raise MagmaError("duplicate element names in table data")
        if unit_name not in names:
            raise MagmaError(f"unit {unit_name!r} not among elements")
        if len(flat) != size * size:
            raise MagmaError(f"table must have {size * size} entries, got {len(flat)}")
        pos = {nm: i for i, nm in enumerate(names)}
        for entry in flat:
            if not isinstance(entry, str) or entry not in pos:
                raise MagmaError(f"table entry {entry!r} not among elements")
        # renumber so the unit sits at index 0
        order = [unit_name] + [nm for nm in names if nm != unit_name]
        new_pos = {nm: i for i, nm in enumerate(order)}
        table = [[0] * size for _ in range(size)]
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                table[new_pos[a]][new_pos[b]] = new_pos[flat[i * size + j]]
        return UnitaryMagma("table", name or "table", order, table, spec=spec)

    # -- validation ------------------------------------------------------

    def _check_unit_axioms(self):
        for x in range(len(self.names)):
            if self.table[0][x] != x or self.table[x][0] != x:
                raise MagmaError(
                    f"element {self.names[0]!r} is not a two-sided unit "
                    f"(fails on {self.names[x]!r})"
                )

    # -- structure -------------------------------------------------------

    @property
    def is_finite(self):
        return self.kind == "table"

    @property
    def size(self):
        if not self.is_finite:
            raise MagmaError(f"{self.name} is infinite")
        return len(self.names)

    def op(self, a, b):
        """The magma product on raw label values."""
        if self.kind == "int":
            return a + b
        return self.table[a][b]

    def elements(self):
        if not self.is_finite:
            raise MagmaError(f"cannot enumerate the infinite magma {self.name}")
        return range(len(self.names))

    def nonunit_elements(self):
        return range(1, self.size)

    def elem(self, name):
        """Parse an element from its display name (or an int for the integer magma)."""
        if self.kind == "int":
            # an int (True and False are not labels) or an integer string;
            # a float such as 1.5 is refused, never truncated
            if isinstance(name, int) and not isinstance(name, bool):
                return name
            if isinstance(name, str):
                try:
                    return int(name)
                except ValueError:
                    pass
            raise MagmaError(f"{name!r} is not an integer label")
        if isinstance(name, str):
            if name in self._index:
                return self._index[name]
            # "1", "e" and "id" name the unit; "dk" and "ek" name d_k and e_k
            alias = {"1": UNIT_NAME, "e": UNIT_NAME, "id": UNIT_NAME}.get(name)
            if alias is None and name[:1] in ("d", "e") and name[1:].isdigit():
                alias = f"{name[0]}_{name[1:]}"
            if alias in self._index:
                return self._index[alias]
        raise MagmaError(f"{name!r} is not an element of {self.name}")

    def elem_name(self, value):
        if self.kind == "int":
            return str(value)
        return self.names[value]

    def contains(self, value):
        # bool subclasses int, but True and False are not labels
        if isinstance(value, bool) or not isinstance(value, int):
            return False
        return self.kind == "int" or 0 <= value < len(self.names)

    def is_monoid(self):
        """Diagnostic associativity check; never gates any operation."""
        if self.kind == "int":
            return True
        rng = range(len(self.names))
        return all(
            self.table[self.table[a][b]][c] == self.table[a][self.table[b][c]]
            for a in rng for b in rng for c in rng
        )

    def table_data(self):
        """The JSON table-file form of a finite magma."""
        if not self.is_finite:
            raise MagmaError("the integer magma has no finite table")
        return {
            "elements": list(self.names),
            "unit": self.names[0],
            "table": [self.names[self.table[i][j]] for i in range(self.size) for j in range(self.size)],
        }

    def __eq__(self, other):
        return self is other or (
            isinstance(other, UnitaryMagma) and self._key == other._key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"UnitaryMagma({self.name})"


_INTEGERS = UnitaryMagma("int", "Z", spec="Z")


def magma_product(m1, m2):
    """Componentwise product magma; the unit is the pair of units."""
    if not (m1.is_finite and m2.is_finite):
        raise MagmaError("product requires finite factors")
    s1, s2 = m1.size, m2.size
    _check_table_size(s1 * s2)
    names = [f"({m1.names[a]},{m2.names[b]})" for a in range(s1) for b in range(s2)]
    table = [
        [m1.table[a1][b1] * s2 + m2.table[a2][b2] for b1 in range(s1) for b2 in range(s2)]
        for a1 in range(s1) for a2 in range(s2)
    ]
    spec = f"prod({m1.spec},{m2.spec})" if m1.spec and m2.spec else None
    return UnitaryMagma(
        "table", f"{m1.name}x{m2.name}", names, table, factors=(m1, m2), spec=spec
    )


def pair_value(magma, a, b):
    """Raw value of the pair (a, b) in a product magma."""
    if magma.factors is None:
        raise MagmaError(f"{magma.name} is not a product magma")
    return a * magma.factors[1].size + b


def unpair_value(magma, value):
    if magma.factors is None:
        raise MagmaError(f"{magma.name} is not a product magma")
    s2 = magma.factors[1].size
    return value // s2, value % s2


_SIZED_FAMILIES = (  # prefix, builder, least parameter, carrier size minus parameter
    ("N:", UnitaryMagma.cyclic, 1, 0),
    ("D:", UnitaryMagma.zero_product, 0, 2),
    ("E:", UnitaryMagma.unit_product, 0, 1),
)


def _prod_factors(text):
    """The two factor specs of a stripped `prod(...)` spec, or None."""
    inner = text[len("prod("):-1]
    depth = 0
    for pos, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return inner[:pos], inner[pos + 1:]
    return None


def _read_spec(text):
    """Read a spec into (carrier size, builder) without building a table.

    The size is None for an infinite carrier.  Parameters and sizes are
    refused as they are read, left to right, so an oversized product is
    refused before either factor table exists.  A `table:` file is loaded
    as it is read, which costs no more than the file.
    """
    text = text.strip()
    if text == "Z":
        return None, UnitaryMagma.integers
    if text == "trivial":
        return 1, UnitaryMagma.trivial
    for prefix, builder, least, offset in _SIZED_FAMILIES:
        if text.startswith(prefix):
            try:
                param = int(text[len(prefix):])
            except ValueError:
                raise MagmaError(f"bad parameter in magma spec {text!r}")
            if param < least:
                builder(param)  # refuses the parameter in the family's words
            _check_table_size(param + offset)
            return param + offset, lambda: builder(param)
    if text.startswith("prod(") and text.endswith(")"):
        factors = _prod_factors(text)
        if factors is None:
            raise MagmaError(f"prod spec needs two comma-separated factors: {text!r}")
        (size1, build1), (size2, build2) = map(_read_spec, factors)
        size = None if None in (size1, size2) else size1 * size2
        if size is not None:
            _check_table_size(size)
        return size, lambda: magma_product(build1(), build2())
    if text.startswith("table:"):
        path = text[len("table:"):]
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, UnicodeDecodeError) as exc:
            raise MagmaError(f"cannot read magma table {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise MagmaError(f"magma table {path} is not JSON: {exc}") from None
        magma = UnitaryMagma.from_table_data(data, spec=text, name=path)
        return magma.size, lambda: magma
    raise MagmaError(f"unrecognized magma spec {text!r}")


def parse_magma_spec(text):
    """Parse the magma mini-language.

    Grammar: `Z` | `N:<l>` | `D:<l>` | `E:<l>` | `trivial` |
    `prod(<spec>,<spec>)` | `table:<file>`.
    """
    return _read_spec(text)[1]()


class MagmaElem:
    """An element tagged with its owning magma; comparable only within it."""

    __slots__ = ("magma", "value")

    def __init__(self, magma, value):
        if not magma.contains(value):
            raise MagmaError(f"{value!r} is not a value of {magma.name}")
        self.magma = magma
        self.value = value

    def __mul__(self, other):
        return op(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, MagmaElem)
            and self.magma == other.magma
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.magma, self.value))

    def __repr__(self):
        return self.magma.elem_name(self.value)


def op(a, b):
    """Magma product of two owned elements; mixed-magma operands rejected."""
    if a.magma != b.magma:
        raise MagmaError(f"cannot multiply across magmas {a.magma.name} and {b.magma.name}")
    return MagmaElem(a.magma, a.magma.op(a.value, b.value))


def is_right_cancelable(magma):
    """Whether y*x = z*x forces y = z; brute force on finite carriers.

    The integer magma is cancelable by rule; no other infinite carrier
    is accepted.
    """
    if magma.kind == "int":
        return True
    if not magma.is_finite:
        raise MagmaError(f"cannot decide cancelability of {magma.name}")
    size = magma.size
    for x in range(size):
        seen = set()
        for y in range(size):
            val = magma.table[y][x]
            if val in seen:
                return False
            seen.add(val)
    return True


def has_nontrivial_unit_divisors(magma):
    """Whether some x, y both different from the unit satisfy x*y = unit.

    The O(m^2) table scan runs once per magma object; its answer is kept
    on the object.
    """
    found = magma._unit_divisors
    if found is None:
        found = magma._unit_divisors = magma.kind != "int" and any(
            magma.table[x][y] == 0
            for x in range(1, magma.size)
            for y in range(1, magma.size)
        )
    return found


class RankFunction:
    """An additive map into the integers: theta(unit) = 0 and theta(x*y) = theta(x) + theta(y)."""

    __slots__ = ("magma", "values")

    def __init__(self, magma, values):
        # values: tuple of ints for a finite magma, or None for the identity on Z
        self.magma = magma
        self.values = tuple(values) if values is not None else None
        self._validate()

    @staticmethod
    def identity():
        return RankFunction(UnitaryMagma.integers(), None)

    @staticmethod
    def zero(magma):
        if magma.kind == "int":
            raise MagmaError("use RankFunction.identity() or explicit values on Z")
        return RankFunction(magma, (0,) * magma.size)

    def _validate(self):
        if self.values is None:
            if self.magma.kind != "int":
                raise MagmaError("rule-defined rank functions exist only on the integer magma")
            return
        if not self.magma.is_finite:
            raise MagmaError("finite value table given for an infinite magma")
        if len(self.values) != self.magma.size:
            raise MagmaError("rank table length must match the carrier size")
        if self.values[0] != 0:
            raise MagmaError("a rank function must vanish on the unit")
        for x in range(self.magma.size):
            for y in range(self.magma.size):
                if self.values[self.magma.table[x][y]] != self.values[x] + self.values[y]:
                    raise MagmaError(
                        f"not additive on ({self.magma.elem_name(x)}, {self.magma.elem_name(y)})"
                    )

    def __call__(self, value):
        if self.values is None:
            return value
        return self.values[value]

    def of_labels(self, labels):
        """The ranks of a tuple of labels, as a tuple."""
        if self.values is None:
            return labels
        return tuple(map(self.values.__getitem__, labels))


class MagmaMorphism:
    """A unit-preserving multiplicative map between unitary magmas."""

    __slots__ = ("source", "target", "rule", "values")

    def __init__(self, source, target, rule="table", values=None):
        self.source = source
        self.target = target
        self.rule = rule  # "table" | "identity" | "negate"
        self.values = tuple(values) if values is not None else None
        self._validate()

    @staticmethod
    def identity(magma):
        return MagmaMorphism(magma, magma, rule="identity")

    @staticmethod
    def negation():
        """x -> -x on the additive integers."""
        z = UnitaryMagma.integers()
        return MagmaMorphism(z, z, rule="negate")

    def _validate(self):
        if self.rule == "identity":
            if self.source != self.target:
                raise MagmaError("identity morphism needs equal source and target")
            return
        if self.rule == "negate":
            if self.source.kind != "int" or self.target.kind != "int":
                raise MagmaError("negation is defined on the integer magma only")
            return
        if self.values is None or not self.source.is_finite:
            raise MagmaError("table morphisms need a finite source with a value table")
        if len(self.values) != self.source.size:
            raise MagmaError("morphism table length must match the source size")
        for val in self.values:
            if not self.target.contains(val):
                raise MagmaError("morphism value outside the target carrier")
        if self.values[0] != self.target.unit:
            raise MagmaError("a magma morphism must send unit to unit")
        for x in range(self.source.size):
            for y in range(self.source.size):
                lhs = self.values[self.source.table[x][y]]
                rhs = self.target.op(self.values[x], self.values[y])
                if lhs != rhs:
                    raise MagmaError(
                        f"not multiplicative on ({self.source.elem_name(x)}, "
                        f"{self.source.elem_name(y)})"
                    )

    def __call__(self, value):
        if self.rule == "identity":
            return value
        if self.rule == "negate":
            return -value
        return self.values[value]

    def compose(self, inner):
        """self after inner."""
        if inner.target != self.source:
            raise MagmaError("morphisms do not compose")
        if inner.rule == "identity":
            return self
        if self.rule == "identity":
            return inner
        if self.rule == "negate" and inner.rule == "negate":
            return MagmaMorphism.identity(self.source)
        if inner.rule == "table":
            return MagmaMorphism(
                inner.source, self.target,
                values=[self(v) for v in inner.values],
            )
        raise MagmaError("unsupported morphism composition")


def automorphisms(magma):
    """All table automorphisms of a finite magma, found by brute force."""
    if not magma.is_finite:
        raise MagmaError("automorphism search needs a finite magma")
    size = magma.size
    found = []
    for perm in permutations(range(1, size)):
        values = (0,) + perm
        if all(
            values[magma.table[x][y]] == magma.table[values[x]][values[y]]
            for x in range(size) for y in range(size)
        ):
            found.append(MagmaMorphism(magma, magma, values=values))
    return found
