import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueops import (
    Clique, CliqueError, MagmaElem, MagmaError, MagmaMorphism, RankFunction,
    UnitaryMagma, automorphisms, clique_from_json, clique_to_json,
    has_nontrivial_unit_divisors, is_right_cancelable, magma_product, op,
    parse_magma_spec,
)


def test_builtin_units_are_two_sided():
    for magma in (
        UnitaryMagma.trivial(), UnitaryMagma.cyclic(2), UnitaryMagma.cyclic(5),
        UnitaryMagma.zero_product(0), UnitaryMagma.zero_product(3),
        UnitaryMagma.unit_product(1), UnitaryMagma.unit_product(4),
    ):
        for x in magma.elements():
            assert magma.op(magma.unit, x) == x
            assert magma.op(x, magma.unit) == x


def test_zero_product_table(d2):
    zero = d2.elem("0")
    d_1, d_2 = d2.elem("d_1"), d2.elem("d_2")
    assert d2.op(d_1, d_2) == zero
    assert d2.op(d_2, d_2) == zero
    assert d2.op(zero, d_1) == zero


def test_unit_product_is_not_a_monoid(e2):
    e_1, e_2 = e2.elem("e_1"), e2.elem("e_2")
    left = e2.op(e_1, e2.op(e_1, e_2))
    right = e2.op(e2.op(e_1, e_1), e_2)
    assert left == e_1
    assert right == e_2
    assert not e2.is_monoid()


def test_compact_generator_names(d2, e2):
    assert d2.elem("d1") == d2.elem("d_1") and d2.elem("d2") == d2.elem("d_2")
    assert e2.elem("e2") == e2.elem("e_2")
    for name in ("d3", "e1", "d_0", "d"):
        with pytest.raises(MagmaError):
            d2.elem(name)


@pytest.mark.parametrize("spec", [
    "E:100000", "N:5000", "D:1023", "prod(N:64,N:32)", "prod(D:0,E:100000)",
    "prod(N:1000,N:1000)",
])
def test_oversized_specs_are_refused_before_allocating(spec):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(MagmaError, match="entry table"):
            parse_magma_spec(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_largest_table_is_accepted():
    from cliqueops.magma import MAX_TABLE_ENTRIES

    side = int(MAX_TABLE_ENTRIES ** 0.5)
    assert side * side == MAX_TABLE_ENTRIES
    assert parse_magma_spec(f"E:{side - 1}").size == side


def test_integer_magma_addition(z):
    assert z.op(3, -5) == -2
    assert z.op(0, 7) == 7
    assert not z.is_finite


def test_owned_elements_reject_mixed_magmas(d0, n2):
    a = MagmaElem(d0, d0.elem("0"))
    b = MagmaElem(n2, n2.elem("1"))
    with pytest.raises(MagmaError):
        op(a, b)
    assert (a * MagmaElem(d0, d0.unit)).value == a.value


def test_right_cancelable(n2, n3, d0, d1, e1, e2):
    assert is_right_cancelable(n2)
    assert is_right_cancelable(n3)
    assert is_right_cancelable(UnitaryMagma.integers())
    assert not is_right_cancelable(d0)
    assert not is_right_cancelable(d1)
    # e_1 * e_1 = unit, so E_1 is the two-element group and cancels;
    # E_l stops cancelling at l = 2 (two columns collide on the unit)
    assert is_right_cancelable(e1)
    assert not is_right_cancelable(e2)


def test_unit_divisors(d0, d2, e1, n2, n3, z):
    assert not has_nontrivial_unit_divisors(d0)
    assert not has_nontrivial_unit_divisors(d2)
    assert has_nontrivial_unit_divisors(e1)
    assert has_nontrivial_unit_divisors(n2)
    assert has_nontrivial_unit_divisors(n3)
    assert not has_nontrivial_unit_divisors(z)


def test_product_magma(d0, n2):
    prod = magma_product(d0, d0)
    assert prod.size == 4
    a = prod.elem("(0,\U0001d7d9)")
    b = prod.elem("(\U0001d7d9,0)")
    assert prod.op(a, b) == prod.elem("(0,0)")
    klein = magma_product(n2, n2)
    x = klein.elem("(1,1)")
    assert klein.op(x, x) == klein.unit
    trivial = magma_product(d0, UnitaryMagma.trivial())
    assert [trivial.table[i][j] for i in range(2) for j in range(2)] == [0, 1, 1, 1]


def test_parse_magma_spec(tmp_path):
    assert parse_magma_spec("Z").kind == "int"
    assert parse_magma_spec("N:3").size == 3
    assert parse_magma_spec("D:0").size == 2
    assert parse_magma_spec("E:2").size == 3
    assert parse_magma_spec("trivial").size == 1
    assert parse_magma_spec("prod(D:0,D:0)").size == 4
    table = {
        "elements": ["u", "a"],
        "unit": "u",
        "table": ["u", "a", "a", "u"],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(table))
    magma = parse_magma_spec(f"table:{path}")
    assert magma.size == 2
    assert magma.op(1, 1) == 0
    with pytest.raises(MagmaError):
        parse_magma_spec("Q:2")
    bad = dict(table, table=["a", "a", "a", "u"])
    path.write_text(json.dumps(bad))
    with pytest.raises(MagmaError):
        parse_magma_spec(f"table:{path}")


def test_every_magma_has_its_unit_at_zero(tmp_path):
    # the census kernels read a label as solid exactly when it is truthy
    path = tmp_path / "unit-last.json"
    path.write_text(json.dumps({
        "elements": ["a", "b", "u"], "unit": "u",
        "table": ["b", "u", "a", "u", "a", "b", "a", "b", "u"],
    }))
    specs = ["D:0", "D:3", "E:0", "E:2", "N:1", "N:4", "trivial", "Z",
             "prod(D:1,E:1)", "prod(N:2,prod(D:0,E:1))", f"table:{path}"]
    for spec in specs:
        magma = parse_magma_spec(spec)
        assert magma.unit == 0, spec
        if magma.is_finite:
            assert all(magma.op(0, x) == x == magma.op(x, 0) for x in magma.elements())
    table = parse_magma_spec(f"table:{path}")
    assert table.names[0] == "u" and table.elem("u") == 0
    assert magma_product(table, UnitaryMagma.cyclic(3)).elem("(u,0)") == 0


@pytest.mark.parametrize("content", [None, '{"elements": ["u", "a"], "unit": "u", "tab'],
                         ids=["missing-file", "truncated-json"])
def test_unreadable_table_files_are_magma_errors(tmp_path, content):
    path = tmp_path / "m.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(MagmaError, match="magma table"):
        parse_magma_spec(f"table:{path}")


@pytest.mark.parametrize("data", [
    {"elements": ["u", ["a"]], "unit": "u", "table": ["u", ["a"], ["a"], "u"]},
    {"elements": ["u", 1], "unit": "u", "table": ["u", 1, 1, "u"]},
    {"elements": ["u", "a"], "unit": "u", "table": ["u", "a", "a", ["u"]]},
], ids=["list-name", "int-name", "list-entry"])
def test_table_names_and_entries_are_strings(data):
    # a table file is JSON, whose lists are unhashable
    with pytest.raises(MagmaError, match="strings|not among elements"):
        UnitaryMagma.from_table_data(data)


def test_rank_function_validation(n2, z):
    identity = RankFunction.identity()
    assert identity(-4) == -4
    # only the zero map reaches the integers from a cyclic magma
    RankFunction.zero(n2)
    with pytest.raises(MagmaError):
        RankFunction(n2, (0, 1))
    with pytest.raises(MagmaError):
        RankFunction(z, (0,))


def test_morphism_validation(d0, d1, n2):
    with pytest.raises(MagmaError):
        MagmaMorphism(d0, n2, values=(1, 0))  # unit must map to unit
    with pytest.raises(MagmaError):
        MagmaMorphism(n2, d0, values=(0, 1))  # 1+1=0 but 0*0=0 in the target
    collapse = MagmaMorphism(d1, d0, values=(0, 1, 1))
    assert collapse(d1.elem("d_1")) == d0.elem("0")
    neg = MagmaMorphism.negation()
    assert neg(5) == -5
    assert neg.compose(neg)(5) == 5


def test_automorphism_search(d2, n3):
    # swapping the two zero-product generators is the only nontrivial symmetry
    autos = automorphisms(d2)
    assert len(autos) == 2
    assert sorted(a.values for a in autos) == [(0, 1, 2, 3), (0, 1, 3, 2)]
    assert len(automorphisms(n3)) == 2  # identity and negation mod 3


def test_structural_equality_and_rendering(tmp_path):
    assert parse_magma_spec("D:1") == parse_magma_spec("D:1")
    assert parse_magma_spec("D:1") != parse_magma_spec("E:2")
    # a table file with D:0's table: equal to D:0, yet a separate object
    # that keeps its own spec for serialization
    path = tmp_path / "d0.json"
    path.write_text(json.dumps(UnitaryMagma.zero_product(0).table_data()))
    first, second = (parse_magma_spec(f"table:{path}") for _ in range(2))
    assert first == second and hash(first) == hash(second)
    assert first is not second
    assert first == parse_magma_spec("D:0") and first.spec == f"table:{path}"
    assert first != parse_magma_spec("D:1") and first != UnitaryMagma.integers()
    d1 = parse_magma_spec("D:1")
    assert d1.elem_name(d1.elem("d_1")) == "d_1"
    assert d1.elem_name(d1.unit) == "\U0001d7d9"


def test_one_integer_magma(tmp_path):
    z = UnitaryMagma.integers()
    assert parse_magma_spec("Z") is z is RankFunction.identity().magma
    negate = MagmaMorphism.negation()
    assert negate.source is z and negate.target is z
    # the JSON of an integer clique is unchanged
    clique = Clique.from_arcs(z, 3, {(1, 2): -2, (2, 4): 5})
    assert clique_to_json(clique) == {
        "magma": "Z", "arity": 3, "labels": {"1,2": "-2", "2,4": "5"},
    }
    assert clique_from_json(clique_to_json(clique)).magma is z
    # only the integers are shared: a table file equal to D:0 still
    # serializes as the table it was read from
    path = tmp_path / "d0.json"
    data = UnitaryMagma.zero_product(0).table_data()
    path.write_text(json.dumps(data))
    table = parse_magma_spec(f"table:{path}")
    assert table == parse_magma_spec("D:0") and table is not parse_magma_spec("D:0")
    row = {"magma": f"table:{path}", "arity": 2, "labels": {"1,3": "0"}}
    assert clique_to_json(Clique.from_arcs(table, 2, {(1, 3): 1})) == row
    unnamed = Clique.from_arcs(UnitaryMagma.from_table_data(data), 2, {(1, 3): 1})
    assert clique_to_json(unnamed) == dict(row, magma=data)


def test_bool_is_not_a_label(z, d0):
    for magma in (z, d0):
        assert magma.contains(0)
        assert not magma.contains(True) and not magma.contains(False)
        with pytest.raises(CliqueError):
            Clique(magma, 2, [True, 0, 0])


# -- the spec parser under drawn input ------------------------------------------

_FAMILY_SIZES = {"N:": lambda k: k if k >= 1 else None,
                 "D:": lambda k: k + 2 if k >= 0 else None,
                 "E:": lambda k: k + 1 if k >= 0 else None}
_BUILT = 36  # carriers up to this size are built, larger ones only read


@st.composite
def magma_specs(draw, depth=2):
    """A well-formed spec text and its carrier size: "Z" for the integers,
    None when the spec must be refused.  Parameters are small or have at
    least ten digits, and products nest up to `depth` levels."""
    if depth and draw(st.booleans()):
        (left, a), (right, b) = draw(magma_specs(depth - 1)), draw(magma_specs(depth - 1))
        finite = None not in (a, b) and "Z" not in (a, b)
        size = a * b if finite and a * b <= 1024 else None
        return f"prod({left},{right})", size
    kind = draw(st.sampled_from(["Z", "trivial", *_FAMILY_SIZES]))
    if kind == "Z":
        return "Z", "Z"
    if kind == "trivial":
        return "trivial", 1
    k = draw(st.one_of(st.integers(-2, 5), st.integers(10 ** 9, 10 ** 30)))
    size = _FAMILY_SIZES[kind](k)
    return f"{kind}{k}", size if size is not None and size <= 1024 else None


@st.composite
def damaged(draw, text):
    """`text` with one to three characters deleted, inserted or replaced."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(chars)))
        new = draw(st.sampled_from("():,-+_ 0123456789NDEZprodtrivialx\u0663"))
        action = draw(st.sampled_from(["delete", "insert", "replace"]))
        if action == "insert" or not chars:
            chars.insert(at, new)
        elif action == "delete":
            del chars[min(at, len(chars) - 1)]
        else:
            chars[min(at, len(chars) - 1)] = new
    return "".join(chars)


@settings(max_examples=100, deadline=None)
@given(magma_specs(), st.data())
def test_spec_parser_states_the_size_or_refuses(drawn, data):
    # reading a spec states its carrier size without building a table; the
    # small carriers are built as well
    from cliqueops.magma import _read_spec

    text, size = drawn
    if size is None:
        with pytest.raises(MagmaError):
            parse_magma_spec(text)
    elif size == "Z":
        assert parse_magma_spec(text).kind == "int"
    else:
        read, build = _read_spec(text)
        assert read == size
        if size <= _BUILT:
            assert build().size == size
    # damaged, a spec is read or refused with MagmaError; `table:` reads a
    # file, so damage that spells it out is left aside
    broken = data.draw(damaged(text).filter(lambda t: "table:" not in t))
    try:
        read, build = _read_spec(broken)
        if read is not None and read <= _BUILT:
            assert build().size == read
    except MagmaError:
        pass
