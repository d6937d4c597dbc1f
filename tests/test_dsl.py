"""Expression language: parsing, elaboration, and error reporting."""

import pytest

from hilbertdepth import (
    ElaborationError,
    ParseError,
    complete_intersection,
    extend,
    free_module,
    from_table,
    parse_function,
    parse_spec,
    polynomial_ring,
    scale,
    shift,
)
from hilbertdepth import dsl
from hilbertdepth.dsl import MAX_NESTING


def test_constructor_round_trips():
    assert parse_function("poly(3)") == polynomial_ring(3)
    assert parse_function("table(0:1,1:3,2:3,3:1)") == from_table({0: 1, 1: 3, 2: 3, 3: 1})
    assert parse_function("free(2; 0, 0, -1)") == free_module(2, [0, 0, -1])
    assert parse_function("ci(3; 2,2)") == complete_intersection(3, [2, 2])
    assert parse_function("ci(4;)") == polynomial_ring(4)
    assert parse_function("ci(3; )") == polynomial_ring(3)
    assert parse_function("shift(ci(3; 2,2), -1)") == shift(
        complete_intersection(3, [2, 2]), -1
    )
    assert parse_function("scale(poly(2), 3)") == scale(polynomial_ring(2), 3)
    assert parse_function("extend(table(0:1))") == polynomial_ring(1)


def test_sum_elaborates_to_pointwise_add():
    h = parse_function("sum(table(0:1), extend(table(0:1)))")
    direct = from_table({0: 1}) + extend(from_table({0: 1}))
    assert h == direct
    many = parse_function("sum(poly(1), poly(1), table(0:1))")
    assert [many.evaluate(k) for k in range(3)] == [3, 2, 2]


def test_whitespace_insensitive():
    a = parse_function(" shift( ci( 3 ; 2 , 2 ) , -1 ) ")
    b = parse_function("shift(ci(3;2,2),-1)")
    assert a == b


def test_negative_table_keys():
    h = parse_function("table(-2:5)")
    assert h.k0 == -2 and h.evaluate(-2) == 5


def test_parse_errors_carry_positions():
    # per-constructor messages are pinned in test_parse_error_messages
    for text, position in (("poly(3) poly(2)", 8), ("poly(x)", 5), ("", 0)):
        with pytest.raises(ParseError) as info:
            parse_spec(text)
        assert info.value.position == position


def test_elaboration_errors():
    with pytest.raises(ElaborationError):
        parse_function("poly(0)")
    with pytest.raises(ElaborationError):
        parse_function("ci(2; 2,2,2)")
    with pytest.raises(ElaborationError):
        parse_function("table(0:0)")
    with pytest.raises(ElaborationError):
        parse_function("table(0:-1)")
    with pytest.raises(ElaborationError):
        parse_function("scale(poly(2), 0)")
    # summing a repeated degree would let a negative literal past the sign check
    for text in ("table(0:2,0:-1)", "table(0:1,0:1)", "table(0:1,1:1,0:1)"):
        with pytest.raises(ElaborationError, match="^table: degree 0 appears more"):
            parse_function(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("poly(3", "unexpected 'end' at position 6 (expected ))"),
        ("table()", "unexpected ')' at position 6 (expected int)"),
        ("table(0 1)", "unexpected 'int' at position 8 (expected :)"),
        ("ci(3;2,)", "unexpected ')' at position 7 (expected int)"),
        ("free(2;)", "unexpected ')' at position 7 (expected int)"),
        ("sum(poly(1))", "unexpected ')' at position 11 (expected ,)"),
        (
            "sum(poly(1),)",
            "unknown constructor ')' at position 12 (expected table or poly or free"
            " or ci or shift or sum or scale or extend)",
        ),
        ("scale(poly(2) 3)", "unexpected 'int' at position 14 (expected ,)"),
        (
            "nope(3)",
            "unknown constructor 'nope' at position 0 (expected table or poly or free"
            " or ci or shift or sum or scale or extend)",
        ),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_spec(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "name, text",
    [
        ("polynomial_ring", "poly(2)"),
        ("free_module", "free(2; 0, -1)"),
        ("complete_intersection", "ci(3; 2)"),
        ("from_table", "table(0:1, 1:2)"),
        ("shift", "shift(poly(2), 1)"),
        ("scale", "scale(poly(2), 3)"),
        ("extend", "extend(poly(2))"),
    ],
)
def test_builders_call_the_module_bindings(monkeypatch, name, text):
    # a tracer wraps these names in dsl; the constructor table must see it
    original = getattr(dsl, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dsl, name, counting)
    parse_function(text)
    assert len(calls) == 1


def test_spec_tree_shape():
    spec = parse_spec("shift(poly(2), 4)")
    assert spec.op == "shift"
    assert spec.args[1] == 4
    assert spec.args[0].op == "poly"


def test_nesting_limit():
    # MAX_NESTING constructor levels parse; one more is a ParseError at the
    # constructor that crosses the limit
    deep = "extend(" * (MAX_NESTING - 1) + "poly(1)" + ")" * (MAX_NESTING - 1)
    assert parse_function(deep) == polynomial_ring(MAX_NESTING)
    too_deep = "extend(" * MAX_NESTING + "poly(1)" + ")" * MAX_NESTING
    with pytest.raises(ParseError) as info:
        parse_spec(too_deep)
    assert info.value.position == len("extend(") * MAX_NESTING
    nested_sums = "sum(" * MAX_NESTING + "poly(1)" + ", poly(1))" * MAX_NESTING
    with pytest.raises(ParseError):
        parse_spec(nested_sums)
