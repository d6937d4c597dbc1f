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
from hilbertdepth.dsl import MAX_NESTING


def test_constructor_round_trips():
    assert parse_function("poly(3)") == polynomial_ring(3)
    assert parse_function("table(0:1,1:3,2:3,3:1)") == from_table({0: 1, 1: 3, 2: 3, 3: 1})
    assert parse_function("free(2; 0, 0, -1)") == free_module(2, [0, 0, -1])
    assert parse_function("ci(3; 2,2)") == complete_intersection(3, [2, 2])
    assert parse_function("ci(4;)") == polynomial_ring(4)
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
    with pytest.raises(ParseError) as info:
        parse_spec("poly(3")
    assert info.value.position == 6
    with pytest.raises(ParseError) as info:
        parse_spec("nope(3)")
    assert "table" in info.value.expected
    with pytest.raises(ParseError):
        parse_spec("poly(3) poly(2)")
    with pytest.raises(ParseError):
        parse_spec("sum(poly(1))")  # sum needs at least two parts
    with pytest.raises(ParseError):
        parse_spec("table()")
    with pytest.raises(ParseError):
        parse_spec("poly(x)")
    with pytest.raises(ParseError):
        parse_spec("")


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
