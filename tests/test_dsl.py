"""Expression language: parsing, elaboration, and error reporting."""

import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

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
from hilbertdepth.errors import MAX_LITERAL_DIGITS


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
    # the tokenizer's bounds: a "(" with no token before it, and a name
    # that ends the text
    for text, position in (
        ("poly(3) poly(2)", 8), ("poly(x)", 5), ("", 0),
        ("(", 0), ("(poly(3))", 0), ("poly", 4), ("sum(poly(2),poly", 16),
    ):
        with pytest.raises(ParseError) as info:
            parse_spec(text)
        assert info.value.position == position
        assert isinstance(info.value.expected, tuple)


def test_only_ascii_digits_make_an_integer():
    # each of these is a digit to str.isdecimal, and int() would read it
    for text, position in (
        ("poly(\u0663)", 5),
        ("table(0:1,\u0661:3)", 10),
        ("poly(3\u0663)", 6),
        ("free(2; \uff11)", 8),
    ):
        with pytest.raises(ParseError) as info:
            parse_spec(text)
        assert info.value.position == position
        assert str(info.value).startswith(f"unexpected character {text[position]!r}")


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
    # a tree built by hand can name an op that the parser never emits
    with pytest.raises(ElaborationError, match="^unknown constructor 'nope'$"):
        dsl.elaborate(dsl.FunctionSpec("nope", ()))
    # summing a repeated degree would let a negative literal past the sign check
    for text in ("table(0:2,0:-1)", "table(0:1,0:1)", "table(0:1,1:1,0:1)"):
        with pytest.raises(ElaborationError, match="^table: degree 0 appears more"):
            parse_function(text)


def test_table_errors_name_the_first_offender():
    # in the order written, whichever is smallest: the second 1 comes before
    # the second 0, and -1 at degree 3 before the smaller -2 at degree 0
    with pytest.raises(ElaborationError, match="^table: degree 1 appears more"):
        parse_function("table(0:1,1:1,1:2,0:3)")
    with pytest.raises(
        ElaborationError, match="^table: table value at degree 3 is -1$"
    ):
        parse_function("table(3:-1,0:-2,1:1)")


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
        # errors right after a run of pairs
        ("table(0:1,1:2 3:4)", "unexpected 'int' at position 14 (expected ))"),
        ("table(0:1,1:2,)", "unexpected ')' at position 14 (expected int)"),
        pytest.param(
            "table(0:1,1:" + "9" * (MAX_LITERAL_DIGITS + 1) + ",2:3)",
            f"integer literal over {MAX_LITERAL_DIGITS} digits at position 12",
            id="table(0:1,1:<4301 digits>,2:3)",
        ),
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


def test_table_pairs_are_read_as_one_run():
    tokens = dsl._tokenize("sum(table( 0:1 , 1 : -3,2:3 x), poly(1))")
    assert tokens[4] == ("pairs", ((0, 1), (1, -3), (2, 3)), 11)
    assert tokens[5] == ("name", "x", 28)
    # only right after "table(": elsewhere every number is its own token
    assert [kind for kind, _, _ in dsl._tokenize("ci(3; 2,2)")] == [
        "name", "(", "int", ";", "int", ",", "int", ")", "end"
    ]
    assert parse_spec("table(0:1, 1:3 ,2 : 3)") == dsl.FunctionSpec(
        "table", ((0, 1), (1, 3), (2, 3))
    )


def test_run_whitespace_is_str_isspace():
    # the run skips exactly the characters the character loop skips, and
    # str.split, which cuts the run into numbers, splits on exactly those,
    # on every code point; a digit at this spot joins the degree instead
    points = list(map(chr, range(sys.maxunicode + 1)))
    spaces = {c for c in points if c.isspace()}
    step = re.compile(dsl._RUN_STEP)
    matched = {c for c in points if step.fullmatch(f"(0{c}:1", 1)}
    assert matched == spaces | set("0123456789")
    assert {c for c in points if len(f"0{c}1".split()) == 2} == spaces


# Table texts around the edges of a run: well-formed pairs with Unicode
# spaces (U+200B is not one), cut by one to three inserted pieces: signs, a
# lone "-", literals at and past the digit cap, digits that are not ASCII,
# broken separators and a second "table(".
_SPACE = st.sampled_from(
    ["", "", " ", "\t\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
)
_INSERT = st.one_of(
    _SPACE,
    st.sampled_from(
        [
            "-",
            "-0",
            "007",
            "+1",
            "\u22121",
            "\u0661",
            "\u00b2",
            "\u200b",
            "9" * MAX_LITERAL_DIGITS,
            "-" + "9" * MAX_LITERAL_DIGITS,
            "9" * (MAX_LITERAL_DIGITS + 1),
            ",",
            ",,",
            ":",
            ";",
            "(",
            ")",
            "x",
            "table(",
            "table(0:1)",
        ]
    ),
)
_NUMBER = st.integers(-(10**6), 10**6).map(str)
# mostly "table"; the others must not start a run
_NAME = st.sampled_from(
    ["table", "table", "table", "table", "poly", "ci", "tables", "TABLE"]
)
_TAIL = st.sampled_from([")", ")", ")", ",)", "", "))", ") table(0:1)", ", table(0:1)"])
_CONTEXT = st.sampled_from(
    ["{}", "sum({}, poly(1))", "sum(poly(1), {})", "shift({}, 2)", "extend({})"]
)


@st.composite
def _table_texts(draw):
    body = ""
    starts = [0]  # where a number starts: inserts land there half the time
    for index in range(draw(st.integers(0, 8))):
        body += draw(_SPACE) + "," + draw(_SPACE) if index else ""
        starts.append(len(body))
        body += draw(_NUMBER) + draw(_SPACE) + ":" + draw(_SPACE)
        starts.append(len(body))
        body += draw(_NUMBER)
    cuts = st.one_of(st.integers(0, len(body)), st.sampled_from(starts))
    for at in sorted(draw(st.lists(cuts, min_size=1, max_size=3)), reverse=True):
        body = body[:at] + draw(_INSERT) + body[at:]
    opening = draw(_NAME) + draw(_SPACE) + "(" + draw(_SPACE)
    table = opening + body + draw(_SPACE) + draw(_TAIL)
    return draw(_CONTEXT).format(table)


def _outcome(text):
    try:
        return parse_spec(text)
    except ParseError as exc:
        return str(exc), exc.position, exc.expected


@settings(max_examples=400, deadline=None)
@given(text=_table_texts())
@example(text="table(0:1,1:2 3:4)")
@example(text="table( ,0:1)")
@example(text="table(0:1,1:2,)")
@example(text="table(0:1,1:2")
@example(text="table(0:" + "9" * MAX_LITERAL_DIGITS + ")")
@example(text="table(0:" + "9" * (MAX_LITERAL_DIGITS + 1) + ")")
@example(text="table(-" + "9" * (MAX_LITERAL_DIGITS + 1) + ":1)")
@example(text="table(0:1\x1c,1:2)")
@example(text="table(0:1,\u3000+1:2)")
@example(text="table(0:1,1:\u0661)")
@example(text="table(0:1,1:2\u00b2)")
@example(text="table(0:1) table(1:1)")
@example(text="table(0:1,table(1:1))")
@example(text="sum(table(0:1,-:2), poly(1))")
@example(text="shift(table(0:1 , 1:2), 3)")
@example(text="poly(0:1)")
def test_pair_runs_parse_as_the_character_loop(text):
    # with a pattern that never matches, every character goes through the
    # character loop: the run must give the same tree or the same error
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "_RUN_STEP", "(?!)")
        by_characters = _outcome(text)
    assert _outcome(text) == by_characters
