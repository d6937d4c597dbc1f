"""Small expression language for building Hilbert functions.

Grammar (ASCII, INT in ASCII digits only, whitespace-insensitive):

    expr  := "table(" pairs ")" | "poly(" INT ")" | "free(" INT ";" ints ")"
           | "ci(" INT ";" ints? ")" | "shift(" expr "," INT ")"
           | "sum(" expr ("," expr)+ ")" | "scale(" expr "," INT ")"
           | "extend(" expr ")"
    pairs := INT ":" INT ("," INT ":" INT)*      (each degree at most once)
    ints  := INT ("," INT)*

Parsing checks syntax, arity and nesting depth (at most MAX_NESTING
constructor levels); elaboration runs the constructors and wraps any
precondition failure in ElaborationError named after the failing node.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .errors import (
    MAX_LITERAL_DIGITS,
    ElaborationError,
    HilbertDepthError,
    ParseError,
)
from .series import (
    HilbertFunction,
    complete_intersection,
    extend,
    free_module,
    from_table,
    polynomial_ring,
    scale,
    shift,
)

# Deepest constructor nesting the parser accepts.  Parsing and elaboration
# recurse once per level, so the limit keeps both well inside Python's
# recursion limit and turns deeper input into a ParseError.
MAX_NESTING = 200


def _from_pairs(*pairs: tuple[int, int]) -> HilbertFunction:
    table: dict[int, int] = {}
    for degree, value in pairs:
        if degree in table:
            raise ElaborationError(f"degree {degree} appears more than once")
        table[degree] = value
    return from_table(table)


# name -> (argument items, builder).  An item "int", "pair" or "expr" reads
# one argument and "," or ";" one token; a trailing "+" reads one or more
# comma-separated arguments, "*" zero or more.  The builder takes the
# arguments flat, nested expressions elaborated.  Builders call the series
# constructors through this module's globals, so rebinding a name here (as a
# tracer does) reaches every call.
CONSTRUCTORS = {
    "table": (("pair+",), _from_pairs),
    "poly": (("int",), lambda n: polynomial_ring(n)),
    "free": (("int", ";", "int+"), lambda n, *shifts: free_module(n, shifts)),
    "ci": (("int", ";", "int*"), lambda n, *degrees: complete_intersection(n, degrees)),
    "shift": (("expr", ",", "int"), lambda h, k: shift(h, k)),
    "sum": (("expr", ",", "expr+"), lambda first, *rest: sum(rest, first)),
    "scale": (("expr", ",", "int"), lambda h, c: scale(h, c)),
    "extend": (("expr",), lambda h: extend(h)),
}

# The token kind that starts each argument item; a "*" item whose next token
# is of another kind reads nothing.
_STARTS = {"int": "int", "pair": "int", "expr": "name"}


class FunctionSpec(NamedTuple):
    """One node of the parsed expression tree."""

    op: str
    args: tuple


Token = tuple[str, Union[int, str], int]  # kind, value, position

# Only ASCII digits make an INT; any other digit is an unexpected character.
_DIGITS = frozenset("0123456789")


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),:;":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "-" or ch in _DIGITS:
            start = i
            i += 1
            while i < len(text) and text[i] in _DIGITS:
                i += 1
            if text[start:i] == "-":
                raise ParseError("lone '-'", start, ("integer",))
            if len(text[start:i].lstrip("-")) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal over {MAX_LITERAL_DIGITS} digits", start, ()
                )
            tokens.append(("int", int(text[start:i]), start))
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and text[i].isalpha():
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i, ())
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[0]!r}", tok[2], (kind,))
        self.pos += 1
        return tok

    def parse(self) -> FunctionSpec:
        spec = self.expr()
        tail = self.peek()
        if tail[0] != "end":
            raise ParseError("trailing input", tail[2], ("end of input",))
        return spec

    def expr(self, depth: int = 1) -> FunctionSpec:
        tok = self.peek()
        if depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok[2], ())
        if tok[0] != "name" or tok[1] not in CONSTRUCTORS:
            raise ParseError(
                f"unknown constructor {tok[1]!r}", tok[2], tuple(CONSTRUCTORS)
            )
        self.pos += 1
        self.take("(")
        args: list = []
        for item in CONSTRUCTORS[tok[1]][0]:
            kind = item.rstrip("+*")
            if kind in (",", ";"):
                self.take(kind)
            elif item[-1] != "*" or self.peek()[0] == _STARTS[kind]:
                args.append(self.item(kind, depth))
                while item[-1] in "+*" and self.peek()[0] == ",":
                    self.take(",")
                    args.append(self.item(kind, depth))
        self.take(")")
        return FunctionSpec(tok[1], tuple(args))

    def item(self, kind: str, depth: int):
        if kind == "expr":
            return self.expr(depth + 1)
        value = self.take("int")[1]
        if kind == "pair":
            self.take(":")
            return value, self.take("int")[1]
        return value


def parse_spec(text: str) -> FunctionSpec:
    """Parse the expression language into a tree; syntax errors carry the
    offending position and the expected tokens."""
    return _Parser(text).parse()


def elaborate(spec: FunctionSpec) -> HilbertFunction:
    """Run the constructors over a parsed tree; a failed precondition is an
    ElaborationError prefixed with the op of the node that failed."""
    return _elaborate(spec)  # the recursion stays private: one call per tree


def _elaborate(spec: FunctionSpec) -> HilbertFunction:
    if spec.op not in CONSTRUCTORS:
        raise ElaborationError(f"unknown constructor {spec.op!r}")
    args = [_elaborate(a) if isinstance(a, FunctionSpec) else a for a in spec.args]
    try:
        return CONSTRUCTORS[spec.op][1](*args)
    except HilbertDepthError as exc:
        raise ElaborationError(f"{spec.op}: {exc}") from exc


def parse_function(text: str) -> HilbertFunction:
    """Parse and elaborate in one step."""
    return elaborate(parse_spec(text))
