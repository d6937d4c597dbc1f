"""Small expression language for building Hilbert functions.

Grammar (ASCII, whitespace-insensitive):

    expr  := "table(" pairs ")" | "poly(" INT ")" | "free(" INT ";" ints ")"
           | "ci(" INT ";" ints? ")" | "shift(" expr "," INT ")"
           | "sum(" expr ("," expr)+ ")" | "scale(" expr "," INT ")"
           | "extend(" expr ")"
    pairs := INT ":" INT ("," INT ":" INT)*
    ints  := INT ("," INT)*

Parsing checks syntax, arity and nesting depth (at most MAX_NESTING
constructor levels); elaboration runs the constructors and wraps any
precondition failure in ElaborationError.
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

CONSTRUCTORS = ("table", "poly", "free", "ci", "shift", "sum", "scale", "extend")

# Deepest constructor nesting the parser accepts.  Parsing and elaboration
# recurse once per level, so the limit keeps both well inside Python's
# recursion limit and turns deeper input into a ParseError.
MAX_NESTING = 200


class FunctionSpec(NamedTuple):
    """One node of the parsed expression tree."""

    op: str
    args: tuple


Token = tuple[str, Union[int, str], int]  # kind, value, position


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
        if ch == "-" or ch.isdecimal():
            start = i
            i += 1
            while i < len(text) and text[i].isdecimal():
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

    def take_int(self) -> int:
        return self.take("int")[1]

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
            raise ParseError(f"unknown constructor {tok[1]!r}", tok[2], CONSTRUCTORS)
        self.pos += 1
        name = tok[1]
        self.take("(")
        if name == "table":
            pairs = [self.pair()]
            while self.peek()[0] == ",":
                self.take(",")
                pairs.append(self.pair())
            self.take(")")
            return FunctionSpec("table", tuple(pairs))
        if name == "poly":
            n = self.take_int()
            self.take(")")
            return FunctionSpec("poly", (n,))
        if name in ("free", "ci"):
            n = self.take_int()
            self.take(";")
            values: list[int] = []
            if name == "free" or self.peek()[0] == "int":
                values.append(self.take_int())
                while self.peek()[0] == ",":
                    self.take(",")
                    values.append(self.take_int())
            self.take(")")
            return FunctionSpec(name, (n, tuple(values)))
        if name in ("shift", "scale"):
            inner = self.expr(depth + 1)
            self.take(",")
            amount = self.take_int()
            self.take(")")
            return FunctionSpec(name, (inner, amount))
        if name == "sum":
            parts = [self.expr(depth + 1)]
            self.take(",")
            parts.append(self.expr(depth + 1))
            while self.peek()[0] == ",":
                self.take(",")
                parts.append(self.expr(depth + 1))
            self.take(")")
            return FunctionSpec("sum", tuple(parts))
        # extend
        inner = self.expr(depth + 1)
        self.take(")")
        return FunctionSpec("extend", (inner,))

    def pair(self) -> tuple[int, int]:
        degree = self.take_int()
        self.take(":")
        value = self.take_int()
        return degree, value


def parse_spec(text: str) -> FunctionSpec:
    """Parse the expression language into a tree; syntax errors carry the
    offending position and the expected tokens."""
    return _Parser(text).parse()


def elaborate(spec: FunctionSpec) -> HilbertFunction:
    """Run the constructors over a parsed tree."""
    try:
        return _elaborate(spec)
    except ElaborationError:
        raise
    except HilbertDepthError as exc:
        raise ElaborationError(f"{spec.op}: {exc}") from exc


def _elaborate(spec: FunctionSpec) -> HilbertFunction:
    if spec.op == "table":
        table: dict[int, int] = {}
        for degree, value in spec.args:
            table[degree] = table.get(degree, 0) + value
        return from_table(table)
    if spec.op == "poly":
        return polynomial_ring(spec.args[0])
    if spec.op == "free":
        return free_module(spec.args[0], spec.args[1])
    if spec.op == "ci":
        return complete_intersection(spec.args[0], spec.args[1])
    if spec.op == "shift":
        return shift(_elaborate(spec.args[0]), spec.args[1])
    if spec.op == "scale":
        return scale(_elaborate(spec.args[0]), spec.args[1])
    if spec.op == "sum":
        total = _elaborate(spec.args[0])
        for part in spec.args[1:]:
            total = total + _elaborate(part)
        return total
    if spec.op == "extend":
        return extend(_elaborate(spec.args[0]))
    raise ElaborationError(f"unknown constructor {spec.op!r}")


def parse_function(text: str) -> HilbertFunction:
    """Parse and elaborate in one step."""
    return elaborate(parse_spec(text))
