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

Right after "table(" the tokenizer reads the longest run of well-formed
pairs in one regex scan and one int conversion; the run admits only the
whitespace, digits and literal lengths the character loop accepts, so it
hides no error and the loop reads what follows it as it would have: every
tree and every error is the same as without the run.
"""

from __future__ import annotations

import re
from collections import deque
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
    table = dict(pairs)
    if len(table) != len(pairs):
        seen: set[int] = set()
        for degree, _ in pairs:
            if degree in seen:
                raise ElaborationError(f"degree {degree} appears more than once")
            seen.add(degree)
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


# kind, value, position; a "pairs" token's value is the run's (degree, value)
# tuples
Token = tuple[str, Union[int, str, tuple], int]

# Only ASCII digits make an INT; any other digit is an unexpected character.
_DIGITS = frozenset("0123456789")

# A run of table pairs, read as one token right after "table(": the longest
# well-formed prefix INT:INT(,INT:INT)* there, with whitespace between the
# tokens.  \s is the class of str.isspace (and of str.split's separators),
# and each INT is one the character loop would read whole: an optional "-"
# and 1..MAX_LITERAL_DIGITS ASCII digits, a value not followed by a digit (a
# degree is followed by ":").  So the run holds no error, and the character
# loop reads what follows it as it would have.  The pattern reads one pair,
# after the "(" or after a value and a comma, and a scanner (the one
# re.Scanner uses) steps it from C to the end of the run: one match over the
# whole run would keep a backtracking frame per pair (about 600 bytes each).
# It is compiled at its first use and kept in re's cache, so start-up does
# not pay for it.
_DEGREE = rf"-?[0-9]{{1,{MAX_LITERAL_DIGITS}}}"
_RUN_STEP = rf"(?:(?<=\()|(?<=[0-9])\s*,)\s*({_DEGREE}\s*:\s*{_DEGREE}(?![0-9]))"


def _pair_run(text: str, i: int, tokens: list[Token]) -> int:
    """Append the run of pairs at text[i:] as one "pairs" token, if there is
    one; return where the character loop goes on."""
    step = re.compile(_RUN_STEP).scanner(text, i).match
    first = step()
    if not first:
        return i
    start = first.start(1)
    last = deque(iter(step, None), maxlen=1)
    end = (last.pop() if last else first).end()
    numbers = map(int, text[start:end].replace(":", " ").replace(",", " ").split())
    tokens.append(("pairs", tuple(zip(numbers, numbers)), start))
    return end


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
            if ch == "(" and len(tokens) > 1 and tokens[-2][1] == "table":
                i = _pair_run(text, i, tokens)
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
                if kind == "pair" and self.peek()[0] == "pairs":  # a run, read whole
                    args.extend(self.take("pairs")[1])
                else:
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
