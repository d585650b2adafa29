"""A concrete text syntax for formulas.

The grammar (closely mirroring how :func:`str` prints formulas)::

    formula     := implication
    implication := disjunction ('->' implication)?
    disjunction := conjunction ('|' conjunction)*
    conjunction := unary ('&' unary)*
    unary       := '~' unary | diamond | box | atom
    diamond     := '<' index? '>' ('>=' INT)? unary
    box         := '[' index? ']' unary
    atom        := 'true' | 'false' | IDENT | '(' formula ')'
    index       := part (',' part)*      part := INT | '*' | IDENT

Examples::

    parse_formula("deg1 & <>(deg2 | ~deg3)")
    parse_formula("<2,1> deg3")          # multimodal diamond with index (2, 1)
    parse_formula("<*,*>>=2 odd")        # graded diamond, grade 2

Because the constructors hash-cons into the shared formula pool
(:mod:`repro.logic.syntax`), parsing is pool-stable: parsing the same text
twice -- or parsing ``str(phi)`` of an already-built formula whose indices
are ints/``'*'``/identifiers -- returns the *identical* interned object, so
parsed formulas share compiled-engine caches with programmatically built
ones.  A small text-level memo additionally skips re-tokenising repeated
inputs (campaign formula sets parse the same strings per scenario).
"""

from __future__ import annotations

import re
from collections.abc import Callable
from functools import lru_cache, partial
from typing import Any

from repro.logic.syntax import (
    And,
    Bottom,
    Box,
    Diamond,
    Formula,
    GradedDiamond,
    Implies,
    Not,
    Or,
    Prop,
    Top,
)

_TOKEN_PATTERN = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<geq>>=)|(?P<punct>[()\[\]<>,&|~*])|"
    r"(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)


class FormulaParseError(ValueError):
    """Raised when a formula string cannot be parsed."""


def _tokenise(text: str) -> list[str]:
    tokens: list[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None or match.end() == position:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise FormulaParseError(f"unexpected character at {text[position:]!r}")
        token = next(group for group in match.groups() if group is not None)
        tokens.append(token)
        position = match.end()
    return tokens


#: The binary connectives: constructor and binding strength.  ``->`` binds
#: loosest and groups to the right; ``|`` and ``&`` group to the left.
_BINARY = {"->": (Implies, 1), "|": (Or, 2), "&": (And, 3)}


class _Parser:
    """Operator-precedence parsing of the grammar above on explicit operand
    and operator stacks, so no nesting depth overflows the recursion limit
    (the Table 4/5 formulas nest far deeper than it)."""

    def __init__(self, tokens: list[str]) -> None:
        self._tokens = tokens
        self._position = 0

    def peek(self) -> str | None:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def advance(self) -> str:
        token = self.peek()
        if token is None:
            raise FormulaParseError("unexpected end of formula")
        self._position += 1
        return token

    def expect(self, expected: str) -> None:
        token = self.advance()
        if token != expected:
            raise FormulaParseError(f"expected {expected!r} but found {token!r}")

    # -------------------------------------------------------------- #

    def parse_formula(self) -> Formula:
        operands: list[Formula] = []
        # Pending operators: binary connectives, open groups ``'('`` and
        # prefix constructors (``~``, diamonds, boxes) awaiting an operand.
        operators: list[Any] = []
        groups = 0
        while True:
            # One unary: prefix operators and open groups, then an atom.
            token = self.advance()
            while token in ("(", "~", "<", "["):
                if token == "(":
                    groups += 1
                    operators.append(token)
                else:
                    operators.append(self.parse_prefix(token))
                token = self.advance()
            operands.append(self.parse_atom(token))
            # Apply the prefix operators that bind the operand just built,
            # closing each group it ends.
            while True:
                while operators and callable(operators[-1]):
                    operands.append(operators.pop()(operands.pop()))
                token = self.peek()
                if token != ")" or not groups:
                    break
                self.advance()
                self._reduce(operands, operators, 0)
                operators.pop()
                groups -= 1
            if token not in _BINARY:
                break
            self.advance()
            strength = _BINARY[token][1]
            # A pending ``->`` of equal strength stays: it groups to the right.
            self._reduce(operands, operators, strength + 1 if token == "->" else strength)
            operators.append(token)
        if groups:
            self.expect(")")
        if token is not None:
            raise FormulaParseError(f"trailing tokens starting at {token!r}")
        self._reduce(operands, operators, 0)
        return operands[0]

    @staticmethod
    def _reduce(operands: list[Formula], operators: list[Any], strength: int) -> None:
        """Apply the pending binary connectives that bind at least ``strength``."""
        while operators and operators[-1] in _BINARY:
            constructor, binding = _BINARY[operators[-1]]
            if binding < strength:
                return
            operators.pop()
            right = operands.pop()
            operands[-1] = constructor(operands[-1], right)

    def parse_index(self, closing: str) -> Any:
        parts: list[Any] = []
        while self.peek() != closing:
            token = self.advance()
            if token == ",":
                continue
            if token == "*":
                parts.append("*")
            elif token.isdigit():
                parts.append(int(token))
            else:
                parts.append(token)
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return tuple(parts)

    def parse_prefix(self, token: str) -> Callable[[Formula], Formula]:
        """The constructor of the prefix operator that ``token`` opens."""
        if token == "~":
            return Not
        if token == "[":
            index = self.parse_index("]")
            self.expect("]")
            return partial(Box, index=index)
        index = self.parse_index(">")
        self.expect(">")
        if self.peek() == ">=":
            self.advance()
            grade_token = self.advance()
            if not grade_token.isdigit():
                raise FormulaParseError(f"expected a grade after '>=', found {grade_token!r}")
            return partial(GradedDiamond, grade=int(grade_token), index=index)
        return partial(Diamond, index=index)

    def parse_atom(self, token: str) -> Formula:
        if token == "true":
            return Top()
        if token == "false":
            return Bottom()
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            return Prop(token)
        raise FormulaParseError(f"unexpected token {token!r}")


@lru_cache(maxsize=4096)
def parse_formula(text: str) -> Formula:
    """Parse a formula from its text representation.

    Memoised: formulas are immutable interned values, so returning the
    cached object for a repeated text is indistinguishable from reparsing.
    """
    return _Parser(_tokenise(text)).parse_formula()
