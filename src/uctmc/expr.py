"""Arithmetic rate expressions and boolean guards over parameters and state variables.

Rate expressions are polynomials (literals, identifiers, +, -, *, unary minus);
guards combine comparisons of such expressions with & and |.  Evaluation is exact
over rationals: decimal literals parse to exact fractions (0.05 == 1/20), so guard
decisions and positivity checks never suffer binary-float round-off.

Grammar::

    expr   := term (("+"|"-") term)* ;   term := factor ("*" factor)* ;
    factor := "-" factor | "(" expr ")" | NUMBER | IDENT ;
    guard  := gterm ("|" gterm)* ;       gterm := atom ("&" atom)* ;
    atom   := "(" guard ")" | expr CMP expr ;
    CMP    := "<" | "<=" | "=" | ">=" | ">" ;
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Mapping, Union


class ExprError(ValueError):
    """Base class for expression-layer failures."""


class ParseError(ExprError):
    """Syntax error with byte offset and the token set that was expected."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at offset {position}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class UnboundIdentifier(ExprError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound identifier: {name}")


# ---------------------------------------------------------------------------
# AST nodes (immutable)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+", "-", "*"
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Name, Neg, BinOp]


@dataclass(frozen=True)
class Cmp:
    op: str  # one of "<", "<=", "=", ">=", ">"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class And:
    left: "GuardExpr"
    right: "GuardExpr"


@dataclass(frozen=True)
class Or:
    left: "GuardExpr"
    right: "GuardExpr"


GuardExpr = Union[Cmp, And, Or]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUMBER>\d+(?:\.\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<CMP><=|>=|<|>|=)
  | (?P<OP>[+\-*()&|])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unknown character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            if kind == "OP":
                kind = m.group()
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1] or 'end of input'!r}",
                             tok[2], (kind,))
        return self.advance()

    # expression grammar -----------------------------------------------------

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "-":
            self.advance()
            return Neg(self.factor())
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if kind == "NUMBER":
            self.advance()
            return Num(Fraction(text))
        if kind == "IDENT":
            self.advance()
            return Name(text)
        raise ParseError(f"unexpected token {text or 'end of input'!r}", pos,
                         ("NUMBER", "IDENT", "(", "-"))

    # guard grammar -----------------------------------------------------------

    def guard(self) -> GuardExpr:
        node = self.gterm()
        while self.peek()[0] == "|":
            self.advance()
            node = Or(node, self.gterm())
        return node

    def gterm(self) -> GuardExpr:
        node = self.atom()
        while self.peek()[0] == "&":
            self.advance()
            node = And(node, self.atom())
        return node

    def atom(self) -> GuardExpr:
        kind, _, _ = self.peek()
        if kind == "(":
            # Either a parenthesized guard or a parenthesized arithmetic
            # expression on the left of a comparison; try the guard reading
            # first and backtrack on failure.
            saved = self.i
            try:
                self.advance()
                node = self.guard()
                self.expect(")")
                return node
            except ParseError:
                self.i = saved
        left = self.expr()
        tok = self.peek()
        if tok[0] != "CMP":
            raise ParseError(f"unexpected token {tok[1] or 'end of input'!r}",
                             tok[2], ("<", "<=", "=", ">=", ">"))
        op = self.advance()[1]
        right = self.expr()
        return Cmp(op, left, right)


def parse_expression(text: str) -> Expr:
    """Parse an arithmetic expression; raises ParseError with byte offset."""
    parser = _Parser(text)
    node = parser.expr()
    parser.expect("EOF")
    return node


def parse_guard(text: str) -> GuardExpr:
    """Parse a boolean guard; raises ParseError with byte offset."""
    parser = _Parser(text)
    node = parser.guard()
    parser.expect("EOF")
    return node


# ---------------------------------------------------------------------------
# Evaluation (exact, over rationals)
# ---------------------------------------------------------------------------

EnvValue = Union[Fraction, int]


def evaluate(e: Expr, env: Mapping[str, EnvValue]) -> Fraction:
    """Exact polynomial evaluation; every free identifier must be bound."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Name):
        try:
            return Fraction(env[e.ident])
        except KeyError:
            raise UnboundIdentifier(e.ident) from None
    if isinstance(e, Neg):
        return -evaluate(e.operand, env)
    if isinstance(e, BinOp):
        left = evaluate(e.left, env)
        right = evaluate(e.right, env)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        return left * right
    raise TypeError(f"not an expression node: {e!r}")


_CMP_FUNCS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


def evaluate_guard(g: GuardExpr, env: Mapping[str, EnvValue]) -> bool:
    if isinstance(g, Cmp):
        return _CMP_FUNCS[g.op](evaluate(g.left, env), evaluate(g.right, env))
    if isinstance(g, And):
        return evaluate_guard(g.left, env) and evaluate_guard(g.right, env)
    if isinstance(g, Or):
        return evaluate_guard(g.left, env) or evaluate_guard(g.right, env)
    raise TypeError(f"not a guard node: {g!r}")


def free_identifiers(e: Union[Expr, GuardExpr]) -> frozenset[str]:
    """The exact set of identifiers appearing in an expression or guard."""
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Name):
        return frozenset((e.ident,))
    if isinstance(e, Neg):
        return free_identifiers(e.operand)
    if isinstance(e, (BinOp, Cmp, And, Or)):
        return free_identifiers(e.left) | free_identifiers(e.right)
    raise TypeError(f"not an expression node: {e!r}")


def polynomial(e: Expr, env: Mapping[str, EnvValue]) -> dict[tuple[str, ...], Fraction]:
    """{monomial: coefficient} of e after binding the identifiers in env.

    A monomial is the sorted tuple of its unbound identifiers, each repeated
    by its power; ``()`` is the constant term.  Zero coefficients are dropped,
    so equal polynomials give equal dicts.
    """
    if isinstance(e, Num):
        pairs = [((), e.value)]
    elif isinstance(e, Name):
        pairs = [((), Fraction(env[e.ident]))] if e.ident in env else [((e.ident,), Fraction(1))]
    elif isinstance(e, Neg):
        pairs = [(mono, -c) for mono, c in polynomial(e.operand, env).items()]
    elif isinstance(e, BinOp):
        left, right = polynomial(e.left, env).items(), polynomial(e.right, env).items()
        if e.op == "*":
            pairs = [(tuple(sorted(ma + mb)), ca * cb) for ma, ca in left for mb, cb in right]
        else:
            sign = 1 if e.op == "+" else -1
            pairs = list(left) + [(mono, sign * c) for mono, c in right]
    else:
        raise TypeError(f"not an expression node: {e!r}")
    terms: dict = {}
    for mono, c in pairs:
        terms[mono] = terms.get(mono, 0) + c
    return {mono: c for mono, c in terms.items() if c}


def scaled(poly: Mapping[tuple[str, ...], Fraction]) -> tuple[int, dict[tuple[str, ...], int]]:
    """(D, D * poly) for D the least common multiple of the coefficients'
    denominators: an integer polynomial with the sign of ``poly`` everywhere."""
    scale = math.lcm(*(c.denominator for c in poly.values()))
    return scale, {mono: c.numerator * (scale // c.denominator) for mono, c in poly.items()}


# ---------------------------------------------------------------------------
# Canonical printer (round-trips through the parser)
# ---------------------------------------------------------------------------

def exact_decimal(value: Fraction) -> Decimal:
    """``value`` as a Decimal, exactly.  A decimal literal's denominator is
    2^a 5^b, so its expansion ends after max(a, b) places; any other
    denominator raises ExprError."""
    den = value.denominator
    twos = (den & -den).bit_length() - 1
    fives, rest = 0, den >> twos
    while rest % 5 == 0:
        fives, rest = fives + 1, rest // 5
    if rest != 1:
        raise ExprError(f"{value} has no finite decimal representation")
    places = max(twos, fives)
    digits = str(abs(value.numerator) * 10**places // den)
    return Decimal((int(value < 0), tuple(map(int, digits)), -places))


_PREC = {"+": 0, "-": 0, "*": 1}


def _print_expr(e: Expr, parent_prec: int, right_side: bool) -> str:
    if isinstance(e, Num):  # in positional notation, an integer without a point
        value = e.value
        return str(value) if value.denominator == 1 else format(exact_decimal(value), "f")
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Neg):
        inner = _print_expr(e.operand, 2, False)
        text = "-" + inner
        return f"({text})" if parent_prec > 2 or (right_side and parent_prec == 2) else text
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        text = (_print_expr(e.left, prec, False)
                + f" {e.op} "
                + _print_expr(e.right, prec, True))
        needs = prec < parent_prec or (right_side and prec == parent_prec)
        return f"({text})" if needs else text
    raise TypeError(f"not an expression node: {e!r}")


def to_source(e: Union[Expr, GuardExpr]) -> str:
    """Print an AST back to concrete syntax with minimal parentheses."""
    if isinstance(e, (Num, Name, Neg, BinOp)):
        return _print_expr(e, -1, False)
    if isinstance(e, Cmp):
        return f"{_print_expr(e.left, -1, False)} {e.op} {_print_expr(e.right, -1, False)}"
    if isinstance(e, And):
        left = to_source(e.left)
        if isinstance(e.left, Or):
            left = f"({left})"
        right = to_source(e.right)
        if isinstance(e.right, (Or, And)):
            right = f"({right})"
        return f"{left} & {right}"
    if isinstance(e, Or):
        left = to_source(e.left)
        right = to_source(e.right)
        if isinstance(e.right, Or):
            right = f"({right})"
        return f"{left} | {right}"
    raise TypeError(f"not an expression node: {e!r}")
