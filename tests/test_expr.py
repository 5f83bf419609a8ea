from fractions import Fraction

import pytest

from uctmc.expr import (
    And,
    BinOp,
    Cmp,
    Name,
    Neg,
    Num,
    Or,
    ParseError,
    UnboundIdentifier,
    evaluate,
    evaluate_guard,
    free_identifiers,
    parse_expression,
    parse_guard,
    polynomial,
    to_source,
)


def test_parse_product_chain():
    e = parse_expression("ki*S*I")
    assert e == BinOp("*", BinOp("*", Name("ki"), Name("S")), Name("I"))


def test_parse_decimal_literal_is_exact():
    e = parse_expression("0.05")
    assert e == Num(Fraction(1, 20))


def test_parse_parenthesized():
    e = parse_expression("2*(kr + 0.01)")
    assert e == BinOp("*", Num(Fraction(2)),
                      BinOp("+", Name("kr"), Num(Fraction(1, 100))))


def test_precedence_unary_minus_tighter_than_mul():
    assert parse_expression("-x*y") == BinOp("*", Neg(Name("x")), Name("y"))


def test_parse_guard_conjunction():
    g = parse_guard("S>0 & I>0")
    assert g == And(Cmp(">", Name("S"), Num(Fraction(0))),
                    Cmp(">", Name("I"), Num(Fraction(0))))


def test_parse_guard_equality():
    assert parse_guard("I=0") == Cmp("=", Name("I"), Num(Fraction(0)))


def test_parse_guard_nested():
    g = parse_guard("S>0 | (I>0 & R<5)")
    assert isinstance(g, Or)
    assert isinstance(g.right, And)


def test_guard_precedence_and_binds_tighter():
    g = parse_guard("a>0 & b>0 | c>0")
    assert isinstance(g, Or)
    assert isinstance(g.left, And)


def test_syntax_error_position_and_expected():
    with pytest.raises(ParseError) as err:
        parse_expression("ki**S")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_guard("S>0 &")


def test_unknown_character():
    with pytest.raises(ParseError) as err:
        parse_expression("ki$S")
    assert "unknown character" in str(err.value)
    assert err.value.position == 2


def test_evaluate_examples():
    e = parse_expression("ki*S*I")
    assert evaluate(e, {"ki": Fraction(1, 20), "S": 18, "I": 2}) == Fraction(9, 5)
    assert evaluate(parse_expression("2*kr"), {"kr": Fraction(1, 25)}) == Fraction(2, 25)


def test_evaluate_unbound():
    with pytest.raises(UnboundIdentifier):
        evaluate(parse_expression("x"), {})


def test_evaluate_is_exact_no_float_surprises():
    # 0.1 + 0.2 equals 0.3 exactly over rationals, unlike binary floats
    e = parse_expression("a + b")
    total = evaluate(e, {"a": Fraction("0.1"), "b": Fraction("0.2")})
    assert total == Fraction(3, 10)
    g = parse_guard("x < 0.3")
    assert not evaluate_guard(g, {"x": Fraction(3, 10)})
    assert evaluate_guard(parse_guard("x <= 0.3"), {"x": Fraction(3, 10)})


def test_free_identifiers():
    assert free_identifiers(parse_expression("ki*S*I")) == {"ki", "S", "I"}
    assert free_identifiers(parse_expression("0.05")) == frozenset()
    assert free_identifiers(parse_guard("S>0 & I>0")) == {"S", "I"}


def _random_expr(rng, depth):
    kind = rng.integers(0, 5 if depth > 0 else 2)
    if kind == 0:
        return Num(Fraction(int(rng.integers(0, 50)), 10 ** int(rng.integers(0, 3))))
    if kind == 1:
        return Name(str(rng.choice(["a", "b", "c", "x_1"])))
    if kind == 2:
        return Neg(_random_expr(rng, depth - 1))
    op = str(rng.choice(["+", "-", "*"]))
    return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_printer_round_trip_random():
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(300):
        tree = _random_expr(rng, 4)
        printed = to_source(tree)
        assert parse_expression(printed) == tree


def test_guard_round_trip():
    for text in ("S>0 & I>0", "I=0", "S>0 | (I>0 & R<5)", "(a<1 | b<1) & c>=2"):
        g = parse_guard(text)
        assert parse_guard(to_source(g)) == g


def _expand(e):
    """Monomial-dict oracle: map from sorted identifier tuple to coefficient."""
    if isinstance(e, Num):
        return {(): e.value}
    if isinstance(e, Name):
        return {(e.ident,): Fraction(1)}
    if isinstance(e, Neg):
        return {k: -v for k, v in _expand(e.operand).items()}
    left, right = _expand(e.left), _expand(e.right)
    if e.op in "+-":
        out = dict(left)
        sign = 1 if e.op == "+" else -1
        for k, v in right.items():
            out[k] = out.get(k, Fraction(0)) + sign * v
        return out
    out = {}
    for k1, v1 in left.items():
        for k2, v2 in right.items():
            key = tuple(sorted(k1 + k2))
            out[key] = out.get(key, Fraction(0)) + v1 * v2
    return out


def _eval_monomials(mono, env):
    total = Fraction(0)
    for idents, coeff in mono.items():
        term = coeff
        for ident in idents:
            term *= env[ident]
        total += term
    return total


def test_evaluation_matches_term_expansion_oracle():
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(200):
        tree = _random_expr(rng, 4)
        env = {name: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
               for name in ("a", "b", "c", "x_1")}
        assert evaluate(tree, env) == _eval_monomials(_expand(tree), env)


def test_scaling_a_multiplicative_identifier_scales_the_product():
    e = parse_expression("k*S*I + k*S")
    env = {"k": Fraction(2), "S": Fraction(3), "I": Fraction(5)}
    scaled = dict(env, k=env["k"] * 7)
    assert evaluate(e, scaled) == 7 * evaluate(e, env)


def test_polynomial():
    poly = polynomial(parse_expression("ki*S*I"), {"S": 15, "I": 5})
    assert poly == {("ki",): Fraction(75)}
    assert all(isinstance(c, Fraction) for c in poly.values())
    assert polynomial(parse_expression("(k+1)*(k-1) - k*k"), {}) == {(): Fraction(-1)}
    assert polynomial(parse_expression("k*k - k*k"), {}) == {}
    # monomials are sorted identifier tuples, so b*a and a*b merge
    assert polynomial(parse_expression("b*a*x + a*b - 0.5*a"), {"x": 2}) == {
        ("a", "b"): Fraction(3), ("a",): Fraction(-1, 2)}

