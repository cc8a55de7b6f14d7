import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from jointkern import (
    Coproduct,
    Countable,
    EvalError,
    ExprSyntaxError,
    ExprTypeError,
    Finite,
    Inl,
    Inr,
    Product,
    Real,
    adapt_value,
    check_expression,
    compile_det_map,
    evaluate_expression,
    nest_values,
    parse_expression,
)


def run(text, inputs=(), input_spaces=None, expected=None):
    ast = parse_expression(text)
    spaces = list(input_spaces) if input_spaces is not None else [Real(1)] * len(inputs)
    check_expression(ast, spaces, expected)
    return evaluate_expression(ast, list(inputs))


def test_literals_and_projection_lexing():
    assert run("0.1") == 0.1
    assert run("1.5e3") == 1500.0
    assert run("2e3") == 2000.0
    assert run("42") == 42
    # after an atom a dot projects; $0.1 is slot 0, right component
    assert run("$0.1", [(3, 4)], [Product(Countable(), Countable())]) == 4
    assert run("$0.0.1", [((3, 4), 5)],
               [Product(Product(Countable(), Countable()), Countable())]) == 4
    assert run("(1, (2, 3)).1.0", []) == 2


def test_arithmetic_precedence():
    assert run("1 + 2 * 3") == 7
    assert run("(1 + 2) * 3") == 9
    assert run("1 - 2 - 3") == -4
    assert run("8 / 4 / 2") == 1.0
    assert run("neg(2) + 5") == 3
    assert run("min(3, 1 + 1)") == 2
    assert run("max(2.5, 2)") == 2.5


def test_arithmetic_shapes():
    # division always lands in the reals, integer ops stay countable
    assert check_expression(parse_expression("1 + 2"), []) == Countable()
    assert check_expression(parse_expression("1 / 2"), []) == Real(1)
    assert check_expression(parse_expression("1 + 0.5"), []) == Real(1)
    assert check_expression(parse_expression("exp(1)"), []) == Real(1)
    assert check_expression(parse_expression("min(1, 2)"), []) == Countable()


def test_comparison():
    assert run("1 < 2") == 1
    assert run("2 < 1") == 0
    assert check_expression(parse_expression("1 < 2"), []) == Finite(2)
    with pytest.raises(ExprSyntaxError, match="associate"):
        parse_expression("1 < 2 < 3")


def test_if_branch_join():
    assert run("if $0 < 1 then 0.2 else 0.7", [0], [Finite(2)]) == 0.2
    assert run("if $0 < 1 then 0.2 else 0.7", [1], [Finite(2)]) == 0.7
    # joining an int branch with a real branch lands in the reals
    assert check_expression(
        parse_expression("if 0 < 1 then 1 else 0.5"), []) == Real(1)
    with pytest.raises(ExprTypeError, match="incompatible"):
        check_expression(parse_expression("if 0 < 1 then (1, 2) else 3"), [])
    with pytest.raises(ExprTypeError):
        # condition must be a two-point shape
        check_expression(parse_expression("if 0.5 then 1 else 2"), [])


def test_case_binds_variables():
    sp = Coproduct(Finite(2), Countable())
    text = "case $0 of inl x => x + 10 | inr y => y"
    assert run(text, [Inl(1)], [sp]) == 11
    assert run(text, [Inr(7)], [sp]) == 7
    with pytest.raises(ExprTypeError, match="scrutinee"):
        check_expression(parse_expression("case 1 of inl x => x | inr y => y"), [])


def test_injections_need_context():
    with pytest.raises(ExprTypeError, match="coproduct shape"):
        check_expression(parse_expression("inl(1)"), [])
    sp = Coproduct(Countable(), Real(1))
    ast = parse_expression("inl(1)")
    check_expression(ast, [], sp)
    assert evaluate_expression(ast, []) == Inl(1)
    ast = parse_expression("inr(0.5)")
    check_expression(ast, [], sp)
    assert evaluate_expression(ast, []) == Inr(0.5)


def test_tuples():
    assert run("(1, 2.5)") == (1, 2.5)
    assert check_expression(parse_expression("(1, 2.5)"), []) == Product(
        Countable(), Real(1))
    with pytest.raises(ExprTypeError, match="needs a pair"):
        check_expression(parse_expression("1 .0"), [])


def test_runtime_errors():
    with pytest.raises(EvalError, match="division by zero"):
        run("1 / 0")
    with pytest.raises(EvalError, match="ln of non-positive"):
        run("ln(0)")
    with pytest.raises(EvalError, match="overflow"):
        run("exp(1000000)")
    assert run("ln(exp(2))") == pytest.approx(2.0)
    # an integer that does not fit a float, meeting real arithmetic
    big = "1" * 400
    for text in ("0.5 * " + big, big + " - 0.5", big + " / 1"):
        with pytest.raises(EvalError, match="integer too large for a float"):
            run(text)
    with pytest.raises(EvalError, match="integer too large for a float"):
        compile_det_map([big], [], [Real(1)])(())
    assert run(big + " * " + big) == int(big) ** 2  # integers stay exact


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError, match="digits after"):
        parse_expression("$x")
    with pytest.raises(ExprSyntaxError, match=r"\.0 or \.1"):
        parse_expression("$0.5")
    with pytest.raises(ExprSyntaxError, match="unexpected character"):
        parse_expression("1 @ 2")
    with pytest.raises(ExprSyntaxError, match="trailing input"):
        parse_expression("1 2")
    with pytest.raises(ExprSyntaxError):
        parse_expression("1 +")
    with pytest.raises(ExprSyntaxError):
        parse_expression("-1")
    with pytest.raises(ExprSyntaxError):
        parse_expression(".5")
    err = None
    try:
        parse_expression("1 @")
    except ExprSyntaxError as e:
        err = e
    assert err is not None and err.pos == 2
    # '²' passes str.isdigit but is no decimal digit
    for text, pos in (("0.7²", 3), ("$²", 1), ("1²", 1)):
        with pytest.raises(ExprSyntaxError, match="unexpected character '²'") as e:
            parse_expression(text)
        assert e.value.pos == pos, text
    # other Unicode decimal digits are digits
    assert parse_expression("٣") == ("int", 3, 0)
    # an integer past the interpreter's limit on int digits
    for text, pos in (("0.5 + " + "1" * 5000, 6), ("$" + "1" * 5000, 0)):
        with pytest.raises(ExprSyntaxError, match="integer of 5000 digits") as e:
            parse_expression(text)
        assert e.value.pos == pos, text
    # a real literal past the float range
    for text, pos in (("if 1e400 < 0 then 0.2 else 0.7", 3), ("0 * 1e400 + 0.5", 4),
                      ("1" * 400 + ".0", 0)):
        with pytest.raises(ExprSyntaxError, match="past the float range") as e:
            parse_expression(text)
        assert e.value.pos == pos, text
    assert parse_expression("1e308") == ("real", 1e308, 0)


def test_nesting_is_bounded():
    # the bound is crossed at the 100th '+', and inside the 100th parenthesis
    for text, pos in (("0.1" + " + 0" * 1200, 400), ("(" * 200 + "0.5" + ")" * 200, 100),
                      ("neg(" * 150 + "0.5" + ")" * 150, 400)):
        with pytest.raises(ExprSyntaxError, match="nests deeper than 100 levels") as e:
            parse_expression(text)
        assert e.value.pos == pos, text
    # just inside the bound, parse, check, build and run all work
    assert run("0.1" + " + 0" * 99) == pytest.approx(0.1)
    assert run("(" * 99 + "0.5" + ")" * 99) == 0.5
    assert run("neg(" * 98 + "0.5" + ")" * 98) == 0.5
    assert run("if 1 < 2 then " * 98 + "0.5" + " else 0.5" * 98) == 0.5


def test_shape_errors():
    with pytest.raises(ExprTypeError, match="out of range"):
        check_expression(parse_expression("$3"), [Real(1)])
    with pytest.raises(ExprTypeError, match="unbound variable"):
        check_expression(parse_expression("zoo"), [])
    with pytest.raises(ExprTypeError, match="outside Finite"):
        check_expression(parse_expression("5"), [], Finite(3))
    with pytest.raises(ExprTypeError, match="numeric operand"):
        check_expression(parse_expression("(1, 2) + 1"), [])
    # Finite literals subsume upward, never downward
    check_expression(parse_expression("2"), [], Finite(3))
    with pytest.raises(ExprTypeError):
        check_expression(parse_expression("$0"), [Real(1)], Finite(2))


def _type_error(text, inputs=(), expected=None) -> str:
    with pytest.raises(ExprTypeError) as e:
        check_expression(parse_expression(text), list(inputs), expected)
    return str(e.value)


PAIR = "Product(left=Countable(), right=Countable())"


def test_two_bad_operands_report_the_first_check_that_fails():
    # + and min synthesize every operand before testing any for a number,
    # so an out-of-range right operand is reported over a pair on the left
    assert _type_error("(0.5, 1) * (2, 3)") == \
        "arithmetic needs a numeric operand, got Product(left=Real(dim=1), " \
        "right=Countable()) (at offset 0)"
    assert _type_error("(1, 2) + $9") == "input $9 out of range (at offset 9)"
    assert _type_error("min((1, 2), (3, 4))") == \
        f"min needs a numeric operand, got {PAIR} (at offset 4)"
    assert _type_error("min((1, 2), $9)") == "input $9 out of range (at offset 12)"
    # < tests each operand as soon as it has its shape
    assert _type_error("(1, 2) < (3, 4)") == \
        f"comparison needs a numeric operand, got {PAIR} (at offset 0)"
    assert _type_error("(1, 2) < $9") == \
        f"comparison needs a numeric operand, got {PAIR} (at offset 0)"


def test_if_and_case_in_both_modes():
    cond = "if 0 < 1 then "
    assert check_expression(parse_expression(cond + "1 else 0.5"), []) == Real(1)
    assert check_expression(parse_expression(cond + "1 else 0"), [], Finite(2)) == Finite(2)
    assert _type_error(cond + "1 else 0.5", (), Countable()) == \
        "expected Countable(), got Real(dim=1) (at offset 21)"
    assert _type_error(cond + "(1, 2) else 3") == \
        f"branches have incompatible shapes {PAIR} and Countable() (at offset 0)"
    assert _type_error(cond + "(1, 2) else 3", (), Real(1)) == \
        f"expected Real(dim=1), got {PAIR} (at offset 14)"
    # the condition is checked before either branch
    assert _type_error("if 2 then inl(1) else 0") == "literal 2 outside Finite(2) (at offset 3)"
    # checking mode carries the expected coproduct into the branches
    tagged = Coproduct(Countable(), Real(1))
    assert check_expression(parse_expression(cond + "inl(1) else inr(0.5)"), [], tagged) \
        == tagged
    assert _type_error(cond + "inl(1) else inr(0.5)") == \
        "inl needs an expected coproduct shape from context (at offset 14)"

    sp = [Coproduct(Finite(2), Real(1))]
    text = "case $0 of inl x => x | inr y => y"
    assert check_expression(parse_expression(text), sp) == Real(1)
    assert check_expression(parse_expression(text), sp, Real(1)) == Real(1)
    assert _type_error(text, sp, Finite(2)) == \
        "expected Finite(size=2), got Real(dim=1) (at offset 33)"
    assert _type_error("case $0 of inl x => (x, x) | inr y => y", sp) == \
        "branches have incompatible shapes Product(left=Finite(size=2), " \
        "right=Finite(size=2)) and Real(dim=1) (at offset 0)"
    # each branch sees only its own bound name
    assert _type_error("case $0 of inl x => y | inr y => x", sp, Real(1)) == \
        "unbound variable 'y' (at offset 20)"
    # the scrutinee is synthesized before either branch is looked at
    for expected in (None, Real(1)):
        assert _type_error("case 1 of inl x => inl(x) | inr y => y", (), expected) == \
            "case scrutinee must be a coproduct, got Countable() (at offset 5)"


def test_keyword_forms_take_their_arity():
    for text, message in (("min(1)", "expected 'comma', found ')' (at offset 5)"),
                          ("neg(1, 2)", "expected 'rparen', found ',' (at offset 5)"),
                          ("inl(1, 2)", "expected 'rparen', found ',' (at offset 5)"),
                          ("max 1", "expected 'lparen', found 1 (at offset 4)")):
        with pytest.raises(ExprSyntaxError) as e:
            parse_expression(text)
        assert str(e.value) == message, text
    assert parse_expression("max(1, $0)") == ("call", "max", (("int", 1, 4), ("ref", 0, 7)), 0)
    assert parse_expression("ln(1)") == ("call", "ln", (("int", 1, 3),), 0)
    assert parse_expression("inr(1)") == ("inr", ("int", 1, 4), 0)
    assert _type_error("inl(1)") == \
        "inl needs an expected coproduct shape from context (at offset 0)"


def test_adapt_value():
    assert adapt_value(Real(1), 3) == 3.0
    assert isinstance(adapt_value(Real(1), 3), float)
    assert adapt_value(Product(Real(1), Countable()), (1, 2)) == (1.0, 2)
    assert adapt_value(Coproduct(Real(1), Countable()), Inl(1)) == Inl(1.0)
    assert adapt_value(Coproduct(Real(1), Countable()), Inr(5)) == Inr(5)
    assert adapt_value(Finite(4), 3) == 3


def test_compile_det_map():
    det = compile_det_map(["if $0 < 1 then 0.2 else 0.7"], [Finite(2)], [Real(1)])
    assert det.dom == Finite(2) and det.cod == Real(1)
    assert det(0) == 0.2 and det(1) == 0.7

    two_out = compile_det_map(["$0 + $1", "$0 * $1"],
                              [Countable(), Countable()],
                              [Countable(), Countable()])
    assert two_out((3, 4)) == (7, 12)

    packed = compile_det_map(["$2"], [Finite(2), Finite(2), Real(1)], [Real(1)])
    assert packed.dom == Product(Product(Finite(2), Finite(2)), Real(1))
    assert packed(((0, 1), 2.5)) == 2.5

    with pytest.raises(ExprTypeError, match="output expressions"):
        compile_det_map(["$0"], [Real(1)], [Real(1), Real(1)])
    with pytest.raises(ExprSyntaxError):
        compile_det_map(["1 +"], [], [Real(1)])
    with pytest.raises(ExprTypeError):
        compile_det_map(["(1, 2)"], [], [Real(1)])


def test_compile_det_map_adapts_outputs():
    det = compile_det_map(["$0 + 1"], [Finite(2)], [Real(1)])
    out = det(1)
    assert out == 2.0 and isinstance(out, float)


# ---------------------------------------------------------------------------
# differential properties: generated expressions against plain Python

# every generated expression reads these inputs: $0 and $1 reals, $2 an
# integer, $3 a (real, integer) pair and $4 a tagged real or integer
INPUT_SPACES = [Real(1), Real(1), Countable(), Product(Real(1), Countable()),
                Coproduct(Real(1), Countable())]
REAL_LITERALS = ["0.5", "2.5", "1e-3", "3.0e2", "0.1", "7E1"]
# the reference fails exactly where the language raises EvalError
REFERENCE_ERRORS = (ZeroDivisionError, OverflowError, ValueError)

reals = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.1, 710.0, 1e308]),
                  st.floats(-1e3, 1e3))
inputs = st.tuples(reals, reals, st.integers(-5, 20), st.tuples(reals, st.integers(-5, 20)),
                   st.one_of(reals.map(Inl), st.integers(-5, 20).map(Inr)))


@st.composite
def numeric(draw, depth: int, names: tuple = ()):
    """(text, reference): reference(s, b) computes the text's value from the
    inputs s and the bound names b, with the same operations in the same
    order."""
    leaves = [
        ("$0", lambda s, b: s[0]), ("$1", lambda s, b: s[1]), ("$2", lambda s, b: s[2]),
        ("$3.0", lambda s, b: s[3][0]), ("$3.1", lambda s, b: s[3][1]),
        *((x, lambda s, b, x=x: b[x]) for x in names),
    ]
    form = draw(st.sampled_from(["leaf", "int", "real"] + [
        "+", "-", "*", "/", "neg", "exp", "ln", "min", "max", "<", "if", "case",
        "pair"] * (depth > 0)))
    if form == "leaf":
        return draw(st.sampled_from(leaves))
    if form == "int":
        k = draw(st.integers(0, 20))
        return str(k), lambda s, b: k
    if form == "real":
        text = draw(st.sampled_from(REAL_LITERALS))
        return text, lambda s, b, v=float(text): v
    sub = numeric(depth - 1, names)
    (ta, a), (tc, c) = draw(sub), draw(sub)
    if form == "+":
        return f"({ta} + {tc})", lambda s, b: a(s, b) + c(s, b)
    if form == "-":
        return f"({ta} - {tc})", lambda s, b: a(s, b) - c(s, b)
    if form == "*":
        return f"({ta} * {tc})", lambda s, b: a(s, b) * c(s, b)
    if form == "/":
        return f"({ta} / {tc})", lambda s, b: a(s, b) / c(s, b)
    if form == "neg":
        return f"neg({ta})", lambda s, b: -a(s, b)
    if form == "exp":
        return f"exp({ta})", lambda s, b: math.exp(a(s, b))
    if form == "ln":
        return f"ln({ta})", lambda s, b: math.log(a(s, b))
    if form == "min":
        return f"min({ta}, {tc})", lambda s, b: min(a(s, b), c(s, b))
    if form == "max":
        return f"max({ta}, {tc})", lambda s, b: max(a(s, b), c(s, b))
    if form == "<":
        return f"({ta} < {tc})", lambda s, b: 1 if a(s, b) < c(s, b) else 0
    if form == "if":
        tl, l = draw(sub)
        return (f"(if {ta} < {tc} then {tl} else {tc})",
                lambda s, b: l(s, b) if a(s, b) < c(s, b) else c(s, b))
    if form == "case":
        x, y = draw(st.sampled_from("xy")), draw(st.sampled_from("xy"))
        (tl, l), (tr, r) = draw(numeric(depth - 1, names + (x,))), \
            draw(numeric(depth - 1, names + (y,)))

        def case(s, b):
            v = s[4]
            if isinstance(v, Inl):
                return l(s, {**b, x: v.value})
            return r(s, {**b, y: v.value})

        return f"(case $4 of inl {x} => {tl} | inr {y} => {tr})", case
    k = draw(st.sampled_from([0, 1]))
    return f"({ta}, {tc}).{k}", lambda s, b: (a(s, b), c(s, b))[k]


@st.composite
def shaped(draw):
    """(text, expected shape, reference of the value adapted to the shape)."""
    sub = numeric(3)
    (ta, a), (tc, c) = draw(sub), draw(sub)
    form = draw(st.sampled_from(["real", "pair", "inl", "inr", "if", "case"]))
    if form == "real":
        return ta, Real(1), lambda s: float(a(s, {}))
    if form == "pair":
        return f"({ta}, {tc})", Product(Real(1), Real(1)), \
            lambda s: (float(a(s, {})), float(c(s, {})))
    tagged = Coproduct(Real(1), Real(1))
    if form == "inl":
        return f"inl({ta})", tagged, lambda s: Inl(float(a(s, {})))
    if form == "inr":
        return f"inr({ta})", tagged, lambda s: Inr(float(a(s, {})))
    if form == "if":
        return (f"if {ta} < {tc} then inl({ta}) else inr({tc})", tagged,
                lambda s: Inl(float(a(s, {}))) if a(s, {}) < c(s, {}) else Inr(float(c(s, {}))))
    x = draw(st.sampled_from("xy"))
    tl, l = draw(numeric(2, (x,)))
    return (f"case $4 of inl {x} => inl({tl}) | inr y => inr($2)", tagged,
            lambda s: Inl(float(l(s, {x: s[4].value}))) if isinstance(s[4], Inl)
            else Inr(float(s[2])))


def _bits(v):
    """v with each float as its bytes, so == compares bit for bit."""
    if isinstance(v, (Inl, Inr)):
        return type(v).__name__, _bits(v.value)
    if isinstance(v, tuple):
        return tuple(_bits(x) for x in v)
    if isinstance(v, float):
        return "float", struct.pack("<d", v)
    return type(v).__name__, v


def _outcome(f, args, errors):
    """f(*args) bit for bit, or "error" where it raises one of errors."""
    try:
        return _bits(f(*args))
    except errors:
        return "error"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(shaped(), numeric(3), inputs)
def test_compiled_expressions_match_reference(top, inner, s):
    text, shape, ref = top
    det = compile_det_map([text], INPUT_SPACES, [shape])
    got = _outcome(det, (nest_values(list(s)),), EvalError)
    assert got == _outcome(ref, (s,), REFERENCE_ERRORS), text
    # evaluate_expression keeps integer results: no adaptation
    text, ref = inner
    ast = parse_expression(text)
    check_expression(ast, INPUT_SPACES)
    got = _outcome(evaluate_expression, (ast, s), EvalError)
    assert got == _outcome(ref, (s, {}), REFERENCE_ERRORS), text


GRAMMAR_PIECES = ["if ", "then ", "else ", "case ", "of ", "inl", "inr", "neg", "exp",
                  "ln", "min", "max", "$", "$0", "$12", ".", ".0", ".1", "0", "17", "0.5",
                  "1e3", "2E-2", "e", "x", "y_1", " ", "\t", "(", ")", ",", "=>", "=",
                  ">", "|", "+", "-", "*", "/", "<", "²", "٣", "½", "é", "一", "\u00a0"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=12).map("".join),
                 st.text(st.sampled_from("".join(GRAMMAR_PIECES)), max_size=16)))
def test_parse_raises_only_syntax_errors(text):
    try:
        parse_expression(text)
    except ExprSyntaxError as e:
        assert 0 <= e.pos <= len(text)
