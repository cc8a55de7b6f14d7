"""The deterministic expression language of model files.

Grammar, lowest precedence first:

    expr  := 'if' expr 'then' expr 'else' expr
           | 'case' expr 'of' 'inl' NAME '=>' expr '|' 'inr' NAME '=>' expr
           | cmp
    cmp   := add ('<' add)?                  comparison is non-associative
    add   := mul (('+' | '-') mul)*
    mul   := post (('*' | '/') post)*
    post  := atom ('.0' | '.1')*             tuple projections
    atom  := $K | INT | REAL | NAME
           | 'neg' '(' expr ')' | 'exp' '(' expr ')' | 'ln' '(' expr ')'
           | 'min' '(' expr ',' expr ')' | 'max' '(' expr ',' expr ')'
           | 'inl' '(' expr ')' | 'inr' '(' expr ')'
           | '(' expr ')' | '(' expr ',' expr ')'

$K references the K-th input slot. Numbers never start with a bare dot, so
after an atom a dot always reads as a projection ($0.1 projects, 0.1 is a
literal). There is no unary minus; write neg(x). Comparison yields a point
of Finite(2); if-conditions must have that shape.

Checking is bidirectional with numeric subsumption Finite(k) <= Countable
<= Real(1); integer values are adapted to floats only at the typed boundary
(adapt_value). inl/inr need an expected coproduct shape from context. Each
form has one typing rule; if and case share theirs between the two modes
(_branches): a checked expected shape goes into both branches, and without
one the branches' shapes are joined.

A text goes through four steps, each once: one regex splits it into tokens
(_lex), the parser makes an AST of nested tuples (parse_expression), the
checker gives it a shape (check_expression), and _build turns the checked
AST into nested functions of the input slots, so evaluating a record walks
no AST. _compile runs the four steps for every expression a model holds:
parameters, det maps, weights and spw test functions. The parser bounds
nesting at MAX_DEPTH levels, so no later step can exhaust the stack; a real
literal past the float range is a syntax error, and an integer too large
for a float that meets real arithmetic an EvalError.

Each function built from a checked AST carries, as its columns attribute,
its column form, which spw runs over a block of samples at a time: the
columns module compiles the kept AST to it on first use, so only spw pays
for it, and the text is parsed once.
"""

from __future__ import annotations

import functools
import math
import operator
import re

from .errors import EvalError, ExprSyntaxError, ExprTypeError
from .kernels import DetMap
from .spaces import (
    Coproduct, Countable, Finite, Inl, Inr, Product, Real, Space,
    nest_product, nest_values,
)

__all__ = [
    "parse_expression", "check_expression", "evaluate_expression",
    "adapt_value", "compile_det_map",
]

# the forms written keyword(e, ...), with the number of arguments each takes
_ARITY = {"neg": 1, "exp": 1, "ln": 1, "min": 2, "max": 2, "inl": 1, "inr": 1}
_KEYWORDS = {"if", "then", "else", "case", "of", *_ARITY}

# tokens after which a dot means projection rather than a number
_ATOMIC = {"ref", "int", "real", "rparen", "name", "proj"}

# a token is its leading whitespace and one of: a ref, a dot with an optional
# projection digit, a number, a word, an arrow or any other single character;
# \d is a decimal digit, so '²' (isdigit, not decimal) can only start a word
_TOKEN = re.compile(r"(\s*)(\$\d*|\.[01]?|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\w+|=>|\S)")
_PUNCT = {"(": "lparen", ")": "rparen", ",": "comma", "|": "bar", "=>": "arrow",
          "+": "op", "-": "op", "*": "op", "/": "op", "<": "op"}


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on int digits
        raise ExprSyntaxError(f"integer of {len(digits)} digits is too long", pos) from None


def _lex(text: str) -> list:
    """Tokens as (kind, value, pos); kinds: ref int real name kw op lparen
    rparen comma proj arrow bar."""
    out, pos, prev = [], 0, None
    for space, v in _TOKEN.findall(text):
        i = pos + len(space)
        pos = i + len(v)
        kind = _PUNCT.get(v)
        if kind is None:
            c = v[0]
            if c.isdecimal():
                kind, v = ("int", _int(v, i)) if v.isdecimal() else ("real", float(v))
                if v == math.inf:  # a literal has no sign, so only +inf
                    raise ExprSyntaxError("real literal is past the float range", i)
            elif c.isalpha() or c == "_":
                kind = "kw" if v in _KEYWORDS else "name"
            elif c == "$":
                if v == "$":
                    if text[i + 1:i + 2].isdigit():
                        raise ExprSyntaxError(f"unexpected character {text[i + 1]!r}", i + 1)
                    raise ExprSyntaxError("expected digits after $", i)
                kind, v = "ref", _int(v[1:], i)
            elif c == "." and prev in _ATOMIC:
                if v == ".":
                    raise ExprSyntaxError("projection must be .0 or .1", i)
                kind, v = "proj", int(v[1])
            else:
                raise ExprSyntaxError(f"unexpected character {c!r}", i)
        out.append((kind, v, i))
        prev = kind
    return out


# The most levels an expression may nest, in the AST and in the parser's
# open expressions (parentheses included). Parsing takes about six frames
# per open expression, and checking, building and running one or two per AST
# level, so each stays well inside the default recursion limit.
MAX_DEPTH = 100


def _too_deep(pos: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", pos)


class _Parser:
    def __init__(self, tokens, text_len):
        # the parser raises as soon as it takes the end token, so it never
        # reads past it
        self.toks = tokens + [("eof", None, text_len)]
        self.i = 0
        self.open = 0  # expressions begun and not yet finished

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, value=None):
        k, v, pos = self.next()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ExprSyntaxError(f"expected {want!r}, found {v!r}", pos)
        return v, pos

    def parse(self):
        e = self.expr()
        k, v, pos = self.toks[self.i]
        if k != "eof":
            raise ExprSyntaxError(f"trailing input starting with {v!r}", pos)
        return e

    def expr(self):
        k, v, pos = self.toks[self.i]
        # bounded here, before the recursion it would deepen
        self.open += 1
        if self.open > MAX_DEPTH:
            raise _too_deep(pos)
        if k == "kw" and v == "if":
            self.next()
            c = self.expr()
            self.expect("kw", "then")
            a = self.expr()
            self.expect("kw", "else")
            b = self.expr()
            e = ("if", c, a, b, pos)
        elif k == "kw" and v == "case":
            self.next()
            scrut = self.expr()
            self.expect("kw", "of")
            self.expect("kw", "inl")
            x, _ = self.expect("name")
            self.expect("arrow")
            e1 = self.expr()
            self.expect("bar")
            self.expect("kw", "inr")
            y, _ = self.expect("name")
            self.expect("arrow")
            e2 = self.expr()
            e = ("case", scrut, x, e1, y, e2, pos)
        else:
            e = self.cmp()
        self.open -= 1
        return e

    def cmp(self):
        left = self.add()
        k, v, pos = self.toks[self.i]
        if k == "op" and v == "<":
            self.next()
            right = self.add()
            k2, v2, pos2 = self.toks[self.i]
            if k2 == "op" and v2 == "<":
                raise ExprSyntaxError("comparison does not associate", pos2)
            return ("lt", left, right, pos)
        return left

    def add(self):
        e = self.mul()
        while True:
            k, v, pos = self.toks[self.i]
            if k == "op" and v in "+-":
                self.next()
                e = ("bin", v, e, self.mul(), pos)
            else:
                return e

    def mul(self):
        e = self.post()
        while True:
            k, v, pos = self.toks[self.i]
            if k == "op" and v in "*/":
                self.next()
                e = ("bin", v, e, self.post(), pos)
            else:
                return e

    def post(self):
        e = self.atom()
        while True:
            k, v, pos = self.toks[self.i]
            if k == "proj":
                self.next()
                e = ("proj", v, e, pos)
            else:
                return e

    def atom(self):
        k, v, pos = self.next()
        if k == "ref":
            return ("ref", v, pos)
        if k == "int":
            return ("int", v, pos)
        if k == "real":
            return ("real", v, pos)
        if k == "name":
            return ("var", v, pos)
        if k == "kw" and v in _ARITY:
            self.expect("lparen")
            args = (self.expr(),)
            if _ARITY[v] == 2:
                self.expect("comma")
                args = (args[0], self.expr())
            self.expect("rparen")
            return (v, args[0], pos) if v in ("inl", "inr") else ("call", v, args, pos)
        if k == "lparen":
            e = self.expr()
            k2, v2, pos2 = self.next()
            if k2 == "comma":
                e2 = self.expr()
                self.expect("rparen")
                return ("tuple", e, e2, pos)
            if k2 == "rparen":
                return e
            raise ExprSyntaxError(f"expected ',' or ')', found {v2!r}", pos2)
        raise ExprSyntaxError(f"unexpected token {v!r}", pos)


def parse_expression(text: str):
    """Parse to an AST of nested tuples; raises ExprSyntaxError with offset."""
    tokens = _lex(text)
    ast = _Parser(tokens, len(text)).parse()
    # every AST node has a token of its own, so only a text of more tokens
    # than MAX_DEPTH can build a tree that high
    if len(tokens) > MAX_DEPTH:
        _check_height(ast)
    return ast


def _children(ast) -> list:
    """The subexpressions of an AST node (a call's arguments sit in a tuple)."""
    out = []
    for x in ast[1:-1]:
        if type(x) is tuple:
            out.extend(x if x and type(x[0]) is tuple else (x,))
    return out


def _check_height(ast):
    """Raise at the first node, in parse order, that stands more than
    MAX_DEPTH levels high; an explicit stack, as the tree may be deep."""
    height = {}
    stack = [(ast, False)]
    while stack:
        node, seen = stack.pop()
        kids = _children(node)
        if not seen:
            stack.append((node, True))
            stack.extend((kid, False) for kid in reversed(kids))
            continue
        h = 1 + max((height[id(kid)] for kid in kids), default=0)
        if h > MAX_DEPTH:
            raise _too_deep(node[-1])
        height[id(node)] = h


# ---------------------------------------------------------------------------
# shape checking


_REAL = Real(1)  # the real line, built once for the shape comparisons


def _is_numeric(sp: Space) -> bool:
    return isinstance(sp, (Finite, Countable)) or sp == _REAL


def _subsumes(expected: Space, actual: Space) -> bool:
    """actual embeds into expected: Finite(j<=k) <= Finite(k) <= Countable <= Real(1)."""
    if expected == actual:
        return True
    if expected == _REAL:
        return isinstance(actual, (Finite, Countable))
    if isinstance(expected, Countable):
        return isinstance(actual, Finite)
    if isinstance(expected, Finite) and isinstance(actual, Finite):
        return actual.size <= expected.size
    if isinstance(expected, (Product, Coproduct)) and actual.__class__ is expected.__class__:
        return _subsumes(expected.left, actual.left) and _subsumes(expected.right, actual.right)
    return False


def _pos(ast) -> int:
    return ast[-1]


def _numeric(sp: Space, ast, what: str) -> Space:
    """sp, the shape of ast, once checked numeric; what names the operation
    ast is an operand of."""
    if not _is_numeric(sp):
        raise ExprTypeError(f"{what} needs a numeric operand, got {sp!r}", _pos(ast))
    return sp


def _synth(ast, inputs, vars) -> Space:
    tag = ast[0]
    if tag == "ref":
        if not 0 <= ast[1] < len(inputs):
            raise ExprTypeError(f"input ${ast[1]} out of range", _pos(ast))
        return inputs[ast[1]]
    if tag == "var":
        if ast[1] not in vars:
            raise ExprTypeError(f"unbound variable {ast[1]!r}", _pos(ast))
        return vars[ast[1]]
    if tag == "int":
        return Countable()
    if tag == "real":
        return _REAL
    # bin and call synthesize every operand before testing any
    if tag == "bin":
        _, op, l, r, pos = ast
        ls, rs = _synth(l, inputs, vars), _synth(r, inputs, vars)
        _numeric(ls, l, "arithmetic")
        _numeric(rs, r, "arithmetic")
        return _REAL if op == "/" or ls == _REAL or rs == _REAL else Countable()
    if tag == "call":
        _, name, args, pos = ast
        spaces = [_synth(a, inputs, vars) for a in args]
        for s, a in zip(spaces, args):
            _numeric(s, a, name)
        return _REAL if name in ("exp", "ln") or _REAL in spaces else Countable()
    if tag == "lt":
        for e in ast[1:3]:
            _numeric(_synth(e, inputs, vars), e, "comparison")
        return Finite(2)
    if tag == "tuple":
        return Product(_synth(ast[1], inputs, vars), _synth(ast[2], inputs, vars))
    if tag == "proj":
        _, side, e, pos = ast
        s = _synth(e, inputs, vars)
        if not isinstance(s, Product):
            raise ExprTypeError(f"projection needs a pair, got {s!r}", pos)
        return s.left if side == 0 else s.right
    if tag in ("inl", "inr"):
        raise ExprTypeError(f"{tag} needs an expected coproduct shape from context", _pos(ast))
    if tag == "if" or tag == "case":
        return _branches(ast, None, inputs, vars)
    raise ExprTypeError(f"unknown expression form {tag!r}", _pos(ast))


def _branches(ast, expected, inputs, vars) -> Space:
    """The shape of an if or a case, in either mode: its condition is
    checked, or its scrutinee synthesized, first; then both branches check
    against expected or, with expected None, their shapes are joined."""
    if ast[0] == "if":
        _, c, a, b, pos = ast
        _check(c, Finite(2), inputs, vars)
        vars_a = vars_b = vars
    else:
        _, scrut, x, a, y, b, pos = ast
        s = _synth(scrut, inputs, vars)
        if not isinstance(s, Coproduct):
            raise ExprTypeError(f"case scrutinee must be a coproduct, got {s!r}", _pos(scrut))
        vars_a, vars_b = {**vars, x: s.left}, {**vars, y: s.right}
    if expected is not None:
        _check(a, expected, inputs, vars_a)
        _check(b, expected, inputs, vars_b)
        return expected
    sa, sb = _synth(a, inputs, vars_a), _synth(b, inputs, vars_b)
    joined = _join(sa, sb)
    if joined is None:
        raise ExprTypeError(f"branches have incompatible shapes {sa!r} and {sb!r}", pos)
    return joined


def _join(a: Space, b: Space):
    """Least shape both branches embed into, or None."""
    if _subsumes(a, b):
        return a
    if _subsumes(b, a):
        return b
    if isinstance(a, Product) and isinstance(b, Product):
        l, r = _join(a.left, b.left), _join(a.right, b.right)
        return None if l is None or r is None else Product(l, r)
    if isinstance(a, (Finite, Countable)) and isinstance(b, (Finite, Countable)):
        return Countable()
    if _is_numeric(a) and _is_numeric(b):
        return _REAL
    return None


def _check(ast, expected: Space, inputs, vars):
    tag = ast[0]
    if tag == "int":
        v = ast[1]
        if isinstance(expected, Finite):
            if not 0 <= v < expected.size:
                raise ExprTypeError(
                    f"literal {v} outside Finite({expected.size})", _pos(ast))
            return
        if isinstance(expected, Countable) or expected == _REAL:
            return
        raise ExprTypeError(f"integer literal cannot have shape {expected!r}", _pos(ast))
    if tag == "inl" or tag == "inr":
        if not isinstance(expected, Coproduct):
            raise ExprTypeError(f"{tag} needs a coproduct shape, got {expected!r}", _pos(ast))
        side = expected.left if tag == "inl" else expected.right
        _check(ast[1], side, inputs, vars)
        return
    if tag == "tuple" and isinstance(expected, Product):
        _check(ast[1], expected.left, inputs, vars)
        _check(ast[2], expected.right, inputs, vars)
        return
    if tag == "if" or tag == "case":
        _branches(ast, expected, inputs, vars)
        return
    actual = _synth(ast, inputs, vars)
    if not _subsumes(expected, actual):
        raise ExprTypeError(f"expected {expected!r}, got {actual!r}", _pos(ast))


def check_expression(ast, inputs, expected: Space | None = None) -> Space:
    """Shape-check; returns the synthesized (or expected) shape."""
    inputs = list(inputs)
    if expected is None:
        return _synth(ast, inputs, {})
    _check(ast, expected, inputs, {})
    return expected


# ---------------------------------------------------------------------------
# building: a checked AST becomes nested functions of the input slots


def _div(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        raise EvalError("division by zero") from None


def _exp(a):
    try:
        return math.exp(a)
    except OverflowError:
        raise EvalError("overflow in exp") from None


def _ln(a):
    if a <= 0:
        raise EvalError(f"ln of non-positive value {a}")
    return math.log(a)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div,
        "neg": operator.neg, "exp": _exp, "ln": _ln, "min": min, "max": max}


def _path(j: int, n: int) -> list:
    """The indexes that reach slot j in the left-nested tuple of n slots."""
    return [0] * (n - 1 - j) + [1] * (j > 0)


@functools.cache
def _slot(j: int, n: int):
    """The reader of slot j from the left-nested tuple of n slots."""
    path = _path(j, n)
    if not path:
        return lambda s: s
    if len(path) == 1:
        return operator.itemgetter(path[0])
    return lambda s, path=tuple(path): functools.reduce(operator.getitem, path, s)


def _build(ast, n: int, scope: dict):
    """The function of the left-nested tuple of n slots (nest_values) that
    computes a checked ast; scope maps each bound name to its slot. Each
    function binds its children as defaults, not closure cells."""
    tag = ast[0]
    if tag == "ref":
        return _slot(ast[1], n)
    if tag == "var":
        return _slot(scope[ast[1]], n)
    if tag in ("int", "real"):
        return lambda s, v=ast[1]: v
    if tag == "bin":
        _, sym, l, r, pos = ast

        def binop(s, op=_OPS[sym], a=_build(l, n, scope), b=_build(r, n, scope), sym=sym):
            try:
                return op(a(s), b(s))
            except OverflowError:  # an integer meeting a float, or int / int
                raise EvalError(f"integer too large for a float in {sym!r}") from None

        return binop
    if tag == "call":
        op, args = _OPS[ast[1]], ast[2]
        a = _build(args[0], n, scope)
        if len(args) == 1:
            return lambda s, op=op, a=a: op(a(s))
        b = _build(args[1], n, scope)
        return lambda s, op=op, a=a, b=b: op(a(s), b(s))
    if tag in ("lt", "tuple"):
        a, b = _build(ast[1], n, scope), _build(ast[2], n, scope)
        if tag == "lt":
            return lambda s, a=a, b=b: 1 if a(s) < b(s) else 0
        return lambda s, a=a, b=b: (a(s), b(s))
    if tag == "proj":
        return lambda s, e=_build(ast[2], n, scope), k=ast[1]: e(s)[k]
    if tag in ("inl", "inr"):
        wrap = Inl if tag == "inl" else Inr
        return lambda s, e=_build(ast[1], n, scope), wrap=wrap: wrap(e(s))
    if tag == "if":
        c, a, b = _build(ast[1], n, scope), _build(ast[2], n, scope), _build(ast[3], n, scope)
        return lambda s, c=c, a=a, b=b: a(s) if c(s) == 1 else b(s)
    if tag == "case":
        _, scrut, x, e1, y, e2, pos = ast
        # the bound value becomes slot n: the new tuple is (s, value); n > 0,
        # as the scrutinee's coproduct shape can only come from a slot
        c = _build(scrut, n, scope)
        a = _build(e1, n + 1, {**scope, x: n})
        b = _build(e2, n + 1, {**scope, y: n})

        def case(s, c=c, a=a, b=b):
            v = c(s)
            return (a if isinstance(v, Inl) else b)((s, v.value))

        return case
    raise EvalError(f"unknown expression form {tag!r}")


def _carrying(fn, asts, n: int, cod_spaces):
    """fn, the function of n input slots built from the checked asts, one
    per output space, carrying its column form (_column_form) as its
    columns attribute; a slot reader _slot shares is wrapped first."""
    if asts[0][0] == "ref" and fn is _slot(asts[0][1], n):
        fn = lambda v, get=fn: get(v)
    fn.columns = _column_form(asts, n, cod_spaces)
    return fn


def _column_form(asts, n: int, cod_spaces):
    """The column form of a det map of the checked asts, over n input slots
    and one output space each (columns._det_columns), built when first
    called: only spw runs columns."""
    form = None

    def columns(s, m):
        nonlocal form
        if form is None:
            from .columns import _det_columns

            form = _det_columns(asts, n, cod_spaces)
        return form(s, m)

    return columns


def evaluate_expression(ast, inputs):
    """Evaluate a checked expression; raises EvalError on runtime failures.

    This builds the expression on every call; _compile builds it once."""
    inputs = list(inputs)
    return _build(ast, len(inputs), {})(nest_values(inputs))


def _to_float(v) -> float:
    try:
        return float(v)
    except OverflowError:
        raise EvalError("integer too large for a float") from None


def adapt_value(space: Space, v):
    """Coerce integer-shaped results to the boundary space (ints to floats
    for Real(1), recursively through pairs and coproduct tags)."""
    if space == _REAL:
        return _to_float(v)
    if isinstance(space, Product):
        return (adapt_value(space.left, v[0]), adapt_value(space.right, v[1]))
    if isinstance(space, Coproduct):
        if isinstance(v, Inl):
            return Inl(adapt_value(space.left, v.value))
        return Inr(adapt_value(space.right, v.value))
    return v


def _compile(text: str, inputs, expected: Space):
    """Parse, check against expected and build text, once: the function of
    the packed input (the left-nested tuple of the input slots, as kernels
    pass it). Its value is not adapted to expected (see compile_det_map);
    its column form's is."""
    ast = _checked(text, inputs, expected)
    return _carrying(_build(ast, len(inputs), {}), [ast], len(inputs), [expected])


def _checked(text: str, inputs, expected: Space):
    """The AST of text, parsed and checked against expected."""
    ast = parse_expression(text)
    check_expression(ast, inputs, expected)
    return ast


def _located(e: ExprSyntaxError | ExprTypeError, where: str):
    """e, an expression error, with where prefixed to its message, to name
    the field of a model file that holds the text; its class and pos stay."""
    e.args = (f"{where}: {e}",)
    return e


def compile_det_map(texts, dom_spaces, cod_spaces, name: str = "det",
                    where: str | None = None) -> DetMap:
    """Compile one expression per output slot into a packed DetMap.

    Inputs $0..$k-1 are the unpacked domain slots; output i must check
    against cod_spaces[i], and its value is adapted to it. The map's
    dom/cod are the packed products. where, if given, names the texts'
    field: an expression error in text i starts with f"{where}[{i}]: ", a
    wrong number of texts with f"{where}: ". The map's function carries
    its column form as its columns attribute (see the columns module).
    """
    dom_spaces = list(dom_spaces)
    cod_spaces = list(cod_spaces)
    if len(texts) != len(cod_spaces):
        e = ExprTypeError(f"{len(cod_spaces)} output expressions needed, got {len(texts)}")
        raise _located(e, where) if where else e
    n = len(dom_spaces)
    asts, fs = [], []
    for i, (text, sp) in enumerate(zip(texts, cod_spaces)):
        try:
            ast = _checked(text, dom_spaces, sp)
        except (ExprSyntaxError, ExprTypeError) as e:
            if where:
                _located(e, f"{where}[{i}]")
            raise
        f = _build(ast, n, {})
        if sp == _REAL:
            f = lambda v, f=f: _to_float(f(v))
        elif isinstance(sp, (Product, Coproduct)):
            f = lambda v, f=f, sp=sp: adapt_value(sp, f(v))
        asts.append(ast)
        fs.append(f)
    fn = fs[0] if len(fs) == 1 else lambda v, fs=fs: nest_values([f(v) for f in fs])
    return DetMap(nest_product(dom_spaces), nest_product(cod_spaces),
                  _carrying(fn, asts, n, cod_spaces), name)
