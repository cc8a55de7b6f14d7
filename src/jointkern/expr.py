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
(adapt_value). inl/inr need an expected coproduct shape from context.
"""

from __future__ import annotations

import math

from .errors import EvalError, ExprSyntaxError, ExprTypeError
from .kernels import DetMap
from .spaces import (
    Coproduct, Countable, Finite, Inl, Inr, Product, Real, Space,
    nest_product, nest_values, unnest_values,
)

__all__ = [
    "parse_expression", "check_expression", "evaluate_expression",
    "adapt_value", "compile_det_map",
]

_KEYWORDS = {"if", "then", "else", "case", "of", "inl", "inr",
             "neg", "exp", "ln", "min", "max"}
_UNARY = {"neg", "exp", "ln"}
_BINARY = {"min", "max"}

# tokens after which a dot means projection rather than a number
_ATOMIC = {"ref", "int", "real", "rparen", "name", "proj"}


def _lex(text: str) -> list:
    """Tokens as (kind, value, pos); kinds: ref int real name kw op lparen
    rparen comma proj arrow bar."""
    out = []
    i, n = 0, len(text)
    prev_kind = None

    def push(kind, value, pos):
        nonlocal prev_kind
        out.append((kind, value, pos))
        prev_kind = kind

    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "$":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ExprSyntaxError("expected digits after $", i)
            push("ref", int(text[i + 1:j]), i)
            i = j
            continue
        if c == "." and prev_kind in _ATOMIC:
            if i + 1 < n and text[i + 1] in "01":
                push("proj", int(text[i + 1]), i)
                i += 2
                continue
            raise ExprSyntaxError("projection must be .0 or .1", i)
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            is_real = False
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_real = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_real = True
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            if is_real:
                push("real", float(lit), i)
            else:
                push("int", int(lit), i)
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            push("kw" if word in _KEYWORDS else "name", word, i)
            i = j
            continue
        if c == "=" and i + 1 < n and text[i + 1] == ">":
            push("arrow", "=>", i)
            i += 2
            continue
        if c in "+-*/<":
            push("op", c, i)
            i += 1
            continue
        if c == "(":
            push("lparen", c, i)
            i += 1
            continue
        if c == ")":
            push("rparen", c, i)
            i += 1
            continue
        if c == ",":
            push("comma", c, i)
            i += 1
            continue
        if c == "|":
            push("bar", c, i)
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    return out


class _Parser:
    def __init__(self, tokens, text_len):
        self.toks = tokens
        self.i = 0
        self.end = text_len

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", None, self.end)

    def next(self):
        t = self.peek()
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
        k, v, pos = self.peek()
        if k != "eof":
            raise ExprSyntaxError(f"trailing input starting with {v!r}", pos)
        return e

    def expr(self):
        k, v, pos = self.peek()
        if k == "kw" and v == "if":
            self.next()
            c = self.expr()
            self.expect("kw", "then")
            a = self.expr()
            self.expect("kw", "else")
            b = self.expr()
            return ("if", c, a, b, pos)
        if k == "kw" and v == "case":
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
            return ("case", scrut, x, e1, y, e2, pos)
        return self.cmp()

    def cmp(self):
        left = self.add()
        k, v, pos = self.peek()
        if k == "op" and v == "<":
            self.next()
            right = self.add()
            k2, v2, pos2 = self.peek()
            if k2 == "op" and v2 == "<":
                raise ExprSyntaxError("comparison does not associate", pos2)
            return ("lt", left, right, pos)
        return left

    def add(self):
        e = self.mul()
        while True:
            k, v, pos = self.peek()
            if k == "op" and v in "+-":
                self.next()
                e = ("bin", v, e, self.mul(), pos)
            else:
                return e

    def mul(self):
        e = self.post()
        while True:
            k, v, pos = self.peek()
            if k == "op" and v in "*/":
                self.next()
                e = ("bin", v, e, self.post(), pos)
            else:
                return e

    def post(self):
        e = self.atom()
        while True:
            k, v, pos = self.peek()
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
        if k == "kw" and v in _UNARY:
            self.expect("lparen")
            e = self.expr()
            self.expect("rparen")
            return ("call", v, (e,), pos)
        if k == "kw" and v in _BINARY:
            self.expect("lparen")
            a = self.expr()
            self.expect("comma")
            b = self.expr()
            self.expect("rparen")
            return ("call", v, (a, b), pos)
        if k == "kw" and v in ("inl", "inr"):
            self.expect("lparen")
            e = self.expr()
            self.expect("rparen")
            return (v, e, pos)
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
    return _Parser(_lex(text), len(text)).parse()


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
    if isinstance(expected, Product) and isinstance(actual, Product):
        return _subsumes(expected.left, actual.left) and _subsumes(expected.right, actual.right)
    if isinstance(expected, Coproduct) and isinstance(actual, Coproduct):
        return _subsumes(expected.left, actual.left) and _subsumes(expected.right, actual.right)
    return False


def _pos(ast) -> int:
    return ast[-1]


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
    if tag == "bin":
        _, op, l, r, pos = ast
        ls, rs = _synth(l, inputs, vars), _synth(r, inputs, vars)
        for s, e in ((ls, l), (rs, r)):
            if not _is_numeric(s):
                raise ExprTypeError(f"arithmetic needs a numeric operand, got {s!r}", _pos(e))
        if op == "/" or ls == _REAL or rs == _REAL:
            return _REAL
        return Countable()
    if tag == "call":
        _, name, args, pos = ast
        spaces = [_synth(a, inputs, vars) for a in args]
        for s, a in zip(spaces, args):
            if not _is_numeric(s):
                raise ExprTypeError(f"{name} needs a numeric operand, got {s!r}", _pos(a))
        if name in ("exp", "ln"):
            return _REAL
        if any(s == _REAL for s in spaces):
            return _REAL
        return Countable()
    if tag == "lt":
        _, l, r, pos = ast
        for e in (l, r):
            s = _synth(e, inputs, vars)
            if not _is_numeric(s):
                raise ExprTypeError(f"comparison needs a numeric operand, got {s!r}", _pos(e))
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
    if tag == "if":
        _, c, a, b, pos = ast
        _check(c, Finite(2), inputs, vars)
        sa = _synth(a, inputs, vars)
        sb = _synth(b, inputs, vars)
        joined = _join(sa, sb)
        if joined is None:
            raise ExprTypeError(f"branches have incompatible shapes {sa!r} and {sb!r}", pos)
        return joined
    if tag == "case":
        _, scrut, x, e1, y, e2, pos = ast
        s = _synth(scrut, inputs, vars)
        if not isinstance(s, Coproduct):
            raise ExprTypeError(f"case scrutinee must be a coproduct, got {s!r}", _pos(scrut))
        s1 = _synth(e1, inputs, {**vars, x: s.left})
        s2 = _synth(e2, inputs, {**vars, y: s.right})
        joined = _join(s1, s2)
        if joined is None:
            raise ExprTypeError(f"branches have incompatible shapes {s1!r} and {s2!r}", pos)
        return joined
    raise ExprTypeError(f"unknown expression form {tag!r}", _pos(ast))


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
    if tag == "if":
        _, c, a, b, pos = ast
        _check(c, Finite(2), inputs, vars)
        _check(a, expected, inputs, vars)
        _check(b, expected, inputs, vars)
        return
    if tag == "case":
        _, scrut, x, e1, y, e2, pos = ast
        s = _synth(scrut, inputs, vars)
        if not isinstance(s, Coproduct):
            raise ExprTypeError(f"case scrutinee must be a coproduct, got {s!r}", _pos(scrut))
        _check(e1, expected, inputs, {**vars, x: s.left})
        _check(e2, expected, inputs, {**vars, y: s.right})
        return
    actual = _synth(ast, inputs, vars)
    if not _subsumes(expected, actual):
        raise ExprTypeError(f"expected {expected!r}, got {actual!r}", _pos(ast))


def check_expression(ast, inputs, expected: Space | None = None, vars=None) -> Space:
    """Shape-check; returns the synthesized (or expected) shape."""
    vars = dict(vars or {})
    inputs = list(inputs)
    if expected is None:
        return _synth(ast, inputs, vars)
    _check(ast, expected, inputs, vars)
    return expected


# ---------------------------------------------------------------------------
# evaluation


def evaluate_expression(ast, inputs, vars=None):
    """Evaluate a checked expression; raises EvalError on runtime failures."""
    return _eval(ast, list(inputs), dict(vars or {}))


def _eval(ast, inputs, vars):
    tag = ast[0]
    if tag == "ref":
        return inputs[ast[1]]
    if tag == "var":
        return vars[ast[1]]
    if tag in ("int", "real"):
        return ast[1]
    if tag == "bin":
        _, op, l, r, pos = ast
        a, b = _eval(l, inputs, vars), _eval(r, inputs, vars)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        try:
            return a / b
        except ZeroDivisionError:
            raise EvalError("division by zero") from None
    if tag == "call":
        _, name, args, pos = ast
        vals = [_eval(a, inputs, vars) for a in args]
        if name == "neg":
            return -vals[0]
        if name == "exp":
            try:
                return math.exp(vals[0])
            except OverflowError:
                raise EvalError("overflow in exp") from None
        if name == "ln":
            if vals[0] <= 0:
                raise EvalError(f"ln of non-positive value {vals[0]}")
            return math.log(vals[0])
        if name == "min":
            return min(vals)
        return max(vals)
    if tag == "lt":
        return 1 if _eval(ast[1], inputs, vars) < _eval(ast[2], inputs, vars) else 0
    if tag == "tuple":
        return (_eval(ast[1], inputs, vars), _eval(ast[2], inputs, vars))
    if tag == "proj":
        v = _eval(ast[2], inputs, vars)
        return v[ast[1]]
    if tag == "inl":
        return Inl(_eval(ast[1], inputs, vars))
    if tag == "inr":
        return Inr(_eval(ast[1], inputs, vars))
    if tag == "if":
        c = _eval(ast[1], inputs, vars)
        return _eval(ast[2] if c == 1 else ast[3], inputs, vars)
    if tag == "case":
        _, scrut, x, e1, y, e2, pos = ast
        v = _eval(scrut, inputs, vars)
        if isinstance(v, Inl):
            return _eval(e1, inputs, {**vars, x: v.value})
        return _eval(e2, inputs, {**vars, y: v.value})
    raise EvalError(f"unknown expression form {tag!r}")


def adapt_value(space: Space, v):
    """Coerce integer-shaped results to the boundary space (ints to floats
    for Real(1), recursively through pairs and coproduct tags)."""
    if space == Real(1):
        return float(v)
    if isinstance(space, Product):
        return (adapt_value(space.left, v[0]), adapt_value(space.right, v[1]))
    if isinstance(space, Coproduct):
        if isinstance(v, Inl):
            return Inl(adapt_value(space.left, v.value))
        return Inr(adapt_value(space.right, v.value))
    return v


def compile_det_map(texts, dom_spaces, cod_spaces, name: str = "det") -> DetMap:
    """Compile one expression per output slot into a packed DetMap.

    Inputs $0..$k-1 are the unpacked domain slots; output i must check
    against cod_spaces[i]. The map's dom/cod are the packed products.
    """
    dom_spaces = list(dom_spaces)
    cod_spaces = list(cod_spaces)
    if len(texts) != len(cod_spaces):
        raise ExprTypeError(
            f"{len(cod_spaces)} output expressions needed, got {len(texts)}")
    asts = []
    for text, sp in zip(texts, cod_spaces):
        ast = parse_expression(text)
        check_expression(ast, dom_spaces, sp)
        asts.append(ast)
    n = len(dom_spaces)

    def fn(v):
        vals = unnest_values(v, n)
        outs = [adapt_value(sp, _eval(ast, vals, {}))
                for ast, sp in zip(asts, cod_spaces)]
        return nest_values(outs)

    return DetMap(nest_product(dom_spaces), nest_product(cod_spaces), fn, name)
