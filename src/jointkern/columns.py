"""spw's column engine: one block of samples at a time.

A column holds one slot's values over a block of m samples: a float64 or
int64 numpy array when every value is a Python float, or every value a
Python int that fits, and a list of the values otherwise; a slot holding
tuples may also be a tuple of columns, nested as the values are, as a
reader packing several slots' columns builds it. numpy computes + - * /,
comparisons, selection and ndtri/ndtr on float64 with the bits Python's
scalar operations give, so a column step runs those over whole arrays,
and each of its other operations (exp, ln, every function without a
column form) row by row with the very scalar function, on the rows'
Python values. Int arrays only take operations that cannot wrap.

A function of a value may carry a column form as its columns attribute:
fn.columns(c, m) is the column of fn over the rows of c. expr gives one to
each function it compiles from a checked AST (compile_det_map's maps, so
det boxes, weights and test functions, and a model's parameter
expressions), built by _det_columns when first called; a weight factor
may carry one too, over the columns of the slots it reads (see
weighted.WeightFactor). A primitive box's draws take theirs from its
family's column laws (_LAWS, keyed by family name) at its parameters
(_draws), when each parameter is a constant or carries a column form.
Each kernel's table of them, one per box in box order, is built from the
kernel's own boxes by its first block (_draw_table), so a box that do
replaced is drawn as what replaced it, and nothing is set on a kernel.
Anything without a column form runs row by row. What runs on some rows
of a block only (an if's branch, a weight factor past an earlier zero
factor) reads those rows' values, _take of the block's columns. A column
step that meets a value its scalar twin would refuse, or cannot promise
the scalar bits for, raises; the caller then reruns the block's seeds
through the scalar pass, which raises what it always raised, or
finishes.

This is the only module that imports numpy. weighted.spw_check imports it
when it runs, so no other command loads it, and its names are private
(__all__ is empty), so the package namespace leaves it out.
"""

from __future__ import annotations

import functools
import importlib
import math
import operator
from array import array
from typing import Callable, Iterable

import numpy as np
from scipy.special import ndtri

from . import rng
from .errors import EvalError
from .expr import _OPS, _REAL, _build, _path, adapt_value
from .kernels import Apply, JointKernel, PrimitiveKernel, Unpack, _identity
from .primitives import FAMILIES, _pair, _same
from .spaces import (
    UNIT_VALUE, Coproduct, Countable, Finite, Product, Real, Space, Value, check_member,
    nest_values,
)

__all__: list = []

# the module, which the package shadows with its function weighted; the
# row path is read from it at each call
_weighted = importlib.import_module(".weighted", __package__)

# the largest ints a float holds exactly, and the int64 bound
_EXACT = 2 ** 53
_INT64 = 2 ** 63


class _Anomaly(Exception):
    """A column pass met a row its scalar twin would refuse, or whose scalar
    bits it cannot promise; rerun the rows one by one."""


# ---------------------------------------------------------------------------
# columns


def _rows(c, m: int) -> list:
    """The m Python values of column c."""
    if type(c) is np.ndarray:
        return c.tolist()
    if type(c) is list:
        return c
    if c:
        return list(zip(*[_rows(x, m) for x in c]))
    return [()] * m


def _take(c, rows: np.ndarray):
    """The column of c's values at the row indexes rows."""
    if type(c) is np.ndarray:
        return c[rows]
    if type(c) is list:
        return [c[i] for i in rows.tolist()]
    return tuple(_take(x, rows) for x in c)


def _column(rows: list):
    """The column holding rows: an array when every row is a Python float,
    or every row a Python int that fits in int64; else rows itself."""
    kinds = set(map(type, rows))
    if kinds == {float}:
        return np.array(rows, float)
    if kinds == {int}:
        try:
            return np.array(rows, np.int64)
        except OverflowError:
            pass
    return rows


def _constant(v: Value, m: int):
    """The column of m copies of v."""
    if type(v) is float:
        return np.full(m, v)
    if type(v) is int and -_INT64 <= v < _INT64:
        return np.full(m, v, np.int64)
    if type(v) is tuple:
        return tuple(_constant(x, m) for x in v)
    return [v] * m


def _rowwise(fn: Callable, *cols, m: int):
    """The column of fn over the rows of cols, row by row."""
    return _column(list(map(fn, *[_rows(c, m) for c in cols])))


def _columns_of(fn: Callable, c, m: int):
    """fn over the rows of column c: its column form if it has one, else
    row by row."""
    form = getattr(fn, "columns", None)
    return _rowwise(fn, c, m=m) if form is None else form(c, m)


def _project(c, k: int, m: int):
    """Component k of each row of a column of pairs."""
    if type(c) is tuple:
        return c[k]
    return _column([r[k] for r in _rows(c, m)])


def _magnitude(c: np.ndarray) -> int:
    """The largest absolute value in an int array, as a Python int."""
    return max(-int(c.min()), int(c.max()))


def _floats(c, m: int) -> np.ndarray:
    """float() of each row of c, as a float64 array."""
    if type(c) is np.ndarray:
        if c.dtype.kind == "f":
            return c
        if _magnitude(c) <= _EXACT:
            return c.astype(float)
    return np.fromiter(map(float, _rows(c, m)), float, m)


def _all_members(space: Space, ok: Callable, c, m: int) -> bool:
    """Every row of c is a point of space; ok is member_check(space)."""
    if type(c) is np.ndarray:
        cls, kind = space.__class__, c.dtype.kind
        if cls is Real and space.dim == 1 and kind == "f":
            return bool(np.isfinite(c).all())
        if cls is Countable and kind == "i":
            return True
        if cls is Finite and kind == "i":
            return bool((c >= 0).all() and (c < space.size).all())
    return all(map(ok, _rows(c, m)))


def _unnest_columns(c, n: int, m: int) -> list:
    """unnest_values over the rows of a column."""
    out = []
    for _ in range(n - 1):
        out.append(_project(c, 1, m))
        c = _project(c, 0, m)
    return [c, *reversed(out)]


# ---------------------------------------------------------------------------
# expressions: a checked AST becomes a function of the input columns
#
# _columns(ast, n) is expr._build over columns: the function (s, m) of the
# left-nested tuple s of n input columns of m rows. Each operation runs
# over whole arrays only where numpy gives Python's bits: + - * / and < on
# floats, or on ints within 2**53 met with floats; + - * on ints whose
# result cannot wrap; min and max as selections, which is Python's rule,
# NaN included; if as a selection between arrays of one dtype. exp and ln
# call the scalar functions row by row; case, inl and inr, and every
# operation on other columns, run their scalar function row by row. Both
# branches of an if run on every row; when one fails, each reruns on the
# rows that take it alone, as the scalar if runs one branch a row, and the
# two are merged.


def _arrays(a, b):
    """a and b as two arrays of one dtype, elementwise equal to their rows,
    or None: ints meet floats as floats only when each is exact."""
    if type(a) is not np.ndarray or type(b) is not np.ndarray:
        return None
    if a.dtype == b.dtype:
        return a, b
    a, b = _exact_floats(a), _exact_floats(b)
    return None if a is None or b is None else (a, b)


def _exact_floats(c):
    if c.dtype.kind == "f":
        return c
    return c.astype(float) if _magnitude(c) <= _EXACT else None


def _branches_apart(cc, fa, fb, s, m: int):
    """if over a block whose condition column is cc, with branch fa run on
    the rows where cc is 1 alone and fb on the rest."""
    pick = cc == 1 if type(cc) is np.ndarray else np.array([q == 1 for q in _rows(cc, m)])
    parts = [(rows, f(_take(s, rows), len(rows)))
             for f, rows in ((fa, np.flatnonzero(pick)), (fb, np.flatnonzero(~pick)))
             if len(rows)]
    if len(parts) == 1:
        return parts[0][1]
    (ra, xa), (rb, xb) = parts
    if type(xa) is np.ndarray and type(xb) is np.ndarray and xa.dtype == xb.dtype:
        out = np.empty(m, xa.dtype)
        out[ra], out[rb] = xa, xb
        return out
    values = [None] * m
    for rows, x in parts:
        for i, v in zip(rows.tolist(), _rows(x, len(rows))):
            values[i] = v
    return _column(values)


def _arith_columns(sym, fa, fb):
    op = _OPS[sym]

    def arith(s, m):
        a, b = fa(s, m), fb(s, m)
        pair = _arrays(a, b)
        if pair is None:
            return _rowwise(op, a, b, m=m)
        a, b = pair
        if sym == "/":
            a, b = _exact_floats(a), _exact_floats(b)
            if a is None or b is None:
                return _rowwise(op, *pair, m=m)
            if (b == 0).any():
                raise _Anomaly("division by zero")
        elif a.dtype.kind == "i":
            ma, mb = _magnitude(a), _magnitude(b)
            if (ma * mb if sym == "*" else ma + mb) >= _INT64:
                return _rowwise(op, a, b, m=m)
        return op(a, b)

    return arith


def _select_columns(pick, fa, fb):
    """min (pick is operator.lt) or max (operator.gt): b where pick(b, a),
    else a, as Python's min and max choose."""
    scalar = min if pick is operator.lt else max

    def select(s, m):
        a, b = fa(s, m), fb(s, m)
        if type(a) is np.ndarray and type(b) is np.ndarray and a.dtype == b.dtype:
            return np.where(pick(b, a), b, a)
        return _rowwise(scalar, a, b, m=m)

    return select


def _columns(ast, n: int):
    """The column form of the checked ast over n input slots; see above."""
    tag = ast[0]
    if tag == "ref":
        path = _path(ast[1], n)
        return lambda s, m: functools.reduce(lambda c, k: _project(c, k, m), path, s)
    if tag in ("int", "real"):
        return lambda s, m, v=ast[1]: _constant(v, m)
    if tag == "bin":
        return _arith_columns(ast[1], _columns(ast[2], n), _columns(ast[3], n))
    if tag == "call":
        name, args = ast[1], ast[2]
        a = _columns(args[0], n)
        if name in ("exp", "ln"):
            op = _OPS[name]
            return lambda s, m: np.fromiter(map(op, _rows(a(s, m), m)), float, m)
        if name == "neg":
            def neg(s, m):
                c = a(s, m)
                if type(c) is np.ndarray and (c.dtype.kind == "f" or c.min() > -_INT64):
                    return -c
                return _rowwise(operator.neg, c, m=m)

            return neg
        pick = operator.lt if name == "min" else operator.gt
        return _select_columns(pick, a, _columns(args[1], n))
    if tag == "lt":
        a, b = _columns(ast[1], n), _columns(ast[2], n)

        def lt(s, m):
            x, y = a(s, m), b(s, m)
            pair = _arrays(x, y)
            if pair is None:
                return _rowwise(lambda p, q: 1 if p < q else 0, x, y, m=m)
            return (pair[0] < pair[1]).astype(np.int64)

        return lt
    if tag == "tuple":
        a, b = _columns(ast[1], n), _columns(ast[2], n)
        return lambda s, m: (a(s, m), b(s, m))
    if tag == "proj":
        return lambda s, m, e=_columns(ast[2], n), k=ast[1]: _project(e(s, m), k, m)
    if tag == "if":
        c, a, b = _columns(ast[1], n), _columns(ast[2], n), _columns(ast[3], n)

        def if_(s, m):
            cc = c(s, m)
            try:
                x, y = a(s, m), b(s, m)
            except (_Anomaly, EvalError, ArithmeticError):
                # maybe only on rows the branch does not take
                return _branches_apart(cc, a, b, s, m)
            if (type(cc) is np.ndarray and type(x) is np.ndarray and type(y) is np.ndarray
                    and x.dtype == y.dtype):
                return np.where(cc == 1, x, y)
            return _rowwise(lambda q, p, r: p if q == 1 else r, cc, x, y, m=m)

        return if_
    # case, inl and inr: the scalar function, row by row
    scalar = _build(ast, n, {})
    return lambda s, m: _rowwise(scalar, s, m=m)


def _det_columns(asts, n: int, cod_spaces):
    """The function (s, m) of the packed input columns of a block of m rows
    that a det map of the checked asts, one per output space, computes."""
    forms = []
    for ast, sp in zip(asts, cod_spaces):
        form = _columns(ast, n)
        if sp == _REAL:
            form = lambda s, m, form=form: _floats(form(s, m), m)
        elif isinstance(sp, (Product, Coproduct)):
            f = _build(ast, n, {})
            form = lambda s, m, f=f, sp=sp: _rowwise(lambda v: adapt_value(sp, f(v)), s, m=m)
        forms.append(form)
    if len(forms) == 1:
        return forms[0]
    return lambda s, m: nest_values([form(s, m) for form in forms])


# ---------------------------------------------------------------------------
# draws: each family's laws over a column of uniforms


def _categorical(u, pt):
    # the first index whose cumulative sum exceeds u, as push finds it
    i = np.searchsorted(pt.cum, u, side="right")
    if (i == len(pt.cum)).any():
        raise _Anomaly("categorical draw past its last cumulative sum")
    return i.astype(np.int64)


def _ordered(a, b):
    if not np.all(a < b):
        raise _Anomaly("uniform needs a < b")
    return a, b


def _normal(u, pt):
    mu, sigma = pt
    if not ((0.0 < u) & (u < 1.0)).all():
        raise _Anomaly("normal pushforward has no finite value at u=0")
    return mu + sigma * ndtri(u)


def _exponential(u, rate):
    if (u >= 1.0).any():
        raise _Anomaly("exponential pushforward has no finite value at u=1")
    # log1p row by row: numpy's differs from math's in the last bit
    return -np.fromiter(map(math.log1p, (-u).tolist()), float, len(u)) / rate


# family name -> (push, point): push(u, pt) is the family's push over a
# column of uniforms u, at a point whose entries are constants or columns;
# point makes that point of the checked parameters, as the family's point
# does, and is None where a point that reads the input has no column form
_LAWS = {
    "bernoulli": (lambda u, p: (u < p).astype(np.int64), _same),
    "categorical": (_categorical, None),
    "uniform": (lambda u, pt: pt[0] + u * (pt[1] - pt[0]), _ordered),
    "normal": (_normal, _pair),
    "exponential": (_exponential, _same),
}
_LAWS["uniform01"] = _LAWS["uniform"]  # whose point is the constant (0.0, 1.0)


def _in_range(c, ok, m: int) -> np.ndarray:
    """A real parameter's rule over a column: the float array of c's rows,
    when each is finite and passes ok (None: any); else _Anomaly."""
    v = _floats(c, m)
    if not np.isfinite(v).all() or (ok is not None and not ok(v).all()):
        raise _Anomaly("parameter out of its range")
    return v


def _draws(p: PrimitiveKernel):
    """The column form of p's draws: (x, u, m) -> the column of
    p.push((u_i,), p.point(x_i)) over the m rows of the input column x and
    the uniforms u. It is built from p's family laws (_LAWS) at p.params,
    each parameter a constant or a function carrying its column form.
    None when p was not built by instantiate, its family has no column
    laws, or a parameter that reads the input has no column form."""
    push, make = _LAWS.get(p.name, (None, None))
    if push is None or p.params is None:
        return None
    if not any(callable(v) or type(v) is list and any(map(callable, v)) for v in p.params):
        pt = p.point(None)  # a constant point reads no input
        return lambda x, u, m: push(u, pt)
    if make is None:
        return None
    parts = []  # per parameter, (x, m) -> its checked value or column
    for param, v in zip(FAMILIES[p.name].params.values(), p.params):
        if not callable(v):
            parts.append(lambda x, m, v=param.rule(v): v)
            continue
        form = getattr(v, "columns", None)
        if form is None:
            return None
        parts.append(lambda x, m, form=form, ok=param.ok: _in_range(form(x, m), ok, m))
    return lambda x, u, m: push(u, make(*[part(x, m) for part in parts]))


@functools.lru_cache(maxsize=1)
def _draw_table(k: JointKernel) -> tuple:
    """_draws of each box of k, in box order, built by the first block that
    samples k and kept while spw runs it. A kernel is hashed by identity
    and held here, so no other kernel can take its place."""
    return tuple(_draws(b.primitive) for b in k.boxes)


def _sample_columns(k: JointKernel, z: Value, seeds: Iterable[int | bytes]) -> list:
    """kernels.sample_records' draws over one block of seeds, unscored, as
    columns: every slot's column, each box's draws in its slot.

    Each box's uniforms are drawn as a column with rng.unit_uniforms, so
    each row is the draw sample_records makes at its seed, and every step
    runs once over the block (see above). Raises where sample_records
    would raise at some seed of the block, and also where a column step
    cannot vouch for the scalar bits (_Anomaly); the input is checked
    first, then the output and the trace values over the whole block.
    """
    entries, dom_ok, cod_ok = k.pass_plan
    if not dom_ok(z):
        check_member(k.dom, z, "kernel input")
    seeds = list(map(rng.seed_key, seeds))
    m = len(seeds)
    draw = rng.unit_uniforms  # looked up per pass, as in sample_records
    keys, forms = iter(k.box_keys), iter(_draw_table(k))
    slots = [None] * k.n_slots
    slots[0] = _constant(z, m)
    unit = _constant(UNIT_VALUE, m)
    for s in k.steps:
        cls = type(s)
        if cls is Unpack:
            src, dsts = s
            for i, c in zip(dsts, _unnest_columns(slots[src], len(dsts), m)):
                slots[i] = c
            continue
        src, read = s.src, s.read
        # a reader of no slots returns UNIT_VALUE itself, not a column
        x = slots[src] if read is None else read(slots) if src else unit
        if cls is Apply:
            fn = s.fn
            slots[s.dst] = x if fn is _identity else _columns_of(fn, x, m)
            continue
        _, p, _, dst, _ = s
        u = np.array(draw(seeds, (next(keys),)), float)
        form = next(forms)
        if form is not None:
            c = form(x, u, m)
        else:
            push, point = p.push, p.point
            c = _column([push((v,), point(y)) for v, y in zip(u.tolist(), _rows(x, m))])
        slots[dst] = c
    if not _all_members(k.cod, cod_ok, slots[k.out], m):
        raise _Anomaly("kernel output")
    for run, box_id, _, dst, _, _, _, _, _, ok, p in entries:
        if run is None and not _all_members(p.cod, ok, slots[dst], m):
            raise _Anomaly(f"trace value for {box_id}")
    return slots


# ---------------------------------------------------------------------------
# spw's blocks

# cells of one block: its rows times the kernel's slots, so a block's
# columns stay small beside the n samples' floats
_BLOCK_CELLS = 1024


def _sample_blocks(wk: _weighted.WeightedJointKernel, fns: list, z: Value, seed: int,
                   n: int) -> list[array]:
    """w * float(h(x)) of each of the n seeded samples at z, one float array
    per test function h, so a sample costs 8 bytes per test function; block
    by block, each a column pass or, where that raises, weighted._sample_rows
    over the block's seeds (see weighted's module docstring)."""
    base = wk.base
    rows = max(64, _BLOCK_CELLS // base.n_slots)
    cols = [array("d") for _ in fns]
    # numpy's float warnings stay silent: Python's scalar floats give
    # inf and nan without a word, and every error is the row path's to raise
    with np.errstate(all="ignore"):
        for start in range(0, n, rows):
            seeds = rng.derived_seed_keys(seed, start, min(start + rows, n))
            m = len(seeds)
            try:
                slots = _sample_columns(base, z, seeds)
                w = _weight_column(wk, slots, m)
                x = slots[base.out]
                # every test function's floats before any is kept, so a
                # block that raises adds nothing
                block = [w * _floats(_columns_of(fn, x, m), m) for fn in fns]
            except Exception:
                _weighted._sample_rows(wk, fns, z, seeds, start, cols)
                continue
            for c, col in zip(block, cols):
                col.frombytes(c.tobytes())
    return cols


def _weight_column(wk: _weighted.WeightedJointKernel, slots: list, m: int) -> np.ndarray:
    """exp(log_weight) of each row of a block: the column of its weights.

    log_weight's loop over the factors, run on a block of slot columns:
    each factor runs on the columns of its slots at the rows that no
    earlier factor zeroed, through its column form if it has one, else row
    by row. A non-finite or negative value there raises, so the block falls
    back to the row path, which raises its error. The logs of the live rows
    add up in factor order from 0.0, and the loop stops once no row is
    live."""
    live, total = np.arange(m), np.zeros(m)
    for f in wk.weight_factors:
        k = len(live)
        if not k:
            break
        cols = tuple(_take(slots[i], live) for i in f.slots)
        form = getattr(f.fn, "columns", None)
        if form is None:
            w = np.fromiter((float(f.fn(*r)) for r in _rows(cols, k)), float, k)
        else:
            w = _floats(form(cols, k), k)
        if (~np.isfinite(w) | (w < 0.0)).any():
            raise _Anomaly("negative or non-finite weight factor")
        keep = w != 0.0
        live, total, w = live[keep], total[keep], w[keep]
        # math.log row by row: numpy's differs in the last bit
        total += np.fromiter(map(math.log, w.tolist()), float, len(live))
    weights = np.zeros(m)
    weights[live] = np.fromiter(map(math.exp, total.tolist()), float, len(live))
    return weights


def _mean_std(col: array) -> tuple[float, float]:
    """The mean of a float array and its standard deviation over n - 1, as
    numpy sums them."""
    c = np.frombuffer(col)
    return float(np.mean(c)), float(np.std(c, ddof=1))
