"""spw's column pass against its row path, one sample at a time.

spw_check draws its samples in blocks of columns and reruns a block's own
seeds through the row path (weighted._sample_rows) only when its column
pass raises. Here the blocks must give the row path's floats bit for bit
on generated weighted models (every family, det boxes of one to three
outputs, weights reading several wires, several test functions, global
inputs), at sample counts that are no multiple of a block, without
falling back; a block must refuse every sample the row path refuses, so
spw_check raises the row path's error, and no other, and draws no block
after the one that holds the first refused sample; a block that falls
back without an error gives the row path's bits and the next block is
columns again; an if whose branch fails only on rows the condition sends
elsewhere stays in the blocks, and so does a weight factor that fails only
on rows an earlier factor zeroed, which runs on no such row, and so do a
factor of no slots and a plain factor of the trace; and the model
fixtures never fall back. A box that do sets draws no column form of the
primitive it replaced, and spw leaves every primitive kernel as it was.
"""

import importlib
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jointkern.rng as rng
from jointkern import (
    DetMap, Finite, Real, WeightedJointKernel, WeightFactor, compile_det_map, from_primitive,
    model_from_dict, ShapeError, normal, parse_model, spw_check, weighted,
)
from jointkern.causal import intervene
from jointkern.cli import main
from jointkern.columns import _Anomaly
from jointkern.kernels import TracedBox

from support import audit_parts, count_calls, generated_model, outcome

weighted_module = importlib.import_module("jointkern.weighted")
columns_module = importlib.import_module("jointkern.columns")


def by_rows(wk, fns, z, seed, n):
    """The row path over all n seeds: each test function's float array."""
    cols = [array("d") for _ in fns]
    weighted_module._sample_rows(wk, fns, z, rng.derived_seed_keys(seed, 0, n), 0, cols)
    return cols

MODELS = Path(__file__).parent / "models"

@settings(derandomize=True, max_examples=14, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_blocks_match_the_loop_bit_for_bit(seed, count):
    raw, z, n_out = generated_model(seed)
    wk, hs, z = audit_parts(raw, z, n_out, count)
    fns = [h.fn for h in hs]
    for n in (1000, 1003, 5000):
        with pytest.MonkeyPatch.context() as mp:
            rows = count_calls(mp, weighted_module, "_sample_rows")
            got = columns_module._sample_blocks(wk, fns, z, seed, n)
        assert rows[0] == 0, (raw, n)
        want = by_rows(wk, fns, z, seed, n)
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want], (raw, n)


def _uniform_model(weights: dict, box: dict = None, p: float = 0.5) -> dict:
    return {
        "version": 1,
        "signature": {"wires": {"R": {"space": {"real": 1}}, "B": {"space": {"finite": 2}}},
                      "boxes": {"draw": {"dom": [], "cod": ["B"]},
                                "step": {"dom": ["B"], "cod": ["R"]}}},
        "diagram": {"wires": {"x": "B", "y": "R"}, "boxes": {"b1": "draw", "b2": "step"},
                    "dom": {"b1": [], "b2": ["x"]}, "cod": {"b1": ["x"], "b2": ["y"]},
                    "inputs": [], "outputs": ["y"]},
        "interpretation": {
            "draw": {"primitive": "bernoulli", "params": {"p": p}},
            "step": box or {"primitive": "uniform", "params": {"a": 0.0, "b": 1.0}}},
        "weights": weights,
    }


HUGE = {"primitive": "normal", "params": {"mu": 1.7e308, "sigma": 1e308}}

# weights that fail on some sample
ANOMALIES = {
    "negative": _uniform_model({"b2": "$1 - 0.5"}),
    "division_by_zero": _uniform_model({"b2": "1.0 / $0"}),
    "overflowing_normal": _uniform_model({"b2": "1.0"}, HUGE),
    "overflowing_exp": _uniform_model({"b2": "exp($1 * 800.0)"}),
    "overflowing_product": _uniform_model({"b1": "1e300", "b2": "1e300"}),
    # a wired parameter out of its range: a = b at x = 1, sigma 0 at x = 0
    "empty_uniform": _uniform_model(
        {"b2": "1.0"}, {"primitive": "uniform", "params": {"a": "$0 * 1.0", "b": 1.0}}),
    "zero_sigma": _uniform_model(
        {"b2": "1.0"}, {"primitive": "normal", "params": {"sigma": "$0 * 1.0"}}),
}


@pytest.mark.parametrize("name", sorted(ANOMALIES))
def test_a_refused_sample_raises_the_loop_error(name, monkeypatch):
    m = model_from_dict(ANOMALIES[name])
    wk = m.weighted_kernel()
    h = compile_det_map(["$0"], [Real(1)], [Real(1)])
    want = outcome(lambda: by_rows(wk, [h.fn], 0, 3, 1000))
    # the blocks refuse every such sample: the first block that raises
    # holds the first one, and its row path raises
    rows = count_calls(monkeypatch, weighted_module, "_sample_rows")
    got = outcome(lambda: spw_check(wk, [h], [1.0], n=1000, seed=3))
    assert rows[0] == 1
    assert isinstance(want, tuple) and got == want


# weights refused on about one sample in a thousand; at seed 4 the first
# refused sample is 404, past the first block
LATE = {
    "overflowing_product": (_uniform_model(
        {"b1": "1e300", "b2": "if $1 < 0.999 then 1.0 else 1e300"}),
        r"^non-finite weight exp\(1381\.\d+\) at sample 404$"),
    "negative": (_uniform_model({"b2": "if $1 < 0.999 then 1.0 else neg(1.0)"}),
                 r"^negative weight factor -1\.0$"),
}


@pytest.mark.parametrize("name", sorted(LATE))
def test_a_late_refused_sample_falls_back_in_its_own_block(name, monkeypatch):
    raw, message = LATE[name]
    wk = model_from_dict(raw).weighted_kernel()
    h = compile_det_map(["$0"], [Real(1)], [Real(1)])
    blocks, fell_back, drawn = [], [], set()
    columns, rows, draw = (columns_module._sample_columns, weighted_module._sample_rows,
                           rng.unit_uniforms)

    def sample_rows(wk, fns, z, seeds, start, cols):
        fell_back.append((start, seeds))
        return rows(wk, fns, z, seeds, start, cols)

    monkeypatch.setattr(columns_module, "_sample_columns",
                        lambda k, z, seeds: columns(k, z, blocks.append(seeds) or seeds))
    monkeypatch.setattr(weighted_module, "_sample_rows", sample_rows)
    monkeypatch.setattr(rng, "unit_uniforms",
                        lambda seeds, keys: draw(drawn.update(seeds) or seeds, keys))
    with pytest.raises(ShapeError, match=message):
        spw_check(wk, [h], [1.0], n=2000, seed=4)
    # the blocks run in order from sample 0; the last one drawn holds
    # sample 404, the first does not, and only the last falls back
    keys = rng.derived_seed_keys(4, 0, 2000)
    start = sum(map(len, blocks[:-1]))
    assert sum(blocks, []) == keys[:start + len(blocks[-1])] != keys
    assert start > 0 and keys[404] in blocks[-1]
    assert fell_back == [(start, blocks[-1])]
    # no block after it is drawn, by the columns or by the row path
    assert drawn == set(sum(blocks, []))


# weights with a branch that fails on the rows its if does not send to it
# or a factor that fails on the rows an earlier factor zeroes
UNTAKEN = {
    "division": _uniform_model({"b2": "if $0 < 1 then 2.0 else 1.0 / $0"}),
    "ln": _uniform_model({"b2": "if $0 < 1 then 1.0 else ln($0 * 1.0)"}),
    # an int branch beside a float one: the merged column is the rows' values
    "mixed": _uniform_model({"b2": "if $0 < 1 then 2 else 1.0 / $0"}),
    "nested": _uniform_model({"b2": "if 1 < $0 then ln(0.0) else if $0 < 1 then 3.0 else 1.0 / $0"}),
    # a factor that fails only on the rows the factor before it zeroes,
    # which log_weight never runs it on
    "zeroed_division": _uniform_model({"b1": "$0 * 1.0", "b2": "1.0 / $0"}),
    "zeroed_ln": _uniform_model({"b1": "$0 * 1.0", "b2": "ln($0)"}),
    # x = 1 weighs ln 3, where ln($0) zeroes it too
    "zeroed_ln_scaled": _uniform_model({"b1": "$0 * 1.0", "b2": "ln($0 * 3.0)"}),
    # a wired uniform bound that stays below b on every row
    "wired_uniform": _uniform_model(
        {"b2": "1.0"}, {"primitive": "uniform", "params": {"a": "$0 * 0.5", "b": 1.0}}),
}


@pytest.mark.parametrize("name", sorted(UNTAKEN))
def test_an_untaken_failing_branch_keeps_the_blocks(name, monkeypatch):
    wk = model_from_dict(UNTAKEN[name]).weighted_kernel()
    h = compile_det_map(["$0"], [Real(1)], [Real(1)])
    want = by_rows(wk, [h.fn], 0, 3, 1000)
    rows = count_calls(monkeypatch, weighted_module, "_sample_rows")
    got = columns_module._sample_blocks(wk, [h.fn], 0, 3, 1000)
    assert got[0].tobytes() == want[0].tobytes()
    spw_check(wk, [h], [1.0], n=1000, seed=3)
    assert rows[0] == 0


def test_a_factor_after_one_that_zeroes_every_row_never_runs(monkeypatch):
    wk = model_from_dict(_uniform_model({"b1": "$0 * 1.0", "b2": "1.0 / $0"}, p=0.0)
                         ).weighted_kernel()
    first, second = wk.weight_factors
    calls = []

    def fn(*args):
        calls.append(1)
        return second.fn(*args)

    fn.columns = lambda cols, m: calls.append(m) or second.fn.columns(cols, m)
    wk = WeightedJointKernel(wk.base, (first, WeightFactor(fn, second.slots)))
    h = compile_det_map(["$0"], [Real(1)], [Real(1)])
    want = by_rows(wk, [h.fn], 0, 3, 1003)
    rows = count_calls(monkeypatch, weighted_module, "_sample_rows")
    got = columns_module._sample_blocks(wk, [h.fn], 0, 3, 1003)
    assert rows[0] == 0 and calls == []
    assert got[0].tobytes() == want[0].tobytes() == bytes(8 * 1003)


def test_a_plain_factor_after_a_column_form_runs_on_the_live_rows(monkeypatch):
    # the plain factor divides by the coin, which the first factor zeroes
    wk = model_from_dict(_uniform_model({"b1": "$0 * 1.0"})).weighted_kernel()
    wk = weighted(wk.base, [*wk.weight_factors, lambda t, z: 1.0 / t["b1"] + t["b2"]])
    h = compile_det_map(["$0"], [Real(1)], [Real(1)])
    want = by_rows(wk, [h.fn], 0, 8, 1003)
    rows = count_calls(monkeypatch, weighted_module, "_sample_rows")
    got = columns_module._sample_blocks(wk, [h.fn], 0, 8, 1003)
    assert rows[0] == 0
    assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("factor", [WeightFactor(lambda: 2.5, ()),
                                    lambda t, z: 1.0 + t["b1"] * t["b2"]],
                         ids=["no_slots", "plain"])
def test_a_factor_of_no_slots_or_of_the_trace_stays_in_the_blocks(factor, monkeypatch):
    wk = model_from_dict(_uniform_model({"b2": "$1 + 0.5"})).weighted_kernel()
    wk = weighted(wk.base, [*wk.weight_factors, factor])
    h = compile_det_map(["$0"], [Real(1)], [Real(1)])
    want = by_rows(wk, [h.fn], 0, 8, 1003)
    rows = count_calls(monkeypatch, weighted_module, "_sample_rows")
    got = columns_module._sample_blocks(wk, [h.fn], 0, 8, 1003)
    assert rows[0] == 0
    assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("fixture,extra", [
    ("weighted", []), ("uniform2x", ["--ref", "2.5", "--ref", "5"]), ("inputs", ["--input", "1"])])
def test_fixtures_never_fall_back(fixture, extra, monkeypatch, capsys):
    rows = count_calls(monkeypatch, weighted_module, "_sample_rows")
    for n in ("1000", "2500"):
        code = main(["spw", str(MODELS / f"{fixture}.json"), "--n", n, "--seed", "5",
                     "--h", "$0", "--h", "$0 * $0 + 1.0", *extra])
        assert code in (0, 1)
    assert rows[0] == 0


def test_library_kernels_run_row_by_row_in_blocks(monkeypatch):
    # a primitive built from a plain callable and an opaque weight factor:
    # no column forms, yet no fallback, and the row path's floats
    base = from_primitive(normal(lambda z: 0.5 * z, 1.0, dom=Finite(2)), "g")
    wk = weighted(base, [lambda t, z: 1.0 + abs(t["g"])])
    h = DetMap(Real(1), Real(1), lambda x: x * x, "sq")
    want = by_rows(wk, [h.fn], 1, 9, 1003)
    rows = count_calls(monkeypatch, weighted_module, "_sample_rows")
    got = columns_module._sample_blocks(wk, [h.fn], 1, 9, 1003)
    assert rows[0] == 0
    assert got[0].tobytes() == want[0].tobytes()


def test_a_block_that_falls_back_without_an_error_gives_the_row_bits(monkeypatch):
    # a test function whose column form refuses the second block it sees
    wk = parse_model(str(MODELS / "weighted.json")).weighted_kernel()
    seen = []

    def sq(x):
        return x * x + 0.5

    def sq_columns(c, m):
        seen.append(m)
        if len(seen) == 2:
            raise _Anomaly("refused for the test")
        return c * c + 0.5

    sq.columns = sq_columns
    want = by_rows(wk, [sq], 0, 6, 1000)
    blocks = count_calls(monkeypatch, columns_module, "_sample_columns")
    rows = count_calls(monkeypatch, weighted_module, "_sample_rows")
    got = columns_module._sample_blocks(wk, [sq], 0, 6, 1000)
    assert got[0].tobytes() == want[0].tobytes()
    # every block ran as columns, the one after the refused one too
    assert rows[0] == 1 and blocks[0] == len(seen) > 2


# a point of each wire type that a box's output may be set to
DO_VALUES = {"B": 1, "K": 2, "N": 3, "R": 0.5}


@pytest.mark.parametrize("seed", [0, 1, 5, 10])
def test_a_box_set_by_do_draws_no_form_of_the_box_it_replaced(seed, monkeypatch):
    raw, z, _ = generated_model(seed)
    z = 0 if z is None else z
    m = model_from_dict(raw)
    # the first primitive box whose parameters read its input
    b = next(b for b, e in raw["interpretation"].items()
             if "primitive" in e and "$" in str(e.get("params")))
    original = m.interpretation.box_kernels[b].steps[0].primitive
    value = DO_VALUES[raw["signature"]["boxes"][b]["cod"][0]]
    wk = m.weighted_kernel(intervene(m.diagram, m.interpretation, {b: value}))
    spaces = [m.interpretation.wire_spaces[m.diagram.wire_label[w]] for w in m.diagram.outputs]
    fns = [compile_det_map(["$0"], spaces, [Real(1)]).fn]
    built, draws = [], columns_module._draws
    monkeypatch.setattr(columns_module, "_draws", lambda p: built.append(p) or draws(p))
    rows = count_calls(monkeypatch, weighted_module, "_sample_rows")
    got = columns_module._sample_blocks(wk, fns, z, seed, 1003)
    assert rows[0] == 0
    assert [c.tobytes() for c in got] == [c.tobytes() for c in by_rows(wk, fns, z, seed, 1003)]
    # the forms are built from the intervened kernel's own boxes, once each
    assert b not in wk.base.box_ids
    assert [id(p) for p in built] == [id(s.primitive) for s in wk.base.boxes]
    assert all(p is not original for p in built)


@pytest.mark.parametrize("seed", [0, 5, 10])
def test_spw_leaves_every_primitive_kernel_as_it_was(seed):
    raw, z, n_out = generated_model(seed)
    m = model_from_dict(raw)
    kernels = [k.steps[0].primitive for k in m.interpretation.box_kernels.values()
               if type(k.steps[0]) is TracedBox]
    assert kernels
    before = [dict(vars(p)) for p in kernels]
    _, hs, z = audit_parts(raw, z, n_out, 2)
    spw_check(m.weighted_kernel(), hs, [1.0] * len(hs), n=1000, seed=seed, z=z)
    assert [dict(vars(p)) for p in kernels] == before
