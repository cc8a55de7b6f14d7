"""logpdf, abduct and cf over blocks of records, as columns, against their row passes.

kernels.logpdf_block, abduct_block and replay_block run a block of given
traces or uniforms on the block interpreter that sample_block runs on, and
fall back to joint_log_density, abduct_uniforms and replay_with_uniforms
when a law raises or a check fails. Here each must equal its row pass bit
for bit (-inf included) on every model fixture and on generated models, at
block sizes on either side of the CLI's crossover; the fixtures must never
fall back, through the library or the CLI; and a block that fails somewhere
must raise the row pass's error, class and message, at the same record.
cli's u block writer and cf's unscored block writer must write each record
as the record writers do, for every float pattern and for box ids that
JSON or % formatting treat specially.
"""

import importlib
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jointkern.cli as cli
from jointkern import (
    NEG_INF, UNIT_VALUE, Countable, Finite, PrimitiveKernel, Product, Real, ShapeError,
    abduct_block, abduct_uniforms, compose, evaluate, from_primitive, joint_log_density,
    logpdf_block, model_from_dict, poisson, replay_block, replay_with_uniforms, rng,
    sample_block, tensor, uniform, DetMap, lift_det,
)
from jointkern.cli import (
    _block_encoder, _decode_input, _record_encoder, _uniforms_block_encoder,
    _uniforms_encoder, main,
)

from support import count_calls, generated_model, outcome
from test_sample_block import FIXTURES, HALF, SIZES, SPECIAL, bits, floats

kernels = importlib.import_module("jointkern.kernels")

CHAIN, NORMAL = FIXTURES["chain"], FIXTURES["normal"]


def rows(row, k, z, records):
    """The row pass over the records, as the block functions' columns."""
    out = [row(k, z, r) for r in records]
    if row is joint_log_density:
        return out
    if row is abduct_uniforms:
        return {b: [u[b] for u in out] for b in k.box_ids}
    return {b: [t[b] for t, _ in out] for b in k.box_ids}, [x for _, x in out]


def records_of(columns: dict, n: int) -> list:
    """Columns keyed by box id -> the n records, one dict each."""
    return [{b: c[i] for b, c in columns.items()} for i in range(n)]


def sampled(k, z, seed, n):
    """n sampled traces and the uniform records that abduct_uniforms makes
    of them, as lists of records; None where a record has no abduction."""
    traces = records_of(sample_block(k, z, rng.derived_seed_keys(seed, 0, n))[0], n)
    us = outcome(lambda: [{b: list(v) for b, v in abduct_uniforms(k, z, t).items()}
                          for t in traces])
    return traces, us if isinstance(us, list) else None


PASSES = ((logpdf_block, joint_log_density), (abduct_block, abduct_uniforms),
          (replay_block, replay_with_uniforms))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_match_the_rows_bit_for_bit(name):
    k, z = FIXTURES[name]
    for n in SIZES:
        traces, us = sampled(k, z, 11, n)
        for block, row in PASSES:
            records = us if block is replay_block else traces
            want = bits(rows(row, k, z, records))
            with pytest.MonkeyPatch.context() as mp:
                calls = count_calls(mp, kernels, row.__name__)
                got = bits(block(k, z, records))
            assert calls[0] == 0, (name, n, block.__name__)
            assert got == want, (name, n, block.__name__)


def test_a_logpdf_block_is_the_sampled_logpdfs():
    for name in ("chain", "normal", "weighted", "chain160_1"):
        k, z = FIXTURES[name]
        traces, _, lds = sample_block(k, z, rng.derived_seed_keys(5, 0, 300))
        assert bits(logpdf_block(k, z, records_of(traces, 300))) == bits(lds), name


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_generated_models_match_the_rows_bit_for_bit(seed):
    raw, z, _ = generated_model(seed)
    m = model_from_dict(raw)
    k = evaluate(m.diagram, m.interpretation)
    z = z if z is not None else _decode_input(m, None)
    for n in SIZES:
        made = outcome(lambda: sampled(k, z, seed, n))
        if not isinstance(made, tuple):
            continue  # a draw the model refuses: test_sample_block's case
        traces, us = made
        for block, row in PASSES:
            records = us if block is replay_block else traces
            if records is None:
                continue
            got = outcome(lambda: block(k, z, records))
            assert bits(got) == bits(outcome(lambda: rows(row, k, z, records))), (raw, n)


# ---------------------------------------------------------------------------
# blocks that fail somewhere


def _edited(records, edits):
    out = [dict(r) for r in records]
    for i, edit in edits.items():
        edit(out[i])
    return out


def _failing_traces():
    k, z = CHAIN
    traces, _ = sampled(k, z, 2, 1024)
    return k, z, traces


def test_a_value_off_its_space_raises_the_first_bad_records_error():
    k, z, traces = _failing_traces()
    # record 500 is the first bad one, so its value is the one named
    bad = _edited(traces, {700: lambda t: t.update(b1=3), 500: lambda t: t.update(b2=2)})
    for block, row in PASSES[:2]:
        got = outcome(lambda: block(k, z, bad))
        assert got == outcome(lambda: rows(row, k, z, bad))
        assert got[0] is ShapeError and "value 2 " in got[1] or "b2 2 " in got[1], got


def test_missing_and_unknown_boxes_raise_each_commands_message():
    k, z, traces = _failing_traces()
    for i, edit in ((300, lambda t: t.pop("b2")), (300, lambda t: t.update(zz=0)),
                    (300, lambda t: t.update(zz=t.pop("b1")))):
        bad = _edited(traces, {i: edit})
        for block, row in PASSES[:2]:
            got = outcome(lambda: block(k, z, bad))
            assert got == outcome(lambda: rows(row, k, z, bad))
            assert got[0] is ShapeError and ("missing" in got[1] or "unknown" in got[1]), got


def _picky(v):
    if v < 0.5:
        raise ShapeError(f"picky reads {v}")
    return v


# HALF scores -inf below 0.5; then PICKY's parameter raises on those records,
# which joint_log_density never reaches
PICKY = PrimitiveKernel("picky", Real(1), Real(1), lambda pt, m: -1.0, lambda u, pt: pt,
                        lambda pt, m: (0.5,), point=_picky)


def test_an_inf_factor_before_a_parameter_that_raises_scores_inf():
    k = compose(from_primitive(HALF, "h"), from_primitive(PICKY, "p"))
    traces = [{"h": x, "p": 0.25} for x in (0.75, 0.25, 0.9, 0.1, 0.5, 0.3, 0.6, 0.2)]
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, kernels, "joint_log_density")
        got = logpdf_block(k, UNIT_VALUE, traces)
    assert calls[0] == len(traces)  # the block fell back
    assert bits(got) == bits(rows(joint_log_density, k, UNIT_VALUE, traces))
    assert got.count(NEG_INF) == 4 and got[0] == 0.25 - 1.0


def test_a_box_with_no_abduct_law_raises_the_rows_error():
    # a box with an abduct law runs first
    k = tensor(from_primitive(uniform(0.0, 1.0), "u"), from_primitive(HALF, "h"))
    z = (UNIT_VALUE, UNIT_VALUE)
    traces = [{"u": 0.75, "h": 0.75}] * 8
    got = outcome(lambda: abduct_block(k, z, traces))
    assert got == outcome(lambda: rows(abduct_uniforms, k, z, traces))
    assert got == (ShapeError, "primitive 'half' of box 'h' has no abduct")


def test_a_far_tail_poisson_abduct_raises_the_rows_error():
    k = from_primitive(poisson(3.0), "c")
    traces = [{"c": c} for c in (0, 3, 5, 2, 28, 1, 40, 4)]
    got = outcome(lambda: abduct_block(k, UNIT_VALUE, traces))
    assert got == outcome(lambda: rows(abduct_uniforms, k, UNIT_VALUE, traces))
    assert got == (ShapeError, "observed point has zero probability under its parameter")
    # its log-density is finite, and the logpdf block scores it
    assert bits(logpdf_block(k, UNIT_VALUE, traces)) == bits(
        rows(joint_log_density, k, UNIT_VALUE, traces))


BAD_BLOCKS = {
    "two uniforms": lambda u: u.update(b1=[0.5, 0.5]),
    "no uniform": lambda u: u.update(b1=[]),
    "above one": lambda u: u.update(b2=[1.5]),
    "below zero": lambda u: u.update(b1=[-0.25]),
    "nan": lambda u: u.update(b1=[math.nan]),
    "400 digits": lambda u: u.update(b2=[10 ** 400]),
    "missing block": lambda u: u.pop("b1"),
    "unknown block": lambda u: u.update(zz=[0.5]),
}


@pytest.mark.parametrize("case", list(BAD_BLOCKS))
def test_bad_uniforms_raise_the_rows_error(case):
    k, z = CHAIN
    _, us = sampled(k, z, 4, 1024)
    # alone, and before another bad record, whose error must not win
    for edits in ({600: BAD_BLOCKS[case]},
                  {600: BAD_BLOCKS[case], 900: lambda u: u.update(b2=[2.0])}):
        bad = _edited(us, edits)
        got = outcome(lambda: replay_block(k, z, bad))
        assert got == outcome(lambda: rows(replay_with_uniforms, k, z, bad))
        assert got[0] is ShapeError and "2.0" not in got[1], got


def test_an_output_off_its_space_raises_the_rows_error():
    # the output is 5, no point of Finite(2), where the uniform is past 0.7
    k = compose(from_primitive(uniform(0.0, 1.0), "u"), lift_det(DetMap(
        Real(1), Finite(2), lambda v: 5 if v > 0.7 else 0)))
    us = [{"u": [x]} for x in (0.1, 0.5, 0.2, 0.3, 0.9, 0.4, 0.6, 0.05)]
    got = outcome(lambda: replay_block(k, UNIT_VALUE, us))
    assert got == outcome(lambda: rows(replay_with_uniforms, k, UNIT_VALUE, us))
    assert got[0] is ShapeError and "kernel output" in got[1], got
    assert bits(replay_block(k, UNIT_VALUE, us[:4])) == bits(
        rows(replay_with_uniforms, k, UNIT_VALUE, us[:4]))


def test_a_bad_input_raises_what_the_rows_raise():
    k, z = FIXTURES["inputs"]
    traces, us = sampled(k, z, 4, 8)
    for block, row in PASSES:
        records = us if block is replay_block else traces
        for n in (0, 8):
            got = outcome(lambda: block(k, 5, records[:n]))
            assert got == outcome(lambda: rows(row, k, 5, records[:n])), (block.__name__, n)


# ---------------------------------------------------------------------------
# the CLI takes the column path on the fixtures


@pytest.mark.parametrize("command", ["logpdf", "abduct", "cf"])
def test_the_commands_run_full_blocks_as_columns(command, tmp_path, capsys, monkeypatch):
    path = str(Path(__file__).parent / "models" / "chain.json")
    trace, u = tmp_path / "t.jsonl", tmp_path / "u.jsonl"
    assert main(["sample", path, "--n", "2055", "--seed", "8", "--out", str(trace)]) == 0
    assert main(["abduct", path, "--trace", str(trace), "--out", str(u)]) == 0
    capsys.readouterr()
    block, row = {"logpdf": ("logpdf_block", "joint_log_density"),
                  "abduct": ("abduct_block", "abduct_uniforms"),
                  "cf": ("replay_block", "replay_with_uniforms")}[command]
    sizes, run_block = [], getattr(cli, block)
    monkeypatch.setattr(cli, block, lambda k, z, rs: sizes.append(len(rs)) or run_block(k, z, rs))
    row_calls = count_calls(monkeypatch, cli, row)
    fallback = count_calls(monkeypatch, kernels, row)
    flag = ["--u", str(u)] if command == "cf" else ["--trace", str(trace)]
    assert main([command, path, *flag]) == 0
    out = capsys.readouterr().out
    # two full blocks and one of 7, under the column pass's 8
    assert sizes == [1024, 1024] and row_calls[0] == 7 and fallback[0] == 0
    assert out.count("\n") == 2055


def test_a_record_that_fails_to_decode_ends_its_block(tmp_path, capsys):
    # record 1500 names a box the model lacks: logpdf and cf write the 1499
    # records before it, abduct its first block of 1024, and then each
    # raises that record's error
    path = str(Path(__file__).parent / "models" / "chain.json")
    trace, u = tmp_path / "t.jsonl", tmp_path / "u.jsonl"
    assert main(["sample", path, "--n", "2000", "--seed", "6", "--out", str(trace)]) == 0
    assert main(["abduct", path, "--trace", str(trace), "--out", str(u)]) == 0
    outs = {}
    for command, flag, f in (("logpdf", "--trace", trace), ("abduct", "--trace", trace),
                             ("cf", "--u", u)):
        assert main([command, path, flag, str(f)]) == 0
        outs[command] = capsys.readouterr().out.splitlines(keepends=True)
    lines = trace.read_text().splitlines(keepends=True)
    lines[1499] = '{"trace": {"b1": 1, "zz": 0}}\n'
    trace.write_text("".join(lines))
    lines = u.read_text().splitlines(keepends=True)
    lines[1499] = '{"b1": [0.5], "b2": "x"}\n'
    u.write_text("".join(lines))
    for command, flag, f, n, err in (
            ("logpdf", "--trace", trace, 1499, "trace has unknown boxes ['zz']"),
            ("abduct", "--trace", trace, 1024, "trace has unknown boxes ['zz']"),
            ("cf", "--u", u, 1499, "u for 'b2' must be a list of floats")):
        code = main([command, path, flag, str(f)])
        out, stderr = capsys.readouterr()
        assert (code, out, stderr) == (
            3 if command == "cf" else 4, "".join(outs[command][:n]), f"error: {err}\n"), command


# ---------------------------------------------------------------------------
# the block writers

SPACES = {"a%b": Real(1), 'q"x': Finite(3), "back\\slash": Countable(), "ü中": Real(1),
          "%d%%s": Product(Real(1), Finite(2)), "r2": Real(2)}
u_blocks = st.one_of(floats.map(lambda x: (x,)), st.sampled_from([0.0, 1.0, 5e-324]).map(
    lambda x: (x,)), st.lists(floats, max_size=3).map(tuple))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(u_blocks, floats, u_blocks), max_size=12))
def test_u_block_text_is_the_records_text(rows_):
    ids = ["a%b", 'q"x', "back\\slash", "ü中", "%d%%s", "plain"]
    # each row's blocks, box by box: the generated ones, and one float
    blocks = [(r[0], (r[1],), r[2], r[2], (r[1],), r[0]) for r in rows_]
    us = {b: [row[i] for row in blocks] for i, b in enumerate(ids)}
    encode = _uniforms_encoder(ids)
    want = outcome(lambda: "".join(encode({b: c[i] for b, c in us.items()}) + "\n"
                                   for i in range(len(rows_))))
    assert outcome(lambda: _uniforms_block_encoder(ids)(us, len(rows_))) == want


def test_each_special_uniform_renders_alone():
    for x in SPECIAL + [0.5, 1.0 - 2 ** -53]:
        us = {"g%": [(x,)]}
        assert _uniforms_block_encoder(["g%"])(us, 1) == _uniforms_encoder(["g%"])(
            {"g%": (x,)}) + "\n", x
    assert _uniforms_block_encoder([])({}, 3) == "{}\n" * 3
    got = outcome(lambda: _uniforms_block_encoder(["g"])({"g": [(0.5,), (math.nan,)]}, 2))
    assert got == (ShapeError, "cannot serialize NaN")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(floats, floats, floats, st.integers(0, 2), st.integers(-2 ** 70, 2 ** 70)),
                max_size=12))
def test_cf_block_text_is_the_records_text(rows_):
    traces = {"a%b": [r[0] for r in rows_], 'q"x': [r[3] for r in rows_],
              "back\\slash": [r[4] for r in rows_], "ü中": [r[1] for r in rows_],
              "%d%%s": [(r[2], r[3] % 2) for r in rows_], "r2": [(r[0], r[2]) for r in rows_]}
    for cod, outs in ((Real(1), [r[1] for r in rows_]), (Finite(3), traces['q"x']),
                      (Product(Real(1), Finite(2)), traces["%d%%s"])):
        encode = _record_encoder(SPACES, cod, scored=False)
        want = outcome(lambda: "".join(encode({b: c[i] for b, c in traces.items()}, x) + "\n"
                                       for i, x in enumerate(outs)))
        assert outcome(lambda: _block_encoder(SPACES, cod, scored=False)(traces, outs)) == want

