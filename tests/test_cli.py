import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import jointkern.kernels as kernels_module
import jointkern.model as model_module
import jointkern.primitives as primitives
import jointkern.spaces as spaces
from jointkern.cli import _decode_input, _read_jsonl, _trace_decoder, main
from jointkern.errors import ModelSyntaxError
from jointkern.kernels import joint_log_density, sample_with_trace
from jointkern.model import model_from_dict, parse_model
from jointkern.spaces import UNIT_VALUE

from support import count_draws, genmodels

MODELS = Path(__file__).parent / "models"
CHAIN = str(MODELS / "chain.json")
WEIGHTED = str(MODELS / "weighted.json")
INPUTS = str(MODELS / "inputs.json")
NORMAL = str(MODELS / "normal.json")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_and_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2 and out.startswith("usage: jointkern")
    code, out, _ = run(capsys, "-h")
    assert code == 0 and "export-dot" in out
    code, _, err = run(capsys, "frobnicate", CHAIN)
    assert code == 2 and "unknown command" in err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", CHAIN)
    assert (code, out) == (0, "OK\n")


def _with_param(tmp_path, name: str, p: str) -> str:
    """chain.json with step's p set to the expression p."""
    raw = json.loads(Path(CHAIN).read_text())
    raw["interpretation"]["step"]["params"]["p"] = p
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_exit_codes(capsys, tmp_path):
    cases = [
        (str(MODELS / "syntax_error.json"), 3),
        # '²' passes isdigit() but is no decimal digit
        (str(MODELS / "digit_error.json"), 3),
        # past the interpreter's limit on the digits of an int
        (_with_param(tmp_path, "long_int", "0.5 + 0 * " + "1" * 5000), 3),
        # a real literal past the float range
        (_with_param(tmp_path, "big_real", "if 1e400 < 0 then 0.2 else 0.7"), 3),
        # nesting past the parser's bound, long or deep
        (_with_param(tmp_path, "long_sum", "0.1" + " + 0" * 1200), 3),
        (_with_param(tmp_path, "deep_parens", "(" * 200 + "0.5" + ")" * 200), 3),
        (str(MODELS / "cyclic_bad.json"), 5),
        (str(MODELS / "type_error.json"), 4),
        (str(MODELS / "no_such_file.json"), 2),
        (str(MODELS / "unproduced_input.json"), 5),
        (str(MODELS / "unproduced_output.json"), 5),
    ]
    for path, want in cases:
        code, _, err = run(capsys, "validate", path)
        assert code == want, path
        if "unproduced" in path:
            assert "is never produced" in err, err
    # an integer too large for a float checks, then fails on the first record
    big_int = _with_param(tmp_path, "big_int", "0.5 * " + "1" * 400)
    assert run(capsys, "validate", big_int)[0] == 0
    code, out, err = run(capsys, "sample", big_int, "--n", "1")
    assert (code, out, err) == (4, "", "error: integer too large for a float in '*'\n")
    code, out, err = run(capsys, "sample", _with_param(tmp_path, "big_p", "1" * 400), "--n", "1")
    assert (code, out) == (4, "")
    assert err == "error: bernoulli p must be finite, got an integer too large for a float\n"


def _trace_file(tmp_path, g: str) -> str:
    """A trace file of one record whose box g holds the JSON text g."""
    path = tmp_path / "t.jsonl"
    path.write_text('{"trace": {"g": %s}}\n' % g)
    return str(path)


def test_json_integer_past_the_float_range(capsys, tmp_path):
    # at every site that decodes a real, an integer no float holds is a
    # value outside its space
    big = "1" * 400
    trace = _trace_file(tmp_path, big)
    too_big = "error: expected a number for Real(dim=%d), got an integer too large for a float\n"
    for args, err in [
        (("logpdf", NORMAL, "--trace", trace), too_big % 1),
        (("abduct", NORMAL, "--trace", trace), too_big % 1),
        (("sample", str(MODELS / "real2_input.json"), "--input", f"[0.5, {big}]"), too_big % 2),
        (("do", NORMAL, "--set", f"g={big}", "sample"), too_big % 1),
        (("cover", NORMAL, "--point", big), too_big % 1),
    ]:
        assert run(capsys, *args) == (4, "", err), args[0]


def test_json_nested_past_the_decoder_depth(capsys, tmp_path):
    # at every site that reads JSON, nesting past the json decoder's
    # recursion limit exits as that site's malformed input does
    deep = "[" * 5000 + "]" * 5000
    trace = _trace_file(tmp_path, deep)
    deep_model = tmp_path / "deep.json"
    deep_model.write_text(deep)
    real2 = str(MODELS / "real2_input.json")
    for args, want in [
        (("logpdf", NORMAL, "--trace", trace), 3),
        (("abduct", NORMAL, "--trace", trace), 3),
        (("sample", real2, "--input", deep), 3),
        (("validate", str(deep_model)), 3),
        (("do", NORMAL, "--set", f"g={deep}", "sample"), 4),
        (("cover", NORMAL, "--point", deep), 4),
    ]:
        code, out, err = run(capsys, *args)
        assert (code, out) == (want, ""), args[0]
        assert err.startswith("error: ") and "recursion depth" in err, args[0]


def test_json_integer_past_the_digit_limit(capsys, tmp_path):
    # json.loads raises ValueError, not JSONDecodeError, on an integer of
    # more than 4300 digits; every site exits as its malformed input does
    huge = "1" * 5000
    raw = json.loads(Path(NORMAL).read_text())
    raw["interpretation"]["noise"]["params"]["mu"] = 0
    huge_model = tmp_path / "huge.json"
    huge_model.write_text(json.dumps(raw).replace('"mu": 0', f'"mu": {huge}'))
    for args, want in [
        (("logpdf", NORMAL, "--trace", _trace_file(tmp_path, huge)), 3),
        (("sample", INPUTS, "--input", huge), 3),
        (("validate", str(huge_model)), 3),
        (("do", NORMAL, "--set", f"g={huge}", "sample"), 4),
        (("cover", NORMAL, "--point", huge), 4),
    ]:
        code, out, err = run(capsys, *args)
        assert (code, out) == (want, ""), args[0]
        assert err.startswith("error: ") and "4300 digits" in err, args[0]


def test_cycle_violations_are_listed(capsys):
    code, _, err = run(capsys, "validate", str(MODELS / "cyclic_bad.json"))
    assert code == 5
    assert "error:" in err and "cycle" in err


def _one_poisson(tmp_path) -> str:
    """A model file of one box c ~ poisson(3.0) whose wire is the output."""
    raw = {
        "version": 1,
        "signature": {"wires": {"N": {"space": "countable"}},
                      "boxes": {"count": {"dom": [], "cod": ["N"]}}},
        "diagram": {"wires": {"w": "N"}, "boxes": {"c": "count"}, "dom": {"c": []},
                    "cod": {"c": ["w"]}, "inputs": [], "outputs": ["w"]},
        "interpretation": {"count": {"primitive": "poisson", "params": {"rate": 3.0}}},
    }
    path = tmp_path / "poisson.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_refused_records_and_flags(capsys, tmp_path):
    def lines(name: str, text: str) -> str:
        path = tmp_path / f"{name}.jsonl"
        path.write_text(text + "\n")
        return str(path)

    huge = "1" * 400  # past the float range: replay's OverflowError branch
    for args, want, first in [
        (("logpdf", CHAIN, "--trace", lines("t", '{"trace": 5}')), 3,
         "error: trace must be an object"),
        (("cf", CHAIN, "--u", lines("u", "[1]")), 3,
         "error: u records must be objects box -> [floats]"),
        (("do", CHAIN, "--set"), 2, "error: --set needs box=value"),
        (("cf", CHAIN, "--u", lines("big", '{"b1": [%s], "b2": [0.5]}' % huge)), 4,
         "error: uniform outside [0, 1] for box b1"),
        (("abduct", _one_poisson(tmp_path), "--trace", lines("c", '{"trace": {"c": -1}}')), 4,
         "error: -1 outside the support of poisson"),
    ]:
        code, out, err = run(capsys, *args)
        assert (code, out, err.splitlines()[0]) == (want, "", first), args


def test_sample_deterministic(capsys):
    code, out1, _ = run(capsys, "sample", CHAIN, "--n", "5", "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "sample", CHAIN, "--n", "5", "--seed", "7")
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert len(lines) == 5
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"trace", "output", "logpdf"}
        assert set(rec["trace"]) == {"b1", "b2"}
        assert rec["output"] == rec["trace"]["b2"]
    # different seeds give different records eventually
    code, out3, _ = run(capsys, "sample", CHAIN, "--n", "5", "--seed", "8")
    assert out3 != out1


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_sample_logpdf_is_joint_log_density_bit_for_bit(capsys, tmp_path):
    gen = genmodels()
    models = [(str(MODELS / f"{name}.json"), extra) for name, extra in (
        ("chain", ()), ("inputs", ("--input", "1")), ("normal", ()), ("sure", ()),
        ("uniform2x", ()), ("weighted", ()), ("real2_input", ("--input", "[0.5, 1.5]")))]
    models += [(gen.write_model(gen.chain_model(160, s)[0], str(tmp_path), f"chain{s}"), ())
               for s in (1, 2)]
    models += [(gen.write_model(gen.layered_dag(s, i)[0], str(tmp_path), f"dag{s}_{i}"), ())
               for s in (1, 2, 3) for i in range(8)]
    for path, extra in models:
        model = parse_model(path)
        k = model.kernel
        decode = _trace_decoder(k)
        z = _decode_input(model, extra[1] if extra else None)
        for seed in ("1", "7", "123"):
            code, out, _ = run(capsys, "sample", path, "--n", "4", "--seed", seed, *extra)
            assert code == 0, path
            for line in out.splitlines():
                rec = json.loads(line)
                want = joint_log_density(k, z, decode(rec))
                assert _bits(rec["logpdf"]) == _bits(want), (path, seed, line)


def test_sample_evaluates_each_wired_parameter_once(capsys, tmp_path, monkeypatch):
    calls = [0]
    compile_ = model_module._compile

    def counting(*args):
        param = compile_(*args)

        def counted(z):
            calls[0] += 1
            return param(z)

        return counted

    monkeypatch.setattr(model_module, "_compile", counting)
    gen = genmodels()
    path = gen.write_model(gen.chain_model(40, 1)[0], str(tmp_path), "chain40")
    code, out, _ = run(capsys, "sample", path, "--n", "5", "--seed", "2")
    # the root's parameters are constants; each of the 39 steps reads its
    # predecessor once per record, to draw and score both
    assert code == 0 and len(out.splitlines()) == 5
    assert calls[0] == 5 * 39


def test_logpdf_checks_each_trace_value_once(capsys, tmp_path, monkeypatch):
    # a value is checked by membership or by the check member_check chose
    # for its space; both are counted
    checked = []
    membership, member_check = spaces.membership, spaces.member_check

    def counted(space, v):
        checked.append(space)
        return membership(space, v)

    def counted_check(space):
        ok = member_check(space)

        def check(v):
            checked.append(space)
            return ok(v)

        return check

    for name, mod in list(sys.modules.items()):
        if name.startswith("jointkern"):
            if getattr(mod, "membership", None) is membership:
                monkeypatch.setattr(mod, "membership", counted)
            if getattr(mod, "member_check", None) is member_check:
                monkeypatch.setattr(mod, "member_check", counted_check)
    for path in (CHAIN, NORMAL, WEIGHTED):
        code, out, _ = run(capsys, "sample", path, "--n", "1", "--seed", "3")
        trace = tmp_path / "t.jsonl"
        trace.write_text(out)
        cods = {b.primitive.cod for b in parse_model(path).kernel.boxes}
        checked.clear()
        code, out, _ = run(capsys, "logpdf", path, "--trace", str(trace))
        assert code == 0 and len(out.splitlines()) == 1
        n_boxes = len(json.loads(trace.read_text())["trace"])
        assert sum(space in cods for space in checked) == n_boxes, path


def test_sample_draws_one_uniform_per_box(monkeypatch):
    # the uniforms drawn, cells at rng.unit_uniforms, while sample_with_trace
    # draws one record
    drawn = count_draws(monkeypatch)
    gen = genmodels()
    for raw, want in ((json.loads(Path(CHAIN).read_text()), 2), (gen.chain_model(160, 1)[0], 160)):
        drawn[0] = 0
        sample_with_trace(model_from_dict(raw).kernel, UNIT_VALUE, 5)
        assert drawn[0] == want


def _overflow_model(tmp_path, hidden: bool) -> str:
    """A normal(mu=1.7e308, sigma=1e308) box g, whose draws overflow to inf
    for most seeds; hidden=True feeds g to a coin that ignores it, so only
    the coin is output."""
    boxes = {"gen": {"dom": [], "cod": ["R"]}}
    raw = {
        "version": 1,
        "signature": {"wires": {"R": {"space": {"real": 1}}, "B": {"space": {"finite": 2}}},
                      "boxes": boxes},
        "diagram": {"wires": {"r": "R"}, "boxes": {"g": "gen"}, "dom": {"g": []},
                    "cod": {"g": ["r"]}, "inputs": [], "outputs": ["r"]},
        "interpretation": {
            "gen": {"primitive": "normal", "params": {"mu": 1.7e308, "sigma": 1e308}}},
    }
    if hidden:
        boxes["flip"] = {"dom": ["R"], "cod": ["B"]}
        d = raw["diagram"]
        d["wires"]["b"] = "B"
        d["boxes"]["h"] = "flip"
        d["dom"]["h"] = ["r"]
        d["cod"]["h"] = ["b"]
        d["outputs"] = ["b"]
        raw["interpretation"]["flip"] = {"primitive": "bernoulli", "params": {"p": 0.5}}
    path = tmp_path / f"overflow_{hidden}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_sample_checks_every_drawn_value(capsys, tmp_path, monkeypatch):
    hidden = _overflow_model(tmp_path, True)
    code, out, err = run(capsys, "sample", hidden, "--n", "3")
    assert (code, out) == (4, "")
    assert err == "error: trace value for g inf is not a point of Real(dim=1)\n"
    # so do spw's draws and cf's replays
    u = tmp_path / "u.jsonl"
    u.write_text('{"g": [0.99], "h": [0.5]}\n')
    for args in (("spw", hidden, "--n", "1000", "--ref", "0.5"), ("cf", hidden, "--u", str(u))):
        code, out, err = run(capsys, *args)
        assert (code, out) == (4, "")
        assert err == "error: trace value for g inf is not a point of Real(dim=1)\n"
    code, out, err = run(capsys, "sample", _overflow_model(tmp_path, False), "--n", "3")
    assert (code, out) == (4, "")
    assert err == "error: kernel output inf is not a point of Real(dim=1)\n"
    # a nan log-density is not printed
    nan_normal = dataclasses.replace(primitives.FAMILIES["normal"], density=lambda pt, m: math.nan)
    monkeypatch.setitem(primitives.FAMILIES, "normal", nan_normal)
    code, out, err = run(capsys, "sample", NORMAL, "--n", "2")
    assert (code, out, err) == (4, "", "error: cannot serialize NaN\n")


def test_spw_audits_at_the_given_input(capsys):
    code, out, err = run(capsys, "spw", INPUTS, "--n", "1000")
    assert (code, out, err) == (4, "", "error: this model has global inputs; pass --input\n")
    code, out, err = run(capsys, "spw", INPUTS, "--n", "1000", "--input", "5")
    assert (code, out, err) == (4, "", "error: kernel input 5 is not a point of Finite(size=2)\n")
    # the exact reference enumerates at the input: P(q = 1) is 0.2 at p = 0, 0.7 at p = 1
    for text, p in (("0", 0.2), ("1", 0.7)):
        code, out, err = run(capsys, "spw", INPUTS, "--n", "2000", "--seed", "3", "--input", text)
        (row,) = json.loads(out)
        assert code == (0 if row["pass"] else 1) and err == ""
        assert row["reference"] == p and abs(row["estimate"] - p) < 0.05


def test_sample_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("JOINTKERN_SEED", "9")
    code, from_env, _ = run(capsys, "sample", CHAIN, "--n", "4")
    monkeypatch.delenv("JOINTKERN_SEED")
    code, explicit, _ = run(capsys, "sample", CHAIN, "--n", "4", "--seed", "9")
    assert from_env == explicit


def test_env_seed_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("JOINTKERN_SEED", "12x")
    for args in (("sample", CHAIN, "--n", "1"), ("spw", WEIGHTED, "--n", "1000")):
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error: JOINTKERN_SEED must be an integer, got '12x'\n")
    # an explicit --seed does not read it
    assert run(capsys, "sample", CHAIN, "--n", "1", "--seed", "0")[0] == 0


def test_sample_out_appends(capsys, tmp_path):
    f = tmp_path / "records.jsonl"
    run(capsys, "sample", CHAIN, "--n", "2", "--seed", "1", "--out", str(f))
    run(capsys, "sample", CHAIN, "--n", "1", "--seed", "2", "--out", str(f))
    assert len(f.read_text().strip().split("\n")) == 3


def test_sample_writes_its_records_a_block_at_a_time(capsys, tmp_path):
    out = tmp_path / "records.jsonl"
    assert main(["sample", CHAIN, "--n", "2000", "--out", str(out)]) == 0  # warm the caches
    peaks = {}
    for n in (5000, 20000):
        out.unlink()
        tracemalloc.start()
        try:
            assert main(["sample", CHAIN, "--n", str(n), "--seed", "1", "--out", str(out)]) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_text().count("\n") == n
    # one block's text at a time, not every record's
    assert peaks[20000] < 1.5 * peaks[5000]


def test_sample_keeps_the_blocks_before_a_failing_one(capsys, tmp_path):
    # at seed 2 the first draw that overflows to inf is record 1286, in
    # the second block of 1024
    raw = json.loads(Path(_overflow_model(tmp_path, False)).read_text())
    raw["interpretation"]["gen"]["params"]["sigma"] = 3.2e306
    late = tmp_path / "late.json"
    late.write_text(json.dumps(raw))
    _, first, _ = run(capsys, "sample", str(late), "--n", "1024", "--seed", "2")
    assert first.count("\n") == 1024
    out = tmp_path / "records.jsonl"
    out.write_text("kept\n")
    code, piped, err = run(capsys, "sample", str(late), "--n", "3000", "--seed", "2",
                           "--out", str(out))
    assert (code, piped, err) == (4, "", "error: kernel output inf is not a point of Real(dim=1)\n")
    assert out.read_text() == "kept\n" + first
    code, piped, _ = run(capsys, "sample", str(late), "--n", "3000", "--seed", "2")
    assert (code, piped) == (4, first)
    # an error in the first block leaves the file as it was
    for argv in (("--n", "3000", "--seed", "3"), ("--n", "0", "--input", "0")):
        code, piped, _ = run(capsys, "sample", str(late), *argv, "--out", str(out))
        assert (code, piped) == (4, "")
        assert out.read_text() == "kept\n" + first


def test_logpdf_roundtrip(capsys, tmp_path):
    f = tmp_path / "records.jsonl"
    run(capsys, "sample", CHAIN, "--n", "6", "--seed", "3", "--out", str(f))
    recs = [json.loads(line) for line in f.read_text().strip().split("\n")]
    code, out, _ = run(capsys, "logpdf", CHAIN, "--trace", str(f))
    assert code == 0
    got = [float(line) for line in out.strip().split("\n")]
    assert got == [rec["logpdf"] for rec in recs]


def test_logpdf_neg_inf(capsys, tmp_path):
    f = tmp_path / "t.jsonl"
    f.write_text('{"trace": {"g": 0}}\n')
    code, out, _ = run(capsys, "logpdf", str(MODELS / "sure.json"), "--trace", str(f))
    assert (code, out) == (0, "-inf\n")


def test_logpdf_trace_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "logpdf", CHAIN, "--trace",
                     str(tmp_path / "missing.jsonl"))
    assert code == 2

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"trace": {"b1": 1, "b2": 1}}\nnot json\n')
    code, _, err = run(capsys, "logpdf", CHAIN, "--trace", str(bad))
    assert code == 3 and "bad.jsonl:2" in err

    nofield = tmp_path / "nofield.jsonl"
    nofield.write_text('{"b1": 1}\n')
    assert main(["logpdf", CHAIN, "--trace", str(nofield)]) == 3

    unknown = tmp_path / "unknown.jsonl"
    unknown.write_text('{"trace": {"b1": 1, "zz": 0}}\n')
    assert main(["logpdf", CHAIN, "--trace", str(unknown)]) == 4

    offspace = tmp_path / "offspace.jsonl"
    offspace.write_text('{"trace": {"b1": 1, "b2": 5}}\n')
    assert main(["logpdf", CHAIN, "--trace", str(offspace)]) == 4


# each record command's flag, its record of normal.json's box g with the
# value %s, and that record's value
_RECORDS = {"logpdf": ("--trace", '{"trace": {"g": %s}}', "0.5"),
            "abduct": ("--trace", '{"trace": {"g": %s}}', "0.5"),
            "cf": ("--u", '{"g": [%s]}', "0.25")}
_NOT_JSON = "{path}:1: not valid JSON: "


def _per_command(logpdf, abduct, cf):
    return {"logpdf": logpdf, "abduct": abduct, "cf": cf}


# a record line's edge case: the file's text around the record r, the
# value r holds (its command's own if None), and per command the exit code
# and stderr after "error: ", or the count of records r it reads as
_EDGE_LINES = {
    "trailing text": ("{r} x\n", None, _per_command(
        (3, _NOT_JSON + "Extra data: line 1 column 23 (char 22)"),
        (3, _NOT_JSON + "Extra data: line 1 column 23 (char 22)"),
        (3, _NOT_JSON + "Extra data: line 1 column 15 (char 14)"))),
    "byte order mark": ("\ufeff{r}\n", None, (
        3, _NOT_JSON + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)")),
    "NaN": ("{r}\n", "NaN", _per_command(
        (4, "trace value for g nan is not a point of Real(dim=1)"),
        (4, "normal: value nan is not a point of Real(dim=1)"),
        (4, "uniform nan outside [0, 1] for box g"))),
    "Infinity": ("{r}\n", "Infinity", _per_command(
        (4, "trace value for g inf is not a point of Real(dim=1)"),
        (4, "normal: value inf is not a point of Real(dim=1)"),
        (4, "uniform inf outside [0, 1] for box g"))),
    "5000 digits": ("{r}\n", "1" * 5000, (
        3, _NOT_JSON + "Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit")),
    "5000 levels": ("{r}\n", "[" * 5000 + "]" * 5000, (
        3, _NOT_JSON + "maximum recursion depth exceeded while decoding a JSON array "
        "from a unicode string")),
    "vertical tabs": ("\x0b{r}\x0b\n", None, 1),
    "no-break spaces": ("\xa0{r}\xa0\n", None, 1),
    "CRLF": ("{r}\r\n{r}\r\n", None, 2),
    "blank lines": ("\n{r}\n\n", None, 1),
    "whitespace lines": (" \t \n{r}\n  \x0c\n", None, 1),
}


@pytest.mark.parametrize("command", list(_RECORDS))
@pytest.mark.parametrize("case", list(_EDGE_LINES))
def test_record_line_edge_cases(capsys, tmp_path, command, case):
    flag, record, value = _RECORDS[command]
    text, edge_value, want = _EDGE_LINES[case]
    want = want[command] if isinstance(want, dict) else want
    path = tmp_path / "records.jsonl"
    path.write_bytes(text.format(r=record % (edge_value or value)).encode("utf-8"))
    got = run(capsys, command, NORMAL, flag, str(path))
    if isinstance(want, int):
        path.write_text(record % value + "\n")
        _, one, _ = run(capsys, command, NORMAL, flag, str(path))
        assert got == (0, one * want, "")
    else:
        code, err = want
        assert got == (code, "", f"error: {err.format(path=path)}\n")


def test_reader_calls_json_loads_on_the_bad_line_alone(tmp_path, monkeypatch):
    lines = ['{"trace": {"g": %r}}\n' % (i / 7) for i in range(2000)]
    want = [json.loads(line) for line in lines]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(lines))
    calls, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
    assert list(_read_jsonl(str(path))) == want
    assert calls == []
    lines[1499] = '{"trace": {"g": }}\n'
    path.write_text("".join(lines))
    with pytest.raises(ModelSyntaxError, match="records.jsonl:1500: not valid JSON"):
        list(_read_jsonl(str(path)))
    assert calls == ['{"trace": {"g": }}']


# record 1500 of a trace file and of a u file of the chain fixture: a value
# outside its box's space, a malformed line, and a line that is not UTF-8
_BAD_RECORDS = [
    (b'{"trace": {"b1": 2, "b2": 0}}', b'{"b1": [1.5], "b2": [0.5]}', 4, (
        "trace value for b1 2 is not a point of Finite(size=2)",
        "bernoulli: value 2 is not a point of Finite(size=2)",
        "uniform 1.5 outside [0, 1] for box b1")),
    (b'{"trace": {"b1": 1, "b2"', b'{"b1": [0.5], "b2": ', 3, (
        "{trace}:1500: not valid JSON: Expecting ':' delimiter: line 1 column 25 (char 24)",
        "{trace}:1500: not valid JSON: Expecting ':' delimiter: line 1 column 25 (char 24)",
        "{u}:1500: not valid JSON: Expecting value: line 1 column 20 (char 19)")),
    (b'{"trace": {"b1": 1, "b2": "\xe9"}}', b'{"b1": [0.5], "b2": [\xff]}', 3, (
        "{trace}:1500: not valid UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 27: "
        "invalid continuation byte",
        "{trace}:1500: not valid UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 27: "
        "invalid continuation byte",
        "{u}:1500: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 21: "
        "invalid start byte")),
]


@pytest.mark.parametrize("bad_trace, bad_u, code, errors", _BAD_RECORDS)
def test_record_commands_stop_at_a_bad_record_past_the_first_block(
        capsys, tmp_path, bad_trace, bad_u, code, errors):
    trace, u = tmp_path / "records.jsonl", tmp_path / "u.jsonl"
    run(capsys, "sample", CHAIN, "--n", "2000", "--seed", "3", "--out", str(trace))
    run(capsys, "abduct", CHAIN, "--trace", str(trace), "--out", str(u))
    _, scores, _ = run(capsys, "logpdf", CHAIN, "--trace", str(trace))
    _, replays, _ = run(capsys, "cf", CHAIN, "--u", str(u))
    abducted = u.read_text()
    for path, bad in ((trace, bad_trace), (u, bad_u)):
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:1499] + [bad + b"\n"] + lines[1500:]))

    def first(text, n):
        return "".join(text.splitlines(keepends=True)[:n])

    # logpdf and cf write every record before the bad one; abduct, the
    # whole blocks of 1024 before it
    for argv, out, err in (
            (("logpdf", CHAIN, "--trace", str(trace)), first(scores, 1499), errors[0]),
            (("abduct", CHAIN, "--trace", str(trace)), first(abducted, 1024), errors[1]),
            (("cf", CHAIN, "--u", str(u)), first(replays, 1499), errors[2])):
        assert run(capsys, *argv) == (
            code, out, f"error: {err.format(trace=trace, u=u)}\n"), argv[0]


def test_files_that_are_not_utf8_are_syntax_errors(capsys, tmp_path):
    trace, u, model = tmp_path / "t.jsonl", tmp_path / "u.jsonl", tmp_path / "m.json"
    trace.write_text('{"trace": {"g": 0.5}}\n')
    u.write_text('{"g": [0.25]}\n')
    model.write_bytes(b"\xff")
    commands = (["validate"], ["logpdf", "--trace", str(trace)],
                ["abduct", "--trace", str(trace)], ["cf", "--u", str(u)])
    bad_model = (f"error: {model}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                 "in position 0: invalid start byte\n")
    for cmd, *flags in commands:
        assert run(capsys, cmd, str(model), *flags) == (3, "", bad_model), cmd
    assert run(capsys, "do", str(model), "--set", "g=0.5", "logpdf", "--trace",
               str(trace)) == (3, "", bad_model)
    # the byte is named by its place in the file, past the reader's first chunk
    model.write_bytes(Path(NORMAL).read_bytes() + b" " * 10000 + b"\xc3(")
    assert run(capsys, "validate", str(model)) == (3, "", (
        f"error: {model}: not valid UTF-8: 'utf-8' codec can't decode byte 0xc3 in position "
        f"{Path(NORMAL).stat().st_size + 10000}: invalid continuation byte\n"))

    # a trace or u line is named, and the records before it are read
    _, score, _ = run(capsys, "logpdf", NORMAL, "--trace", str(trace))
    _, replay, _ = run(capsys, "cf", NORMAL, "--u", str(u))
    trace.write_bytes(b'{"trace": {"g": 0.5}}\n\n{"trace": {"g": "\xe9"}}\n')
    surgered = tmp_path / "surgered.jsonl"  # do g=... leaves no box in the trace
    surgered.write_bytes(b'{"trace": {}}\n{"trace": {"g": "\xe9"}}\n')
    u.write_bytes(b'{"g": [0.25]}\r\n{"g": [0.25], "note": "\xff"}\n')
    bad_line = ("error: {}:{}: not valid UTF-8: 'utf-8' codec can't decode byte {} in "
                "position {}: {}\n")
    bad_trace = bad_line.format(trace, 3, "0xe9", 17, "invalid continuation byte")
    for argv, want in (
            (["logpdf", NORMAL, "--trace", str(trace)], (3, score, bad_trace)),
            (["do", NORMAL, "--set", "g=0.5", "logpdf", "--trace", str(surgered)], (
                3, "0\n", bad_line.format(surgered, 2, "0xe9", 17, "invalid continuation byte"))),
            (["abduct", NORMAL, "--trace", str(trace)], (3, "", bad_trace)),
            (["cf", NORMAL, "--u", str(u)],
             (3, replay, bad_line.format(u, 2, "0xff", 23, "invalid start byte")))):
        assert run(capsys, *argv) == want, argv


def test_do_validate_and_set_forms(capsys):
    assert main(["do", CHAIN, "--set", "flip=1", "validate"]) == 0
    assert main(["do", CHAIN, "--set=flip=1", "validate"]) == 0
    # graph box names resolve to their generator
    assert main(["do", CHAIN, "--set", "b1=1", "validate"]) == 0
    assert main(["do", CHAIN, "--set", "nope=1", "validate"]) == 4
    assert main(["do", CHAIN, "--set", "flip", "validate"]) == 4
    assert main(["do", CHAIN, "--set", "flip=oops", "validate"]) == 4
    assert main(["do", CHAIN, "--set", "flip=1"]) == 2
    assert main(["do"]) == 2


def test_do_sample_removes_box(capsys):
    code, out, _ = run(capsys, "do", CHAIN, "--set", "flip=1",
                       "sample", "--n", "300", "--seed", "0")
    assert code == 0
    lines = out.strip().split("\n")
    ones = 0
    for line in lines:
        rec = json.loads(line)
        assert set(rec["trace"]) == {"b2"}
        ones += rec["output"]
    assert 0.6 < ones / 300 < 0.8


def test_do_on_shared_generator(capsys):
    dup = str(MODELS / "dup_gen.json")
    # a graph box that shares its generator is ambiguous
    code, _, err = run(capsys, "do", dup, "--set", "b1=1", "validate")
    assert code == 4 and "shares generator" in err
    # naming the generator forces every box that carries it
    code, out, _ = run(capsys, "do", dup, "--set", "flip=1",
                       "sample", "--n", "3", "--seed", "0")
    assert code == 0
    for line in out.strip().split("\n"):
        rec = json.loads(line)
        assert rec["output"] == [1, 1] and rec["trace"] == {}


def test_nested_do(capsys):
    code, out, _ = run(capsys, "do", CHAIN, "--set", "flip=1",
                       "do", "--set", "step=0", "sample", "--n", "3", "--seed", "1")
    assert code == 0
    for line in out.strip().split("\n"):
        rec = json.loads(line)
        assert rec == {"trace": {}, "output": 0, "logpdf": 0.0}


def test_cf_command(capsys, tmp_path):
    u = tmp_path / "u.jsonl"
    u.write_text('{"b1": [0.6], "b2": [0.6]}\n')
    code, out, _ = run(capsys, "cf", CHAIN, "--u", str(u))
    assert code == 0
    assert json.loads(out) == {"trace": {"b1": 0, "b2": 0}, "output": 0}
    code, out, _ = run(capsys, "cf", CHAIN, "--u", str(u), "--set", "flip=1")
    assert json.loads(out) == {"trace": {"b2": 1}, "output": 1}
    # each u entry must be a JSON number
    for block in ('["a"]', "[null]", '["0.5"]', "[true]", '{"x": 1}'):
        u.write_text('{"b1": %s, "b2": [0.6]}\n' % block)
        code, _, err = run(capsys, "cf", CHAIN, "--u", str(u))
        assert code == 3 and "must be a list of floats" in err, block


def test_cf_rejects_unknown_boxes(capsys, tmp_path):
    u = tmp_path / "u.jsonl"
    u.write_text('{"b1": [0.25], "zz": [0.85], "b2": [0.3]}\n')
    for argv in (["cf", CHAIN, "--u", str(u)],
                 ["cf", CHAIN, "--u", str(u), "--set", "flip=1"],
                 ["do", CHAIN, "--set", "flip=1", "cf", "--u", str(u)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv
        assert err == "error: uniform blocks for unknown boxes ['zz']\n", argv
    # an entry for a box the intervention removed is still ignored
    u.write_text('{"b1": [0.25], "b2": [0.3]}\n')
    code, out, _ = run(capsys, "cf", CHAIN, "--u", str(u), "--set", "flip=1")
    assert code == 0 and json.loads(out) == {"trace": {"b2": 1}, "output": 1}


def test_cf_under_do_prefix(capsys, tmp_path):
    # do ... cf --u is the same surgery as cf --set
    u = tmp_path / "u.jsonl"
    u.write_text('{"b1": [0.6], "b2": [0.6]}\n')
    code, via_do, _ = run(capsys, "do", CHAIN, "--set", "flip=1",
                          "cf", "--u", str(u))
    assert code == 0
    code, via_set, _ = run(capsys, "cf", CHAIN, "--u", str(u), "--set", "flip=1")
    assert via_do == via_set


def test_cf_compiles_the_intervened_kernel_once(capsys, tmp_path, monkeypatch):
    import jointkern.diagrams as diagrams
    import jointkern.interpret as interpret

    compiled, ordered = [], []
    compile_, kahn = interpret._compile, diagrams._kahn

    def counting(d, interp):
        compiled.append(interp)
        return compile_(d, interp)

    def counting_kahn(g):
        ordered.append(g)
        return kahn(g)

    monkeypatch.setattr(interpret, "_compile", counting)
    monkeypatch.setattr(diagrams, "_kahn", counting_kahn)
    u = tmp_path / "u.jsonl"
    u.write_text('{"b1": [0.6], "b2": [0.6]}\n' * 3)
    for argv in (["cf", CHAIN, "--u", str(u), "--set", "flip=1"],
                 ["do", CHAIN, "--set", "flip=1", "sample", "--n", "3"],
                 ["sample", CHAIN, "--n", "3"]):
        compiled.clear()
        ordered.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(out.strip().split("\n")) == 3
        # only the surgered kernel is lowered, once, and the diagram is
        # checked and ordered once: not at parse time, not per record
        assert len(compiled) == 1, argv
        assert len(ordered) == 1, argv
    # export-dot reads the order the plan kept, and lowers nothing
    compiled.clear()
    ordered.clear()
    code, out, _ = run(capsys, "export-dot", CHAIN)
    assert code == 0 and out.startswith("digraph")
    assert (len(compiled), len(ordered)) == (0, 1)


def test_abduct_cf_roundtrip(capsys, tmp_path):
    recs = tmp_path / "records.jsonl"
    run(capsys, "sample", CHAIN, "--n", "4", "--seed", "2", "--out", str(recs))
    originals = [json.loads(line) for line in recs.read_text().strip().split("\n")]

    ufile = tmp_path / "u.jsonl"
    code, _, _ = run(capsys, "abduct", CHAIN, "--trace", str(recs),
                     "--out", str(ufile))
    assert code == 0
    code, out, _ = run(capsys, "cf", CHAIN, "--u", str(ufile))
    assert code == 0
    replayed = [json.loads(line) for line in out.strip().split("\n")]
    assert len(replayed) == len(originals)
    for rec, rep in zip(originals, replayed):
        assert rep["trace"] == rec["trace"]
        assert rep["output"] == rec["output"]


def test_abduct_writes_its_records_a_block_at_a_time(capsys, tmp_path):
    traces, out = tmp_path / "records.jsonl", tmp_path / "u.jsonl"
    assert main(["sample", NORMAL, "--n", "20000", "--seed", "1", "--out", str(traces)]) == 0
    lines = traces.read_text().splitlines(keepends=True)
    assert main(["abduct", NORMAL, "--trace", str(traces), "--out", str(out)]) == 0  # warm
    peaks = {}
    for n in (5000, 20000):
        traces.write_text("".join(lines[:n]))
        tracemalloc.start()
        try:
            assert main(["abduct", NORMAL, "--trace", str(traces), "--out", str(out)]) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_text().count("\n") == n
    # one block's text at a time, not every record's
    assert peaks[20000] < 1.5 * peaks[5000]


def test_abduct_keeps_the_blocks_before_a_failing_one(capsys, tmp_path):
    traces = tmp_path / "records.jsonl"
    run(capsys, "sample", CHAIN, "--n", "2000", "--seed", "3", "--out", str(traces))
    lines = traces.read_text().splitlines(keepends=True)
    bad = '{"trace": {"b1": 2, "b2": 0}}\n'
    traces.write_text("".join(lines[:1024]))
    _, first, _ = run(capsys, "abduct", CHAIN, "--trace", str(traces))
    assert first.count("\n") == 1024
    out = tmp_path / "u.jsonl"
    out.write_text("kept\n")
    # an error in the first block leaves stdout empty and the file as it was
    traces.write_text("".join(lines[:5] + [bad] + lines[6:]))
    for argv in (("--out", str(out)), ()):
        code, piped, err = run(capsys, "abduct", CHAIN, "--trace", str(traces), *argv)
        assert (code, piped) == (4, "") and err.startswith("error: ")
        assert out.read_text() == "kept\n"
    # an error in the second block leaves the first written
    traces.write_text("".join(lines[:1500] + [bad] + lines[1501:]))
    code, piped, _ = run(capsys, "abduct", CHAIN, "--trace", str(traces), "--out", str(out))
    assert (code, piped) == (4, "")
    assert out.read_text() == first
    code, piped, _ = run(capsys, "abduct", CHAIN, "--trace", str(traces))
    assert (code, piped) == (4, first)


def test_abduct_offsupport(capsys, tmp_path):
    t = tmp_path / "t.jsonl"
    t.write_text('{"trace": {"g": 0}}\n')
    assert main(["abduct", str(MODELS / "sure.json"), "--trace", str(t)]) == 4


def test_spw_chain(capsys):
    code, out, _ = run(capsys, "spw", CHAIN, "--n", "2000", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert len(report) == 1
    row = report[0]
    assert row["h"] == "$0" and row["pass"] is True
    assert row["reference"] == pytest.approx(0.45, abs=1e-12)

    code, out, _ = run(capsys, "spw", CHAIN, "--n", "2000", "--seed", "0",
                       "--h", "$0", "--ref", "0.8")
    assert code == 1
    assert json.loads(out)[0]["pass"] is False

    assert main(["spw", CHAIN, "--n", "10"]) == 4


def _usage_exit(capsys, *args) -> str:
    """stderr of a command line that argparse rejects with exit 2."""
    with pytest.raises(SystemExit) as e:
        main(list(args))
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: jointkern" in captured.err
    return captured.err


def test_spw_ref_must_be_a_finite_number(capsys, monkeypatch):
    err = _usage_exit(capsys, "spw", CHAIN, "--n", "1000", "--ref", "abc")
    assert "argument --ref: invalid float value: 'abc'" in err
    draws = count_draws(monkeypatch)
    for ref in ("nan", "inf", "-inf", "1e999"):
        code, out, err = run(capsys, "spw", CHAIN, "--n", "1000", f"--ref={ref}")
        assert (code, out) == (4, "")
        assert err.startswith("error: reference values must be finite")
    assert draws[0] == 0


def test_spw_exact_reference_is_bounded(capsys, monkeypatch):
    monkeypatch.setattr(kernels_module, "_ROW_LIMIT", 3)
    code, out, err = run(capsys, "spw", CHAIN, "--n", "1000")
    assert (code, out) == (4, "")
    assert err.startswith("error: exact elimination needs more than 3 rows") and "--ref" in err
    code, out, _ = run(capsys, "spw", CHAIN, "--n", "1000", "--ref", "0.45")
    assert code == 0 and json.loads(out)[0]["reference"] == 0.45


def test_counts_are_not_negative(capsys):
    for args in (("sample", CHAIN, "--n", "-1"),
                 ("do", CHAIN, "--set", "flip=1", "sample", "--n", "-1"),
                 ("cover", CHAIN, "--count", "-2"),
                 ("spw", CHAIN, "--n", "-5")):
        err = _usage_exit(capsys, *args)
        assert "must be 0 or more" in err, args
    err = _usage_exit(capsys, "sample", CHAIN, "--n", "abc")
    assert "argument --n: invalid int value: 'abc'" in err
    assert run(capsys, "sample", CHAIN, "--n", "0") == (0, "", "")
    assert run(capsys, "cover", CHAIN, "--count", "0") == (0, "", "")


def test_spw_weighted_model(capsys):
    code, out, _ = run(capsys, "spw", WEIGHTED, "--n", "4000", "--seed", "1")
    assert code == 0
    row = json.loads(out)[0]
    assert row["reference"] == pytest.approx(0.9, abs=1e-12)
    assert row["pass"] is True


def test_weight_integer_past_the_float_range(capsys, tmp_path):
    # a weight adapts its value to a float as a det map does
    raw = json.loads(Path(WEIGHTED).read_text())
    raw["weights"]["b2"] = "if $1 < 1 then 0 else " + "1" * 400
    path = tmp_path / "big_weight.json"
    path.write_text(json.dumps(raw))
    for ref in ((), ("--ref", "0.5")):
        code, out, err = run(capsys, "spw", str(path), "--n", "1000", *ref)
        assert (code, out, err) == (4, "", "error: integer too large for a float\n"), ref


def test_spw_continuous_reference(capsys):
    code, out, _ = run(capsys, "spw", str(MODELS / "uniform2x.json"),
                       "--n", "20000", "--seed", "3",
                       "--h", "$0", "--ref", str(8.0 / 3.0))
    assert code == 0 and json.loads(out)[0]["pass"] is True


def test_spw_without_ref_on_a_real_box_names_ref(capsys, monkeypatch):
    draws = count_draws(monkeypatch)
    code, out, err = run(capsys, "spw", str(MODELS / "uniform2x.json"), "--n", "1000")
    assert (code, out) == (4, "")
    assert err == ("error: box g has non-finite codomain Real(dim=1); "
                   "give the reference values instead (--ref)\n")
    assert draws[0] == 0


def test_cover_finite(capsys):
    code, out, _ = run(capsys, "cover", CHAIN, "--count", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert rows[0]["index"] == 0
    assert rows[0]["mass"] == 2.0
    assert rows[0]["piece"] == {"points": [0, 1]}

    code, out, _ = run(capsys, "cover", CHAIN, "--point", "1")
    rec = json.loads(out)
    assert rec["point"] == 1 and isinstance(rec["index"], int)
    assert main(["cover", CHAIN, "--point", "7"]) == 4
    assert main(["cover", CHAIN, "--point", "{bad"]) == 4


def test_cover_real(capsys):
    code, out, _ = run(capsys, "cover", NORMAL, "--count", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    for row in rows:
        assert "box" in row["piece"]
        assert row["mass"] > 0
    code, out, _ = run(capsys, "cover", NORMAL, "--point", "-3.7")
    rec = json.loads(out)
    assert rec["point"] == -3.7


def test_export_dot(capsys, tmp_path):
    code, out, _ = run(capsys, "export-dot", CHAIN)
    assert code == 0
    assert out.startswith("digraph")
    assert '"b1" [shape=box, label="b1:flip"];' in out

    f = tmp_path / "chain.dot"
    code, piped, _ = run(capsys, "export-dot", CHAIN, "--out", str(f))
    assert code == 0 and piped == ""
    assert f.read_text() == out


def test_export_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    raw = json.loads(Path(CHAIN).read_text())
    d = raw["diagram"]
    d["boxes"] = {'b"1': "flip", "b2": "step"}
    d["dom"] = {'b"1': [], "b2": ["x\\"]}
    d["cod"] = {'b"1': ["x\\"], "b2": ["y"]}
    d["wires"] = {"x\\": "B", "y": "B"}
    f = tmp_path / "quoted.json"
    f.write_text(json.dumps(raw))
    assert run(capsys, "validate", str(f))[:2] == (0, "OK\n")
    code, out, _ = run(capsys, "export-dot", str(f))
    assert code == 0
    assert '  "b\\"1" [shape=box, label="b\\"1:flip"];\n' in out
    assert '  "b\\"1" -> "b2" [label="x\\\\:B"];\n' in out
    assert '  "b2" [shape=box, label="b2:step"];\n' in out


def test_input_flag(capsys):
    code, _, err = run(capsys, "sample", INPUTS, "--n", "1")
    assert code == 4 and "pass --input" in err
    code, out, _ = run(capsys, "sample", INPUTS, "--n", "200", "--seed", "0",
                       "--input", "1")
    assert code == 0
    ones = sum(json.loads(l)["output"] for l in out.strip().split("\n"))
    assert 0.6 < ones / 200 < 0.8
    assert main(["sample", INPUTS, "--n", "1", "--input", "{bad"]) == 3
    assert main(["sample", INPUTS, "--n", "1", "--input", "0.5"]) == 4
    # each coordinate of a real vector must be a JSON number, as for Real(1)
    real2 = str(MODELS / "real2_input.json")
    code, out, _ = run(capsys, "sample", real2, "--input", "[0.5, 1]")
    assert code == 0 and json.loads(out)["output"] == [0.5, 1.0]
    for bad in ('["a", 1]', "[true, 1]", "[null, 1]"):
        assert main(["sample", real2, "--input", bad]) == 4, bad


def test_abduct_checks_its_input(capsys, tmp_path):
    # as logpdf does: an input outside Finite(2) is no point of the kernel's domain
    t = tmp_path / "t.jsonl"
    t.write_text('{"trace": {"g": 1}}\n')
    for z in ("5", "-3"):
        for cmd in ("abduct", "logpdf"):
            code, out, err = run(capsys, cmd, INPUTS, "--trace", str(t), "--input", z)
            assert (code, out) == (4, ""), (cmd, z)
            assert err == f"error: kernel input {z} is not a point of Finite(size=2)\n"
    assert run(capsys, "abduct", INPUTS, "--trace", str(t), "--input", "1")[0] == 0


def test_input_on_a_model_without_inputs_is_refused(capsys, tmp_path):
    t, u = tmp_path / "t.jsonl", tmp_path / "u.jsonl"
    t.write_text('{"trace": {"g": 0.5}}\n')
    u.write_text('{"g": [0.5]}\n')
    for cmd in (("sample", NORMAL), ("logpdf", NORMAL, "--trace", str(t)),
                ("abduct", NORMAL, "--trace", str(t)), ("cf", NORMAL, "--u", str(u))):
        assert run(capsys, *cmd)[0] == 0, cmd
        for text in ("{", "0"):
            code, out, err = run(capsys, *cmd, "--input", text)
            assert (code, out) == (4, ""), (cmd, text)
            assert err == "error: this model has no global inputs; drop --input\n"


def test_logpdf_with_input(capsys, tmp_path):
    t = tmp_path / "t.jsonl"
    t.write_text('{"trace": {"g": 1}}\n')
    code, out, _ = run(capsys, "logpdf", INPUTS, "--trace", str(t),
                       "--input", "1")
    assert code == 0
    assert float(out) == pytest.approx(math.log(0.7), abs=1e-12)
    code, out, _ = run(capsys, "logpdf", INPUTS, "--trace", str(t),
                       "--input", "0")
    assert float(out) == pytest.approx(math.log(0.2), abs=1e-12)


def test_subprocess_byte_identical(capsys):
    cmd = [sys.executable, "-m", "jointkern", "sample", CHAIN,
           "--n", "3", "--seed", "5"]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == 0 and a.stdout == b.stdout
    code, out, _ = run(capsys, "sample", CHAIN, "--n", "3", "--seed", "5")
    assert out.encode() == a.stdout


def test_repeated_main_calls_do_not_leak_flags(capsys, tmp_path):
    # parsers are built once per process; append defaults must not carry over
    u = tmp_path / "u.jsonl"
    u.write_text('{"b1": [0.6], "b2": [0.6]}\n')
    plain = run(capsys, "cf", CHAIN, "--u", str(u))
    assert run(capsys, "cf", CHAIN, "--u", str(u), "--set", "flip=1") != plain
    assert run(capsys, "cf", CHAIN, "--u", str(u)) == plain
    spw = ("spw", WEIGHTED, "--n", "1000", "--h", "$0")
    first = run(capsys, *spw)
    assert len(json.loads(first[1])) == 1
    assert run(capsys, *spw) == first


@pytest.mark.parametrize("name", ['"B"', '"step"', '"x"', '"b2"'])
def test_lone_surrogate_ids_are_syntax_errors(capsys, tmp_path, name):
    # "\ud800" is legal JSON but no Unicode text; a signature wire, signature
    # box, diagram wire or diagram box named with one is rejected at parse
    text = Path(CHAIN).read_text()
    assert name in text
    path = tmp_path / "surrogate.json"
    path.write_text(text.replace(name, name[:-1] + '\\ud800"'))
    for argv in (["validate"], ["sample", "--n", "1"], ["export-dot"]):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: ") and "lone surrogate" in err and err.count("\n") == 1
    # a surrogate pair is one character, and a valid id
    path.write_text(text.replace(name, name[:-1] + '\\ud83d\\ude00"'))
    assert run(capsys, "validate", str(path))[:2] == (0, "OK\n")
