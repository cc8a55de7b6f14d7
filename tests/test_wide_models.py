"""Models with 3000-factor products, through the record-level commands.

A product of n spaces nests n - 1 deep along its left side, far past
Python's default recursion limit, so this fails if checking a model, reading a
box's input slot or rendering an output recurses once per factor.
"""

import json
import math

from jointkern.cli import main

N = 3000


def wide_det_raw(n: int) -> dict:
    """n normal roots r_i, each with its own generator, all read by one det box."""
    return _raw(
        wires={**{f"w{i}": "R" for i in range(n)}, "y": "R"},
        boxes={**{f"r{i}": f"g{i}" for i in range(n)}, "s": "sum"},
        dom={**{f"r{i}": [] for i in range(n)}, "s": [f"w{i}" for i in range(n)]},
        cod={**{f"r{i}": [f"w{i}"] for i in range(n)}, "s": ["y"]},
        sig={**{f"g{i}": {"dom": [], "cod": ["R"]} for i in range(n)},
             "sum": {"dom": ["R"] * n, "cod": ["R"]}},
        interp={**{f"g{i}": {"primitive": "normal", "params": {"mu": 0.0, "sigma": 1.0}}
                   for i in range(n)},
                "sum": {"det": f"$0 + $1 + ${n // 2} + ${n - 1}"}},
        outputs=["y"],
    )


def wide_output_raw(n: int) -> dict:
    """n bernoulli(0.5) roots, every wire on the output leg."""
    return _raw(
        wires={f"w{i}": "B" for i in range(n)},
        boxes={f"r{i}": f"g{i}" for i in range(n)},
        dom={f"r{i}": [] for i in range(n)},
        cod={f"r{i}": [f"w{i}"] for i in range(n)},
        sig={f"g{i}": {"dom": [], "cod": ["B"]} for i in range(n)},
        interp={f"g{i}": {"primitive": "bernoulli", "params": {"p": 0.5}} for i in range(n)},
        outputs=[f"w{i}" for i in range(n)],
    )


def wide_input_raw(n: int) -> dict:
    """One det box reading n global inputs."""
    return _raw(
        wires={**{f"w{i}": "R" for i in range(n)}, "y": "R"},
        boxes={"s": "sum"},
        dom={"s": [f"w{i}" for i in range(n)]},
        cod={"s": ["y"]},
        sig={"sum": {"dom": ["R"] * n, "cod": ["R"]}},
        interp={"sum": {"det": f"$0 + ${n - 1}"}},
        outputs=["y"],
        inputs=[f"w{i}" for i in range(n)],
    )


def _raw(wires, boxes, dom, cod, sig, interp, outputs, inputs=()) -> dict:
    return {
        "version": 1,
        "signature": {"wires": {"R": {"space": {"real": 1}}, "B": {"space": {"finite": 2}}},
                      "boxes": sig},
        "diagram": {"wires": wires, "boxes": boxes, "dom": dom, "cod": cod,
                    "inputs": list(inputs), "outputs": outputs},
        "interpretation": interp,
    }


def _runner(capsys, model):
    def run(*args) -> str:
        assert main([args[0], str(model), *args[1:]]) == 0, args[0]
        return capsys.readouterr().out
    return run


def test_wide_det_box(capsys, tmp_path):
    model = tmp_path / "wide_det.json"
    model.write_text(json.dumps(wide_det_raw(N)))
    records, us = tmp_path / "records.jsonl", tmp_path / "u.jsonl"
    run = _runner(capsys, model)

    assert run("validate") == "OK\n"
    records.write_text(run("sample", "--n", "2", "--seed", "5"))
    recs = [json.loads(line) for line in records.read_text().splitlines()]
    for rec in recs:
        t = rec["trace"]
        assert len(t) == N
        assert rec["output"] == t["r0"] + t["r1"] + t[f"r{N // 2}"] + t[f"r{N - 1}"]

    assert [float(x) for x in run("logpdf", "--trace", str(records)).split()] == \
        [rec["logpdf"] for rec in recs]

    # continuous replay of abducted uniforms round-trips within 1e-9
    us.write_text(run("abduct", "--trace", str(records)))
    replayed = [json.loads(line) for line in run("cf", "--u", str(us)).splitlines()]
    moved = [json.loads(line) for line in
             run("cf", "--u", str(us), "--set", "r1=0.5").splitlines()]
    for rec, same, cf in zip(recs, replayed, moved):
        t = rec["trace"]
        assert same["trace"].keys() == t.keys() and "r1" not in cf["trace"]
        assert all(abs(same["trace"][b] - t[b]) < 1e-9 for b in t)
        assert abs(same["output"] - rec["output"]) < 1e-9
        assert abs(cf["output"] - (rec["output"] - t["r1"] + 0.5)) < 1e-9


def _output_text(t: dict, n: int) -> str:
    """The left-nested JSON list of the n output wires' values."""
    return "[" * (n - 1) + str(t["r0"]) + "".join(f", {t[f'r{i}']}]" for i in range(1, n))


def test_wide_output_leg(capsys, tmp_path):
    model = tmp_path / "wide_output.json"
    model.write_text(json.dumps(wide_output_raw(N)))
    records, us = tmp_path / "records.jsonl", tmp_path / "u.jsonl"
    run = _runner(capsys, model)

    assert run("validate") == "OK\n"
    records.write_text(run("sample", "--n", "1", "--seed", "5"))
    text = records.read_text()
    # the record nests deeper than json.loads reads; its trace does not
    head, _, tail = text.partition(', "trace": ')
    t = json.loads(tail[:-2])
    assert head.endswith(', "output": ' + _output_text(t, N))
    assert math.isclose(float(head.split(",")[0].split(": ")[1]), N * math.log(0.5))

    us.write_text(json.dumps({f"r{i}": [0.25] for i in range(N)}) + "\n")
    cf = run("cf", "--u", str(us), "--set", "r7=1")
    head, _, tail = cf.partition(', "trace": ')
    t = json.loads(tail[:-2])
    assert "r7" not in t and len(t) == N - 1
    assert head == '{"output": ' + _output_text({**t, "r7": 1}, N)

    # logpdf cannot decode the record: a clean exit, not a traceback
    assert main(["logpdf", str(model), "--trace", str(records)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "recursion depth" in err


def test_wide_input_rejected_cleanly(capsys, tmp_path):
    # the error names the 3000-factor input space
    model = tmp_path / "wide_input.json"
    model.write_text(json.dumps(wide_input_raw(N)))
    assert main(["sample", str(model), "--input", "5"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: expected a two-element array for Product(left=Product(")
    assert err.count("\n") == 1 and err.endswith("got 5\n")


def test_cover_on_a_wide_output_leg(capsys, tmp_path):
    # a cover piece or point nests once per output wire
    for n, args in ((300, ("--count", "2")),
                    (600, ("--point", "[" * 599 + "0" + ", 1]" * 599))):
        model = tmp_path / f"wide_output_{n}.json"
        model.write_text(json.dumps(wide_output_raw(n)))
        assert main(["cover", str(model), *args]) == 4, n
        assert capsys.readouterr() == ("", "error: the output space nests too deeply to cover\n")
