"""A 5000-box linear-Gaussian chain through every record-level command.

The chain is far deeper than Python's recursion limit, so this fails if any
query nests a call per box.
"""

import json

from scipy.special import ndtri

from jointkern.cli import main
from jointkern.model import model_from_dict

N = 5000


def chain_raw(n: int) -> dict:
    """root -> s1 -> ... -> s{n-1}; root ~ N(0.25, 1), s_i ~ N(0.9 w_{i-1}, 1)."""
    boxes = {"root": "root", **{f"s{i}": "step" for i in range(1, n)}}
    return {
        "version": 1,
        "signature": {
            "wires": {"R": {"space": {"real": 1}}},
            "boxes": {"root": {"dom": [], "cod": ["R"]},
                      "step": {"dom": ["R"], "cod": ["R"]}},
        },
        "diagram": {
            "wires": {f"w{i}": "R" for i in range(n)},
            "boxes": boxes,
            "dom": {"root": [], **{f"s{i}": [f"w{i - 1}"] for i in range(1, n)}},
            "cod": {"root": ["w0"], **{f"s{i}": [f"w{i}"] for i in range(1, n)}},
            "inputs": [],
            "outputs": [f"w{n - 1}"],
        },
        "interpretation": {
            "root": {"primitive": "normal", "params": {"mu": 0.25, "sigma": 1.0}},
            "step": {"primitive": "normal", "params": {"mu": "0.9 * $0", "sigma": 1.0}},
        },
    }


def test_long_chain_cli(capsys, tmp_path):
    raw = chain_raw(N)
    assert len(model_from_dict(raw).kernel.boxes) == N
    model = tmp_path / "chain.json"
    model.write_text(json.dumps(raw))
    records, us = tmp_path / "records.jsonl", tmp_path / "u.jsonl"

    def run(*args) -> str:
        assert main([args[0], str(model), *args[1:]]) == 0
        return capsys.readouterr().out

    records.write_text(run("sample", "--n", "1", "--seed", "3"))
    rec = json.loads(records.read_text())
    assert len(rec["trace"]) == N and rec["output"] == rec["trace"][f"s{N - 1}"]

    assert float(run("logpdf", "--trace", str(records))) == rec["logpdf"]

    us.write_text(run("abduct", "--trace", str(records)))
    u = json.loads(us.read_text())
    assert sorted(u) == sorted(rec["trace"])

    cf = json.loads(run("cf", "--u", str(us), "--set", "root=-0.5"))
    assert "root" not in cf["trace"]
    w = -0.5
    for i in range(1, N):
        w = 0.9 * w + float(ndtri(u[f"s{i}"][0]))
        assert cf["trace"][f"s{i}"] == w
    assert cf["output"] == w
