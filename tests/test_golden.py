"""CLI stdout pinned byte for byte on every valid fixture model.

The files under tests/golden were written by the commands in CASES, run in
order, before the joint kernel became a flat slot program; later commands
read earlier outputs (logpdf and abduct read the sampled records, cf reads
the abducted uniforms). The spw audits in SPW, one per weighted fixture,
were written before spw drew its samples in an unscored seeded pass.
The dag fixture (genmodels' layered_dag(1, 0): boxes of two inputs, a
categorical whose probabilities read wires, and a four-wire output leg)
was pinned before the model loader stopped re-checking what it built.
Regenerate only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from jointkern.cli import main

HERE = Path(__file__).parent
MODELS = HERE / "models"
GOLDEN = HERE / "golden"

# fixture -> (extra flags for models with global inputs, one --set for do/cf)
FIXTURES = {
    "chain": ((), "b1=1"),
    "dag": ((), "L0_0=0.5"),
    "inputs": (("--input", "1"), "g=0"),
    "normal": ((), "g=0.5"),
    "sure": ((), "g=0"),
    "uniform2x": ((), "g=1.5"),
    "weighted": ((), "b1=0"),
}

# golden name -> argv after the model path; {sample}/{abduct} are golden files
CASES = {
    "sample": ("sample", "--n", "20", "--seed", "7"),
    "logpdf": ("logpdf", "--trace", "{sample}"),
    "abduct": ("abduct", "--trace", "{sample}"),
    "cf": ("cf", "--u", "{abduct}"),
    "cf_set": ("cf", "--u", "{abduct}", "--set", "{set}"),
    "do_cf": ("do", "--set", "{set}", "cf", "--u", "{abduct}"),
}

# fixture -> extra spw flags; the golden file is FIXTURE.spw.txt
SPW = {
    "weighted": (),
    "uniform2x": ("--ref", "2.6666666666666665"),
}


def spw_argv(fixture: str) -> list:
    return ["spw", str(MODELS / f"{fixture}.json"), "--n", "2000", "--seed", "7", *SPW[fixture]]


def argv(fixture: str, case: str) -> list:
    extra, setting = FIXTURES[fixture]
    path = str(MODELS / f"{fixture}.json")
    files = {"sample": str(GOLDEN / f"{fixture}.sample.txt"),
             "abduct": str(GOLDEN / f"{fixture}.abduct.txt"),
             "set": setting}
    cmd, *rest = CASES[case]
    return [cmd, path, *(a.format(**files) for a in rest), *extra]


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("fixture", list(FIXTURES))
def test_cli_stdout_matches_golden(capsys, fixture, case):
    assert main(argv(fixture, case)) == 0
    out = capsys.readouterr().out
    want = (GOLDEN / f"{fixture}.{case}.txt").read_text(encoding="utf-8")
    assert out == want


@pytest.mark.parametrize("fixture", list(SPW))
def test_spw_stdout_matches_golden(capsys, fixture):
    assert main(spw_argv(fixture)) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{fixture}.spw.txt").read_text(encoding="utf-8")


def _regenerate():
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    runs = [(f"{fixture}.{case}", argv(fixture, case)) for fixture in FIXTURES for case in CASES]
    runs += [(f"{fixture}.spw", spw_argv(fixture)) for fixture in SPW]
    for name, args in runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(args)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.txt").write_text(buf.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_regenerate())
