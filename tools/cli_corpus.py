"""Run a fixed corpus of jointkern CLI commands in-process and print what each did.

    python3 tools/cli_corpus.py SRC

imports jointkern from the directory SRC (a tree's src/), runs every
command of the corpus through jointkern.cli.main and prints one line per
command, tab-separated:

    model  command  exit-code  sha256-of-stdout  stderr-as-a-JSON-string

A command that raises an exception main does not catch shows the
exception's class name as its exit code, and the corpus goes on, so a
crash is one line of the diff. A command given --out hashes its stdout
followed by the file it wrote, and an argument longer than 80 characters
shows as its length and digest.
Paths print as {tmp}/... under the corpus's temporary directory and as
{models}/... under tests/models, so two trees' outputs diff line for line:

    python3 tools/cli_corpus.py old/src > old.txt
    python3 tools/cli_corpus.py src > new.txt
    diff old.txt new.txt

The corpus covers validate, sample, logpdf, abduct, cf (with and without
--set), do ... sample, spw (with and without --ref), cover and export-dot
on every model under tests/models, genmodels' chain_model(160, 1|2) and
layered_dag(1..3, 0..7), and models with 300 global inputs and 300 output
wires; sample and spw at record counts on either side of their blocks,
with seeds of every size and a JOINTKERN_SEED; then explicit-residual
variants, a bad expression in a parameter, a det map or a weight, a
normal box whose draws overflow (hidden, on the output leg, or both), spw
audits of weighted models (a poisson box, weights through exp and ln, a
three-output det box, weights that are mostly zero, several --h, and a
model with global inputs, with and without --input), spw audits whose
blocks fall back to one sample at a time (a weight refused past the first
block) and audits of weight factors that fail only where the factor
before them is zero (on some samples or on all), do ... spw on two
weighted models (a box set by do, read by a wired parameter or holding
one), spw's exact reference of a 40-box finite chain and of a
finite layered DAG of 2^20 traces, trace and u files holding values that
are no point of their box's space, and
malformed or misplaced --input, --set and --point values (sample --n 0
among them). Last come the record files of logpdf, abduct and cf at the
edges of the line reader: a record followed by text, after a byte order
mark, holding NaN, Infinity, a 5000-digit integer or 5000 levels of
nesting, padded with \x0b or \xa0, ended by CRLF or CR, or among blank
and whitespace lines; files that are not UTF-8 (a model, and a trace and
a u file past their first line); and 2000-record trace and u files, two
blocks of 1024, whole or with record 1500 a value outside its box's
space, malformed or not UTF-8. Then sample at record counts on either
side of the blocks that run as columns (7, 8, 1024, 1025 and 3000), with
and without --out, on chain, normal, uniform2x, inputs, chain160_1 and a
model whose first refused record (ln of a draw below 0) is in its second
block; and abduct given its --trace file as --out, which it refuses. Last,
logpdf, abduct and cf (with and without --set) at 7, 8, 1024 and 1025
records, either side of the blocks that run as columns, on chain, normal,
inputs and chain160_1.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "tests" / "models"
WIDE = 300

# fixture -> (its --input flags, a --set for cf and do); the rest run bare
FIXTURE_FLAGS = {
    "chain": ((), "b1=1"),
    "dag": ((), "L0_0=0.5"),
    "inputs": (("--input", "1"), "g=0"),
    "normal": ((), "g=0.5"),
    "real2_input": (("--input", "[0.5, 1]"), None),
    "sure": ((), "g=0"),
    "uniform2x": ((), "g=1.5"),
    "weighted": ((), "b1=0"),
}


def _wide_raw(n: int, inputs: bool) -> dict:
    """One det box over n global inputs, or n bernoulli roots all on the output leg."""
    if inputs:
        wires = {**{f"w{i}": "R" for i in range(n)}, "y": "R"}
        boxes, dom, cod = {"s": "sum"}, {"s": list(wires)[:-1]}, {"s": ["y"]}
        sig = {"sum": {"dom": ["R"] * n, "cod": ["R"]}}
        interp = {"sum": {"det": f"$0 + ${n - 1}"}}
        legs = {"inputs": list(dom["s"]), "outputs": ["y"]}
    else:
        wires = {f"w{i}": "B" for i in range(n)}
        boxes = {f"r{i}": f"g{i}" for i in range(n)}
        dom = {f"r{i}": [] for i in range(n)}
        cod = {f"r{i}": [f"w{i}"] for i in range(n)}
        sig = {f"g{i}": {"dom": [], "cod": ["B"]} for i in range(n)}
        interp = {f"g{i}": {"primitive": "bernoulli", "params": {"p": 0.5}} for i in range(n)}
        legs = {"inputs": [], "outputs": list(wires)}
    return {
        "version": 1,
        "signature": {"wires": {"R": {"space": {"real": 1}}, "B": {"space": {"finite": 2}}},
                      "boxes": sig},
        "diagram": {"wires": wires, "boxes": boxes, "dom": dom, "cod": cod, **legs},
        "interpretation": interp,
    }


# a normal whose draws past about the 54th percentile overflow to inf
HUGE_NORMAL = {"primitive": "normal", "params": {"mu": 1.7e308, "sigma": 1e308}}

# JSON texts of values that are no point of a finite: 2 or a real box's space
BAD_VALUES = ("true", "2", "1.5", '"x"', "1e999")


def _overflow_raw(hidden: bool, output: bool) -> dict:
    """The box g draws HUGE_NORMAL onto wire x. Hidden, a det box reads x;
    output, x is on the output leg; both, both."""
    boxes, dom, cod = {"g": "huge"}, {"g": []}, {"g": ["x"]}
    sig = {"huge": {"dom": [], "cod": ["R"]}}
    interp = {"huge": HUGE_NORMAL}
    wires, outputs = {"x": "R"}, []
    if hidden:
        boxes["d"], dom["d"], cod["d"] = "sign", ["x"], ["y"]
        sig["sign"] = {"dom": ["R"], "cod": ["B"]}
        interp["sign"] = {"det": "if $0 < 0.0 then 0 else 1"}
        wires["y"] = "B"
        outputs.append("y")
    if output:
        outputs.append("x")
    return {
        "version": 1,
        "signature": {"wires": {"R": {"space": {"real": 1}}, "B": {"space": {"finite": 2}}},
                      "boxes": sig},
        "diagram": {"wires": wires, "boxes": boxes, "dom": dom, "cod": cod,
                    "inputs": [], "outputs": outputs},
        "interpretation": interp,
    }


def _late_ln_raw() -> dict:
    """u ~ uniform(-0.001, 1) on wire x and y = ln(x): at seed 2 sample's
    first refused record is 1763, in its second block of 1024."""
    return {
        "version": 1,
        "signature": {"wires": {"R": {"space": {"real": 1}}},
                      "boxes": {"draw": {"dom": [], "cod": ["R"]},
                                "log": {"dom": ["R"], "cod": ["R"]}}},
        "diagram": {"wires": {"x": "R", "y": "R"}, "boxes": {"u": "draw", "l": "log"},
                    "dom": {"u": [], "l": ["x"]}, "cod": {"u": ["x"], "l": ["y"]},
                    "inputs": [], "outputs": ["y"]},
        "interpretation": {"draw": {"primitive": "uniform", "params": {"a": -0.001, "b": 1.0}},
                           "log": {"det": "ln($0)"}},
    }


def _weighted_raw(boxes: dict, outputs: list, weights: dict) -> dict:
    """A model of boxes, each name -> (input wires, output wires and their
    types, its interpretation), no global inputs."""
    wires = {w: t for _, outs, _ in boxes.values() for w, t in outs}
    return {
        "version": 1,
        "signature": {"wires": {"R": {"space": {"real": 1}}, "B": {"space": {"finite": 2}},
                                "N": {"space": "countable"}},
                      "boxes": {b: {"dom": [wires[w] for w in ins], "cod": [t for _, t in outs]}
                                for b, (ins, outs, _) in boxes.items()}},
        "diagram": {"wires": wires, "boxes": {b: b for b in boxes},
                    "dom": {b: ins for b, (ins, _, _) in boxes.items()},
                    "cod": {b: [w for w, _ in outs] for b, (_, outs, _) in boxes.items()},
                    "inputs": [], "outputs": outputs},
        "interpretation": {b: entry for b, (_, _, entry) in boxes.items()},
        "weights": weights,
    }


def _weighted_variants() -> dict:
    """name -> (model, the flags after the seed of each spw run on it)."""
    flip = ([], [("x", "B")], {"primitive": "bernoulli", "params": {"p": 0.05}})
    draw = ([], [("r", "R")], {"primitive": "normal", "params": {"mu": 0.5, "sigma": 1.0}})
    hs = ["--h", "$0", "--h", "$1 * $2", "--h", "if $0 < 1 then $2 else 0.5"]
    return {
        "spw_poisson": (_weighted_raw(
            {"c": ([], [("k", "N")], {"primitive": "poisson", "params": {"rate": 3.0}}),
             "s": (["k"], [("y", "R")], {"primitive": "normal",
                                         "params": {"mu": "$0 * 0.5", "sigma": 1.0}})},
            ["y", "k"], {"c": "1.0 + $0 * 0.5"}),
            [["--n", "1000", "--ref", "4.0"], ["--n", "1000", "--h", "$1", "--ref", "2"]]),
        "spw_exp_ln": (_weighted_raw(
            {"g": draw, "u": (["r"], [("v", "R")], {"primitive": "uniform",
                                                     "params": {"a": "$0", "b": "$0 + 2.0"}})},
            ["v"], {"g": "exp(neg($0 * $0) / 2.0)", "u": "ln(3.0 + $1 * $1)"}),
            [["--n", "1000", "--ref", "1.0"], ["--n", "1000", "--h", "exp($0)", "--ref", "2.0"]]),
        "spw_three_out": (_weighted_raw(
            {"b": flip, "g": draw,
             "d": (["x", "r"], [("p", "R"), ("q", "R"), ("s", "B")],
                   {"det": ["$0 * 1.0", "$1 + 1.0", "if $0 < 1 then 1 else 0"]})},
            ["s", "p", "q"], {"d": "$2 * 0.5 + $4"}),
            [["--n", "1000", *hs, "--ref", "0.5", "--ref", "1", "--ref", "0.2"]]),
        "spw_zero_heavy": (_weighted_raw(
            {"b": flip}, ["x"], {"b": "if $0 < 1 then 0.0 else 20.0"}),
            [["--n", "1000"], ["--n", "5000"],
             ["--n", "1000", "--h", "$0", "--h", "1.0 - $0", "--h", "$0 * 3.0"]]),
    }


def _finite_raw(layers: int, width: int) -> dict:
    """layers of width bernoulli boxes, each past the first layer reading
    wires j and j + 1 (mod width) of the layer before, with the last layer
    on the output leg and the first box weighted; width 1 is a chain."""
    boxes = {}
    for i in range(layers):
        for j in range(width):
            ins = sorted({f"w{i - 1}_{j}", f"w{i - 1}_{(j + 1) % width}"}) if i else []
            p = [0.5, "if $0 < 1 then 0.2 else 0.7", "if $0 < $1 then 0.2 else 0.6"][len(ins)]
            boxes[f"b{i}_{j}"] = (ins, [(f"w{i}_{j}", "B")],
                                  {"primitive": "bernoulli", "params": {"p": p}})
    return _weighted_raw(boxes, [f"w{layers - 1}_{j}" for j in range(width)],
                         {"b0_0": "$0 + 0.5"})


def _fallback_variants() -> dict:
    """name -> (model, the spw flags of one run on it). At the seed given,
    the first refused sample lies past the first block of samples: a weight
    product past the float range, whose error names the sample, and a
    negative weight. In the rest no sample is refused: a factor divides by
    zero, or takes ln of zero, only where the factor before it is zero, on
    a few samples or, with a coin that always lands 0, on every one."""
    def coin(p):
        return [], [("x", "B")], {"primitive": "bernoulli", "params": {"p": p}}

    draw = (["x"], [("y", "R")], {"primitive": "uniform", "params": {"a": 0.0, "b": 1.0}})
    flags = ["--n", "2000", "--ref", "1.0", "--seed"]
    return {
        # refused at sample 1102, in the fourth block of 341
        "spw_late_overflow": (_weighted_raw(
            {"b": coin(0.5), "u": draw}, ["y"],
            {"b": "1e300", "u": "if $1 < 0.999 then 1.0 else 1e300"}), [*flags, "2"]),
        # refused at sample 449, in the second block
        "spw_late_negative": (_weighted_raw(
            {"b": coin(0.5), "u": draw}, ["y"],
            {"u": "if $1 < 0.999 then 1.0 else neg(1.0)"}), [*flags, "6"]),
        # x is 0 at samples 429, 716 and 1268, where u's factor never runs
        "spw_fallback_no_error": (_weighted_raw(
            {"b": coin(0.999), "u": draw}, ["y"], {"b": "$0 * 1.0", "u": "1.0 / $0"}),
            [*flags, "2"]),
        # ln of x, scaled so that x = 1 weighs ln 3, not 0
        "spw_zeroed_ln": (_weighted_raw(
            {"b": coin(0.5), "u": draw}, ["y"], {"b": "$0 * 1.0", "u": "ln($0 * 3.0)"}),
            [*flags, "2"]),
        "spw_all_zero": (_weighted_raw(
            {"b": coin(0.0), "u": draw}, ["y"], {"b": "$0 * 1.0", "u": "1.0 / $0"}),
            [*flags, "2"]),
    }


def _expression_variants(chain: dict, weighted: dict) -> dict:
    """Fixtures with a bad expression in a parameter, a det map or a weight."""
    def variant(raw, edit):
        raw = copy.deepcopy(raw)
        edit(raw)
        return raw

    def det(texts):
        def edit(raw):
            raw["signature"]["boxes"]["dup"] = {"dom": ["B"], "cod": ["B", "B"]}
            raw["interpretation"]["dup"] = {"det": texts}
            raw["diagram"]["wires"].update(u="B", v="B")
            raw["diagram"]["boxes"]["b3"] = "dup"
            raw["diagram"]["dom"]["b3"] = ["y"]
            raw["diagram"]["cod"]["b3"] = ["u", "v"]
            raw["diagram"]["outputs"] = ["u", "v"]
        return edit

    def param(text):
        return lambda raw: raw["interpretation"]["step"]["params"].update(p=text)

    return {
        "expr_param_type": variant(chain, param("$7")),
        "expr_param_syntax": variant(chain, param("0.5 +")),
        "expr_det_type": variant(chain, det(["$0", "if $9 < 1 then 1 else 0"])),
        "expr_det_syntax": variant(chain, det(["$0", "if"])),
        "expr_det_count": variant(chain, det("$0")),
        "expr_weight_type": variant(weighted, lambda raw: raw["weights"].update(b2="$5")),
        "expr_weight_syntax": variant(weighted, lambda raw: raw["weights"].update(b2="((")),
    }


def _residual_variants(chain: dict) -> dict:
    """The chain fixture with explicit residual lists, good and bad."""
    def variant(**residuals):
        raw = copy.deepcopy(chain)
        for box, labels in residuals.items():
            raw["interpretation"][box]["residual"] = labels
        return raw

    bad_param = variant(flip=[])
    bad_param["interpretation"]["step"]["params"]["p"] = "$7"
    return {
        "residual_ok": variant(flip=["B"], step=["B"]),
        "residual_empty": variant(flip=[]),
        "residual_unknown": variant(step=["Z"]),
        "residual_not_list": variant(flip=5),
        "residual_two_bad": variant(flip=["B", "B"], step=["Z"]),
        "residual_then_param": bad_param,
    }


class Corpus:
    def __init__(self, main, tmp: str):
        self.main, self.tmp = main, tmp
        self.lines = []

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def model(self, name: str, raw) -> str:
        path = self.path(name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw if isinstance(raw, str) else json.dumps(raw))
        return path

    def run(self, name: str, argv: list, save: str | None = None, seed_env: str | None = None
            ) -> int:
        """Run argv; save its stdout to the file save, when given. seed_env,
        when given, is JOINTKERN_SEED for this command alone, shown after it."""
        out, err = io.StringIO(), io.StringIO()
        if seed_env is not None:
            os.environ["JOINTKERN_SEED"] = seed_env
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(argv)
            except SystemExit as e:  # argparse refuses an unknown flag by exiting
                code = e.code
            except Exception as e:  # noqa: BLE001 - a crash is one line, not the end
                code = type(e).__name__
            finally:
                os.environ.pop("JOINTKERN_SEED", None)
        data = out.getvalue()
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
                data += fh.read()
        if save:
            with open(self.path(save), "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        command = " ".join(map(_short, argv))
        if seed_env is not None:
            command += f" [JOINTKERN_SEED={seed_env}]"
        command, stderr = (text.replace(self.tmp, "{tmp}").replace(str(MODELS), "{models}")
                           for text in (command, err.getvalue()))
        digest = _sha256(data)
        self.lines.append(f"{name}\t{command}\t{code}\t{digest}\t{json.dumps(stderr)}")
        return code

    def commands(self, name: str, path: str, extra=(), setting=None, spw=True, ref=False):
        """The record commands on one model; the records and uniforms each reads
        are the ones the command before it wrote. spw runs with exact references
        when spw is set, and with a --ref too when ref is (1000 samples each)."""
        extra = list(extra)
        trace, u = f"{name}.trace", f"{name}.u"
        self.run(name, ["validate", path])
        self.run(name, ["sample", path, "--n", "4", "--seed", "3", *extra], save=trace)
        self.run(name, ["logpdf", path, "--trace", self.path(trace), *extra])
        self.run(name, ["abduct", path, "--trace", self.path(trace), *extra], save=u)
        self.run(name, ["cf", path, "--u", self.path(u), *extra])
        if setting:
            self.run(name, ["cf", path, "--u", self.path(u), "--set", setting, *extra])
            self.run(name, ["do", path, "--set", setting, "sample", "--n", "2", *extra])
        if spw:
            self.run(name, ["spw", path, "--n", "1000", "--seed", "1"])
        if ref:
            self.run(name, ["spw", path, "--n", "1000", "--seed", "1", "--ref", "0.5"])
        self.run(name, ["cover", path, "--count", "3"])
        self.run(name, ["export-dot", path])


def run_corpus(main, genmodels, tmp: str) -> list:
    c = Corpus(main, tmp)
    for fixture in sorted(MODELS.glob("*.json")):
        extra, setting = FIXTURE_FLAGS.get(fixture.stem, ((), None))
        c.commands(fixture.stem, str(fixture), extra, setting, ref=True)

    for seed in (1, 2):
        raw, _ = genmodels.chain_model(160, seed)
        c.commands(f"chain160_{seed}", c.model(f"chain160_{seed}", raw), (), "root=0.25",
                   spw=seed == 1)
    c.run("chain160_1", ["sample", c.path("chain160_1.json"), "--n", "7"])

    # record counts and seeds at the edges of the blocks that sample and spw
    # draw, and of the seeds' sizes
    for name in ("chain", "normal"):
        path = str(MODELS / f"{name}.json")
        for n in ("0", "1", "2", "1025"):
            for seed in ("-1", "0", "18446744073709551617"):
                c.run(name, ["sample", path, "--n", n, "--seed", seed])
            c.run(name, ["sample", path, "--n", n], seed_env="-3")
    for name, ref in (("weighted", []), ("uniform2x", ["--ref", "2.5"])):
        for n in ("1000", "1001", "2049"):
            c.run(name, ["spw", str(MODELS / f"{name}.json"), "--n", n, "--seed", "-7", *ref])
    for seed in (1, 2, 3):
        for index in range(8):
            name = f"dag_{seed}_{index}"
            raw, _ = genmodels.layered_dag(seed, index)
            root = genmodels.dag_roots(raw)[index % 4]
            c.commands(name, c.model(name, raw), (), f"{root}=0.5", ref=index == 0)

    wide_in = c.model("wide_in", _wide_raw(WIDE, inputs=True))
    c.commands("wide_in", wide_in, ("--input", json.dumps(_nested(0.5, WIDE))), spw=False)
    wide_out = c.model("wide_out", _wide_raw(WIDE, inputs=False))
    c.commands("wide_out", wide_out, (), "r0=1", spw=False)
    c.run("wide_out", ["cover", wide_out, "--point", json.dumps(_nested(1, WIDE))])

    chain = json.loads((MODELS / "chain.json").read_text())
    for name, raw in _residual_variants(chain).items():
        c.run(name, ["validate", c.model(name, raw)])
    weighted = json.loads((MODELS / "weighted.json").read_text())
    for name, raw in _expression_variants(chain, weighted).items():
        c.run(name, ["validate", c.model(name, raw)])
        c.run(name, ["sample", c.path(name + ".json"), "--n", "1"])

    # values a box's space does not hold: drawn by an overflowing normal,
    # and read from trace and u files
    for name, hidden, output in (("huge_hidden", True, False), ("huge_output", False, True),
                                 ("huge_both", True, True)):
        path = c.model(name, _overflow_raw(hidden, output))
        c.commands(name, path, (), "g=1.5", spw=False, ref=True)
        for seed in range(6):
            c.run(name, ["sample", path, "--n", "1", "--seed", str(seed)])
        c.run(name, ["spw", path, "--n", "1000", "--seed", "2", "--ref", "0.5", "--h", "0.5"])
        for u in ("0.2", "0.99"):
            upath = c.path(f"{name}.u{u}")
            with open(upath, "w", encoding="utf-8") as fh:
                fh.write(f'{{"g": [{u}]}}\n')
            c.run(name, ["cf", path, "--u", upath])
    for name, (raw, runs) in _weighted_variants().items():
        path = c.model(name, raw)
        c.run(name, ["validate", path])
        for extra in runs:
            for seed in ("1", "2"):
                c.run(name, ["spw", path, "--seed", seed, *extra])
    for name, (raw, flags) in _fallback_variants().items():
        c.run(name, ["spw", c.model(name, raw), *flags])
    # exact references of finite models with more traces than anyone walks:
    # a chain of 40 boxes and 4 layers of 5
    for name, layers, width in (("finite_chain40", 40, 1), ("finite_dag4x5", 4, 5)):
        c.run(name, ["spw", c.model(name, _finite_raw(layers, width)), "--n", "1000",
                     "--seed", "1"])
    weighted_path, inputs = str(MODELS / "weighted.json"), str(MODELS / "inputs.json")
    c.run("weighted", ["spw", weighted_path, "--n", "1003", "--h", "$0", "--h", "1.0 - $0",
                       "--h", "$0 * 3.0"])
    # spw on a surgered model: a box that reads a box set by do, and a box
    # whose parameters read its input, itself set by do
    for name, path, settings, ref in (
            ("weighted", weighted_path, ("b1=1", "b2=1"), []),
            ("spw_exp_ln", c.path("spw_exp_ln.json"), ("g=0.5", "u=1.5"), ["--ref", "1.0"])):
        for setting in settings:
            c.run(name, ["do", path, "--set", setting, "spw", "--n", "1000", "--seed", "1", *ref])
    for extra in ([], ["--input", "1"], ["--input", "0"], ["--input", "5"],
                  ["--input", "1", "--ref", "0.7"], ["--input", "0", "--h", "1.0 - $0"]):
        c.run("inputs", ["spw", inputs, "--n", "1000", "--seed", "4", *extra])
    for name, boxes in (("chain", ("b1", "b2")), ("normal", ("g",))):
        path = str(MODELS / f"{name}.json")
        good = {"chain": "0", "normal": "0.5"}[name]
        for box in boxes:
            for bad in BAD_VALUES:
                values = ", ".join(f'"{b}": {bad if b == box else good}' for b in boxes)
                trace = c.path(f"{name}.bad.trace")
                with open(trace, "w", encoding="utf-8") as fh:
                    fh.write(f'{{"trace": {{{values}}}}}\n')
                c.run(name, ["logpdf", path, "--trace", trace])
                c.run(name, ["abduct", path, "--trace", trace])
                blocks = ", ".join(f'"{b}": [{bad if b == box else "0.5"}]' for b in boxes)
                upath = c.path(f"{name}.bad.u")
                with open(upath, "w", encoding="utf-8") as fh:
                    fh.write(f"{{{blocks}}}\n")
                c.run(name, ["cf", path, "--u", upath])

    # --out, to each of the three commands that take it
    chain_path, out = str(MODELS / "chain.json"), c.path("out.txt")
    c.run("chain", ["sample", chain_path, "--n", "3", "--out", out])
    c.run("chain", ["sample", chain_path, "--n", "2", "--seed", "9", "--out", out])
    c.run("chain", ["abduct", chain_path, "--trace", c.path("chain.trace"), "--out", out])
    c.run("chain", ["export-dot", chain_path, "--out", out])

    # malformed or misplaced --input, --set and --point
    normal = str(MODELS / "normal.json")
    deep = "[" * 5000
    for text in ("5", "-3", "{", "1.5", deep, "[1, 2]"):
        for cmd in (["sample", inputs, "--n", "1"],
                    ["logpdf", inputs, "--trace", c.path("inputs.trace")],
                    ["abduct", inputs, "--trace", c.path("inputs.trace")],
                    ["cf", inputs, "--u", c.path("inputs.u")]):
            c.run("inputs", [*cmd, "--input", text])
    c.run("inputs", ["sample", inputs, "--n", "1"])
    c.run("inputs", ["sample", inputs, "--n", "0", "--input", "5"])
    for text in ("{", "0"):
        for cmd in (["sample", normal, "--n", "1"],
                    ["logpdf", normal, "--trace", c.path("normal.trace")],
                    ["abduct", normal, "--trace", c.path("normal.trace")],
                    ["cf", normal, "--u", c.path("normal.u")]):
            c.run("normal", [*cmd, "--input", text])
    for setting in ("g={", "g=", "g", "nobox=1", "g=true", f"g={deep}", "g=1e999"):
        c.run("normal", ["cf", normal, "--u", c.path("normal.u"), "--set", setting])
        c.run("normal", ["do", normal, "--set", setting, "sample", "--n", "1"])
    for point in ("{", "0.5", "1", "true", deep, "[0.5]"):
        c.run("normal", ["cover", normal, "--point", point])
    c.run("chain", ["cover", chain_path, "--point", "1"])
    c.run("chain", ["cover", chain_path, "--point", "2"])
    for name, text in (("not_json", "{"), ("deep_json", deep), ("not_object", "[1]")):
        c.run(name, ["validate", c.model(name, text)])

    # record lines at the edges of what the reader takes, each read by
    # logpdf, abduct and cf from one record of the normal fixture
    edges = {"trailing": "{r} x\n", "bom": "\ufeff{r}\n", "vt": "\x0b{r}\x0b\n",
             "nbsp": "\xa0{r}\xa0\n", "crlf": "{r}\r\n{r}\r\n", "cr": "{r}\r{r}\r",
             "blank": "\n{r}\n\n", "spaces": " \t \n{r}\n  \x0c\n"}
    values = {"nan": "NaN", "inf": "Infinity", "digits": "1" * 5000, "deep": deep + "]" * 5000}
    records = (("logpdf", "--trace", '{{"trace": {{"g": {}}}}}', "0.5"),
               ("abduct", "--trace", '{{"trace": {{"g": {}}}}}', "0.5"),
               ("cf", "--u", '{{"g": [{}]}}', "0.25"))
    cases = [(name, text, None) for name, text in edges.items()]
    cases += [(name, "{r}\n", value) for name, value in values.items()]
    for name, text, value in cases:
        for cmd, flag, record, plain in records:
            path = c.path(f"normal.edge_{name}.{cmd}")
            with open(path, "wb") as fh:
                fh.write(text.format(r=record.format(value or plain)).encode("utf-8"))
            c.run("normal", [cmd, normal, flag, path])

    # files that are not UTF-8: a model, and a trace and a u file whose
    # second line is not
    not_utf8 = c.path("not_utf8.json")
    with open(not_utf8, "wb") as fh:
        fh.write(b"\xff")
    for cmd in (["validate"], ["logpdf", "--trace", c.path("normal.trace")],
                ["abduct", "--trace", c.path("normal.trace")], ["cf", "--u", c.path("normal.u")]):
        c.run("not_utf8", [cmd[0], not_utf8, *cmd[1:]])
    c.run("not_utf8", ["do", not_utf8, "--set", "g=0.5", "logpdf", "--trace",
                       c.path("normal.trace")])
    for cmd, flag, line in (("logpdf", "--trace", b'{"trace": {"g": "\xe9"}}'),
                            ("abduct", "--trace", b'{"trace": {"g": "\xe9"}}'),
                            ("cf", "--u", b'{"g": [\xff]}')):
        path = c.path(f"normal.not_utf8.{cmd}")
        with open(path, "wb") as fh:
            fh.write(b'{"trace": {"g": 0.5}}\n' if flag == "--trace" else b'{"g": [0.25]}\n')
            fh.write(line + b"\n")
        c.run("normal", [cmd, normal, flag, path])

    # trace and u files of 2000 records, past the first block of 1024, whole
    # and with record 1500 a value outside its box's space, malformed or not
    # UTF-8
    c.run("chain", ["sample", chain_path, "--n", "2000", "--seed", "5"], save="chain.long.trace")
    c.run("chain", ["abduct", chain_path, "--trace", c.path("chain.long.trace")],
          save="chain.long.u")
    with open(c.path("chain.long.trace"), "rb") as fh:
        traces = fh.read().splitlines(keepends=True)
    with open(c.path("chain.long.u"), "rb") as fh:
        us = fh.read().splitlines(keepends=True)
    for name, bad_trace, bad_u in (
            ("whole", traces[1499], us[1499]),
            ("offspace", b'{"trace": {"b1": 2, "b2": 0}}\n', b'{"b1": [1.5], "b2": [0.5]}\n'),
            ("malformed", b'{"trace": {"b1": 1, "b2"\n', b'{"b1": [0.5], "b2": \n'),
            ("not_utf8", b'{"trace": {"b1": 1, "b2": "\xe9"}}\n',
             b'{"b1": [0.5], "b2": [\xff]}\n')):
        for cmd, flag, lines, bad in (("logpdf", "--trace", traces, bad_trace),
                                      ("abduct", "--trace", traces, bad_trace),
                                      ("cf", "--u", us, bad_u)):
            path = c.path(f"chain.long_{name}.{cmd}")
            with open(path, "wb") as fh:
                fh.write(b"".join(lines[:1499] + [bad] + lines[1500:]))
            c.run("chain", [cmd, chain_path, flag, path])

    # record counts on either side of sample's column blocks, to stdout and
    # to a new --out file each
    late_ln = c.model("late_ln", _late_ln_raw())
    for name, path, extra in (
            ("chain", chain_path, []), ("normal", normal, []),
            ("uniform2x", str(MODELS / "uniform2x.json"), []), ("inputs", inputs, ["--input", "1"]),
            ("chain160_1", c.path("chain160_1.json"), []), ("late_ln", late_ln, [])):
        for n in ("7", "8", "1024", "1025", "3000"):
            argv = ["sample", path, "--n", n, "--seed", "2", *extra]
            c.run(name, argv)
            c.run(name, [*argv, "--out", c.path(f"{name}.{n}.jsonl")])
    trace = c.path("chain.long.trace")
    c.run("chain", ["abduct", chain_path, "--trace", trace, "--out", trace])

    # logpdf, abduct and cf at record counts on either side of the blocks
    # that run as columns, each reading the records the command before wrote
    for name, path, extra, setting in (
            ("chain", chain_path, [], "b1=1"), ("normal", normal, [], "g=0.5"),
            ("inputs", inputs, ["--input", "1"], "g=0"),
            ("chain160_1", c.path("chain160_1.json"), [], "root=0.25")):
        for n in ("7", "8", "1024", "1025"):
            trace, u = f"{name}.records{n}.trace", f"{name}.records{n}.u"
            c.run(name, ["sample", path, "--n", n, "--seed", "4", *extra], save=trace)
            c.run(name, ["logpdf", path, "--trace", c.path(trace), *extra])
            c.run(name, ["abduct", path, "--trace", c.path(trace), *extra], save=u)
            c.run(name, ["cf", path, "--u", c.path(u), *extra])
            c.run(name, ["cf", path, "--u", c.path(u), "--set", setting, *extra])
    return c.lines


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _short(arg: str) -> str:
    """An argument as the command column shows it: a long one by its length and digest."""
    return arg if len(arg) <= 80 else f"<{len(arg)} chars, sha256 {_sha256(arg)[:12]}>"


def _nested(value, n: int):
    out = value
    for _ in range(n - 1):
        out = [out, value]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    sys.path.insert(0, str(ROOT / "bench"))
    os.environ.pop("JOINTKERN_SEED", None)
    from jointkern.cli import main as cli_main
    import genmodels

    with tempfile.TemporaryDirectory() as tmp:
        lines = run_corpus(cli_main, genmodels, tmp)
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
