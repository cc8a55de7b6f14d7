"""
05_model_files_and_cli.py

Models serialize to a single JSON document: a signature (wire spaces and
box types), a wiring, an interpretation naming a builtin primitive per
box label, and optional weight expressions. The jointkern command line
works entirely off such files, so every query in demos 01 to 04 is also
available from a shell.

This script writes the rain/sprinkler/wet model from demo 03 to a temp
file and drives the command line against it as a subprocess.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from jointkern import model_from_dict, print_model

MODEL = {
    "version": 1,
    "signature": {
        "wires": {"B": {"space": {"finite": 2}}},
        "boxes": {
            "rain": {"dom": [], "cod": ["B"]},
            "sprk": {"dom": ["B"], "cod": ["B"]},
            "wet": {"dom": ["B", "B"], "cod": ["B"]},
        },
    },
    "diagram": {
        "wires": {"r": "B", "s": "B", "w": "B"},
        "boxes": {"rain": "rain", "sprk": "sprk", "wet": "wet"},
        "dom": {"rain": [], "sprk": ["r"], "wet": ["r", "s"]},
        "cod": {"rain": ["r"], "sprk": ["s"], "wet": ["w"]},
        "inputs": [],
        "outputs": ["w"],
    },
    "interpretation": {
        "rain": {"primitive": "bernoulli", "params": {"p": 0.2}},
        "sprk": {"primitive": "bernoulli",
                 "params": {"p": "if $0 < 1 then 0.4 else 0.05"}},
        "wet": {"primitive": "bernoulli", "params": {"p":
                "if $0 < 1 then (if $1 < 1 then 0.05 else 0.8) "
                "else (if $1 < 1 then 0.9 else 0.99)"}},
    },
}


def cli(*args, expect=0):
    proc = subprocess.run([sys.executable, "-m", "jointkern", *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr)
    return proc.stdout


# removed when the script exits
workdir = tempfile.TemporaryDirectory()
tmp = Path(workdir.name)
path = tmp / "rain.json"
path.write_text(json.dumps(MODEL))

# Parsing and re-printing is a stable round-trip: print_model emits
# canonical JSON, so a reparse prints the identical document.
m = model_from_dict(MODEL)
text = print_model(m)
assert print_model(model_from_dict(json.loads(text))) == text
print("print_model round-trip is stable,", len(text), "bytes")

print("\n$ jointkern validate rain.json")
print(cli("validate", str(path)), end="")

# Records carry the full trace, the output value, and its log-density.
# The seed makes reruns byte-identical.
print("\n$ jointkern sample rain.json --n 3 --seed 5")
out = cli("sample", str(path), "--n", "3", "--seed", "5")
print(out, end="")
assert out == cli("sample", str(path), "--n", "3", "--seed", "5")

# Interventions prefix any other command.
print("\n$ jointkern do rain.json --set sprk=1 sample --n 3 --seed 5")
print(cli("do", str(path), "--set", "sprk=1", "sample", "--n", "3",
          "--seed", "5"), end="")

# Counterfactual replay: abduct noise from a factual trace, then rerun
# it under an intervention. The pipeline is two commands joined by a
# u-assignment file.
factual = tmp / "seen.jsonl"
factual.write_text(json.dumps(
    {"trace": {"rain": 1, "sprk": 0, "wet": 1}}) + "\n")
u_file = tmp / "u.jsonl"
u_file.write_text(cli("abduct", str(path), "--trace", str(factual)))
print("\n$ jointkern abduct rain.json --trace seen.jsonl")
print(u_file.read_text(), end="")

print("\n$ jointkern cf rain.json --u u.jsonl --set rain=0")
print(cli("cf", str(path), "--u", str(u_file), "--set", "rain=0"), end="")

# The spw audit with no --ref compares against exact enumeration.
print("\n$ jointkern spw rain.json --n 20000 --seed 1")
print(cli("spw", str(path), "--n", "20000", "--seed", "1"), end="")

# Bad input is an exit code, not a traceback. Forcing a value outside
# the wire space is a shape error, code 4.
print("\n$ jointkern do rain.json --set rain=7 sample   (exit code?)")
proc = subprocess.run([sys.executable, "-m", "jointkern", "do", str(path),
                       "--set", "rain=7", "sample"], capture_output=True,
                      text=True)
print("exit", proc.returncode, "stderr:", proc.stderr.strip())

print("\n$ jointkern export-dot rain.json  (first lines)")
dot = cli("export-dot", str(path))
print("\n".join(dot.splitlines()[:4]))
