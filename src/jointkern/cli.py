"""Command-line surface.

    jointkern validate MODEL
    jointkern sample MODEL --n N [--seed S] [--input J] [--out FILE]
    jointkern logpdf MODEL --trace FILE [--input J]
    jointkern do MODEL --set box=value ... COMMAND [flags]
    jointkern cf MODEL --u FILE [--set box=value ...] [--input J]
    jointkern abduct MODEL --trace FILE [--input J] [--out FILE]
    jointkern spw MODEL [--n N] [--seed S] [--h EXPR ...] [--ref X ...] [--input J]
    jointkern cover MODEL [--count N] [--point J]
    jointkern export-dot MODEL [--out FILE]

Exit codes: 0 success, 1 audit failure, 2 I/O or usage, 3 syntax (a model,
trace or u file that is not UTF-8 included), 4 shape/type, 5 diagram
validation. The JOINTKERN_SEED environment variable
supplies the default seed. Trace records are JSON lines with reals printed
at 17 significant digits, so reruns with a fixed seed are byte-identical
and logpdf round-trips exactly.

sample and abduct write their records a block of _KEY_BLOCK at a time, as
each block is made, to stdout or to --out, which they open only once the
first block is made (sample appends to it, abduct overwrites it): an error
in the first block leaves stdout empty and the file as it was, and an error
in a later block leaves the blocks before it written. sample draws a block
of enough records as columns (kernels.sample_block) and writes it with one
% (_block_encoder), with the bits and errors of a block drawn record by
record. abduct refuses an --out that is its --trace file. logpdf and cf
write their records to stdout a block of _KEY_BLOCK at a time too, but an
error in a record writes the records before it first, so it leaves them
all written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import nullcontext
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import Iterable

from . import rng
from .causal import _replayer, intervene
from .diagrams import export_dot
from .errors import (
    DiagramError, ExprSyntaxError, ModelSyntaxError, ShapeError,
)
from .expr import compile_det_map
from .interpret import Interpretation, evaluate
from .kernels import abduct_uniforms, joint_log_density, sample_block, sample_records
from .model import (
    Model, _float_text, _floats_text, _loads, descriptor_to_json, parse_model,
    render_json, value_decoder, value_encoder, value_from_jsonable, value_to_jsonable,
)
from .spaces import (
    Real, UNIT_VALUE, base_measure_mass, cover_index_bound, sigma_finite_cover,
)
from .weighted import spw_check

__all__ = ["main"]


def _default_seed() -> int:
    text = os.environ.get("JOINTKERN_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"JOINTKERN_SEED must be an integer, got {text!r}") from None


def _out(text: str):
    sys.stdout.write(text)


def _emit(texts: Iterable[str], path: str | None, mode: str):
    """Each of texts in turn to the file path, opened in mode ("a" appends,
    "w" overwrites) once the first text is made, or to stdout without one;
    an error before the first text leaves the file as it was."""
    texts = iter(texts)
    first = next(texts, "")
    with open(path, mode, encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        fh.write(first)
        fh.writelines(texts)


def _decode_input(model: Model, text: str | None):
    if not model.diagram.inputs:
        if text is not None:
            raise ShapeError("this model has no global inputs; drop --input")
        return UNIT_VALUE
    if text is None:
        raise ShapeError("this model has global inputs; pass --input")
    return value_from_jsonable(
        model.input_space, _loads(text, ModelSyntaxError, "--input is not valid JSON"))


def _parse_do(model: Model, interp: Interpretation, settings) -> dict:
    """--set entries name graph boxes (or signature boxes directly)."""
    do = {}
    sig = model.signature
    labels = model.diagram.box_label
    for item in settings or []:
        if "=" not in item:
            raise ShapeError(f"--set needs box=value, got {item!r}")
        name, _, text = item.partition("=")
        if name in labels:
            sig_box = labels[name]
            occurrences = [b for b in labels if labels[b] == sig_box]
            if len(occurrences) > 1:
                raise ShapeError(
                    f"box {name!r} shares generator {sig_box!r} with {occurrences}; "
                    f"intervene on the generator name instead")
        elif name in set(sig.boxes):
            sig_box = name
        else:
            raise ShapeError(f"unknown box {name!r} in --set")
        j = _loads(text, ShapeError, f"bad value in --set {item!r}")
        do[sig_box] = value_from_jsonable(interp.space_of(sig.cod[sig_box]), j)
    return do


_raw_decode = json.JSONDecoder().raw_decode


def _read_jsonl(path: str):
    """The JSON value of each line of the file path that is not blank.

    Each line is decoded by the JSON scanner alone, and a line it refuses,
    or one with text after its value, goes to json.loads, only to raise
    json.loads' error as "path:line: not valid JSON: ...". A line that is
    not UTF-8 is read with its bad bytes escaped, and refused as
    "path:line: not valid UTF-8: ..." before it is decoded.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as e:
                    raise ModelSyntaxError(f"{path}:{line_no}: not valid UTF-8: {e}") from None
            line = line.strip()
            if not line:
                continue
            try:
                j, end = _raw_decode(line)
            except (ValueError, RecursionError):
                end = -1
            if end != len(line):
                j = _loads(line, ModelSyntaxError, f"{path}:{line_no}: not valid JSON")
            yield j


def _trace_spaces(kernel) -> dict:
    return {b.box_id: b.primitive.cod for b in kernel.boxes}


def _trace_decoder(kernel):
    """A trace record -> its trace, each value decoded in its box's space;
    one value decoder is built per distinct space, here."""
    decoder = functools.cache(value_decoder)
    decoders = {b: decoder(sp) for b, sp in _trace_spaces(kernel).items()}
    known = decoders.keys()

    def decode(j) -> dict:
        if not isinstance(j, dict) or "trace" not in j:
            raise ModelSyntaxError('trace records need a "trace" field')
        raw = j["trace"]
        if not isinstance(raw, dict):
            raise ModelSyntaxError("trace must be an object")
        if not raw.keys() <= known:
            raise ShapeError(f"trace has unknown boxes {[b for b in raw if b not in known]}")
        return {b: decoders[b](v) for b, v in raw.items()}

    return decode


def _fields(encoders: dict) -> list:
    """(key, its rendered '"key": ' prefix, its encoder) per key, in the
    order render_json sorts the keys of an object. A key renders as
    json.dumps renders a str, by the function it calls for one."""
    return [(b, encode_basestring_ascii(b) + ": ", enc) for b, enc in sorted(encoders.items())]


def _record_template(keys: list, formats: list, scored: bool = True) -> str:
    """A record's render_json text with a % conversion of formats in place
    of each value: the logpdf's, when scored, then the output's, then each
    box's after its '"key": ' prefix in keys (see _fields), a % in which is
    doubled. Both of sample's record writers fill it in, and cf's too."""
    formats = iter(formats)
    head = '{"logpdf": ' + next(formats) + ", " if scored else "{"
    return (head + '"output": ' + next(formats) + ', "trace": {'
            + ", ".join([key.replace("%", "%%") + f for key, f in zip(keys, formats)]) + "}}")


def _record_encoder(trace_spaces: dict, cod, scored: bool = True):
    """(trace, output, logpdf) -> a sampled record's render_json text; not
    scored, (trace, output) -> a cf record's, which has no logpdf. Every
    value encoder is chosen once, from its space."""
    boxes = _fields({b: value_encoder(sp) for b, sp in trace_spaces.items()})
    output = value_encoder(cod)
    template = _record_template([key for _, key, _ in boxes], ["%s"] * (len(boxes) + 2), scored)

    def scored_record(t, x, logpdf) -> str:
        return template % (_float_text(logpdf), output(x), *[enc(t[b]) for b, _, enc in boxes])

    def record(t, x) -> str:
        return template % (output(x), *[enc(t[b]) for b, _, enc in boxes])

    return scored_record if scored else record


def _plain_floats(column) -> bool:
    """Every value of the float column is finite and not integral, so %.17g
    prints each as _float_text does."""
    return not any(map(float.is_integer, column)) and math.isfinite(sum(column))


def _block_encoder(trace_spaces: dict, cod):
    """(traces, outputs, logpdfs), columns as kernels.sample_block makes
    them -> the records' text, one line each: _record_encoder's text of each
    record, made by one % over the block. A column whose encoder is str
    goes in as it is, under %s; a float column under %.17g when
    _plain_floats holds, and any other column as its values' texts."""
    boxes = _fields({b: value_encoder(sp) for b, sp in trace_spaces.items()})
    keys = [key for _, key, _ in boxes]
    encoders = [_float_text, value_encoder(cod), *[enc for _, _, enc in boxes]]

    def encode(traces, outputs, logpdfs) -> str:
        columns = [logpdfs, outputs, *[traces[b] for b, _, _ in boxes]]
        formats = []
        for i, enc in enumerate(encoders):
            if enc is _float_text and _plain_floats(columns[i]):
                formats.append("%.17g")
                continue
            if enc is not str:
                columns[i] = list(map(enc, columns[i]))
            formats.append("%s")
        line = _record_template(keys, formats) + "\n"
        return (line * len(outputs)) % tuple(chain.from_iterable(zip(*columns)))

    return encode


def _uniforms_encoder(box_ids):
    """An abducted u record (box id -> block of floats) -> its render_json text."""
    boxes = _fields({b: _floats_text for b in box_ids})
    return lambda u: "{" + ", ".join([key + enc(u[b]) for b, key, enc in boxes]) + "}"


# ---------------------------------------------------------------------------
# subcommands


def _run_validate(model: Model, interp: Interpretation, ns) -> int:
    _out("OK\n")
    return 0


# the most records that sample draws, or abduct reads, at once
_KEY_BLOCK = 1024

# sample's blocks of at least _COLUMN_MIN_RECORDS records and at most
# _COLUMN_MAX_CELLS cells, records times boxes, run as columns
# (kernels.sample_block); fewer records pay more for a column than they
# save, and more cells hold more memory
_COLUMN_MIN_RECORDS = 8
_COLUMN_MAX_CELLS = 2 ** 16


def _run_sample(model: Model, interp: Interpretation, ns) -> int:
    k = evaluate(model.diagram, interp)
    z = _decode_input(model, ns.input)
    seed = ns.seed if ns.seed is not None else _default_seed()
    spaces = _trace_spaces(k)
    encode = _record_encoder(spaces, k.cod)
    # built by the first block that runs as columns, so a call of fewer
    # records never pays for it
    encode_block = functools.cache(lambda: _block_encoder(spaces, k.cod))

    # one pass per block of records' seed keys, written as soon as it is
    # made; each pass checks z before its first draw, so --n 0 checks it too
    def block(start: int) -> str:
        keys = rng.derived_seed_keys(seed, start, min(start + _KEY_BLOCK, ns.n))
        if _COLUMN_MIN_RECORDS <= len(keys) <= _COLUMN_MAX_CELLS // max(1, len(spaces)):
            return encode_block()(*sample_block(k, z, keys))
        return "".join([encode(*record) + "\n" for record in sample_records(k, z, keys)])

    _emit(map(block, range(0, max(ns.n, 1), _KEY_BLOCK)), ns.out, "a")
    return 0


def _out_blocks(lines: Iterable[str]):
    """Each of lines to stdout, joined a block of _KEY_BLOCK at a time; an
    error in making a line writes the lines before it first."""
    block = []
    try:
        for line in lines:
            block.append(line)
            if len(block) == _KEY_BLOCK:
                text, block = "".join(block), []
                _out(text)
    finally:
        _out("".join(block))


def _run_logpdf(model: Model, interp: Interpretation, ns) -> int:
    k = evaluate(model.diagram, interp)
    decode = _trace_decoder(k)
    z = _decode_input(model, ns.input)
    _out_blocks("%.17g\n" % joint_log_density(k, z, decode(rec))
                for rec in _read_jsonl(ns.trace))
    return 0


# the types of the JSON numbers: a bool is an int to isinstance, not to type
_NUMBER_TYPES = frozenset({int, float})


def _run_cf(model: Model, interp: Interpretation, ns) -> int:
    # intervene and compile once, so every record replays the same kernel
    interp = intervene(model.diagram, interp, _parse_do(model, interp, ns.set))
    k = evaluate(model.diagram, interp)
    replay = _replayer(model.diagram, k)
    encode = _record_encoder(_trace_spaces(k), k.cod, scored=False)
    z = _decode_input(model, ns.input)

    def record(u) -> str:
        if not isinstance(u, dict):
            raise ModelSyntaxError("u records must be objects box -> [floats]")
        for b, block in u.items():
            if not isinstance(block, list) or not _NUMBER_TYPES.issuperset(map(type, block)):
                raise ModelSyntaxError(f"u for {b!r} must be a list of floats")
        # replay converts each uniform to float as it checks it
        return encode(*replay(u, z)) + "\n"

    _out_blocks(map(record, _read_jsonl(ns.u)))
    return 0


def _run_abduct(model: Model, interp: Interpretation, ns) -> int:
    k = evaluate(model.diagram, interp)
    decode = _trace_decoder(k)
    encode = _uniforms_encoder(k.box_ids)
    z = _decode_input(model, ns.input)
    # --out is overwritten while --trace is read: one file cannot be both
    if ns.out and os.path.exists(ns.out) and os.path.samefile(ns.out, ns.trace):
        raise _UsageError("--out names the --trace file")
    records = _read_jsonl(ns.trace)
    # written a block of records at a time, as sample writes its blocks
    blocks = ("".join([encode(abduct_uniforms(k, z, decode(rec))) + "\n" for rec in block])
              for block in iter(lambda: list(islice(records, _KEY_BLOCK)), []))
    _emit(blocks, ns.out, "w")
    return 0


def _run_spw(model: Model, interp: Interpretation, ns) -> int:
    wk = model.weighted_kernel(interp)
    z = _decode_input(model, ns.input)
    out_wires = model.diagram.outputs
    slot_spaces = [interp.wire_spaces[model.diagram.wire_label[w]] for w in out_wires]
    exprs = ns.h or ["$0"]
    tests = [compile_det_map([e], slot_spaces, [Real(1)], name=e) for e in exprs]
    refs = ns.ref or None
    seed = ns.seed if ns.seed is not None else _default_seed()
    report = spw_check(wk, tests, refs, ns.n, seed, z)
    for e, row in zip(exprs, report):
        row["h"] = e
    _out(render_json(report) + "\n")
    return 0 if all(row["pass"] for row in report) else 1


def _cover_rows(space, ns):
    if ns.point is not None:
        v = value_from_jsonable(space, _loads(ns.point, ShapeError, "bad --point"))
        yield {"point": value_to_jsonable(v), "index": cover_index_bound(space, v)}
        return
    for i in range(ns.count):
        desc = sigma_finite_cover(space, i)
        yield {"index": i, "mass": base_measure_mass(space, desc),
               "piece": descriptor_to_json(desc)}


def _run_cover(model: Model, interp: Interpretation, ns) -> int:
    try:
        for row in _cover_rows(model.output_space, ns):
            _out(render_json(row) + "\n")
    except RecursionError:  # a piece or point nests once per factor of the space
        raise ShapeError("the output space nests too deeply to cover") from None
    return 0


def _run_export_dot(model: Model, interp: Interpretation, ns) -> int:
    _emit([export_dot(model.diagram)], ns.out, "w")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _count(text: str) -> int:
    """A count flag's value: an integer, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


# each command's runner and its flags, as (flag, add_argument kwargs);
# the positional model path comes first, except under `do`
_COMMANDS = {
    "validate": (_run_validate, []),
    "sample": (_run_sample, [
        ("--n", dict(type=_count, default=1)),
        ("--seed", dict(type=int, default=None)),
        ("--input", dict(default=None)),
        ("--out", dict(default=None, help="append records to this file")),
    ]),
    "logpdf": (_run_logpdf, [
        ("--trace", dict(required=True)),
        ("--input", dict(default=None)),
    ]),
    "cf": (_run_cf, [
        ("--u", dict(required=True)),
        ("--set", dict(action="append", default=[])),
        ("--input", dict(default=None)),
    ]),
    "abduct": (_run_abduct, [
        ("--trace", dict(required=True)),
        ("--input", dict(default=None)),
        ("--out", dict(default=None)),
    ]),
    "spw": (_run_spw, [
        ("--n", dict(type=_count, default=100000)),
        ("--seed", dict(type=int, default=None)),
        ("--h", dict(action="append", default=[],
                     help="test function over the output wires (default $0)")),
        ("--ref", dict(type=float, action="append", default=[],
                       help="reference value per --h (default: exact, by elimination)")),
        ("--input", dict(default=None)),
    ]),
    "cover": (_run_cover, [
        ("--count", dict(type=_count, default=5)),
        ("--point", dict(default=None)),
    ]),
    "export-dot": (_run_export_dot, [
        ("--out", dict(default=None)),
    ]),
}

_USAGE = """usage: jointkern COMMAND MODEL [flags]

commands:
  validate    parse and check a model file
  sample      draw seeded trace records (JSON lines)
  logpdf      log-density of each record in a trace file
  do          intervene, then run another command: do MODEL --set box=value COMMAND ...
  cf          counterfactual replay from a u-assignment file
  abduct      recover u-assignments from trace records
  spw         strict-proper-weighting audit
  cover       enumerate sigma-finite cover pieces of the output space
  export-dot  render the diagram as graphviz

run jointkern COMMAND -h for per-command flags.
"""


class _UsageError(Exception):
    pass


def _split_do(tokens: list, need_model: bool):
    """Peel --set pairs (and the model path) off a `do` invocation.

    Everything from the first non-flag token after the model is the nested
    command, so nested flags never collide with do's own --set.
    """
    sets, model, i = [], None, 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "--set":
            if i + 1 >= len(tokens):
                raise _UsageError("--set needs box=value")
            sets.append(tokens[i + 1])
            i += 2
        elif tok.startswith("--set="):
            sets.append(tok[len("--set="):])
            i += 1
        elif need_model and model is None:
            model = tok
            i += 1
        else:
            return model, sets, tokens[i:]
    return model, sets, []


@functools.cache
def _parser(cmd: str, nested: bool) -> argparse.ArgumentParser:
    """The flags of cmd; under `do` the model path is already given. Built
    once per process: a parser is cyclic garbage once dropped."""
    parser = argparse.ArgumentParser(prog=f"jointkern {cmd}")
    if not nested:
        parser.add_argument("model", help="model file (JSON)")
    for flag, kwargs in _COMMANDS[cmd][1]:
        parser.add_argument(flag, **kwargs)
    return parser


def _run_tokens(tokens: list, model: Model | None, interp: Interpretation | None) -> int:
    if not tokens:
        raise _UsageError("a command is required")
    cmd, rest = tokens[0], tokens[1:]
    if cmd == "do":
        path, sets, sub = _split_do(rest, need_model=model is None)
        if model is None:
            if path is None:
                raise _UsageError("do needs a model file")
            model = parse_model(path)
            interp = model.interpretation
        if not sub:
            raise _UsageError("do needs a command to run on the surgered model")
        surgered = intervene(model.diagram, interp, _parse_do(model, interp, sets))
        return _run_tokens(sub, model, surgered)
    if cmd not in _COMMANDS:
        raise _UsageError(f"unknown command {cmd!r}")
    ns = _parser(cmd, model is not None).parse_args(rest)
    if model is None:
        model = parse_model(ns.model)
        interp = model.interpretation
    return _COMMANDS[cmd][0](model, interp, ns)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        _out(_USAGE)
        return 0 if argv else 2
    try:
        return _run_tokens(argv, None, None)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        print(_USAGE, file=sys.stderr, end="")
        return 2
    except (ModelSyntaxError, ExprSyntaxError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except DiagramError as e:
        print(f"error: {e}", file=sys.stderr)
        for v in e.violations:
            print(f"  - {v}", file=sys.stderr)
        return 5
    except ShapeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
