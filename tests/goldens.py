"""The README's CLI examples and their committed documents.

Every ``eigensearch ...`` command in a README code block has a golden
document in ``golden/``, named by its subcommand and output format
(``spectrum.json``, ``pipeline.csv``, ...).  ``moves`` compares a document
with its golden key by key: integers, strings, bools and nulls, and so
every ledger count, must match exactly, and floats within
``FLOAT_TOLERANCE``.  ``golden/regenerate.py`` rewrites the goldens and
prints the largest move per key.
"""

import csv
import io
import json
import shlex
from pathlib import Path
from typing import NamedTuple

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"

# (absolute, relative) allowance per float key: a float passes when
# |value - golden| <= max(absolute, relative * |golden|).  Keys not listed
# take DEFAULT_TOLERANCE, whose absolute floor covers the roundoff-level
# values (a vanishing first moment, a far eigenphase's predicted error).
DEFAULT_TOLERANCE = (1e-15, 1e-12)
FLOAT_TOLERANCE = {
    # probabilities, absolute: a 1e-9 move of a success probability fails
    "success_probability": (1e-12, 0.0),
    "success": (1e-12, 0.0),
    "ancilla_leakage": (1e-12, 0.0),
    # a measured inversion error is the norm of a difference; below 1e-13
    # it is roundoff, compared absolute (one such value moves by an ulp
    # between one and two OpenBLAS threads)
    "measured": (1e-13, 1e-12),
}


class Move(NamedTuple):
    path: tuple
    golden: object
    value: object
    allowed: bool


def readme_examples():
    """Every ``eigensearch ...`` command in the README's code blocks, with
    line continuations joined."""
    commands = []
    for block in README.read_text().split("```")[1::2]:
        joined = block.replace("\\\n", " ")
        commands += [shlex.split(line)[1:] for line in joined.splitlines()
                     if line.startswith("eigensearch ")]
    return commands


def golden_path(args) -> Path:
    fmt = args[args.index("--format") + 1] if "--format" in args else "json"
    return GOLDEN / f"{args[0]}.{fmt}"


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(path: Path, text: str):
    """A document as ``path``'s format reads it: a CSV as a list of rows,
    each cell an int, a float or a string."""
    if path.suffix == ".csv":
        return [{k: _cell(v) for k, v in row.items()}
                for row in csv.DictReader(io.StringIO(text))]
    return json.loads(text)


def _leaves(doc, path=()):
    if isinstance(doc, (dict, list)) and doc:
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return {leaf: value for k, v in items
                for leaf, value in _leaves(v, path + (k,)).items()}
    return {path: doc}


def key_of(path) -> str:
    """The innermost dict key of a leaf's path, which picks its tolerance."""
    return next((k for k in reversed(path) if isinstance(k, str)), "")


def _allowed(path, golden, value) -> bool:
    if not (isinstance(golden, float) and isinstance(value, float)):
        return False
    absolute, relative = FLOAT_TOLERANCE.get(key_of(path), DEFAULT_TOLERANCE)
    return abs(value - golden) <= max(absolute, relative * abs(golden))


def moves(golden, doc) -> list[Move]:
    """Every leaf of ``doc`` that differs from ``golden``; a leaf on one
    side only has the value None on the other and is never allowed."""
    old, new = _leaves(golden), _leaves(doc)
    out = []
    for path in [*old, *(p for p in new if p not in old)]:
        if path not in old or path not in new:
            out.append(Move(path, old.get(path), new.get(path), False))
        elif not (type(old[path]) is type(new[path]) and old[path] == new[path]):
            out.append(Move(path, old[path], new[path], _allowed(path, old[path], new[path])))
    return out
