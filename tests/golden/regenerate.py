"""Rewrite the golden documents of the README's CLI examples.

    python3 tests/golden/regenerate.py

Runs every ``eigensearch ...`` command in the README's code blocks, writes
its document into this directory, and prints per golden and per key the
largest move from the document it replaces, and whether the golden test's
tolerance table allows it.  A change that moves a golden pastes this
summary into CHANGES.md.
"""

import contextlib
import io
import shlex
import sys
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import goldens  # noqa: E402
from eigensearch.cli import main  # noqa: E402


def summary(moved) -> list[str]:
    """One line per key: the number of leaves that moved, the largest
    absolute and relative float move, and whether every move is allowed."""
    by_key = defaultdict(list)
    for move in moved:
        by_key[goldens.key_of(move.path)].append(move)
    lines = []
    for key, group in by_key.items():
        floats = [m for m in group
                  if isinstance(m.golden, float) and isinstance(m.value, float)]
        line = f"  {key or '<row>'}: {len(group)} moved"
        if floats:
            worst = max(floats, key=lambda m: abs(m.value - m.golden))
            rel = max(abs(m.value - m.golden) / abs(m.golden) if m.golden else float("inf")
                      for m in floats)
            line += (f", largest {worst.golden!r} -> {worst.value!r} "
                     f"(abs {abs(worst.value - worst.golden):.3g}, rel {rel:.3g})")
        if len(floats) < len(group):
            other = next(m for m in group if m not in floats)
            line += f", e.g. {other.golden!r} -> {other.value!r} at {list(other.path)}"
        line += "" if all(m.allowed for m in group) else "  NOT ALLOWED"
        lines.append(line)
    return lines


def regenerate():
    for args in goldens.readme_examples():
        path = goldens.golden_path(args)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(args)
        if code != 0:
            sys.exit(f"eigensearch {shlex.join(args)} exited {code}")
        text = out.getvalue()
        if not path.exists():
            print(f"{path.name}: new")
        elif path.read_text() == text:
            print(f"{path.name}: unchanged")
            continue
        else:
            old = goldens.parse(path, path.read_text())
            print(f"{path.name}:")
            print("\n".join(summary(goldens.moves(old, goldens.parse(path, text))))
                  or "  formatting only")
        path.write_text(text)


if __name__ == "__main__":
    regenerate()
