"""Run the Tier-1 suite under a line tracer limited to ``src/afftalk`` and
fail when a line that can run never ran, unless ``ALLOWED`` names it.

    python tools/line_coverage.py [pytest arguments]

The tracer is ``sys.settrace``, so no coverage package is needed.  Each
source file gets one ``bytearray`` of hits before tracing starts, and every
traced frame shares one local trace function, so the tracer allocates
nothing per frame or per line: Tier-1 bounds some of its own allocations
with ``tracemalloc``.  A line can run when some code object compiled from
its file places an instruction on it.
The script exits 1 when a test fails, when a line outside ``ALLOWED`` never
ran, or when an ``ALLOWED`` entry no longer names a line that never ran.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "afftalk")

# (file name, stripped source line) -> why Tier-1 cannot run that line
ALLOWED: dict[tuple[str, str], str] = {}


def _runnable_lines(path: str) -> set[int]:
    """Every line some code object compiled from ``path`` has an instruction on."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    paths = sorted(
        os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py")
    )
    hits = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            hits[path] = bytearray(sum(1 for _ in f) + 2)

    def local(frame, event, arg):
        line = frame.f_lineno
        if line:
            hits[frame.f_code.co_filename][line] = 1
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)

    unrun, used, runnable = [], set(), 0
    for path in paths:
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as f:
            source = f.read().splitlines()
        lines = _runnable_lines(path)
        runnable += len(lines)
        for line in sorted(lines):
            if hits[path][line]:
                continue
            key = (name, source[line - 1].strip())
            if key in ALLOWED:
                used.add(key)
            else:
                unrun.append(f"{name}:{line}: {key[1]}")
    stale = [f"{name}: {text}" for name, text in ALLOWED if (name, text) not in used]
    for line in unrun:
        print(f"never ran: {line}")
    for entry in stale:
        print(f"allowed but ran or gone: {entry}")
    print(f"line coverage: {runnable - len(unrun) - len(used)} of {runnable} runnable lines "
          f"ran, {len(used)} allowed, {len(unrun)} never ran")
    return 1 if status != 0 or unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
