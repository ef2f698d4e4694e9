"""Apply each mutant of tests/mutants.txt to a fresh copy of the package and
check that the tests it names kill it.

    python tests/run_mutants.py

Each line of mutants.txt that is neither blank nor a ``#`` comment holds four
tab-separated fields: the file (relative to the repository root), the exact
text to replace, its replacement, and the pytest ids that kill the mutant
(space-separated test files or node ids).  In both texts ``\\n`` stands for a
newline and ``\\\\`` for a backslash.  A mutant that no test can kill, because
it does not change behaviour, names ``equivalent: <argument>`` in the last
field; its text is still checked, but no test is run for it.

``src``, ``tests`` and ``pyproject.toml`` are copied once into a temporary
directory.  The named tests of every mutant first run there unmutated and must
pass.  Then each mutant is written in, its tests run with ``-x`` (no bytecode
is written, so no stale cache outlives a mutant) and the file is restored.
A mutant is killed when pytest reports a failed test (exit code 1) or runs
past TIMEOUT_S; it survives on exit code 0; any other exit code, or a text
that does not occur exactly once, is an error in the list.  One line per
mutant gives its outcome and wall time; the exit code is 0 only if every
mutant that is not equivalent is killed.

Uses only the standard library and pytest; pytest does not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIST = Path(__file__).with_name("mutants.txt")
TIMEOUT_S = 600
EQUIVALENT = "equivalent:"


def _unescape(text: str) -> str:
    return re.sub(r"\\(.)", lambda m: {"n": "\n", "\\": "\\"}[m.group(1)], text)


def read_mutants() -> list[dict]:
    mutants = []
    for number, line in enumerate(LIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise SystemExit(f"{LIST.name}:{number}: expected 4 tab-separated fields, "
                             f"got {len(fields)}")
        file, text, replacement, tests = fields
        mutants.append({"line": number, "file": file, "text": _unescape(text),
                        "replacement": _unescape(replacement), "tests": tests.strip()})
    return mutants


def _pytest(copy: Path, tests: list[str]) -> tuple[int | None, float]:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main() -> int:
    mutants = read_mutants()
    with tempfile.TemporaryDirectory(prefix="kunzcone-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)

        named = sorted({t for m in mutants if not m["tests"].startswith(EQUIVALENT)
                        for t in m["tests"].split()})
        code, seconds = _pytest(copy, named)
        print(f"unmutated: {len(named)} test ids, exit {code} in {seconds:.1f} s", flush=True)
        if code != 0:
            print("the named tests must pass before any mutant is applied")
            return 1

        bad = 0
        for m in mutants:
            target = copy / m["file"]
            original = target.read_text()
            where = f"{LIST.name}:{m['line']} {m['file']}"
            found = original.count(m["text"])
            if found != 1:
                print(f"{'ERROR':<10} {where}: the text occurs {found} times, not once")
                bad += 1
                continue
            if m["tests"].startswith(EQUIVALENT):
                print(f"EQUIVALENT {where}: {m['tests'][len(EQUIVALENT):].strip()}")
                continue
            target.write_text(original.replace(m["text"], m["replacement"]))
            try:
                code, seconds = _pytest(copy, m["tests"].split())
            finally:
                target.write_text(original)
            outcome = {1: "killed", None: "killed (timeout)", 0: "SURVIVED"}.get(
                code, f"ERROR (exit {code})")
            print(f"{outcome:<10} {where} in {seconds:.1f} s by {m['tests']}", flush=True)
            bad += code not in (1, None)
    print(f"{len(mutants)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
