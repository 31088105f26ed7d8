"""Mutation check of the operation counts and the sweep breakpoints.

    python tools/mutants.py

Copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, applies each mutation below to that copy of ``src/`` in turn, and
runs ``tests/test_schedule.py``, ``tests/test_complexity.py`` and
``tests/test_design.py`` against it. Each of the first four mutations
prices an operation wrongly in exactly one of the two independent counts
(the static opcode table or the meter); the fifth leaves the tally of a
replayed metered program un-reset, so each replay also charges what the
runs before it charged; the sixth confirms each expansion-factor boundary
of the sweep one grid point late. The tests must fail on every one. The unmutated copy runs first and must pass. Exits 1 if
it fails, if a mutant survives, or if a mutation no longer matches the
source exactly once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_schedule.py", "tests/test_complexity.py", "tests/test_design.py"]
SCHEDULE = "src/pfadft/schedule.py"
PFA = "src/pfadft/pfa.py"
DESIGN = "src/pfadft/design.py"

#: name -> (file, text, mutated text)
MUTANTS = {
    "table-adds-doubled": (SCHEDULE, "_ADDS = OpCount(0, 2, 0)", "_ADDS = OpCount(0, 4, 0)"),
    "meter-adds-doubled": (SCHEDULE, "_charge(self.tally, (0, 2, 0), target.size)",
                           "_charge(self.tally, (0, 4, 0), target.size)"),
    "mul-shifts-doubled": (SCHEDULE, "2 * halves)", "4 * halves)"),
    # the meter memoizes a product's charge, which must not hide a wrong price
    "meter-half-shifts-doubled": (SCHEDULE, "return (0, 0, 2)", "return (0, 0, 4)"),
    "replay-tally-not-reset": (PFA, "program.tally[:] = (0, 0, 0)",
                               "program.tally[:] = program.tally"),
    "sweep-boundary-late": (DESIGN, "starts.update(i[found, first[found] + 1].tolist())",
                            "starts.update((i[found, first[found] + 1] + 1).tolist())"),
}


def run_tests(tree: Path) -> bool:
    """True if the tests pass on the source tree copied to ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        for d in ("src", "tests"):
            shutil.copytree(ROOT / d, tree / d, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        if not run_tests(tree):
            print("the unmutated source fails the tests")
            return 1
        survivors = []
        for name, (path, text, mutated) in MUTANTS.items():
            source = (ROOT / path).read_text()
            if source.count(text) != 1:
                print(f"{name}: {text!r} does not occur exactly once in {path}")
                return 1
            (tree / path).write_text(source.replace(text, mutated))
            killed = not run_tests(tree)
            (tree / path).write_text(source)
            print(f"{name}: {'killed' if killed else 'SURVIVED'}")
            if not killed:
                survivors.append(name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
