"""A catalogue of mutations that the tests must kill, and its runner.

Each mutant names a file of the package, a text that occurs exactly once in
it, the text's replacement, and the tests (files or node ids) of which at
least one must fail once the replacement is made; they run at the quick
tier (-m "not slow").  The runner copies src/, tests/ and pyproject.toml to
a temporary directory, applies one mutant there, runs its tests, and
reports the mutants that survive.  tests/test_mutants.py checks that every
catalogued text still occurs exactly once, so a change to such a line must
update its entry.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the mutants named

Exit status 0 when every mutant run is killed, 1 when one survives or its
tests cannot run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str              # relative to the repository root
    text: str              # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]


_ENGINE = "src/ecfrac/montecarlo.py"
_X_LO = "x_lo = down(down(down(b_lo + z_lo) / u_hi) - z_lo)"
_Z_NEXT = "z_lo, z_hi = down(b_lo / up(b_lo + z_hi)), np.fmin(up(b_hi / down(b_hi + z_lo)), 1.0)"
_ENGINE_TESTS = ("tests/test_montecarlo.py",)
_EXACT_VERDICT = "hits[j] += lo <= digits[n - 1] and (hi is None or digits[n - 1] <= hi)"
_MEASURE = "src/ecfrac/measure.py"
_MEASURE_TESTS = ("tests/test_measure.py",)

MUTANTS = (
    Mutant("x_lo-one-outward-step-dropped", _ENGINE, _X_LO,
           "x_lo = down(down(b_lo + z_lo) / u_hi) - z_lo", _ENGINE_TESTS),
    Mutant("x_lo-rounded-to-nearest", _ENGINE, _X_LO,
           "x_lo = (b_lo + z_lo) / u_hi - z_lo", _ENGINE_TESTS),
    Mutant("x_lo-reads-u_lo", _ENGINE, _X_LO,
           "x_lo = down(down(down(b_lo + z_lo) / u_lo) - z_lo)", _ENGINE_TESTS),
    Mutant("z-next-ends-swapped", _ENGINE, _Z_NEXT,
           "z_lo, z_hi = down(b_lo / up(b_lo + z_lo)), np.fmin(up(b_hi / down(b_hi + z_hi)), 1.0)",
           _ENGINE_TESTS),
    Mutant("exact-verdict-lower-end-strict", _ENGINE, _EXACT_VERDICT,
           "hits[j] += lo < digits[n - 1] and (hi is None or digits[n - 1] <= hi)",
           _ENGINE_TESTS),
    Mutant("exact-verdict-upper-end-strict", _ENGINE, _EXACT_VERDICT,
           "hits[j] += lo <= digits[n - 1] and (hi is None or digits[n - 1] < hi)",
           _ENGINE_TESTS),
    Mutant("walk-keeps-the-denominator", "src/ecfrac/expansion.py", "p, q = r, q - r",
           "p, q = r, q", ("tests/test_expansion.py",)),
    Mutant("kernel-upper-masses-from-zeros", _MEASURE, "new_up = list(range(1, cap + 1))",
           "new_up = [0] * cap", _MEASURE_TESTS),
    Mutant("s-upper-factor-loosened", _MEASURE, "return (lead * power) / (1 - theta)",
           "return (lead * power) / (1 - theta) * (1 + Fraction(1, 2**20))", _MEASURE_TESTS),
    Mutant("dyadic-interval-takes-prec", "src/ecfrac/numerics.py",
           "def _dyadic_interval(lo: int, hi: int, exp: int) -> OutwardInterval:",
           "def _dyadic_interval(lo: int, hi: int, exp: int,\n"
           "                     prec: int = DEFAULT_PRECISION_BITS) -> OutwardInterval:",
           ("tests/test_exports.py",)),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or 'error' (the tests could not run)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, work / tree,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / mutant.path
        source = target.read_text()
        if source.count(mutant.text) != 1:
            return "error"
        target.write_text(source.replace(mutant.text, mutant.replacement))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-m", "not slow",
                               "-p", "no:cacheprovider", *mutant.tests],
                              cwd=work, env=env, capture_output=True).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    verdicts = {mutant.name: run(mutant) for mutant in chosen}
    for name, verdict in verdicts.items():
        print(f"{verdict:9} {name}")
    return 0 if set(verdicts.values()) <= {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
