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
_X_CHAIN = """np.add(b, z, out=x)
    x_bits += down_up
    np.minimum(x_bits, inf_bits, out=x_bits)
    np.divide(x, u, out=x)
    x_bits += down_up
    np.minimum(x_bits, inf_bits, out=x_bits)
    np.subtract(x, z, out=x)
    x_bits += down_up
    np.minimum(x_bits, inf_bits, out=x_bits)"""
_U_ROWS = """out=u[:, j, 1:])
            np.add(u[:, :, 1:], scale, out=u[:, :, :1])"""
_ENGINE_TESTS = ("tests/test_montecarlo.py",)
_EXACT_VERDICT = "hits[j] += lo <= digits[n - 1] and (hi is None or digits[n - 1] <= hi)"
_MEASURE = "src/ecfrac/measure.py"
_MEASURE_TESTS = ("tests/test_measure.py",)

MUTANTS = (
    # Equivalent for soundness: the two 1-ulp steps left widen X past its
    # three roundings, so only the bit-for-bit step test kills it.
    Mutant("x-one-outward-step-dropped", _ENGINE,
           "np.subtract(x, z, out=x)\n    x_bits += down_up\n", "np.subtract(x, z, out=x)\n",
           _ENGINE_TESTS),
    Mutant("x-rounded-to-nearest", _ENGINE, _X_CHAIN,
           "np.add(b, z, out=x)\n    np.divide(x, u, out=x)\n    np.subtract(x, z, out=x)",
           _ENGINE_TESTS),
    Mutant("u-rows-unswapped", _ENGINE, _U_ROWS,
           "out=u[:, j, :1])\n            np.add(u[:, :, :1], scale, out=u[:, :, 1:])",
           _ENGINE_TESTS),
    Mutant("z-next-ends-swapped", _ENGINE, "np.add(x, z_swapped, out=b)", "np.add(x, z, out=b)",
           ("tests/test_montecarlo.py::test_float_step_encloses_the_coupling_on_wide_states",)),
    Mutant("up-step-leaves-inf", _ENGINE, "_INF_BITS, _ONE_BITS = 0x7FF0000000000000,",
           "_INF_BITS, _ONE_BITS = 0x7FFFFFFFFFFFFFFF,", _ENGINE_TESTS),
    Mutant("z-hi-cap-dropped", _ENGINE, "np.minimum(z_bits, one_bits, out=z_bits)", "pass",
           _ENGINE_TESTS),
    Mutant("floor-drops-digit-order", _ENGINE, "np.maximum(x_lo, b_lo, out=x_lo)", "pass",
           _ENGINE_TESTS),
    Mutant("uniform-digits-out-of-order", _ENGINE, "u.reshape(-1, 2, count)",
           "u.swapaxes(0, 1).reshape(-1, 2, count)", _ENGINE_TESTS),
    Mutant("exact-verdict-lower-end-strict", _ENGINE, _EXACT_VERDICT,
           "hits[j] += lo < digits[n - 1] and (hi is None or digits[n - 1] <= hi)",
           _ENGINE_TESTS),
    Mutant("exact-verdict-upper-end-strict", _ENGINE, _EXACT_VERDICT,
           "hits[j] += lo <= digits[n - 1] and (hi is None or digits[n - 1] < hi)",
           _ENGINE_TESTS),
    Mutant("default-bits-cell-sampler", _ENGINE, "64 * depth", "-((-11 * depth * depth) // 5)",
           _ENGINE_TESTS),
    Mutant("walk-keeps-the-denominator", "src/ecfrac/expansion.py", "p, q = r, q - r",
           "p, q = r, q", ("tests/test_expansion.py",)),
    Mutant("interval-prefix-ignores-upper-end", "src/ecfrac/expansion.py", " and p_hi != 0", "",
           ("tests/test_expansion.py::test_stop_rule_at_max_digits",)),
    Mutant("kernel-upper-masses-from-zeros", _MEASURE, "new_up = list(range(1, cap + 1))",
           "new_up = [0] * cap", _MEASURE_TESTS),
    Mutant("s-upper-factor-loosened", _MEASURE, "return (lead * power) / (1 - theta)",
           "return (lead * power) / (1 - theta) * (1 + Fraction(1, 2**20))", _MEASURE_TESTS),
    Mutant("ratio-interval-takes-prec", "src/ecfrac/numerics.py",
           "def _ratio_interval(lo: RationalLike, hi: RationalLike, unit: int) -> OutwardInterval:",
           "def _ratio_interval(lo: RationalLike, hi: RationalLike, unit: int,\n"
           "                    prec: int = DEFAULT_PRECISION_BITS) -> OutwardInterval:",
           ("tests/test_exports.py",)),
    Mutant("refinement-words-reversed", _ENGINE,
           "acc << 64 | int(word[0]), block, 0)",
           "acc << 64 | int(word[0]), reversed(block), 0)", _ENGINE_TESTS),
    Mutant("refinement-at-counter-n-plus-one", _ENGINE, "np.array([n], dtype=np.uint64))",
           "np.array([n + 1], dtype=np.uint64))", _ENGINE_TESTS),
    Mutant("digit-blocks-one-counter-early", _ENGINE,
           "np.arange(first, first + taken, dtype=np.uint64)",
           "np.arange(first - 1, first - 1 + taken, dtype=np.uint64)", _ENGINE_TESTS),
    Mutant("refinement-keeps-low-bits", _ENGINE, "extra >> (256 - take)",
           "(extra & ((1 << take) - 1))", _ENGINE_TESTS),
    Mutant("rate-kind-i-reads-i-inf", "src/ecfrac/cli.py", '"I": "I",', '"I": "I_inf",',
           ("tests/test_cli_reference.py",)),
    Mutant("float-ends-strict", _ENGINE, "f >= k if toward > 0 else f <= k",
           "f > k if toward > 0 else f < k", _ENGINE_TESTS),
    Mutant("float-upper-end-rounded-up", _ENGINE, "_float_end(hi, -math.inf)",
           "_float_end(hi, math.inf)", _ENGINE_TESTS),
    Mutant("mean-narrow-trusts-infinity", _ENGINE, "(b_hi - b_lo <= b_lo * 2.0**-30)",
           "(b_hi <= b_lo * (1 + 2.0**-30))", _ENGINE_TESTS),
    Mutant("float-step-warns-on-overflow", _ENGINE,
           'np.errstate(divide="ignore", over="ignore", invalid="ignore")',
           'np.errstate(divide="ignore", invalid="ignore")', _ENGINE_TESTS),
    Mutant("philox-high-words-unpaired", _ENGINE, "hi[::-1]", "hi", _ENGINE_TESTS),
    Mutant("philox-call-skips-a-block", _ENGINE, "range(1, blocks + 1, span)",
           "range(1, blocks + 1, span + 1)", _ENGINE_TESTS),
    Mutant("cp-zero-end-walks", _ENGINE, "if not h:", "if h < 0:", _ENGINE_TESTS),
    Mutant("cp-end-not-moved-outward", _ENGINE,
           "big_k -= max(1, min(big_k, _GRID - big_k) >> shift)", "big_k -= 0", _ENGINE_TESTS),
    Mutant("moment-first-digit-term-dropped", _MEASURE,
           "(first_lo * level_lo ** (n - 1) << bits) + (per_exit_lo * acc_lo << t)",
           "(per_exit_lo * acc_lo << t)", _MEASURE_TESTS),
    Mutant("moment-kernel-per-row", _MEASURE, "_weighted_moment(theta, kernels[n])",
           "_weighted_moment(theta, _propagate_depths({n}, cap)[n])",
           ("tests/test_deviations.py::test_mdp_runs_one_moment_dp_per_call",)),
    Mutant("dp-bits-flat", _MEASURE,
           "return DEFAULT_PRECISION_BITS + 2 * n + 2 * cap.bit_length()",
           "return DEFAULT_PRECISION_BITS", _MEASURE_TESTS),
    Mutant("legendre-stop-strict", "src/ecfrac/deviations.py", "if B - A <= target:",
           "if B - A < target:", ("tests/test_deviations.py",)),
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
