"""The cell sampler: the two-sample oracle for the Monte Carlo engine.

Each trial draws k uniformly from [0, 2^B) through one fresh numpy
Generator, keyed by the seed and started at counter [0, trial index, 0, 0],
and samples the dyadic cell [k/2^B, (k+1)/2^B]; its digits are the prefix
that every point of the cell shares, the common prefix of the walks of the
cell's two ends (the cell at k = 0 touches 0 and shares none).  This is the
sampler the library ran before it carried enclosures through the one-digit
coupling; the tests check that both draw the digits from the same law.

reference_uniform_cell rebuilds the engine's own uniforms, one fresh numpy
Philox per block read, so the tests can check that a pass drawn on counter
arrays gives every trial the words of its own generator.
"""

import numpy as np

from ecfrac.expansion import _common_prefix


def reference_cell_index(seed: int, index: int, bits: int) -> int:
    """k in [0, 2^bits) of trial `index`: the low `bits` bits of its bytes.

    The index is counter word 1 (the counter is a 256-bit integer, four
    little-endian 64-bit words).
    """
    gen = np.random.Generator(np.random.Philox(key=seed, counter=index << 64))
    nbytes = (bits + 7) // 8
    return int.from_bytes(gen.bytes(nbytes), "little") & ((1 << bits) - 1)


def reference_uniform_cell(seed: int, index: int, n: int, bits: int) -> int:
    """k in [0, 2^bits): the top `bits` bits of digit n's uniform in trial `index`.

    The uniform's first word is word (n - 1) mod 4 of the block at counter
    [ceil(n/4), index, 0, 0]; the 256 bits of each block at [j, index, n, 0],
    j >= 1, follow it, word 0 most significant.  Philox(key=seed) started at
    counter [c0 - 1, c1, c2, 0] (one 256-bit integer, word 0 lowest) gives
    the block at [c0, c1, c2, 0] first.
    """
    def block(c0: int, c2: int) -> list[int]:
        gen = np.random.Philox(key=seed, counter=c0 - 1 | index << 64 | c2 << 128)
        return gen.random_raw(4).tolist()

    value, length = block(-(-n // 4), 0)[(n - 1) % 4], 64
    for j in range(1, -(-(bits - 64) // 256) + 1):
        for word in block(j, n):
            value, length = value << 64 | word, length + 64
    return value >> (length - bits)


def cell_prefixes(seed: int, trials: int, depth: int, bits: int):
    """The certified digit prefix, at most `depth` digits, of each trial."""
    den = 1 << bits
    for index in range(trials):
        k = reference_cell_index(seed, index, bits)
        yield _common_prefix(k, den, k + 1, den, depth)[0]
