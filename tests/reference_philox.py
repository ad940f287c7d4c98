"""Per-trial Philox draw: the test oracle for the sampler's generator.

One fresh numpy Generator per trial, keyed by the seed and started at the
trial's counter, read through Generator.bytes.  The sampler keeps one
bit generator per pass and moves its counter instead; the tests check that
both give every trial the same cell index k.
"""

import numpy as np


def reference_cell_index(seed: int, index: int, bits: int) -> int:
    """k in [0, 2^bits) of trial `index`: the low `bits` bits of its bytes.

    The index is counter word 1 (the counter is a 256-bit integer, four
    little-endian 64-bit words).
    """
    gen = np.random.Generator(np.random.Philox(key=seed, counter=index << 64))
    nbytes = (bits + 7) // 8
    return int.from_bytes(gen.bytes(nbytes), "little") & ((1 << bits) - 1)
