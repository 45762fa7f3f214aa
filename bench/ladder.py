"""Size ladder: per-call cost of the block and joint right-hand sides on a
qubit principal (x) (2,)^M, so the blocks/joint crossover is visible.

    python3 bench/ladder.py SEED

Prints one JSON object ``{"block_qme_rhs": {D: ms}, "joint_sme_drift":
{D: ms}}``, each value the median over repeated calls on one random
constant model (one interconnection coupling per bath, sigma-minus probe).
The block route stops at D=64, where one call already takes most of a
second; the joint route goes on to D=256.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import numpy as np

from nmembed.generators import block_qme_rhs, joint_sme_drift
from nmembed.verify import joint_from_blocks, random_block_state, random_model

BLOCK_M = range(1, 6)   # D = 4 .. 64
JOINT_M = range(1, 8)   # D = 4 .. 256
MIN_CALLS, MIN_SECONDS = 3, 0.2
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)


def per_call_ms(fn) -> float:
    times = []
    while len(times) < MIN_CALLS or sum(times) < MIN_SECONDS:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main(seed: int) -> dict:
    out = {"block_qme_rhs": {}, "joint_sme_drift": {}}
    for M in JOINT_M:
        key = np.array([seed % 2 ** 64, M], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        model = random_model(rng, 2, (2,) * M, m1=[1] * M, m2=[0] * M,
                             probe=SIGMA_MINUS, scale=0.5)
        bs = random_block_state(rng, model.dims)
        js = joint_from_blocks(bs)
        D = model.dims.total
        out["joint_sme_drift"][f"D{D}"] = per_call_ms(lambda: joint_sme_drift(model, 0.0, js))
        if M in BLOCK_M:
            out["block_qme_rhs"][f"D{D}"] = per_call_ms(lambda: block_qme_rhs(model, 0.0, bs))
    return out


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]))))
