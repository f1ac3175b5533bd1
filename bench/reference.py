"""The reference computation that scales the benchmark's times.

Other tenants of a shared machine slow it down by up to 1.6x, for
seconds to minutes at a time, which moves every wall-clock time by more
than the benchmark's bounds. So the benchmark also times this fixed
computation, which does not touch cardauthsim, right beside the
operations it measures, and reports times at the reference speed: a
time is multiplied by REFERENCE_S over the reference's time measured
beside it. A change to cardauthsim moves the scaled times; a slower
moment of the machine moves both and cancels out.

The computation mixes what cardauthsim spends its time on: small
SHA-256 digests, byte-wise XOR, dict and string work and JSON encoding.
"""

import gc
import hashlib
import json
import statistics
import time

# The reference's typical time on the baseline machine of README.md; a
# scaled time reads as if the reference took exactly this long.
REFERENCE_S = 1e-3


def _reference() -> int:
    block = bytes(range(32))
    record = {}
    for n in range(160):
        block = hashlib.sha256(block + n.to_bytes(4, "big")).digest()
        mixed = bytes(a ^ b for a, b in zip(block, block[::-1]))
        record[f"event-{n}"] = {"kind": "message", "payload": mixed.hex()}
    return len(json.dumps(record, sort_keys=True))


def time_reference(repeats: int) -> list[float]:
    """Times of `repeats` runs of the reference, with the garbage
    collector off so that the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            _reference()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return samples


def scale(samples: list[float]) -> float:
    """Factor that brings a time measured beside `samples` to the
    reference speed."""
    return REFERENCE_S / statistics.median(samples)
