"""Host-speed adjustment: review CPU time measured against a fixed workload.

The benchmark runs on small shared VMs whose CPU speed drifts by a third
within minutes, with the load of other guests on the host. Raw wall times
of a CPU-bound review then spread by a quarter between runs of the same
code, which hides any change smaller than that.

So each timed review (and each set-up probe) is bracketed by runs of
``reference_seconds()``: a fixed pure-Python workload that does not touch
``sgcr`` and mixes what a review does (hashing trigrams into float vectors,
regex tokenising, set overlap, dot products, JSON). Its inputs never change,
so its time measures the host's speed at that moment. ``adjusted`` scales
the CPU part of the review by ``REFERENCE_S`` over the mean of the times
just before and just after it. The rest of the wall time, spent waiting
on simulated model calls, is left as it is.
The result is the review's wall time in seconds of a host on which the
reference workload takes ``REFERENCE_S``.

On a 2-vCPU VM, over ten minutes of back-to-back reviews, 30-second windows
of raw medians spread by 0.24 of their median (quartile distance); the
adjusted medians spread by 0.03-0.04. The raw figures are printed beside
the adjusted ones.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import time

# The reference workload's median time on the 2-vCPU VM the benchmark was
# tuned on, so adjusted seconds there read close to raw ones.
REFERENCE_S = 0.055

_TOKEN = re.compile(r"[a-z0-9_]+")
_DIMENSION = 64


def _texts() -> list[str]:
    rng = random.Random("perfbench reference workload")
    words = [
        "".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(3, 9)))
        for _ in range(500)
    ]
    return [" ".join(rng.choice(words) for _ in range(60)) for _ in range(40)]


_TEXTS = _texts()


def _workload() -> float:
    vectors = []
    for text in _TEXTS:
        vector = [0.0] * _DIMENSION
        for i in range(len(text) - 2):
            digest = hashlib.sha256(text[i : i + 3].encode("utf-8")).digest()
            vector[int.from_bytes(digest[:8], "big") % _DIMENSION] += 1.0
        norm = sum(x * x for x in vector) ** 0.5
        vectors.append([x / norm for x in vector])
    tokens = [frozenset(_TOKEN.findall(text)) for text in _TEXTS]
    total = 0.0
    for a in range(len(_TEXTS)):
        for b in range(len(_TEXTS)):
            total += len(tokens[a] & tokens[b]) / len(tokens[a] | tokens[b])
            total += sum(x * y for x, y in zip(vectors[a], vectors[b]))
    json.loads(json.dumps({"vectors": vectors, "texts": _TEXTS}))
    return total


def reference_seconds() -> float:
    """Time one run of the reference workload.

    Automatic garbage collection is held off meanwhile, so the garbage a
    review left behind is collected in the next review, not in here.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _workload()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def adjusted(wall: float, cpu: float, reference: float) -> float:
    """Wall time with its CPU part scaled to the reference host speed."""
    cpu = min(cpu, wall)
    return (wall - cpu) + cpu * REFERENCE_S / reference
