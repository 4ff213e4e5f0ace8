"""Host speed probe: one fixed piece of work, timed between ops.

The benchmark runs on a few cores of a shared host. Other tenants' load
slows every op, by up to about 2x, in episodes from a fraction of a second
to minutes; the slowdown shows as neither steal time nor lost CPU time, so
only a wall clock sees it, and a 30 s run can fall wholly inside one
episode. The probe is timed often enough to follow these episodes, and the
runner divides each op's wall time by the speed the probes measured around
it (see run.py).

The probe mixes what gmchan's ops are made of: interpreter work, numpy calls
on tiny arrays, and LAPACK eigensolves of small complex Hermitian matrices.
It is fixed: it does not depend on the seed, the workload or gmchan.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# bound at import, before tracing patches numpy, so probes are never traced
_EIGVALSH = np.linalg.eigvalsh
_rng = np.random.default_rng(7)
_H = _rng.standard_normal((8, 16, 16)) + 1j * _rng.standard_normal((8, 16, 16))
_H = _H + _H.conj().transpose(0, 2, 1)
_S = _rng.standard_normal((4, 4))


def probe() -> float:
    """Wall time of the fixed work, about a millisecond on an idle core."""
    start = perf_counter()
    acc = 0
    for i in range(300):
        d = {"a": i, "b": [i, i + 1]}
        acc += len(d["b"]) + d["a"] % 3
    x = _S
    for _ in range(60):
        x = np.einsum("ij,jk->ik", _S, np.exp(-np.abs(x)))
    for _ in range(4):
        _EIGVALSH(_H)
    return perf_counter() - start


def settled_probe() -> float:
    """Median of five probes after one untimed one, for a fresh process."""
    probe()
    return sorted(probe() for _ in range(5))[2]
