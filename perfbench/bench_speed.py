"""The host's speed, sampled between jobs, to take host drift out of times.

The benchmark runs on a shared host whose speed drifts: the same job can take
1.7 s in one half-minute and 3.0 s in the next.  A fixed, pure-Python
reference task timed between jobs follows that drift.  Each job's time is
scaled by ``REF_SECONDS / t_ref``, where ``t_ref`` is the mean of the
reference times taken just before and just after the job.  The scaled time
is what the job would take on a host that runs the reference in
``REF_SECONDS``.  A change to dspkit does not touch the reference, so it
moves the scaled time exactly as it moves the raw time.
"""

from __future__ import annotations

import time

#: Wall time of one reference task on the nominal host, in seconds.  Scaled
#: times read as seconds on a host that runs the reference this fast (about
#: a quiet period of a 2-core cloud VM).
REF_SECONDS = 0.1

#: Rounds of the reference loop; about ``REF_SECONDS`` on the nominal host.
REF_ROUNDS = 180_000

#: A new sample is taken once this much job time has passed since the last.
SAMPLE_EVERY_S = 1.0


def reference_task(rounds: int = REF_ROUNDS) -> int:
    """Fixed interpreter work of the kind dspkit does: small tuples, sorting,
    dict updates, integer arithmetic and calls.  Independent of dspkit."""
    table: dict[int, int] = {}
    total = 0
    for i in range(rounds):
        parts = (i % 7, i % 5, i % 3)
        key = parts[i % 3]
        table[key] = table.get(key, 0) + sum(parts)
        total += sorted(parts)[1]
    return total + len(table)


#: What ``reference_task()`` returns.
REF_RESULT = 318_865


class HostSpeed:
    """Reference times taken between jobs, and the scale factors they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last_at = 0.0

    def sample(self) -> float:
        t0 = time.perf_counter()
        result = reference_task()
        seconds = time.perf_counter() - t0
        if result != REF_RESULT:
            raise RuntimeError(f"reference task returned {result}, not {REF_RESULT}")
        self.samples.append(seconds)
        self._last_at = time.perf_counter()
        return seconds

    def last(self) -> float:
        """The latest sample, taking one if there is none yet."""
        return self.samples[-1] if self.samples else self.sample()

    def due(self) -> bool:
        return time.perf_counter() - self._last_at >= SAMPLE_EVERY_S

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale for times taken between the samples ``before`` and ``after``."""
        return REF_SECONDS / ((before + after) / 2)
