"""CPU time corrected for the host's changing speed.

On a shared VM the same work can take 1.6 times the CPU time while another
guest runs on the sibling hyperthread, and that state changes within a few
milliseconds. Wall time is worse: it also counts the time the hypervisor
gives to other guests. Both varied by 10-30% between identical runs on the
host this benchmark was built on.

A :class:`SpeedClock` times a short fixed reference loop after every
``INTERVAL`` of process CPU time (a ``SIGPROF`` interval timer) and
rescales the CPU time of the slice that ended there by how long the loop
took: the result is the seconds the slice would have taken at the speed
where the loop takes ``REF_SECONDS``. The loop's own time is left out.
Only the scale comes from the loop, so a change that makes the simulator do
less work shows in full.

Short slices matter more than a precise probe. On the build host, twelve
interleaved pairs of runs per workload compared probing every 4-5 ms with
a 250-iteration loop against every 20 ms with a 1000-iteration loop: the
short probes halved the run-to-run spread of ``service_chain`` and
``traffic_streamed``, and cut that of ``mysql_locks`` by 10-40%. A single
short probe is noisy, so each slice takes the median of its own probe and
its two neighbours; on the same runs that never widened the spread and cut
it by up to a third.

The scale is the loop's speed-up to the power ``SENSITIVITY``, not the
speed-up itself: the tight loop suffers more from a busy sibling than
interpreter-heavy code does. On the build host, the loop's slow state
(about 200 µs for 1000 iterations against 128) made set-up (mostly
imports) 1.35x slower. With the plain ratio (power 1), set-up samples taken
in the slow state read 6% below those taken in the fast state, and
simulator samples up to 3% below. At 0.85, set-up and the three single-run
workloads read within 3% of their fast-state medians in either state.

What the probe cannot tell apart from host speed is scaled away with it:
anything that slows the whole interpreter (a ``sys.setprofile`` hook) or
evicts the loop's cache lines (a much larger working set).
"""

from __future__ import annotations

import signal
import statistics
import time

#: Process CPU seconds between speed probes. The kernel runs the profiling
#: timer on its scheduler tick, 4 ms on the build host; the probe costs
#: about 1%.
INTERVAL = 0.004
#: Iterations of the reference loop in one probe.
PROBE_LOOPS = 250
#: The probe's time on an uncontended core of the build host (a 2.1 GHz
#: Xeon VM), so corrected seconds read as that core's seconds. It was
#: 130 µs for 1000 iterations; 250 took 0.258 of that, timed in the
#: signal handler like the probe.
REF_SECONDS = 33.5e-6
#: How much of the loop's slowdown the measured work shares (see above).
SENSITIVITY = 0.85


def scale(took: float) -> float:
    """Corrected seconds per CPU second when the loop took ``took``."""
    return (REF_SECONDS / took) ** SENSITIVITY


def reference_loop(n: int = PROBE_LOOPS) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc ^= table[key]
    return acc


class SpeedClock:
    """Corrected CPU seconds since :meth:`start`; one per process."""

    def __init__(self) -> None:
        self._start = 0.0
        #: (process CPU time when the probe began, the loop's CPU seconds)
        self._probes: list[tuple[float, float]] = []

    def _probe(self, signum: int, frame: object) -> None:
        began = time.process_time()
        thread_began = time.thread_time()
        reference_loop()
        self._probes.append((began, time.thread_time() - thread_began))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        self._start = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def read(self) -> float:
        """Corrected CPU seconds so far. Each slice takes the speed of the
        probe that ends it, as the median with that probe's neighbours;
        the open slice takes the last probe's."""
        now = time.process_time()
        probes = list(self._probes)
        took = [t for _, t in probes]
        speeds = [
            scale(statistics.median(took[max(0, i - 1) : i + 2])) for i in range(len(took))
        ]
        total, begin = 0.0, self._start
        for (probe_at, t), speed in zip(probes, speeds):
            total += (probe_at - begin) * speed
            begin = probe_at + t
        return total + max(0.0, now - begin) * (speeds[-1] if speeds else 1.0)
