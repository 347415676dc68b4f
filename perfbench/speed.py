"""Time measured against the machine's speed of the moment.

The benchmark runs on a shared machine whose speed drifts: the time of a
fixed pure-Python loop moves by tens of per cent from one second to the
next and from one minute to the next, and CPU time drifts with wall time.
A raw time then tells as much about the neighbours as about eqindex.

So a worker runs a fixed probe between operations (never inside a timed
region), once for every `every_s` seconds that passed since the last probe,
and every time it reports is a raw time scaled by `ref_s / p`, where `p` is
the median probe time in the `bucket_s`-second stretch of the run in which
the measured work started.  A reported second is the time the work takes on
a machine on which the probe takes `ref_s`.

The default probe, `probe()`, does in-process the kind of work eqindex
does: tuple hashing, dict updates, Fraction arithmetic, sorting and a
frozenset.  On the 2-CPU Xeon used to write this benchmark it takes
1.0-1.7 ms, hence `REF_PROBE_S`.  A workload whose operations are child
processes probes with a reference child instead (see `workloads.CliCold`).
No probe uses eqindex, so a change to eqindex moves the scaled times by as
much as it moves the raw ones.
"""

import statistics
from array import array
from fractions import Fraction
from time import perf_counter

REF_PROBE_S = 1e-3
PROBE_EVERY_S = 0.02
BUCKET_S = 0.25
FIRST_PROBES = 5
SETUP_PROBES = 20


def probe():
    d = {}
    acc = Fraction(0)
    for i in range(400):
        key = (i % 7, i % 11, i % 3)
        d[key] = d.get(key, 0) + i
        acc += Fraction(i % 13, 1 + i % 5)
    ranked = sorted(d.items(), key=lambda kv: kv[1])
    return acc, frozenset(k for k, _ in ranked)


def probe_median(n):
    """The median of n in-process probes taken now."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        probe()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Speed:
    """Probe times over one run, and the scale for work started at t."""

    def __init__(self, probe=probe, ref_s=REF_PROBE_S, every_s=PROBE_EVERY_S,
                 bucket_s=BUCKET_S):
        self.probe, self.ref_s = probe, ref_s
        self.every_s, self.bucket_s = every_s, bucket_s
        self.start = perf_counter()
        self.at, self.took = array("d"), array("d")
        for _ in range(FIRST_PROBES):
            self._probe()

    def _probe(self):
        t0 = perf_counter()
        self.probe()
        t1 = perf_counter()
        self.at.append(t0 - self.start)
        self.took.append(t1 - t0)
        self.last = t1 - self.start

    def maybe_probe(self):
        """Probe once for every `every_s` since the last probe, so that a
        stretch of long operations gets as many probes as one of short
        ones."""
        due = int((perf_counter() - self.start - self.last) / self.every_s)
        for _ in range(due):
            self._probe()

    def scaler(self):
        """A function from (start time, raw seconds) to scaled seconds.

        Start times are perf_counter() values.  A stretch without a probe of
        its own (one long operation can cover it) takes the last stretch
        before it that has one."""
        buckets = {}
        for t, took in zip(self.at, self.took):
            buckets.setdefault(int(t // self.bucket_s), []).append(took)
        factor = {k: self.ref_s / statistics.median(v)
                  for k, v in buckets.items()}
        first = min(factor)

        def scale(t0, dt):
            k = int((t0 - self.start) // self.bucket_s)
            while k not in factor and k > first:
                k -= 1
            return dt * factor.get(k, factor[first])
        return scale

    def probe_s(self):
        """The median probe time over the run."""
        return statistics.median(self.took)
