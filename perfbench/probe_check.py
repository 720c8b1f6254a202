"""Does the speed probe read the same whatever program it interrupts?

    PYTHONPATH=src python3 perfbench/probe_check.py

Run from the root of a checkout, on an otherwise idle machine if there is
one.  One process runs the three workloads' operation lists one after the
other, ROUNDS times in the order global-series, local-analytic, oracle and
ROUNDS times in the other cycle.  Over each list a probe samples as the
benchmark's does, but runs the probe three times per sample: cold (the
untimed run of the benchmark), warm (the timed run) and once more
(settled).  It prints, per workload, the medians of cold / warm and
settled / warm over all samples.  These compare runs microseconds apart,
so the host's speed cancels: cold / warm shows how much refilling the
caches the program evicted costs, and settled / warm near 1 shows that
the warm run has nothing left to refill.  It also prints, per pair of
workloads, the ratio of the warm readings over neighbouring lists (taken
seconds apart, each direction's median, the two directions averaged to
cancel a steady drift); on a noisy host it is only good to a few percent.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 5
ORDERS = (("global-series", "local-analytic", "oracle"),
          ("global-series", "oracle", "local-analytic"))


class TripleProbe(speed.SpeedProbe):
    def __init__(self, period):
        super().__init__(period)
        self.cold, self.settled = [], []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        speed._probe()
        t1 = time.perf_counter()
        speed._probe()
        t2 = time.perf_counter()
        speed._probe()
        t3 = time.perf_counter()
        self.cold.append(t1 - t0)
        self.wall.append(t2 - t1)
        self.settled.append(t3 - t2)


def main() -> int:
    import ascount.cli as cli
    from ascount.fields import make_context
    cli.build_parser()
    ops = {w: workloads.operations(w, 1) for w in workloads.WORKLOADS}
    for w in workloads.WORKLOADS:  # fill the library's caches once
        for op in ops[w]:
            child.run_op(cli, make_context, op)

    segments = []  # (workload, warm reading), in running order
    within = {w: ([], []) for w in workloads.WORKLOADS}
    for order in ORDERS:
        for _ in range(ROUNDS):
            for w in order:
                with TripleProbe(child.PROBE_PERIOD_S) as probe:
                    for op in ops[w]:
                        child.run_op(cli, make_context, op)
                segments.append((w, probe.speed()))
                within[w][0].extend(c / m for c, m in zip(probe.cold, probe.wall))
                within[w][1].extend(s / m for s, m in zip(probe.settled, probe.wall))
                print(f"{w:<15} warm reading {segments[-1][1]:.4f}", flush=True)

    print(f"\n{'workload':<16}{'samples':>8}{'cold/warm':>11}{'settled/warm':>14}")
    for w, (cold, settled) in within.items():
        print(f"{w:<16}{len(cold):>8}{statistics.median(cold):>11.3f}"
              f"{statistics.median(settled):>14.3f}")

    ratios = {}  # (a, b) -> warm reading over b / warm reading over a
    for (a, speed_a), (b, speed_b) in zip(segments, segments[1:]):
        if a != b:
            ratios.setdefault((a, b), []).append(speed_b / speed_a)
    print("\nwarm readings over neighbouring lists")
    names = workloads.WORKLOADS
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ratio = math.sqrt(statistics.median(ratios[(a, b)])
                              / statistics.median(ratios[(b, a)]))
            print(f"{b + ' / ' + a:<34}{ratio:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
