"""CPU speed calibrator, sharing one CPU with the requests it measures.

Usage: python3 perfbench/calibrate.py SAMPLES_OUT

The benchmark pins itself and its children to one CPU and starts this
process there at the lowest priority.  It runs a fixed pure-Python loop of
table lookups on C4, the kind of work mrkit does, in short chunks, and
appends one line per chunk to SAMPLES_OUT: the chunk's start on the
system-wide monotonic clock and the CPU time it took.  While a request
runs the calibrator gets only a few percent of the CPU, but each chunk
still runs at the speed the CPU has at that moment, so the samples tell
how fast the (shared, virtual) CPU was during each request.  It prints
``ready`` once it is sampling and stops on SIGTERM, writing out what it
has.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import inputs

ROWS_PER_CHUNK = 20  # about 0.5 ms of work on a fast core


def main() -> int:
    os.nice(19)
    doc = inputs.c4_tables()
    n, one = doc["carrier"], doc["one"]
    leq, jn, dl = doc["leq"], doc["join"], doc["delta"]

    def d(x, y):
        return dl[x][y] if leq[y][x] else None

    def imp(x, y):
        t = d(jn[x][y], y)
        if t is None:
            return None
        t = d(one, t)
        return None if t is None else jn[t][y]

    def chunk(x0):
        seen, acc = set(), 0
        for x in range(x0, x0 + ROWS_PER_CHUNK):
            x %= n
            for y in range(n):
                r = imp(x, y)
                if r is not None:
                    seen.add(r)
                    acc += jn[r][x]
        return acc + len(seen)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(sys.argv[1], "w") as out:
        print("ready", flush=True)
        x = 0
        while True:
            start, cpu = time.monotonic(), time.thread_time()
            chunk(x)
            out.write(f"{start:.6f} {time.thread_time() - cpu:.7f}\n")
            x += ROWS_PER_CHUNK


if __name__ == "__main__":
    sys.exit(main())
