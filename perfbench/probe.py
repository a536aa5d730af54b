"""Host-speed probe: times a fixed memory-bound loop on request.

Run as a child process by :class:`harness.HostProbe`.  It builds a
shuffled ring of objects several MiB large, prints ``ready``, then
answers each input line with the seconds one walk of the ring took.
On a shared host, other tenants' cache and memory traffic slow this
walk and the simulator alike (their 5-second means correlate at 0.97),
so the walk's time measures how fast the host is right now.  It runs
apart from the program, so nothing the program does to its own
process (heap size, collector settings) moves it.
"""

import random
import sys
import time

CELLS = 200_000
STEPS = 60_000
TABLE = 50_000


class Cell:
    __slots__ = ("value", "next")


def build():
    cells = [Cell() for _ in range(CELLS)]
    order = list(range(CELLS))
    random.Random(1).shuffle(order)
    for position, index in enumerate(order):
        cells[index].value = position
        cells[index].next = cells[order[(position + 1) % CELLS]]
    return cells[0], {key: key for key in range(TABLE)}


def walk(cell, table) -> int:
    total = 0
    for _ in range(STEPS):
        cell = cell.next
        total += table.get(cell.value % TABLE, 0)
    return total


def main() -> None:
    cell, table = build()
    print("ready", flush=True)
    for _ in sys.stdin:
        started = time.perf_counter()
        walk(cell, table)
        print(time.perf_counter() - started, flush=True)


if __name__ == "__main__":
    main()
