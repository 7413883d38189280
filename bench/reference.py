"""A fixed pure-Python kernel that times the machine, not the program.

Shared machines change speed for seconds to minutes at a time, and the same
CLI call then takes up to twice as long.  Timing this kernel right beside a
call and dividing gives the call's cost in kernel units, which the
machine's speed cancels out of.  The kernel does the kinds of work the
program does, so that a slow machine slows both alike: a brute-force buffer
scan over frozen dataclass sites, Dijkstra with heapq over a dict graph, and
CSV text written and parsed back.  Its inputs are fixed, so it never changes
with the seed or with the program.
"""

import csv
import gc
import heapq
import io
import math
import random
import time
from dataclasses import dataclass, field

POINTS = 1024
CENTERS = 160
RADIUS = 0.06


@dataclass(frozen=True)
class _Site:
    id: str
    x: float
    y: float
    attributes: dict = field(default_factory=dict)


def _inputs():
    rng = random.Random("reference-kernel")
    return [
        _Site(f"s{i}", rng.random(), rng.random(), {"value": rng.gauss(0.0, 1.0)})
        for i in range(POINTS)
    ]


_SITES = _inputs()


def _location(site):
    if isinstance(site, tuple):
        return site
    return site.x, site.y


def _distance(a, b):
    ax, ay = _location(a)
    bx, by = _location(b)
    return math.hypot(ax - bx, ay - by)


def _neighbors(sites, center):
    return {s.id for s in sites if s.id != center.id and _distance(center, s) <= RADIUS}


def _dijkstra(graph, source):
    best = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > best[u]:
            continue
        for v, w in graph[u]:
            nd = d + w
            if nd < best.get(v, math.inf):
                best[v] = nd
                heapq.heappush(heap, (nd, v))
    return best


def kernel():
    """One pass of the kernel; returns a checksum of its results."""
    by_id = {s.id: s for s in _SITES}
    centers = _SITES[:CENTERS]
    near = {c.id: _neighbors(_SITES, c) for c in centers}
    graph = {
        c: [(n, _distance(by_id[c], by_id[n])) for n in sorted(ns) if n in near]
        for c, ns in near.items()
    }
    reach = sum(len(_dijkstra(graph, c.id)) for c in centers[::8])
    text = io.StringIO()
    writer = csv.writer(text)
    for c, ns in near.items():
        values = [by_id[n].attributes["value"] for n in ns]
        mean = sum(values) / len(values) if values else 0.0
        writer.writerow([c, f"{by_id[c].attributes['value']:.6f}", f"{mean:.6f}"])
    parsed = sum(float(row[2]) for row in csv.reader(io.StringIO(text.getvalue())))
    return reach + round(parsed, 6)


def timed():
    """Wall time of one kernel pass, in seconds, from a collected heap."""
    gc.collect()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
