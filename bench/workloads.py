"""Seeded input generators and the CLI calls each workload makes.

Every generator draws from a ``random.Random`` seeded by a string built from
the workload, the size and the run seed, so the same seed always writes the
same bytes and a different seed writes different ones.  Generated sites never
coincide and the analysed attribute is never constant, so every call passes
``validate_dataset`` and standardization never sees zero spread.
"""

import json
import math
import os
import random
from dataclasses import dataclass

# Points: density chosen so a radius-2 buffer holds about 12 other sites.
BUFFER_RADIUS = 2.0
POINT_DENSITY = 12.0 / (math.pi * BUFFER_RADIUS ** 2)
EDGES_PER_SITE = 2.0
PARALLEL_SHARE = 0.2
EDGE_COST_RANGE = (0.5, 3.0)
COST_LIMIT = 4.0

# Polygons: unit cells whose interior vertices move by at most this much, so
# every quadrilateral stays simple and every centroid stays distinct.
POLYGON_JITTER = 0.25


@dataclass(frozen=True)
class Inputs:
    """Files written for one workload size, with what they hold."""

    paths: dict
    sites: int
    edges: int
    polygons: int
    bytes_in: int


def _spread_attribute(rng, x, y):
    """Smooth trend plus noise, with a few planted spikes."""
    value = 50.0 + 10.0 * math.sin(x / 3.0) + 8.0 * math.cos(y / 4.0)
    value += rng.gauss(0.0, 2.0)
    if rng.random() < 0.02:
        value += rng.choice((-1.0, 1.0)) * rng.uniform(15.0, 30.0)
    return value


def _points(rng, n):
    """Stratified uniform points: one in each cell of a square grid.

    n must be a square.  Every buffer then holds close to the same number of
    sites whatever the seed, so the seed changes the inputs but hardly the
    amount of work.
    """
    m = math.isqrt(n)
    if m * m != n:
        raise ValueError(f"point count {n} is not a square")
    cell = math.sqrt(1.0 / POINT_DENSITY)
    seen = set()
    points = []
    for i in range(m):
        for j in range(m):
            p = ((i + rng.random()) * cell, (j + rng.random()) * cell)
            while p in seen:  # a point on a shared cell border
                p = ((i + rng.random()) * cell, (j + rng.random()) * cell)
            seen.add(p)
            points.append(p)
    return points


def _cell(point):
    return int(point[0] // BUFFER_RADIUS), int(point[1] // BUFFER_RADIUS)


def _near(points, grid, i):
    """Indices of the other points within the buffer radius of point i."""
    cx, cy = _cell(points[i])
    return [
        j
        for gx in (cx - 1, cx, cx + 1)
        for gy in (cy - 1, cy, cy + 1)
        for j in grid.get((gx, gy), ())
        if j != i and math.dist(points[i], points[j]) <= BUFFER_RADIUS
    ]


def _edges(rng, points):
    """Local multigraph: distinct pairs within the buffer radius, then repeats."""
    n = len(points)
    grid = {}
    for i, p in enumerate(points):
        grid.setdefault(_cell(p), []).append(i)
    total = round(EDGES_PER_SITE * n)
    distinct = total - round(PARALLEL_SHARE * total)
    pairs = []
    seen = set()
    while len(pairs) < distinct:
        u = rng.randrange(n)
        near = _near(points, grid, u)
        if not near:
            continue
        v = rng.choice(near)
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            pairs.append((u, v))
    pairs += [rng.choice(pairs[:distinct]) for _ in range(total - distinct)]
    edges = []
    for u, v in pairs:
        length = math.dist(points[u], points[v]) * rng.uniform(1.0, 1.5)
        edges.append((u, v, length, rng.uniform(*EDGE_COST_RANGE)))
    return edges


def _site_id(i):
    return f"p{i:05d}"


def write_points(directory, rng, n):
    points = _points(rng, n)
    sites_path = os.path.join(directory, "sites.csv")
    with open(sites_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("id,x,y,value\n")
        for i, (x, y) in enumerate(points):
            value = _spread_attribute(rng, x, y)
            handle.write(f"{_site_id(i)},{x!r},{y!r},{value!r}\n")
    edges = _edges(rng, points)
    edges_path = os.path.join(directory, "edges.csv")
    with open(edges_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("from,to,length,cost\n")
        for u, v, length, cost in edges:
            handle.write(f"{_site_id(u)},{_site_id(v)},{length!r},{cost!r}\n")
    return {"sites": sites_path, "edges": edges_path}, n, len(edges), 0


def write_polygons(directory, rng, k):
    """k-by-k tiling of jittered quadrilaterals sharing their vertices.

    Edge-adjacent cells share an exact segment; diagonal cells meet only at
    a corner, which must not count as adjacency.
    """
    def jitter(i):
        return 0.0 if i in (0, k) else rng.uniform(-POLYGON_JITTER, POLYGON_JITTER)

    vertex = {
        (i, j): (i + jitter(i), j + jitter(j))
        for i in range(k + 1)
        for j in range(k + 1)
    }
    records = []
    for i in range(k):
        for j in range(k):
            ring = [vertex[i, j], vertex[i + 1, j], vertex[i + 1, j + 1], vertex[i, j + 1]]
            cx = sum(p[0] for p in ring) / 4.0
            cy = sum(p[1] for p in ring) / 4.0
            records.append({
                "id": i * k + j,
                "rings": [[list(p) for p in ring]],
                "attributes": {"value": _spread_attribute(rng, cx, cy)},
            })
    path = os.path.join(directory, "polygons.json")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(records, handle)
        handle.write("\n")
    return {"polygons": path}, k * k, 0, k * k


@dataclass(frozen=True)
class Workload:
    """One seeded input family, its two sizes and the CLI call it times.

    Sizes are (small, large), with large holding four times the sites of
    small at the same density: sites for points, the tiling side k for
    polygons.  Why each workload exists is recorded in BENCHMARK.json.
    """

    name: str
    sizes: tuple
    smoke_sizes: tuple
    write: object  # (directory, rng, size) -> (paths, sites, edges, polygons)
    args: tuple  # CLI arguments; {name} stands for the input file of that name

    def write_inputs(self, directory, size, seed):
        rng = random.Random(f"{self.name}:{size}:{seed}")
        os.makedirs(directory, exist_ok=True)
        paths, sites, edges, polygons = self.write(directory, rng, size)
        bytes_in = sum(os.path.getsize(p) for p in paths.values())
        return Inputs(paths, sites, edges, polygons, bytes_in)

    def argv(self, inputs, out_path):
        return [a.format(**inputs.paths) for a in self.args] + ["--out", out_path]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "points-combined", sizes=(64, 256), smoke_sizes=(16, 36), write=write_points,
            args=(
                "detect", "--sites", "{sites}", "--edges", "{edges}",
                "--mode", "weighted", "--regime", "combined", "--radius", str(BUFFER_RADIUS),
                "--alpha", "0.5", "--beta", "0.25", "--delta", "0.25",
                "--cost-limit", str(COST_LIMIT),
            ),
        ),
        Workload(
            "points-classical", sizes=(256, 1024), smoke_sizes=(25, 64), write=write_points,
            args=(
                "detect", "--sites", "{sites}", "--edges", "{edges}",
                "--mode", "classical", "--regime", "buffer", "--radius", str(BUFFER_RADIUS),
            ),
        ),
        Workload(
            "polygon-compare", sizes=(5, 10), smoke_sizes=(3, 5), write=write_polygons,
            args=("compare", "--polygons", "{polygons}", "--regime", "polygon", "--gamma", "0.5"),
        ),
    )
}
