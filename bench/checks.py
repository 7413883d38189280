"""Correctness checks on the reports the CLI writes.

A report whose workload, size and seed appear in ``digests.json`` must match
the recorded SHA-256, taken at the commit that defined the benchmark.  Any
other report is checked against invariants of its own arithmetic instead.
The bundled fixtures always run and must match their recorded digests.
"""

import hashlib
import json
import math
import os
import statistics

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# CSV reports print six decimals; allow for that rounding.
ROUNDING = 1e-6

# name -> CLI arguments after the fixture directory is substituted for {d}
FIXTURE_CALLS = {
    "network": [
        "detect", "--sites", "{d}/network_sites.csv", "--edges", "{d}/network_edges.csv",
        "--mode", "weighted", "--regime", "combined", "--radius", "2",
        "--alpha", "0.5", "--beta", "0.25", "--delta", "0.25", "--cost-limit", "10",
    ],
    "village": [
        "compare", "--sites", "{d}/village_sites.csv", "--regime", "buffer", "--radius", "25",
    ],
    "survey": [
        "compare", "--sites", "{d}/survey_sites.csv", "--regime", "buffer", "--radius", "6",
    ],
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def recorded_digest(table, workload, size, seed):
    return table["reports"].get(workload, {}).get(str(size), {}).get(str(seed))


def _rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:] if not line.startswith("#")]
    comments = [line for line in lines if line.startswith("#")]
    return rows, comments


def detection_problems(text, sites):
    """Invariants of a detection CSV over a dataset of `sites` sites."""
    rows, comments = _rows(text)
    skipped = 0
    theta = None
    for line in comments:
        if line.startswith("# skipped: "):
            skipped = len(line[len("# skipped: "):].split(","))
        elif line.startswith("# mu="):
            theta = float(line.rsplit("theta=", 1)[1])
    problems = []
    if len(rows) + skipped != sites:
        problems.append(f"{len(rows)} rows + {skipped} skipped != {sites} sites")
    if theta is None:
        return problems + ["no theta line"]
    z = [float(r["z"]) for r in rows]
    if len(z) >= 2:
        if abs(statistics.fmean(z)) > 10 * ROUNDING:
            problems.append(f"z mean {statistics.fmean(z)} is not 0")
        if abs(statistics.pstdev(z) - 1.0) > 1e-4:
            problems.append(f"z deviation {statistics.pstdev(z)} is not 1")
    for r, zi in zip(rows, z):
        if abs(abs(zi) - theta) > ROUNDING and (r["outlier"] == "true") != (abs(zi) > theta):
            problems.append(f"site {r['site_id']}: outlier={r['outlier']} with z={zi}")
    return problems


def comparison_problems(text, sites):
    """Invariants of a comparison CSV over a dataset of `sites` sites."""
    rows, _ = _rows(text)
    problems = []
    if len(rows) != sites:
        problems.append(f"{len(rows)} rows != {sites} sites")
    for r in rows:
        actual = float(r["actual"])
        sq_c, sq_w = float(r["sq_error_classical"]), float(r["sq_error_weighted"])
        for expected, sq in ((r["expected_classical"], sq_c), (r["expected_weighted"], sq_w)):
            diff = actual - float(expected)
            if not math.isclose(diff * diff, sq, rel_tol=1e-4, abs_tol=4 * abs(diff) * ROUNDING + ROUNDING):
                problems.append(f"site {r['site_id']}: squared error {sq} != ({diff})^2")
        if abs(sq_c - sq_w - float(r["sq_error_delta"])) > 3 * ROUNDING:
            problems.append(f"site {r['site_id']}: delta is not classical - weighted")
    return problems


def report_problems(text, command, sites):
    if command == "compare":
        return comparison_problems(text, sites)
    return detection_problems(text, sites)
