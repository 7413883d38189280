#!/usr/bin/env python3
"""Paired in-process A/B of one benchmark workload's CLI call on two source trees.

    python3 scripts/ab_cli.py PARENT_TREE CHANGE_TREE --workload polygon-compare --pairs 200

Each tree is a checkout root holding ``src/spatial_outliers``.  Both are
imported into this one process: each tree's ``spatial_outliers`` modules are
kept aside, and put back into ``sys.modules`` before each of that tree's
calls.  The inputs are written once by ``bench/workloads.py`` of this
checkout, at the workload's large size (or its smoke size with ``--smoke``).

Each pair makes one ``cli.main`` call per tree, the first tree alternating
from pair to pair, and runs the ``bench/reference.py`` kernel before,
between and after them.  Each call is divided by the mean of the kernel
times on either side of it, as ``bench/run.py`` does for ``wall_ref_x``, so
a change in the machine's speed cancels.  The output is the median of
change / parent over the pairs, the number of pairs in which the change was
lower, and whether every report the two trees wrote was the same bytes.
Standard library only; it starts no subprocess.  Exit status is 0 when the
reports match and 1 when they do not.
"""

import argparse
import contextlib
import gc
import io
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = "spatial_outliers"


def _package_modules():
    return {
        name: module for name, module in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    }


def import_tree(tree):
    """The tree's spatial_outliers modules by name, imported and set aside."""
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        raise SystemExit(f"error: no {PACKAGE} package under {src}")
    for name in _package_modules():
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        __import__(PACKAGE + ".cli")
    finally:
        sys.path.remove(src)
    modules = _package_modules()
    for name in modules:
        del sys.modules[name]
    return modules


def install(modules):
    """Put these spatial_outliers modules in sys.modules in place of any others."""
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(modules)


def timed_call(modules, argv, out):
    """Wall time of one cli.main call with the tree's modules installed, and its report."""
    install(modules)
    main = modules[PACKAGE + ".cli"].main
    gc.collect()  # every call starts from the same heap state
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {code}")
    with open(out, "rb") as handle:
        return wall, handle.read()


def compare(parent, change, workload, pairs, seed, smoke, directory):
    """(median change/parent ratio, pairs with the change lower, reports equal)."""
    size = (workload.smoke_sizes if smoke else workload.sizes)[1]
    inputs = workload.write_inputs(os.path.join(directory, "inputs"), size, seed)
    out = os.path.join(directory, "report")
    argv = workload.argv(inputs, out)
    caller = _package_modules()  # given back at the end, so callers keep their imports
    reports = set()
    ratios = []
    try:
        trees = (import_tree(parent), import_tree(change))
        for pair in range(pairs):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            kernel = [reference.timed()]
            cost = [0.0, 0.0]
            for side in order:
                wall, report = timed_call(trees[side], argv, out)
                kernel.append(reference.timed())
                cost[side] = wall / statistics.fmean(kernel[-2:])
                reports.add(report)
            ratios.append(cost[1] / cost[0])
    finally:
        install(caller)
    return statistics.median(ratios), sum(r < 1.0 for r in ratios), len(reports) == 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_TREE")
    parser.add_argument("change", metavar="CHANGE_TREE")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--smoke", action="store_true", help="the workload's smoke size")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_cli_") as directory:
        ratio, lower, equal = compare(
            args.parent, args.change, WORKLOADS[args.workload], args.pairs, args.seed,
            args.smoke, directory)
    print(f"workload {args.workload}: median ratio {ratio:.4f} over {args.pairs} pairs, "
          f"change lower in {lower}; report bytes {'equal' if equal else 'DIFFER'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
