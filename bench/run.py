"""Benchmark of the spatial-outliers command line, run from the repository root.

    python3 bench/run.py --workload points-combined --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --out bench/BENCH_label.json
    python3 bench/run.py --smoke

One workload run is a closed loop with one client: a single process calls
``spatial_outliers.cli.main`` in-process, one call at a time, from generated
input files to a written report file.  The loop alternates calls at the
workload's small and large sizes (four times the sites, same density) until
``--seconds`` have passed.  Every report is checked (see checks.py), and
the bundled fixtures are checked once per run.

With ``--trace 0`` the run prints the end-to-end metrics: ``wall_ref_x``,
``growth_x``, ``setup_s`` and ``peak_rss_mb``.  Set-up is measured in fresh
interpreters, several times over the run, and reported as the median.  With ``--trace 1``
the loop alternates untraced and traced calls at the large size and prints
the per-layer metrics of spans.py.  The last line of standard output is the
JSON result; the line before it holds the run's details.

``--workload all`` runs every workload in its own interpreter, both with and
without tracing, prints every metric with its unit and the verdict, and
writes the results with the environment to ``--out``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_LARGE_CALLS = 3
SMOKE_SECONDS = 0.5
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25


def import_program():
    """Import the package from this checkout's src directory, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "spatial_outliers", "__init__.py")):
        print(f"error: no spatial_outliers package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    from spatial_outliers import cli, detect
    return cli, detect


class Session:
    """Calls into the CLI for one workload and seed, with their checks."""

    def __init__(self, cli, workload, seed, sizes, directory, table):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.table = table
        self.inputs = {
            size: workload.write_inputs(os.path.join(directory, str(size)), size, seed)
            for size in sizes
        }
        self.attempted = 0
        self.failures = []
        self._verdicts = {}  # (size, digest) -> list of problems

    def call(self, size, run=None, expect=None):
        """One CLI call at size; returns its wall time and report digest.

        run(fn, argv) makes the call, by default fn(argv).  A call fails on an
        exception, a nonzero exit, a report that fails its check, or a digest
        other than expect when expect is given; a failed call records one
        failure.
        """
        inputs = self.inputs[size]
        out = os.path.join(self.directory, str(size), "report.csv")
        argv = self.workload.argv(inputs, out)
        run = run or (lambda fn, argv: fn(argv))
        self.attempted += 1
        gc.collect()  # every call starts from the same heap state
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = run(self.cli.main, argv)
        except Exception as exc:  # a crash is a failed call, not a crashed run
            self.failures.append(f"{size}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        wall = time.perf_counter() - start
        if code != 0:
            self.failures.append(f"{size}: exit {code}: {stderr.getvalue().strip()}")
            return wall, None
        with open(out, "rb") as handle:
            data = handle.read()
        digest = checks.sha256(data)
        problems = self._verdicts.get((size, digest))
        if problems is None:
            problems = self._check(size, data, digest)
            self._verdicts[size, digest] = problems
        if expect is not None and digest != expect:
            problems = problems + [f"digest {digest} != {expect} of the untraced call"]
        if problems:
            self.failures.append(f"{size}: " + "; ".join(problems[:3]))
        return wall, digest

    def _check(self, size, data, digest):
        expected = checks.recorded_digest(self.table, self.workload.name, size, self.seed)
        if expected is not None:
            return [] if digest == expected else [f"digest {digest} != recorded {expected}"]
        return checks.report_problems(
            data.decode("utf-8"), self.workload.args[0], self.inputs[size].sites)

    def check_fixtures(self):
        found = fixture_digests(self.cli, os.path.join(self.directory, "fixtures"))
        for name, digest in found.items():
            self.attempted += 1
            if digest != self.table["fixtures"][name]:
                self.failures.append(f"fixture {name}: digest {digest} differs")

    def size_details(self):
        return [
            {"size": size, "sites": i.sites, "edges": i.edges, "polygons": i.polygons,
             "bytes_in": i.bytes_in}
            for size, i in self.inputs.items()
        ]


def fixture_digests(cli, directory):
    """Report digest of each bundled fixture's CLI call; None when it fails."""
    found = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["fixtures", "--out", directory])
        for name, template in checks.FIXTURE_CALLS.items():
            out = os.path.join(directory, f"{name}_report.csv")
            found[name] = None
            if cli.main([a.replace("{d}", directory) for a in template] + ["--out", out]) == 0:
                with open(out, "rb") as handle:
                    found[name] = checks.sha256(handle.read())
    return found


def setup_probe(session, index):
    """Wall time of a fresh interpreter that imports, generates and calls once per size."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup",
            "--workload", session.workload.name, "--seed", str(session.seed),
            "--sizes", ",".join(map(str, session.inputs)),
            "--dir", os.path.join(session.directory, f"setup{index}")]
    start = time.perf_counter()
    done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120, check=False)
    elapsed = time.perf_counter() - start
    session.attempted += len(session.inputs)
    if done.returncode != 0:
        session.failures.append("setup probe: " + done.stderr.decode("utf-8", "replace")[-500:])
    return elapsed


def probe_setup(args):
    """Child side of setup_probe: everything that happens before timed calls."""
    cli, _ = import_program()
    sizes = [int(s) for s in args.sizes.split(",")]
    session = Session(cli, WORKLOADS[args.workload], args.seed, sizes, args.dir,
                      checks.load_digests())
    for size in sizes:
        session.call(size)
    return 1 if session.failures else 0


def run_e2e(session, sizes, seconds):
    """Call cost in reference-kernel units, growth, median set-up.

    Other tenants of a shared machine change its speed for seconds to
    minutes, and a call's wall time with it.  The reference kernel runs
    between every two calls, and each large call's wall time is divided by
    the mean of the kernel times on either side of it, so the machine's
    speed cancels out of wall_ref_x; the raw times stay in the run's
    details.  Each large call also sits between two small calls, and its
    growth ratio uses their mean.  The set-up probes are spread over the
    run for the same reason; the time they take extends the run.
    """
    small, large = sizes
    for size in sizes:  # warm-up; its cost is what setup_s measures
        session.call(size)
    reference.timed()
    per_site = session.inputs[small].sites / session.inputs[large].sites
    times = {small: [session.call(small)[0]], large: [], "setup": [],
             "reference": [reference.timed()]}
    relative, growth = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while (time.perf_counter() < deadline or len(times[large]) < MIN_LARGE_CALLS
           or len(times["setup"]) < SETUP_REPEATS):
        due = start + len(times["setup"]) * seconds / SETUP_REPEATS
        if len(times["setup"]) < SETUP_REPEATS and time.perf_counter() >= due:
            times["setup"].append(setup_probe(session, len(times["setup"])))
            deadline += times["setup"][-1]
            times["reference"].append(reference.timed())
            continue
        times[large].append(session.call(large)[0])
        times["reference"].append(reference.timed())
        relative.append(times[large][-1] / statistics.fmean(times["reference"][-2:]))
        times[small].append(session.call(small)[0])
        times["reference"].append(reference.timed())
        growth.append(times[large][-1] * per_site / statistics.fmean(times[small][-2:]))
    metrics = {
        "wall_ref_x": (statistics.median(relative), "x"),
        "growth_x": (statistics.median(growth), "x"),
        "setup_s": (statistics.median(times["setup"]), "s"),
    }
    return metrics, times


def run_traced(session, detect, large, seconds):
    """Alternate untraced and traced calls; per-layer metrics are medians."""
    _, reference = session.call(large)
    plain, traced, samples = [], [], []
    absent, unobserved = set(), set()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_LARGE_CALLS:
        plain.append(session.call(large)[0])
        tracer = spans.Tracer()
        with tracer.installed([session.cli, detect]):
            wall, _ = session.call(
                large, run=lambda fn, argv: tracer.call(spans.ROOT_LAYER, fn, argv),
                expect=reference)
        traced.append(wall)
        samples.append(tracer.metrics(wall, session.inputs[large].sites))
        absent.update(tracer.absent())
        unobserved.update(tracer.unobserved)
    metrics = {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }
    metrics["trace.overhead_x"] = (statistics.median(t / p for t, p in zip(traced, plain)), "x")
    layers = {"absent": sorted(absent), "unobserved": sorted(unobserved)}
    return metrics, layers, {"untraced": plain, "traced": traced}


def git_sha():
    """HEAD of the checkout, read from .git without running git, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def run_workload(args):
    cli, detect = import_program()
    workload = WORKLOADS[args.workload]
    sizes = workload.smoke_sizes if args.smoke else workload.sizes
    directory = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        session = Session(cli, workload, args.seed, sizes, directory, checks.load_digests())
        detail = {"workload": workload.name, "trace": args.trace,
                  "env": environment(args.seed), "sizes": session.size_details()}
        if args.trace:
            metrics, detail["layers"], detail["samples"] = run_traced(
                session, detect, sizes[1], args.seconds)
        else:
            metrics, detail["samples"] = run_e2e(session, sizes, args.seconds)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MiB")
        session.check_fixtures()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    detail["failures"] = session.failures
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return detail, result


def run_all(args):
    """Every workload in a fresh interpreter, untraced then traced."""
    runs = []
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{name} trace={trace} exited {done.returncode}")
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"detail": detail, "result": result})
            for metric, m in result["metrics"].items():
                print(f"{name:18s} {metric:34s} {m['value']:14.6g} {m['unit']}")
            verdict = "correct" if result["correct"] else "INCORRECT " + "; ".join(detail["failures"])
            print(f"{name:18s} trace={trace} {result['attempted']} calls, "
                  f"{result['failed']} failed: {verdict}")
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    summary = {
        "env": environment(args.seed),
        "seconds": args.seconds,
        "runs": runs,
        "correct": failed == 0,
        "failed_frac": failed / attempted,
        "claim": None,
    }
    out = args.out or os.path.join(WORK, "bench_run.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
        handle.write("\n")
    print(f"verdict: {'correct' if failed == 0 else 'INCORRECT'}, "
          f"failed_frac={failed / attempted:.6g} over {attempted} calls; wrote {out}")
    return 0 if failed == 0 else 1


def record_digests(seeds):
    """Rewrite digests.json from the program as it stands.

    Each report must first pass the invariant checks.
    """
    cli, _ = import_program()
    table = {"seeds": seeds, "reports": {}, "fixtures": {}}
    directory = os.path.join(WORK, f"record-{os.getpid()}")
    try:
        for workload in WORKLOADS.values():
            sizes = workload.smoke_sizes + workload.sizes
            for seed in seeds:
                session = Session(cli, workload, seed, sizes, directory, {"reports": {}})
                for size in sizes:
                    _, digest = session.call(size)
                    table["reports"].setdefault(workload.name, {}).setdefault(
                        str(size), {})[str(seed)] = digest
                if session.failures:
                    raise SystemExit(f"{workload.name} seed {seed}: {session.failures}")
        table["fixtures"] = fixture_digests(cli, os.path.join(directory, "fixtures"))
        if None in table["fixtures"].values():
            raise SystemExit(f"fixture call failed: {table['fixtures']}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a short loop, for the self-test")
    parser.add_argument("--out", help="summary JSON path for --workload all")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json for the default and held-out seeds")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sizes", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, SMOKE_SECONDS)
        args.workload = args.workload or "all"
    if not (args.workload or args.record_digests):
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.record_digests:
        return record_digests([DEFAULT_SEED, DEFAULT_SEED + 1])
    if args.probe_setup:
        return probe_setup(args)
    if args.workload == "all":
        return run_all(args)
    detail, result = run_workload(args)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
