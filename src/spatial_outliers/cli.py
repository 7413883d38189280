"""Command-line interface.

Subcommands: validate, neighbors, weights, detect, compare, fixtures.
Exit status: 0 on success, 1 on validation/parse/processing errors, 2 on
usage errors.  Reports go to --out or stdout; diagnostics go to stderr.
"""

import argparse
import sys

from .dataset import SpatialDataset, WeightParams, site_id_key, validate_dataset
from .detect import REGIMES, _check_regime, _neighbors, compare_models, detect_outliers
from .errors import SpatialOutlierError
from .fileio import _neighbor_table, _write_text, load_edges, load_polygons, load_sites
from .fileio import render_report
from .fixtures import write_fixture_files
from .neighborhood import _sorted_ids
from .weights import _weigh_center

USAGE_ERROR = 2
DATA_ERROR = 1


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatial-outliers",
        description="Detect spatial outliers with weighted neighborhoods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--sites", help="point sites CSV (id,x,y,<attrs>)")
        p.add_argument("--edges", help="edges CSV (from,to,length,cost)")
        p.add_argument("--polygons", help="polygon sites JSON")

    def add_params(p):
        p.add_argument("--attribute", help="attribute to analyze")
        p.add_argument("--radius", type=float, help="buffer radius")
        p.add_argument("--alpha", type=float, default=1.0,
                       help="distance coefficient (default 1)")
        p.add_argument("--beta", type=float, default=0.0,
                       help="connection coefficient (default 0)")
        p.add_argument("--delta", type=float, default=0.0,
                       help="cost coefficient (default 0)")
        p.add_argument("--gamma", type=float, default=0.5,
                       help="polygon distance/area mix (default 0.5)")
        p.add_argument("--cost-limit", type=float, default=None,
                       help="ignore traversal costs above this limit")
        p.add_argument("--theta", type=float, default=2.0,
                       help="|z| flag threshold (default 2)")
        p.add_argument("--regime", choices=REGIMES,
                       help="neighbor regime (default: by dataset kind)")

    def add_out(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("validate", help="check dataset invariants")
    add_io(p)

    p = sub.add_parser("neighbors", help="print center,neighbor pairs as CSV")
    add_io(p)
    add_params(p)
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("weights", help="print weighted neighborhoods per site")
    add_io(p)
    add_params(p)
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("detect", help="score sites and flag outliers")
    add_io(p)
    add_params(p)
    p.add_argument("--mode", choices=("classical", "weighted"), default="weighted")
    add_out(p)

    p = sub.add_parser("compare", help="run both modes and compare errors")
    add_io(p)
    add_params(p)
    add_out(p)

    p = sub.add_parser("fixtures", help="write the bundled example datasets")
    p.add_argument("--out", default=".", help="target directory (default: .)")

    return parser


def _load_dataset(args) -> SpatialDataset:
    if args.polygons and args.sites:
        raise UsageError("give either --sites or --polygons, not both")
    if args.polygons:
        if args.edges:
            raise UsageError("--edges applies to point datasets only")
        return SpatialDataset(sites=load_polygons(args.polygons))
    if not args.sites:
        raise UsageError("an input is required: --sites or --polygons")
    edges = load_edges(args.edges) if args.edges else ()
    return SpatialDataset(sites=load_sites(args.sites), edges=edges)


def _params(args) -> WeightParams:
    try:
        return WeightParams(
            alpha=args.alpha,
            beta=args.beta,
            delta=args.delta,
            gamma=args.gamma,
            radius=args.radius,
            cost_limit=args.cost_limit,
            theta=args.theta,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _checked(dataset: SpatialDataset) -> SpatialDataset:
    violations = validate_dataset(dataset)
    if violations:
        raise SpatialOutlierError(
            "invalid dataset:\n" + "\n".join(f"  {v}" for v in violations)
        )
    return dataset


def _emit(text: str, out_path) -> None:
    if out_path:
        _write_text(text, out_path)
    else:
        sys.stdout.write(text)


def _attribute(args, dataset) -> str:
    if args.attribute:
        return args.attribute
    if len(dataset.attribute_names) == 1:
        return dataset.attribute_names[0]
    raise UsageError(
        "--attribute is required; dataset declares "
        + ",".join(dataset.attribute_names)
    )


def _cmd_validate(args) -> int:
    dataset = _load_dataset(args)
    violations = validate_dataset(dataset)
    for violation in violations:
        print(violation)
    if violations:
        return DATA_ERROR
    print("ok")
    return 0


def _cmd_neighborhoods(args) -> int:
    """neighbors, or weights: one CSV row per center and neighbor, in id order."""
    dataset = _checked(_load_dataset(args))
    params = _params(args)
    regime = _check_regime(dataset, args.regime)
    weighted = args.command == "weights"
    neighborhoods = []
    for sid in sorted(dataset.site_ids(), key=site_id_key):
        found = _neighbors(dataset, sid, regime, params)
        if weighted and found:
            entries = list(zip(*_weigh_center(dataset, sid, found, params, regime)))
        else:
            entries = [(n,) for n in _sorted_ids(dataset, found)]
        neighborhoods.append((sid, entries))
    header = ("center", "neighbor", "weight") if weighted else ("center", "neighbor")
    _emit(_neighbor_table(header, neighborhoods), args.out)
    return 0


def _cmd_detect(args) -> int:
    dataset = _checked(_load_dataset(args))
    params = _params(args)
    result = detect_outliers(
        dataset,
        _attribute(args, dataset),
        params,
        mode=args.mode,
        regime=args.regime,
    )
    _emit(render_report(result, args.format), args.out)
    return 0


def _cmd_compare(args) -> int:
    dataset = _checked(_load_dataset(args))
    params = _params(args)
    attribute = _attribute(args, dataset)
    classical = detect_outliers(dataset, attribute, params, mode="classical",
                                regime=args.regime)
    weighted = detect_outliers(dataset, attribute, params, mode="weighted",
                               regime=args.regime)
    _emit(render_report(compare_models(classical, weighted), args.format), args.out)
    return 0


def _cmd_fixtures(args) -> int:
    for path in write_fixture_files(args.out):
        print(path)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "neighbors": _cmd_neighborhoods,
    "weights": _cmd_neighborhoods,
    "detect": _cmd_detect,
    "compare": _cmd_compare,
    "fixtures": _cmd_fixtures,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SpatialOutlierError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
