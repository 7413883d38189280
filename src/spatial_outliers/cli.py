"""Command-line interface: the subcommands and their options are the rows of _COMMANDS.

Exit status: 0 on success, 1 on validation/parse/processing errors, 2 on
usage errors.  Reports go to --out or stdout; diagnostics go to stderr.
"""

import argparse
import sys
from dataclasses import fields

from .dataset import SpatialDataset, WeightParams, _key_sorted, validate_dataset
from .detect import MODES, REGIMES, _check_regime, _neighbors, compare_models, detect_outliers
from .errors import SpatialOutlierError, UnknownAttributeError
from .fileio import _EDGE_HEADER, _SITE_HEADER, REPORT_FORMATS, _neighbor_table, _site_attributes
from .fileio import _write_text, load_edges, load_polygons, load_sites, render_report
from .fixtures import write_fixture_files
from .weights import _weigher

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
    for name, (help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
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
    sites = load_sites(args.sites)
    names = None if sites else _site_attributes(args.sites)
    return SpatialDataset(sites=sites, edges=edges, attribute_names=names)


def _params(args) -> WeightParams:
    """WeightParams from the options the command declares; the rest keep their defaults."""
    try:
        return WeightParams(**{
            f.name: getattr(args, f.name) for f in fields(WeightParams) if hasattr(args, f.name)
        })
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
    names = dataset.attribute_names
    if args.attribute:
        return args.attribute
    if len(names) == 1:
        return names[0]
    if not names:
        raise UnknownAttributeError("dataset declares no attribute")
    raise UsageError("--attribute is required; dataset declares " + ",".join(names))


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
    weigh = _weigher(dataset, params, regime) if args.command == "weights" else None
    neighborhoods = []
    for sid in _key_sorted(dataset.site_ids()):
        found = _neighbors(dataset, sid, regime, params)
        if weigh and found:
            entries = list(zip(*weigh(sid, found)))
        else:
            entries = [(n,) for n in _key_sorted(found)]
        neighborhoods.append((sid, entries))
    header = ("center", "neighbor", "weight") if weigh else ("center", "neighbor")
    _emit(_neighbor_table(header, neighborhoods), args.out)
    return 0


def _cmd_detect(args) -> int:
    """detect in --mode, or compare: classical, then weighted, in one report."""
    dataset = _checked(_load_dataset(args))
    params = _params(args)
    attribute = _attribute(args, dataset)
    compare = args.command == "compare"
    results = [detect_outliers(dataset, attribute, params, mode=mode, regime=args.regime)
               for mode in (MODES if compare else (args.mode,))]
    report = compare_models(*results) if compare else results[0]
    _emit(render_report(report, args.format), args.out)
    return 0


def _cmd_fixtures(args) -> int:
    for path in write_fixture_files(args.out):
        print(path)
    return 0


# add_argument keywords by option flag, in groups that several commands share
_INPUTS = {
    "--sites": {"help": f"point sites CSV ({','.join(_SITE_HEADER)},<attrs>)"},
    "--edges": {"help": f"edges CSV ({','.join(_EDGE_HEADER)})"},
    "--polygons": {"help": "polygon sites JSON"},
}
_SEARCH = {
    "--radius": {"type": float, "help": "buffer radius"},
    "--regime": {"choices": REGIMES, "help": "neighbor regime (default: by dataset kind)"},
}
_BLEND = {
    "--alpha": {"type": float, "default": WeightParams.alpha,
                "help": "distance coefficient (default %(default)g)"},
    "--beta": {"type": float, "default": WeightParams.beta,
               "help": "connection coefficient (default %(default)g)"},
    "--delta": {"type": float, "default": WeightParams.delta,
                "help": "cost coefficient (default %(default)g)"},
    "--gamma": {"type": float, "default": WeightParams.gamma,
                "help": "polygon distance/area mix (default %(default)g)"},
    "--cost-limit": {"type": float, "help": "ignore traversal costs above this limit"},
}
_SCORING = {
    "--attribute": {"help": "attribute to analyze"},
    "--theta": {"type": float, "default": WeightParams.theta,
                "help": "|z| flag threshold (default %(default)g)"},
}
_MODE = {"--mode": {"choices": MODES, "default": "weighted"}}
_OUT = {"--out": {"help": "output path (default: stdout)"}}
_FORMAT = {"--format": {"choices": REPORT_FORMATS, "default": "csv"}}

# name -> (help, options in help order, handler), for every subcommand in help
# order: build_parser declares the subcommands from it and main dispatches from it
_COMMANDS = {
    "validate": ("check dataset invariants", _INPUTS, _cmd_validate),
    "neighbors": ("print center,neighbor pairs as CSV",
                  _INPUTS | _SEARCH | _OUT, _cmd_neighborhoods),
    "weights": ("print weighted neighborhoods per site",
                _INPUTS | _SEARCH | _BLEND | _OUT, _cmd_neighborhoods),
    "detect": ("score sites and flag outliers",
               _INPUTS | _SEARCH | _BLEND | _SCORING | _MODE | _OUT | _FORMAT, _cmd_detect),
    "compare": ("run both modes and compare errors",
                _INPUTS | _SEARCH | _BLEND | _SCORING | _OUT | _FORMAT, _cmd_detect),
    "fixtures": ("write the bundled example datasets",
                 {"--out": {"default": ".", "help": "target directory (default: .)"}},
                 _cmd_fixtures),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        _, _, run = _COMMANDS[args.command]
        return run(args)
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
