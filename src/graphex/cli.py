"""Command-line front end.

One binary, subcommand style. Every subcommand is deterministic given its
full flag set (including --seed), emits UTF-8 with LF line endings and
stable column order, and exits 0 on success/all-pass, 1 when a validation
or experiment check fails, 2 on configuration errors (bad flags, malformed
graphex declarations, divergent requests).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .finiteness import check_local_finiteness
from .harness import (
    _STATISTICS,
    DEFAULT_P_FLOOR,
    DEFAULT_STATS,
    DEFAULT_Z_CRIT,
    HarnessError,
    connectivity_experiment,
    degdist_experiment,
    projectivity_test,
    statistic,
    validate_expectations,
    write_csv,
    write_json,
)
from .model import GraphexError, build_from_json
from .sampler import SamplerConfig, sample_keg

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _load_graphex(value: str):
    """--graphex accepts a path to a JSON file or inline JSON (starts with {)."""
    if value.lstrip().startswith("{"):
        return build_from_json(value)
    try:
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise GraphexError(f"cannot read graphex declaration {value!r}: {err}") from err
    return build_from_json(text)


def _float_list(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from err
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _str_list(text: str):
    parts = [part.strip() for part in text.split(",") if part.strip() != ""]
    if not parts:
        raise argparse.ArgumentTypeError("expected at least one name")
    return parts


def _emit(report_dict: dict, args) -> None:
    if args.out:
        write_json(report_dict, args.out)
    else:
        sys.stdout.write(json.dumps(report_dict, sort_keys=True, indent=2) + "\n")


def _add_graphex(p) -> None:
    p.add_argument("--graphex", required=True, metavar="PATH|JSON",
                   help="graphex declaration: path to a JSON file, or inline JSON")


def _add_report_flags(p) -> None:
    p.add_argument("--out", metavar="PATH", help="write the JSON report here "
                   "(default: stdout)")
    p.add_argument("--csv", metavar="PATH", help="also write a flat CSV of the rows")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphex",
        description="Sample, analyse and validate exchangeable graphs "
                    "declared by a graphex (I, S, W).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one graph and write its edge list")
    _add_graphex(p)
    p.add_argument("--nu", type=float, required=True, help="truncation level")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-3,
                   help="expected missed-edge budget for the latent cutoff")
    p.add_argument("--theta-max", type=float, default=None,
                   help="override the computed latent cutoff")
    p.add_argument("--no-fast-path", action="store_true",
                   help="force the naive pair loop even for separable and caron-fox kernels")
    p.add_argument("--out", metavar="PATH", help="edge CSV (default: stdout)")
    p.add_argument("--latent-out", metavar="PATH", help="latent-value sidecar CSV")
    p.add_argument("--meta-out", metavar="PATH", help="graph metadata JSON")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("expect", help="evaluate an expected statistic")
    _add_graphex(p)
    p.add_argument("--nu", type=float, required=True)
    # the registry's statistics, with degk for degree_<k>
    p.add_argument("--stat", default="edges",
                   choices=["degk" if name == "degree_<k>" else name for name in _STATISTICS])
    p.add_argument("--k", type=int, default=None, help="degree for --stat degk")
    p.add_argument("--out", metavar="PATH", help="JSON output (default: stdout)")
    p.set_defaults(fn=cmd_expect)

    p = sub.add_parser("check", help="run the local-finiteness conditions")
    _add_graphex(p)
    p.add_argument("--out", metavar="PATH", help="JSON output (default: stdout)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("validate", help="Monte Carlo means vs. theory (z-scores)")
    _add_graphex(p)
    p.add_argument("--nus", type=_float_list, required=True, metavar="A,B,...")
    p.add_argument("--replicates", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stats", type=_str_list, default=DEFAULT_STATS,
                   metavar="NAME,...", help=", ".join(_STATISTICS))
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--z-crit", type=float, default=DEFAULT_Z_CRIT)
    _add_report_flags(p)
    p.set_defaults(fn=_report_command("validate_expectations", "nus", "stats", "eps", "z_crit"))

    p = sub.add_parser("degdist", help="empirical degree law vs. theory ratio")
    _add_graphex(p)
    p.add_argument("--nus", type=_float_list, required=True, metavar="A,B,...")
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="fixed degree")
    group.add_argument("--beta", type=float, help="per-nu degree floor(nu^beta)")
    p.add_argument("--eps", type=float, default=1e-3)
    _add_report_flags(p)
    p.set_defaults(fn=_report_command("degdist_experiment", "nus", "k", "beta", "eps"))

    p = sub.add_parser("connectivity", help="largest-component fraction trend")
    _add_graphex(p)
    p.add_argument("--nus", type=_float_list, required=True, metavar="A,B,...")
    p.add_argument("--replicates", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--eps", type=float, default=1e-3)
    _add_report_flags(p)
    p.set_defaults(fn=_report_command("connectivity_experiment", "nus", "eps", "threshold"))

    p = sub.add_parser("projectivity", help="KS test: restrict(sample(2nu), nu) "
                                            "vs sample(nu)")
    _add_graphex(p)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--replicates", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p-floor", type=float, default=DEFAULT_P_FLOOR)
    p.add_argument("--eps", type=float, default=1e-3)
    _add_report_flags(p)
    p.set_defaults(fn=_report_command("projectivity_test", "nu", "eps", "p_floor"))

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    g = _load_graphex(args.graphex)
    cfg = SamplerConfig(nu=args.nu, seed=args.seed, eps=args.eps,
                        theta_max=args.theta_max,
                        use_fast_path=not args.no_fast_path)
    graph = sample_keg(g, cfg)
    graph.write_csv(args.out if args.out else sys.stdout)
    if args.latent_out:
        graph.write_latent_csv(args.latent_out)
    if args.meta_out:
        graph.write_metadata(args.meta_out)
    return EXIT_OK


def cmd_expect(args) -> int:
    name = args.stat
    if name == "degk":
        if args.k is None:
            raise HarnessError("--stat degk requires --k")
        name = f"degree_{args.k}"
    elif args.k is not None:
        raise HarnessError(f"--k applies only to --stat degk, not to --stat {name}")
    _, predict = statistic(name)
    g = _load_graphex(args.graphex)
    payload = {"statistic": name, "nu": args.nu}
    payload.update(predict(g, args.nu).to_dict())
    _emit(payload, args)
    return EXIT_OK


def cmd_check(args) -> int:
    g = _load_graphex(args.graphex)
    report = check_local_finiteness(g)
    _emit(report.to_dict(), args)
    return EXIT_OK if report.all_hold else EXIT_FAIL


def _report_command(experiment: str, levels: str, *options: str):
    """The body of a report subcommand: run the harness function named
    ``experiment`` (looked up in this module when the command runs) at the
    level(s) in ``args.<levels>``, passing the flags named in ``options`` by
    keyword, then write the report and exit by its verdict."""
    def run(args) -> int:
        g = _load_graphex(args.graphex)
        report = globals()[experiment](
            g, getattr(args, levels), args.replicates, args.seed,
            **{name: getattr(args, name) for name in options})
        _emit(report.to_dict(), args)
        if args.csv:
            write_csv(args.csv, *report.csv_rows())
        return EXIT_OK if report.ok else EXIT_FAIL

    return run


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphexError, HarnessError, json.JSONDecodeError) as err:
        print(f"graphex: error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
