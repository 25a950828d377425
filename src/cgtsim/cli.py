"""Command-line interface.

Verbs: run <config>, preset <name>, compare <config>..., verify, certify <config>.
Exit codes: 0 success, 1 config error, 2 divergence, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import harness
from .algorithms import AlgorithmError, DivergenceError
from .analysis import AnalysisError
from .compression import CompressionError
from .problems import ProblemError
from .topology import TopologyError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VERIFY = 3

# bad input anywhere in the library surfaces as one of these: exit 1, no traceback
CONFIG_ERRORS = (harness.ConfigError, AlgorithmError, AnalysisError, CompressionError,
                 ProblemError, TopologyError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgtsim",
        description="Decentralized gradient tracking with communication compression.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to a config file")
    p_run.add_argument("--out", default=None, help="output directory")

    p_preset = sub.add_parser("preset", help="run a named preset (or list them)")
    p_preset.add_argument("name", nargs="?", default=None, help="preset name")
    p_preset.add_argument("--out", default=None, help="output directory")
    p_preset.add_argument("--list", action="store_true", help="list available presets")
    p_preset.add_argument("--k", type=int, default=None, help="override iteration count")
    p_preset.add_argument("--seed", type=int, default=None, help="override problem seed")

    p_cmp = sub.add_parser("compare", help="run several configs and merge their traces")
    p_cmp.add_argument("configs", nargs="+", help="config files sharing problem and topology")
    p_cmp.add_argument("--out", default=None, help="output directory")
    p_cmp.add_argument("--prefix", default="compare", help="merged CSV name")

    sub.add_parser("verify", help="run the invariant verification suite")

    p_cert = sub.add_parser("certify", help="compute a convergence certificate for a config")
    p_cert.add_argument("config", help="path to a config file")
    p_cert.add_argument("--out", default=None, help="output directory")

    return parser


def _warning_line(message, *_) -> str:
    # a warning is about the user's config, so it names no library file or line
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _warning_line
    try:
        if args.verb == "preset" and (args.list or args.name is None):
            print(harness.preset_listing())
            return EXIT_OK

        if args.verb in ("run", "preset"):
            cfg = (harness.parse_config_file(args.config) if args.verb == "run"
                   else harness.preset(args.name, K=args.k, seed=args.seed))
            outcome = harness.run_experiment(cfg, out_dir=args.out)
            print(outcome.summary)
            print(f"trace: {outcome.csv_path}")
            if outcome.cert_path is not None:
                print(f"certificate: {outcome.cert_path}")
            return EXIT_DIVERGED if outcome.diverged else EXIT_OK

        if args.verb == "compare":
            cfgs = [harness.parse_config_file(path) for path in args.configs]
            try:
                path = harness.compare(cfgs, out_dir=args.out, prefix=args.prefix)
            except DivergenceError as exc:
                print(f"diverged: {exc}", file=sys.stderr)
                return EXIT_DIVERGED
            print(f"merged trace: {path}")
            return EXIT_OK

        if args.verb == "verify":
            checks = harness.verify_suite()
            print(harness.verify_report(checks))
            return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY

        if args.verb == "certify":
            cfg = harness.parse_config_file(args.config)
            path = harness.output_file(args.out, f"{cfg.prefix}.cert.txt")
            report = harness.certificate_report(cfg)
            harness.write_output(path, report)
            print(report, end="")
            print(f"certificate: {path}")
            return EXIT_OK
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        warnings.formatwarning = formatwarning
    raise AssertionError(f"unhandled verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main())
