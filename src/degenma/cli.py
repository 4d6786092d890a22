"""Command line entry point: degenma <experiment> [--config FILE] [options].

Exit codes: 0 all verdicts pass, 1 any verdict fails, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENTS, make_config, run


def _columns_doc() -> str:
    lines = ["experiments and their metrics.csv columns:"]
    for name in sorted(EXPERIMENTS):
        lines.append(f"  {name:24s} {EXPERIMENTS[name][1]}")
    lines.append("")
    lines.append("config files are flat 'key = value' lines, '#' comments,")
    lines.append("comma-separated lists, fractions like 1/64 allowed for floats.")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenma",
        description="Run a named desk-scale experiment for the degenerate "
        "Monge-Ampere laboratory.",
        epilog=_columns_doc(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS), metavar="experiment")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="output directory for metrics.csv and summary.json")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--alpha", type=float, help="override the config alpha: finite and > -1 (> 0 for "
                        "strictconvexity-demo, >= 1.1063 for holder-scan at its default domain)")
    parser.add_argument("--gamma", type=float, help="override the Holder exponent")
    parser.add_argument("--save-fields", action="store_true", help="also write per-grid field CSVs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(
            args.experiment,
            config_path=args.config,
            out_dir=args.out,
            seed=args.seed,
            alpha=args.alpha,
            gamma=args.gamma,
            save_fields=args.save_fields or None,
        )
    except (ValueError, OSError, KeyError) as exc:
        print(f"degenma: error: {exc}", file=sys.stderr)
        return 2
    summary = run(cfg)
    for name, ok in sorted(summary.verdicts.items()):
        print(f"{summary.experiment}: {name}: {'PASS' if ok else 'FAIL'}")
    print(f"{summary.experiment}: wall clock {summary.wall_clock_seconds:.2f}s")
    return 0 if summary.all_pass() else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
