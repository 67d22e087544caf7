#!/usr/bin/env python3
"""Run every packaged experiment config through the CLI.

Results land in results/ next to this script (override with --out).  Exit
code is the worst exit code across runs, so CI can grade the batch.

Usage:
    python scripts/run_experiments.py
    python scripts/run_experiments.py --out /tmp/results --seed 7
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from firmlp.cli import main as cli_main  # noqa: E402

COMMANDS = {
    "truncation_certify.json": "certify",
    "swap_calculus_certify.json": "certify",
    "resolvent_bruck_certify.json": "certify",
    "resolvent_negation.json": "resolvent",
    "semigroup_negation.json": "semigroup",
    "semigroup_swaps.json": "semigroup",
    "semigroup_tanh.json": "semigroup",
    "iterate_swaps.json": "iterate",
    "feasibility_swaps.json": "feasibility",
    "feasibility_swaps_averaged.json": "feasibility",
    "feasibility_matrices.json": "feasibility",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="output directory (default: scripts/../results)")
    ap.add_argument("--seed", type=int, default=None, help="override the config seeds")
    args = ap.parse_args()

    here = Path(__file__).resolve().parent
    out = Path(args.out) if args.out else here.parent / "results"
    worst = 0
    for name, command in COMMANDS.items():
        cfg = here / "configs" / name
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        print(f"== {command} {name}")
        code = cli_main(argv)
        worst = max(worst, code)
    print(f"done; worst exit code {worst}; outputs in {out}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
