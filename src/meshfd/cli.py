"""Command-line entry point.

Every subcommand reads one JSON config, writes its outputs under
``--out-dir``, and echoes the fully resolved config into ``report.json``;
identical invocations produce byte-identical outputs (wall-clock timings
appear only with ``--timings``).
"""

from __future__ import annotations

import argparse
import sys

from .errors import MeshfdError
from .config import load_config
from .runner import dump_json, run_command

_SUBCOMMANDS = {
    "generate": "generate a node cloud and write the node CSV",
    "stencil": "print one numerical-differentiation row as JSON",
    "dim": "dimension analysis of an overlap-spline space",
    "solve": "assemble and solve a boundary-value problem",
    "converge": "run a refinement study and write the rate table",
    "pum-eval": "blend nodal data into a global function on an evaluation grid",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshfd",
        description="Meshless finite differences with overlapping local spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run config (a report.json also works)")
        p.add_argument("--out-dir", default=".", help="directory for all outputs")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings in report.json")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        _, results = run_command(
            args.command,
            raw,
            out_dir=args.out_dir,
            seed=args.seed,
            timings=args.timings,
        )
    except MeshfdError as exc:
        sys.stderr.write(dump_json({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    sys.stdout.write(dump_json(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
