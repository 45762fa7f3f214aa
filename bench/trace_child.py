"""Run one nmembed CLI command in this process with every layer traced.

    python3 bench/trace_child.py STATS.json -- <nmembed arguments>

Writes the span report and the in-process wall time of ``cli.main`` to
STATS.json and exits with the command's exit code.  ``nmembed`` must be
importable (the benchmark puts ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from layers import Tracer


def main(argv: list[str]) -> int:
    stats_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py STATS.json -- <nmembed arguments>")
    import nmembed.cli

    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        rc = nmembed.cli.main(cli_args)
    finally:
        wall = perf_counter() - t0
        tracer.restore()
    sys.stdout.flush()
    Path(stats_path).write_text(json.dumps({"rc": rc, "wall_s": wall,
                                            "spans": tracer.report()}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
