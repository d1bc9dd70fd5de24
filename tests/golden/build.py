"""Golden output bytes: the committed reference set and its generator.

Each entry below is one user-visible artifact whose bytes must survive
any refactor of the code that produces it: a Byzantine-band chaos
campaign report, the Section 2 sweep tables, a merged ``repro metrics
--runs`` batch, and a small measured Figure 1.  Every function below
takes a job count, because the artifacts must also be byte-identical
at any ``--jobs``; ``tests/golden/test_golden.py`` rebuilds each one
at ``--jobs 1`` and ``--jobs 2`` and diffs it against the committed
file.

Regenerate the set only when an output change is intentional, and
commit the diff with the change that caused it::

    PYTHONPATH=src python -m tests.golden.build     # or: make golden
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from typing import Callable, Dict, List

#: Where the committed golden files live (this package's directory).
GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))


def _cli_artifact(argv: List[str], out_flag: str) -> str:
    """Run ``repro <argv> <out_flag> <tmp file>``; return the file text."""
    from repro import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, out_flag, path])
        if code != 0:
            raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def chaos(jobs: int) -> str:
    """51 ABD/CAS/CASGC runs, Byzantine band included."""
    return _cli_artifact(
        [
            "chaos", "--algorithms", "abd", "cas", "casgc",
            "--n", "5", "--f", "1", "--seeds", "1", "--ops", "6",
            "--byzantine", "1", "--no-cache", "--out", "",
            "--jobs", str(jobs),
        ],
        "--json",
    )


def sweep(jobs: int) -> str:
    """The Section 2 sweep tables over the standard grids."""
    return _cli_artifact(["sweep", "--no-cache", "--jobs", str(jobs)], "--out")


def metrics(jobs: int) -> str:
    """Three seeded CAS runs merged into one ``repro.metrics`` batch."""
    return _cli_artifact(
        [
            "metrics", "--algorithm", "cas", "-n", "5", "-f", "1",
            "--ops", "6", "--runs", "3", "--jobs", str(jobs),
        ],
        "--json",
    )


def figure1(jobs: int) -> str:
    """Measured Figure 1 at N=7, f=3 for nu in {1, 2}."""
    from repro.analysis.empirical import empirical_figure1

    series = empirical_figure1(n=7, f=3, nus=(1, 2), jobs=jobs)
    return json.dumps(series, sort_keys=True) + "\n"


#: Golden file name -> function building its bytes at a job count.
GOLDEN: Dict[str, Callable[[int], str]] = {
    "chaos.json": chaos,
    "sweep.txt": sweep,
    "metrics.json": metrics,
    "figure1.json": figure1,
}


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name)


def main() -> int:
    """Rewrite every golden file from a serial build."""
    for name, build in GOLDEN.items():
        with open(golden_path(name), "w", encoding="utf-8") as fh:
            fh.write(build(1))
        print(f"wrote {golden_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
