#!/usr/bin/env python3
"""Print how much memory each stage of ``rentlab run`` takes, measured
against the design matrix it works on.

Usage: python scripts/stage_memory.py CONFIG

Runs ``rentlab run --config CONFIG`` in this process under tracemalloc and
prints one line per stage:

    <stage>  peak <MB>  x<ratio>  rss <MB>

``peak`` is the largest traced (Python and numpy) memory while the stage
ran, everything alive at the time included. ``ratio`` is that peak divided
by the bytes of the stage's design matrix (its x and y; the matrix it is
given, or for featurize the one it returns), and ``-`` for the stages
before the matrix exists. ``rss`` is the process high-water mark
(``resource.getrusage``) when the stage returned, imports included;
tracemalloc's own bookkeeping adds a little to it. A MB is 2^20 bytes, as
in the benchmark's ``peak_rss_mb``. rentlab is imported from this
checkout's src, not from an installed copy.
"""

from __future__ import annotations

import contextlib
import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rentlab import cli  # noqa: E402
from rentlab.features import FeatureMatrix  # noqa: E402

STAGES = ("wrangle", "sentiment", "featurize", "select", "evaluate", "train", "explain")


def _matrix_bytes(args, result) -> int | None:
    for obj in (*args, result):
        if isinstance(obj, FeatureMatrix):
            return obj.x.nbytes + obj.y.nbytes
    return None


def _measured(stage: str, func, lines: list[str]):
    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        result = func(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        size = _matrix_bytes(args, result)
        ratio = "-" if size is None else f"x{peak / size:.2f}"
        lines.append(f"{stage:<10} peak {peak / 2**20:7.2f} MB  {ratio:>6}  rss {rss:6.1f} MB")
        return result

    return measured


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/stage_memory.py CONFIG", file=sys.stderr)
        return 2
    lines: list[str] = []
    originals = {stage: getattr(cli, f"stage_{stage}") for stage in STAGES}
    for stage, func in originals.items():
        setattr(cli, f"stage_{stage}", _measured(stage, func, lines))
    tracemalloc.start()
    try:
        # rentlab reports its paths on stdout, which here holds only the stages
        with contextlib.redirect_stdout(sys.stderr):
            status = cli.main(["run", "--config", argv[0]])
    finally:
        tracemalloc.stop()
        for stage, func in originals.items():
            setattr(cli, f"stage_{stage}", func)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
