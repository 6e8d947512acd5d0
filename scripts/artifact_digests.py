#!/usr/bin/env python3
"""Write every artifact of the benchmark workloads and the README demo, and
print the sha256 of each file, so that two checkouts can be compared with
``diff``.

Usage: python scripts/artifact_digests.py OUT_DIR > digests.txt

Each workload of bench/workloads.py runs at seeds 1 and 7: ``rentlab gen``
writes its input CSVs to OUT_DIR/<workload>-<seed>/inputs, and ``rentlab
run`` writes its artifacts to OUT_DIR/<workload>-<seed>/out. The README
demo, examples/demo.json, writes its inputs and artifacts to
OUT_DIR/examples-demo. One damaged case, OUT_DIR/<workload>-<seed>-damaged,
runs the first workload at its first seed on inputs with a seeded 3 % of
their cells blank or garbled, in every column, and a calendar gap to
backfill. rentlab is imported from this checkout's src, not from an
installed copy, and runs in this process. Every file under OUT_DIR is
listed, one ``<sha256>  <path relative to OUT_DIR>`` line each, sorted by
path, and then the damaged run's exit code, as ``exit <code>  <its
directory>``. Any other failing run stops the script with exit code 1.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rentlab.cli import main as rentlab_main  # noqa: E402

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SEEDS = (1, 7)
EXAMPLES = (ROOT / "examples" / "demo.json",)
# the damaged case: this share of the input cells, each blanked or garbled,
# and a calendar gap that starts inside the generated dates
DAMAGED_FRACTION = 0.03
DAMAGED_CELLS = ("", "n/a")
DAMAGED_GAP = {"gap_start": "2023-01-06", "gap_end": "2023-02-03"}


def _rentlab(argv: list[str]) -> int:
    # rentlab reports its paths on stdout, which here holds only the digests
    with contextlib.redirect_stdout(sys.stderr):
        return rentlab_main(argv)


def _run(argv: list[str]) -> None:
    status = _rentlab(argv)
    if status != 0:
        raise SystemExit(f"rentlab {' '.join(argv)} exited {status}")


def damage(path: Path, rng: random.Random) -> None:
    """Replace a DAMAGED_FRACTION of a CSV's cells, in every column, by one
    of DAMAGED_CELLS, in place."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    for row in rows:
        for j in range(len(row)):
            if rng.random() < DAMAGED_FRACTION:
                row[j] = rng.choice(DAMAGED_CELLS)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def _prepare_workload(name: str, seed: int, run_dir: Path, config_dir: Path,
                      damaged: bool = False) -> list[str]:
    """Generate a workload's inputs into run_dir/inputs and write the config
    that runs it into run_dir/out; damaged, on damaged inputs and with
    DAMAGED_GAP. The rentlab arguments of that run."""
    gen_path = config_dir / f"{run_dir.name}-generator.json"
    gen_path.write_text(json.dumps(workloads.generator_doc(name, seed)), encoding="utf-8")
    _run(["gen", "--config", str(gen_path), "--out-dir", str(run_dir / "inputs")])
    inputs = {k: str(run_dir / "inputs" / f"{k}.csv") for k in ("listings", "calendar", "reviews")}
    doc = workloads.pipeline_doc(name, seed, inputs, str(run_dir / "out"))
    if damaged:
        rng = random.Random(seed)
        for path in inputs.values():
            damage(Path(path), rng)
        doc["wrangle"] = {**doc.get("wrangle", {}), **DAMAGED_GAP}
    run_path = config_dir / f"{run_dir.name}-run.json"
    run_path.write_text(json.dumps(doc), encoding="utf-8")
    return ["run", "--config", str(run_path)]


def write_artifacts(out_dir: Path, config_dir: Path) -> str:
    """Run every workload at every seed, every example and the damaged case
    into out_dir; the configs, which name out_dir, go to config_dir. The
    damaged run's exit-code line."""
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            _run(_prepare_workload(name, seed, out_dir / f"{name}-{seed}", config_dir))
    for example in EXAMPLES:
        _run(["run", "--config", str(example), "--out-dir", str(out_dir / f"examples-{example.stem}")])
    name, seed = next(iter(workloads.WORKLOADS)), SEEDS[0]
    run_dir = out_dir / f"{name}-{seed}-damaged"
    status = _rentlab(_prepare_workload(name, seed, run_dir, config_dir, damaged=True))
    return f"exit {status}  {run_dir.name}"


def digests(out_dir: Path) -> list[str]:
    """``<sha256>  <relative path>`` of every file under out_dir, by path."""
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out_dir).as_posix()}"
            for p in files]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        print(f"{out_dir} is not empty", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as config_dir:
        damaged = write_artifacts(out_dir, Path(config_dir))
    print("\n".join([*digests(out_dir), damaged]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
