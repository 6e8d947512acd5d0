#!/usr/bin/env python3
"""Write every artifact of the benchmark workloads and the README demo, and
print the sha256 of each file, so that two checkouts can be compared with
``diff``.

Usage: python scripts/artifact_digests.py OUT_DIR > digests.txt

Each workload of bench/workloads.py runs at seeds 1 and 7: ``rentlab gen``
writes its input CSVs to OUT_DIR/<workload>-<seed>/inputs, and ``rentlab
run`` writes its artifacts to OUT_DIR/<workload>-<seed>/out. The README
demo, examples/demo.json, writes its inputs and artifacts to
OUT_DIR/examples-demo. rentlab is imported from this checkout's src, not
from an installed copy, and runs in this process. Every file
under OUT_DIR is listed, one ``<sha256>  <path relative to OUT_DIR>`` line
each, sorted by path; a failing run stops the script with exit code 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
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


def _rentlab(argv: list[str]) -> None:
    # rentlab reports its paths on stdout, which here holds only the digests
    with contextlib.redirect_stdout(sys.stderr):
        status = rentlab_main(argv)
    if status != 0:
        raise SystemExit(f"rentlab {' '.join(argv)} exited {status}")


def write_artifacts(out_dir: Path, config_dir: Path) -> None:
    """Run every workload at every seed and every example into out_dir; the
    configs, which name out_dir, go to config_dir."""
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            run_dir = out_dir / f"{name}-{seed}"
            gen_path = config_dir / f"{name}-{seed}-generator.json"
            gen_path.write_text(json.dumps(workloads.generator_doc(name, seed)), encoding="utf-8")
            _rentlab(["gen", "--config", str(gen_path), "--out-dir", str(run_dir / "inputs")])
            inputs = {k: str(run_dir / "inputs" / f"{k}.csv") for k in ("listings", "calendar", "reviews")}
            run_path = config_dir / f"{name}-{seed}-run.json"
            doc = workloads.pipeline_doc(name, seed, inputs, str(run_dir / "out"))
            run_path.write_text(json.dumps(doc), encoding="utf-8")
            _rentlab(["run", "--config", str(run_path)])
    for example in EXAMPLES:
        _rentlab(["run", "--config", str(example), "--out-dir", str(out_dir / f"examples-{example.stem}")])


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
        write_artifacts(out_dir, Path(config_dir))
    print("\n".join(digests(out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
