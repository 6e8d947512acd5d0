"""One benchmark child process: either write a workload's input CSVs or run
`rentlab run`, optionally traced.

    python3 bench/child.py gen <generator.json> <out_dir> [--trace <spans.json>]
    python3 bench/child.py run <config.json> [--trace <spans.json>]

`src` of the checkout is put on the path here, so rentlab need not be
installed. The exit code is rentlab's own (0 / 1 / 2).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _gen(doc_path: str, out_dir: str) -> int:
    import json

    from rentlab.cli import gen_config_from_doc
    from rentlab.synthgen import generate
    from rentlab.tabular import write_csv

    with open(doc_path, encoding="utf-8") as fh:
        cfg = gen_config_from_doc(json.load(fh))
    listings, calendar, reviews = generate(cfg)
    os.makedirs(out_dir, exist_ok=True)
    for name, table in (("listings", listings), ("calendar", calendar), ("reviews", reviews)):
        write_csv(table, os.path.join(out_dir, f"{name}.csv"))
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    if "--trace" in argv:
        at = argv.index("--trace")
        trace_path = argv[at + 1]
        argv = argv[:at] + argv[at + 2:]
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if argv[0] == "gen":
            return _gen(argv[1], argv[2])
        if argv[0] == "run":
            from rentlab.cli import main as rentlab_main

            return rentlab_main(["run", "--config", argv[1]])
        print(f"unknown child command {argv[0]!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
