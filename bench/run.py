"""rentlab benchmark: time `rentlab run` on one workload and check its outputs.

    python3 bench/run.py --workload demo --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; rentlab need not be installed. The
benchmark first writes the workload's input CSVs with rentlab.synthgen
from --seed (several times, each in a fresh child process; the median is
setup_s). Then it runs `rentlab run` on them again and again, one fresh
single-process child after another, until --seconds have passed. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced children and reports the per-layer metrics of the
traced ones. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import CheckError, check_run, expected_artifacts  # noqa: E402
from tracer import PER_LAYER, generate_seconds, layer_metrics, load_spans  # noqa: E402
from workloads import WORKLOADS, generator_doc, pipeline_doc  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
BLAS_THREADS = 1
SETUP_REPS = 5
MIN_ROUNDS = 2
# every child is killed once the invocation has run this long, so the whole
# benchmark ends well inside three minutes
DEADLINE_S = 150.0

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "best_rmse": "price",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One child process, timed from start to exit, killed at its deadline."""

    def __init__(self, argv: list[str], log_path: str, timeout_s: float):
        self.argv = argv
        self.log_path = log_path
        self.timeout_s = timeout_s

    def run(self) -> dict:
        with open(self.log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), *self.argv],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
            )
            killed = threading.Event()

            def kill() -> None:
                killed.set()
                proc.kill()

            killer = threading.Timer(max(self.timeout_s, 0.0), kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "timed_out": killed.is_set(),
        }

    def log_tail(self, lines: int = 15) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])


def digest(out_dir: str, names: list[str]) -> dict[str, str]:
    out = {}
    for name in names:
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
        self.timeout_s = WORKLOADS[workload]["timeout_s"]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.runs: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[float] = []
        self.generate_s: list[float] = []
        self.best_rmse: float | None = None
        self.reference: dict[str, str] | None = None

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, argv: list[str], tag: str) -> tuple[Child, dict]:
        c = Child(argv, self.path(f"{tag}.log"), min(self.timeout_s, self.remaining()))
        return c, c.run()

    def setup(self) -> bool:
        gen_path = self.path("generator.json")
        with open(gen_path, "w", encoding="utf-8") as fh:
            json.dump(generator_doc(self.workload, self.seed), fh)
        for i in range(SETUP_REPS):
            argv = ["gen", gen_path, self.path("inputs")]
            if self.trace:
                argv += ["--trace", self.path(f"gen_trace_{i}.json")]
            c, res = self.child(argv, f"gen_{i}")
            if res["code"] != 0:
                print(f"setup failed (exit {res['code']}):\n{c.log_tail()}", file=sys.stderr)
                return False
            self.setups.append(res["wall_s"])
            print(f"setup {i}: wall_s={res['wall_s']:.3f}", flush=True)
            if self.trace:
                self.generate_s.append(generate_seconds(load_spans(self.path(f"gen_trace_{i}.json"))))
        inputs = {k: self.path("inputs", f"{k}.csv") for k in ("listings", "calendar", "reviews")}
        self.config = pipeline_doc(self.workload, self.seed, inputs, self.path("out"))
        with open(self.path("config.json"), "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=2)
        return True

    def one_run(self, traced: bool) -> bool:
        """Run the pipeline once; False stops the loop."""
        i = self.attempted
        self.attempted += 1
        out = self.path("out")
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", self.path("config.json")]
        if traced:
            argv += ["--trace", self.path("trace.json")]
        c, res = self.child(argv, f"run_{i}")
        print(f"run {i}: traced={int(traced)} exit={res['code']} wall_s={res['wall_s']:.3f} cpu_s={res['cpu_s']:.3f} "
              f"peak_rss_mb={res['peak_rss_mb']:.1f}", flush=True)
        if res["code"] != 0:
            self.failed += 1
            why = "timed out" if res["timed_out"] else f"exit {res['code']}"
            print(f"run {i} failed ({why}):\n{c.log_tail()}", file=sys.stderr)
            return not res["timed_out"]
        names = expected_artifacts(self.config)
        if self.reference is None:
            os.rename(out, self.path("first"))
            self.reference = digest(self.path("first"), names)
        elif digest(out, names) != self.reference:
            self.fail_check(i, CheckError("artifacts differ from the first run of the same inputs"))
        if traced:
            res["layers"] = layer_metrics(load_spans(self.path("trace.json")))
            self.traced.append(res)
        else:
            self.runs.append(res)
        return True

    def fail_check(self, i: int, exc: Exception) -> None:
        self.correct = False
        print(f"run {i}: check failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    def check_first(self) -> None:
        """Every output check, on the first run that exited 0."""
        try:
            best = check_run(self.path("first"), self.config)
            self.best_rmse = best["rmse"]
            print(f"checks passed: best family {best['family']} on {best['n_features']} features, "
                  f"test rmse {best['rmse']:.4f}", flush=True)
        except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            self.fail_check(0, exc)

    def measure(self) -> None:
        """Whole rounds (one run, or an untraced and a traced run) until
        --seconds have passed and at least MIN_ROUNDS are done."""
        kinds = (False, True) if self.trace else (False,)
        begin = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - begin < self.seconds:
            for traced in kinds:
                if not self.one_run(traced):
                    return
            rounds += 1

    def metrics(self) -> dict:
        if not self.trace:
            values = {
                "run_s": statistics.median(r["wall_s"] for r in self.runs),
                "setup_s": statistics.median(self.setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.runs),
                "best_rmse": self.best_rmse,
            }
            return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        values = {
            name: statistics.median(t["layers"][name] for t in self.traced)
            for name in self.traced[0]["layers"]
        }
        values["synthgen.generate_s"] = statistics.median(self.generate_s)
        traced_s = statistics.median(t["wall_s"] for t in self.traced)
        values["trace.run_s"] = traced_s
        values["trace.overhead_s"] = traced_s - statistics.median(r["wall_s"] for r in self.runs)
        return {k: {"value": values[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}

    def run(self) -> dict:
        os.makedirs(self.work, exist_ok=True)
        if self.setup():
            self.measure()
            if self.reference is not None:
                self.check_first()
        else:
            self.attempted += 1
            self.failed += 1
        ok_runs = self.runs and (not self.trace or self.traced)
        return {
            "correct": bool(self.correct and ok_runs and self.best_rmse is not None),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics() if ok_runs else {},
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rentlab", "cli.py")):
        print(f"no rentlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()}")
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
