import os
import subprocess
import sys
from pathlib import Path

import pytest

from rentlab.sentiment import Lexicon, default_lexicon

SRC = Path(__file__).resolve().parents[1] / "src"

# criterion name -> (passed, detail); filled by the makereport hook for every
# test carrying a @pytest.mark.criterion("...") marker.
ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}
ACCEPTANCE_DETAILS: dict[str, str] = {}


def record_acceptance(criterion: str, detail: str) -> None:
    ACCEPTANCE_DETAILS[criterion] = detail


def run_cli_with_blas_threads(threads: int, *argv: str) -> None:
    """``rentlab *argv`` in a new process whose BLAS runs ``threads``
    threads; OpenBLAS sizes its pool once, when numpy loads."""
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    code = "import sys; from rentlab.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="session")
def lexicon() -> Lexicon:
    return default_lexicon()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    name = marker.args[0]
    ACCEPTANCE_RESULTS[name] = (rep.passed, ACCEPTANCE_DETAILS.get(name, ""))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[name]
        line = f"{'PASS' if passed else 'FAIL'}  {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
