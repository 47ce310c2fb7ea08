"""Shared test plumbing: the acceptance-criterion report and a memory-capped
child interpreter."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_CHILD_AS_BYTES = 1 << 30

_CRITERION_LINES = []


def record_criterion(name: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    _CRITERION_LINES.append(line)
    print(line, flush=True)


@pytest.fixture(scope="session")
def criterion():
    return record_criterion


@pytest.fixture(scope="session")
def capped_python():
    """run(args, timeout): python3 *args in a child process limited to 1 GiB
    of address space, with this checkout's src/ first on its path.

    For calls that, should they regress, would grow memory without bound: the
    child fails with MemoryError instead of taking the machine's memory.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_AS_BYTES, _CHILD_AS_BYTES))

    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def run(args, timeout):
        return subprocess.run([sys.executable, *args], env=env, preexec_fn=limit,
                              capture_output=True, text=True, timeout=timeout)
    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
