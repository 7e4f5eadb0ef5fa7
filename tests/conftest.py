import importlib.util
import sys
from pathlib import Path

import pytest

from ellipcert import certify


@pytest.fixture(scope="session")
def a_c_result():
    """The computed sharp constant, shared across the suite (one scan)."""
    return certify.find_a_c()


@pytest.fixture
def bench_cases(monkeypatch):
    """The module bench/cases.py, which builds the benchmark's argv lists."""
    path = Path(__file__).resolve().parent.parent / "bench" / "cases.py"
    spec = importlib.util.spec_from_file_location("bench_cases", path)
    cases = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, cases)  # for its dataclass
    spec.loader.exec_module(cases)
    return cases
