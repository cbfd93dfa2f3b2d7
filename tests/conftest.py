"""Shared fixtures: the three workhorse curves, the golden-data directory and
a record of the process pools that sweeps build.  ``--start-method`` runs the
whole session under one multiprocessing start method, say
``python -m pytest -q --start-method spawn``."""
from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pathlib
import threading
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import pytest

from gcdheights import Curve, Point
from gcdheights import experiments

DATA_DIR = pathlib.Path(__file__).parent / "data"


def pytest_addoption(parser) -> None:
    parser.addoption("--start-method", choices=("fork", "forkserver", "spawn"),
                     help="default multiprocessing start method for the session")


def pytest_configure(config) -> None:
    # before collection, so skipif marks that read the method see this one
    method = config.getoption("--start-method")
    if method:
        multiprocessing.set_start_method(method, force=True)


@pytest.fixture(autouse=True)
def no_fork_beside_a_thread(monkeypatch) -> None:
    """Fails the test that forks while another thread of the process is alive:
    a child that inherits a lock such a thread holds can deadlock."""
    fork = os.fork

    def guarded() -> int:
        if threading.active_count() > 1:
            names = [t.name for t in threading.enumerate()
                     if t is not threading.current_thread()]
            pytest.fail(f"fork beside live threads: {names}")
        return fork()
    monkeypatch.setattr(os, "fork", guarded)


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA_DIR


@pytest.fixture
def c37() -> Curve:
    """Rank-1 curve y^2 + y = x^3 - x; (0,0) generates, discriminant 37."""
    return Curve(0, 0, 1, -1, 0)


@pytest.fixture
def p37() -> Point:
    return Point(Fraction(0), Fraction(0))


@pytest.fixture
def c389() -> Curve:
    """Rank-2 curve y^2 + y = x^3 + x^2 - 2x; (0,0) and (1,0) are independent."""
    return Curve(0, 1, 1, -2, 0)


@pytest.fixture
def p389() -> Point:
    return Point(Fraction(0), Fraction(0))


@pytest.fixture
def q389() -> Point:
    return Point(Fraction(1), Fraction(0))


@pytest.fixture
def cm2() -> Curve:
    """Mordell curve y^2 = x^3 - 2 with the classical point (3, 5)."""
    return Curve(0, 0, 0, 0, -2)


@pytest.fixture
def pm2() -> Point:
    return Point(Fraction(3), Fraction(5))


@pytest.fixture
def pools(monkeypatch) -> list[SimpleNamespace]:
    """Each process pool a sweep builds in the test, as its ``max_workers``,
    the start ``method`` of its context and the cell ranges mapped onto it in
    submission order.  The process may use two CPUs, whatever the machine
    has, so ``jobs=2`` can pool."""
    built = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            method = kwargs["mp_context"].get_start_method()
            built.append(SimpleNamespace(max_workers=max_workers, method=method,
                                         chunks=[]))
            super().__init__(max_workers, **kwargs)

        def map(self, fn, chunks):
            built[-1].chunks = list(chunks)
            return super().map(fn, built[-1].chunks)

    # run() imports the pool from concurrent.futures each time it pools
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return built


@pytest.fixture
def forced_pool(pools, monkeypatch) -> list[SimpleNamespace]:
    """``pools``, with no pool start-up cost: a sweep at ``jobs > 1`` sends
    every cell after its first to a pool, however cheap the sweep, under
    any start method."""
    monkeypatch.setattr(experiments, "_POOL_START_S",
                        dict.fromkeys(experiments._POOL_START_S, 0.0))
    return pools
