"""Shared fixtures for the test suite.

Most fixtures build small deployments; tests that need special
parameters (loss, sync periods, pending-slot sharing) construct their
own via the ``make_deployment`` factory fixture.

Also installs a per-test wall-clock timeout (``--per-test-timeout``,
default 120 s) so a hung simulation — an event loop that never drains,
a process that reschedules forever — fails that one test instead of
wedging the whole CI job.  Hand-rolled on ``SIGALRM`` because the
environment has no pytest-timeout plugin; on platforms without
``SIGALRM`` (or off the main thread) it degrades to a no-op.
"""

from __future__ import annotations

import signal
import threading
from typing import Callable, List, Optional, Tuple

import pytest

from repro.core.manager import SwiShmemDeployment
from repro.net.endhost import AddressBook, EndHost
from repro.net.topology import Topology, build_full_mesh
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch


def pytest_addoption(parser):
    parser.addoption(
        "--per-test-timeout",
        type=float,
        default=120.0,
        help="wall-clock seconds allowed per test (0 disables); enforced "
        "via SIGALRM, so a runaway simulation fails loudly instead of "
        "hanging the run",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    limit = item.config.getoption("--per-test-timeout")
    can_alarm = (
        limit > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded --per-test-timeout={limit:g}s"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> SeededRng:
    return SeededRng(seed=1234)


@pytest.fixture
def make_deployment(sim: Simulator, rng: SeededRng) -> Callable:
    """Factory: build an n-switch full-mesh deployment (see
    :func:`deployment_factory`)."""
    return deployment_factory(sim, rng)


def deployment_factory(sim: Simulator, rng: SeededRng) -> Callable:
    """The ``make_deployment`` factory over ``sim`` and ``rng``: build an
    n-switch full-mesh deployment.

    Returns ``(deployment, topology, switches)``.  Keyword arguments are
    forwarded to :class:`SwiShmemDeployment`, plus ``loss_rate`` and
    ``latency`` for the mesh links and ``memory_bytes`` /
    ``control_op_latency`` for the switches.
    """

    def build(
        n: int = 3,
        loss_rate: float = 0.0,
        latency: float = 5e-6,
        memory_bytes: int = 10 * 1024 * 1024,
        control_op_latency: float = 20e-6,
        **kwargs,
    ) -> Tuple[SwiShmemDeployment, Topology, List[PisaSwitch]]:
        topo = Topology(sim, rng)
        switches = build_full_mesh(
            topo,
            lambda name: PisaSwitch(
                name,
                sim,
                memory_bytes=memory_bytes,
                control_op_latency=control_op_latency,
            ),
            n,
            loss_rate=loss_rate,
            latency=latency,
        )
        deployment = SwiShmemDeployment(sim, topo, switches, **kwargs)
        return deployment, topo, switches

    return build


@pytest.fixture
def deployment(make_deployment) -> SwiShmemDeployment:
    """A plain three-switch deployment with history recording."""
    dep, _, _ = make_deployment(3, record_history=True)
    return dep
