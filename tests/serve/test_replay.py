"""Decision parity: govern sessions vs. the in-process energy manager."""

import socket

import pytest

from repro.arch.specs import haswell_i7_4770k
from repro.energy.manager import EnergyManager, ManagerConfig
from repro.serve.background import BackgroundServer
from repro.serve.client import ServeClient, replay_decisions
from repro.serve.server import ServeConfig
from repro.serve.sessions import decision_bytes
from repro.sim.run import simulate_managed
from tests.util import make_program, memory


def memory_bound_program():
    return make_program([
        [memory(30_000, cpi=0.5, chains=[300.0] * 40) for _ in range(40)]
        for _ in range(2)
    ])


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    if not hasattr(socket, "AF_UNIX"):
        pytest.skip("platform has no AF_UNIX sockets")
    path = str(tmp_path_factory.mktemp("serve") / "replay.sock")
    with BackgroundServer(ServeConfig(socket_path=path)) as background:
        yield background


@pytest.mark.parametrize(
    "config",
    [
        ManagerConfig(tolerable_slowdown=0.10),
        ManagerConfig(tolerable_slowdown=0.05, hold_off=3),
        ManagerConfig(tolerable_slowdown=0.10, slack_banking=True),
        ManagerConfig(tolerable_slowdown=0.10, objective="min-edp"),
    ],
)
def test_replay_is_byte_identical(server, config):
    spec = haswell_i7_4770k()
    manager = EnergyManager(spec, config)
    result = simulate_managed(
        memory_bound_program(), manager, spec=spec, quantum_ns=2.5e5
    )
    assert manager.decisions, "the managed run must have decided something"
    with ServeClient.connect(socket_path=server.config.socket_path) as client:
        remote = replay_decisions(client, result.trace, config)
    assert decision_bytes(remote) == decision_bytes(manager.decisions)


def test_replay_sessions_are_independent(server):
    """Two interleaved sessions must not share hold-off/banking state."""
    spec = haswell_i7_4770k()
    config = ManagerConfig(tolerable_slowdown=0.10, slack_banking=True)
    manager = EnergyManager(spec, config)
    result = simulate_managed(
        memory_bound_program(), manager, spec=spec, quantum_ns=2.5e5
    )
    with ServeClient.connect(socket_path=server.config.socket_path) as client:
        first = replay_decisions(client, result.trace, config)
        second = replay_decisions(client, result.trace, config)
    assert decision_bytes(first) == decision_bytes(second)
    assert decision_bytes(first) == decision_bytes(manager.decisions)
