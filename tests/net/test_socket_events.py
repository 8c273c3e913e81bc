"""A socket send or receive is a plain event, not a process per message.

Only the per-socket tx loop models a thread; ``send`` returns its
local-completion ``Timeout`` and ``recv`` an event that completes
``cost`` after its bytes are buffered.  Completion times are checked
against the cost formulas bit for bit.
"""

import pytest

from repro.net import Fabric, SocketClosed
from repro.net.sockets import SYSCALL_CHUNK
from repro.simcore import Environment
from repro.simcore.process import Process
from tests.net.test_sockets import establish


@pytest.fixture
def fabric():
    return Fabric(Environment())


def send_cost(sock, nbytes):
    sw, mem = sock.model.software, sock.model.memory
    syscalls = -(-nbytes // SYSCALL_CHUNK) or 1
    return (
        syscalls * sw.socket_syscall_us
        + sock.spec.host_overhead_us
        + nbytes * sock.spec.cpu_per_byte_us
        + (mem.memcpy_base_us + nbytes * mem.memcpy_per_byte_us)
    )


def recv_cost(sock, nbytes):
    syscalls = -(-nbytes // SYSCALL_CHUNK) or 1
    return (
        syscalls * sock.model.software.socket_syscall_us
        + sock.spec.host_overhead_us
        + nbytes * sock.spec.cpu_per_byte_us
    )


def deliveries(sock):
    """Record the time of every delivery into ``sock``."""
    times = []
    sock.on_data = lambda s: times.append(s.env.now)
    return times


def test_send_and_recv_start_no_process(fabric, monkeypatch):
    client, server = establish(fabric)
    env = fabric.env

    def warm_up(env):
        yield client.send(b"warm")  # starts the socket's tx loop
        yield server.recv(4)

    env.run(env.process(warm_up(env)))
    started = []
    original = Process.__init__

    def counting(self, *args, **kwargs):
        started.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting)
    sent = client.send(b"hello")
    received = server.recv(5)
    assert started == []
    assert not isinstance(sent, Process)
    assert not isinstance(received, Process)
    monkeypatch.undo()
    env.run(received)
    assert received.value == b"hello"


@pytest.mark.parametrize("nbytes", [1, 5, 3 * SYSCALL_CHUNK + 7])
def test_send_completes_at_now_plus_cost(fabric, nbytes):
    client, _ = establish(fabric)
    env = fabric.env
    times = {}

    def sender(env):
        yield env.timeout(123.25)
        times["called"] = env.now
        yield client.send(b"x" * nbytes)
        times["done"] = env.now

    env.run(env.process(sender(env)))
    assert times["done"] == times["called"] + send_cost(client, nbytes)
    assert client.bytes_sent == nbytes


@pytest.mark.parametrize("nbytes", [5, 3 * SYSCALL_CHUNK + 7])
def test_recv_pending_completes_at_last_delivery_plus_cost(fabric, nbytes):
    client, server = establish(fabric)
    env = fabric.env
    delivered = deliveries(server)
    times = {}

    def receiver(env):
        times["called"] = env.now
        times["data"] = yield server.recv(nbytes)
        times["done"] = env.now

    def sender(env):
        yield env.timeout(50.0)
        yield client.send(b"y" * nbytes)

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert times["data"] == b"y" * nbytes
    assert delivered[-1] > times["called"]
    assert times["done"] == delivered[-1] + recv_cost(server, nbytes)
    assert server.bytes_received == nbytes


def test_recv_of_buffered_bytes_completes_at_call_plus_cost(fabric):
    client, server = establish(fabric)
    env = fabric.env
    delivered = deliveries(server)
    times = {}

    def sender(env):
        yield client.send(b"abcdef")

    def receiver(env):
        yield env.timeout(10_000.5)
        times["called"] = env.now
        times["data"] = yield server.recv(4)
        times["done"] = env.now

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert delivered and delivered[-1] < times["called"]
    assert times["data"] == b"abcd"
    assert times["done"] == times["called"] + recv_cost(server, 4)
    assert server.available == 2


def test_pending_recv_fails_at_the_callers_yield_on_peer_close(fabric):
    client, server = establish(fabric)
    env = fabric.env
    seen = {}

    def receiver(env):
        try:
            yield server.recv(10)
        except SocketClosed as exc:
            seen["error"] = exc
            seen["at"] = env.now

    def closer(env):
        yield env.timeout(250.0)
        seen["closed_at"] = env.now
        client.close()

    env.process(receiver(env))
    env.process(closer(env))
    env.run()
    assert isinstance(seen["error"], SocketClosed)
    assert "0/10" in str(seen["error"])
    assert seen["at"] == seen["closed_at"]


def test_second_concurrent_recv_raises_at_the_call(fabric):
    _, server = establish(fabric)
    first = server.recv(5)
    assert not first.triggered
    with pytest.raises(RuntimeError, match="concurrent recv"):
        server.recv(5)
