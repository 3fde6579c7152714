"""The shared JSON-over-HTTP server base, checked on both services built on it.

The oracle daemon and the distributed sweep's coordinator serve through
one :class:`repro.serve.jsonhttp.JsonServer`; each test here runs
against both, so the two cannot drift apart again.
"""

from __future__ import annotations

import http.client
import socket
import sys
import threading

import pytest

from repro.api.cache import ResultCache
from repro.api.spec import BuildSpec
from repro.dist.coordinator import DistCoordinator
from repro.graphs import generators
from repro.serve import OracleDaemon, ServeSpec

GRAPH = generators.grid_graph(4, 4)


def _daemon(tmp_path):
    daemon = OracleDaemon(port=0)
    daemon.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
    return daemon


def _coordinator(tmp_path):
    return DistCoordinator([(0, "grid", GRAPH, BuildSpec())], ResultCache(tmp_path))


#: Each service's constructor.
SERVICES = {"daemon": _daemon, "coordinator": _coordinator}
#: One POST endpoint of each service.
POST_PATHS = {OracleDaemon: "/query", DistCoordinator: "/lease"}


@pytest.fixture(params=sorted(SERVICES))
def service(request, tmp_path):
    instance = SERVICES[request.param](tmp_path)
    yield instance
    instance.close()


def test_close_ends_the_serve_loop_and_severs_kept_connections(service):
    service.start()
    server = service._server
    connection = http.client.HTTPConnection(service.host, service.port, timeout=10)
    try:
        connection.request("GET", "/healthz")
        assert connection.getresponse().read()
        service.close()
        assert not server._thread.is_alive()
        assert server._wake_r.fileno() == -1
        assert server._wake_w.fileno() == -1
        service.close()  # idempotent
        # The closed service ended the kept connection: a request on it
        # fails in transport, as after a kill.
        with pytest.raises((http.client.RemoteDisconnected, ConnectionError,
                            BrokenPipeError)):
            connection.request("GET", "/healthz")
            connection.getresponse()
    finally:
        connection.close()


def test_close_before_start_releases_every_socket(service):
    service.close()
    service.close()
    server = service._server
    assert server.socket.fileno() == -1
    assert server._wake_r.fileno() == -1
    assert server._wake_w.fileno() == -1


def test_close_under_load_ends_every_connection(service):
    # Handlers flag themselves busy without a lock; whichever way a
    # request and close() interleave, its connection must end.  A
    # connection left open would hang its client until the timeout.
    service.start()
    answered = threading.Semaphore(0)
    endings = []

    def client():
        connection = http.client.HTTPConnection(service.host, service.port, timeout=10)
        try:
            while True:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200 and response.read()
                answered.release()
        except Exception as error:  # the ending this test checks
            endings.append(error)
        finally:
            connection.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, daemon=True) for _ in range(8)]
        for thread in threads:
            thread.start()
        for _ in range(4 * len(threads)):
            assert answered.acquire(timeout=30)
        service.close()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(endings) == len(threads)
    for error in endings:
        assert isinstance(error, (http.client.HTTPException, ConnectionError)), error


@pytest.mark.parametrize("framing", [
    "Content-Length: 40000000",
    "Content-Length: abc",
    "Transfer-Encoding: chunked",
])
def test_a_refused_body_ends_the_connection(service, framing):
    # A body the server refuses unread must not stay in the keep-alive
    # stream: its bytes (here, a whole GET) would be served as the next
    # request.
    service.start()
    smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    head = (f"POST {POST_PATHS[type(service)]} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Type: application/json\r\n{framing}\r\n\r\n")
    received = b""
    with socket.create_connection((service.host, service.port), timeout=10) as sock:
        sock.sendall(head.encode("ascii") + smuggled)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    # Exactly one answer, a 400, then EOF.
    assert received.startswith(b"HTTP/1.1 400 ")
    assert received.count(b"HTTP/1.1 ") == 1


def test_each_answer_is_one_socket_write(service, monkeypatch):
    # Status line, headers and body leave in one write: two writes per
    # small answer cost a second syscall and, with Nagle off, a second
    # TCP segment.
    service.start()
    writes = []
    sendall = socket.socket.sendall

    def counting_sendall(sock, data, *args):
        if sock.getsockname()[1] == service.port:  # the server's end
            writes.append(len(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
    connection = http.client.HTTPConnection(service.host, service.port, timeout=10)
    try:
        for _ in range(5):
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200 and response.read()
    finally:
        connection.close()
    assert len(writes) == 5
