"""How this package serves JSON over HTTP, and how its clients keep a connection.

Both services — the oracle daemon (:mod:`repro.serve.daemon`) and the
distributed sweep's coordinator (:mod:`repro.dist.coordinator`) — are a
:class:`JsonServer` running a :class:`JsonHandler` subclass that holds
the service's route table.  What they share is decided here, once:

* **One serve loop.**  A background thread blocks on a selector over the
  listening socket and one end of a socket pair.  :meth:`JsonServer.stop`
  writes a byte to the other end, so an idle server never wakes up and
  stopping waits out no poll.
* **One close policy.**  Every kept-alive connection is tracked from
  ``setup`` to ``finish``.  :meth:`JsonServer.close` ends each one at its
  next request boundary.  An idle connection is shut down at once, so its
  client's next request fails with a transport error, as after a kill.
  A request already being answered gets its answer, and then its
  connection ends.
* **One body reader.**  Every request's body is read whole before it is
  routed, up to :data:`MAX_BODY_BYTES`.  A body the server cannot frame
  (a bad or oversized ``Content-Length``, a chunked body) is refused with
  ``400`` and the connection closes: its bytes are never parsed as the
  next request.
* **One route table per service**, ``{path: {method: function}}``, built
  once with the class.  Errors map to statuses the same way everywhere:
  ``ValueError`` → 400, ``KeyError`` → 404, a known path with the wrong
  method → 405, anything else → 500.  A service adds its own cases by
  extending :meth:`JsonHandler.error_answer`.
* HTTP/1.1 keep-alive with Nagle's algorithm off, and quiet handling of
  clients that go away.

:class:`KeptConnection` is the client half: the daemon's clients and the
sweep's workers each keep one per thread.
"""

from __future__ import annotations

import http.client
import json
import selectors
import socket
import sys
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.obs import prometheus_text

__all__ = ["JsonHandler", "JsonServer", "KeptConnection", "MAX_BODY_BYTES"]

#: Refuse request bodies past this size (a malformed client, not a DoS shield).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: ``(status, JSON payload, extra headers)``: one answer to write.
Answer = Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]


class JsonServer(ThreadingHTTPServer):
    """A threaded HTTP/1.1 server with one serve loop and one close policy.

    ``owner`` is the service object the handlers call into.  The server
    holds it weakly, so the service's state (a coordinator's delivered
    results, say) is freed with the service and not kept alive by a
    reference cycle through its server.
    """

    #: ``handle_request()`` never blocks: the serve loop calls it only
    #: once its own selector has seen a connection waiting, and a
    #: connection gone by then is simply not accepted.
    timeout = 0

    def __init__(self, address: Tuple[str, int],
                 handler_class: type, owner: Any) -> None:
        super().__init__(address, handler_class)
        self.owner = weakref.proxy(owner)
        # stop() writes one byte here to wake the serve loop.
        self._wake_r, self._wake_w = socket.socketpair()
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._closing = False
        self._conn_lock = threading.Lock()
        self._handlers: set = set()

    # ------------------------------------------------------------------
    # Serve loop
    # ------------------------------------------------------------------
    def start(self, name: str) -> None:
        """Serve on a background thread (a second call does nothing)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._serve, name=name,
                                            daemon=True)
            self._thread.start()

    def wait(self) -> None:
        """Block until the serve loop ends; an interrupt signal breaks it."""
        if self._thread is not None:
            self._thread.join()

    def _serve(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_r, selectors.EVENT_READ)
            while not self._stopping:
                for key, _ in selector.select():
                    if key.fileobj is self and not self._stopping:
                        # Accept, hand the connection to a handler
                        # thread, report errors.
                        self.handle_request()

    def stop(self) -> None:
        """Stop accepting: end the serve loop, then release its sockets.

        Kept connections go on being answered until :meth:`close`.
        """
        if not self._stopping:
            self._stopping = True
            self._wake_w.send(b"\0")
            if self._thread is not None:
                self._thread.join(timeout=5.0)
        self.server_close()
        self._wake_r.close()
        self._wake_w.close()

    def close(self) -> None:
        """:meth:`stop`, then end every kept connection (idempotent).

        Handlers flag ``busy`` without the lock: ``_closing`` is set
        before the scan and a handler reads it after setting ``busy``, so
        each connection is ended here or by its own handler.
        """
        self.stop()
        with self._conn_lock:
            self._closing = True
            idle = [handler.connection for handler in self._handlers
                    if not handler.busy]
        for connection in idle:
            _sever(connection)

    def _track(self, handler: "JsonHandler") -> None:
        with self._conn_lock:
            if not self._closing:
                self._handlers.add(handler)
                return
        _sever(handler.connection)  # accepted just before close()

    def _untrack(self, handler: "JsonHandler") -> None:
        with self._conn_lock:
            self._handlers.discard(handler)

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that went away, or a connection close() ended, surfaces
        # as OSError (or ValueError: I/O on a closed file) in its handler
        # thread, and a request that outlived its closed and freed service
        # as ReferenceError: routine teardown, not a stack trace on stderr.
        if not isinstance(sys.exc_info()[1], (OSError, ValueError, ReferenceError)):
            super().handle_error(request, client_address)


def _sever(connection: socket.socket) -> None:
    """End a connection: its handler reads EOF and closes the socket."""
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already gone


class JsonHandler(BaseHTTPRequestHandler):
    """Routes one service's requests: read the body, route, answer.

    A subclass sets :attr:`routes`.  A route function takes the handler
    and returns a JSON payload (answered ``200``), or writes its own
    answer with :meth:`send_raw` and returns ``None``.  A service that
    wraps every route (accounting, admission) overrides :meth:`serve`,
    and one that counts every answer overrides :meth:`count_answer`.
    """

    protocol_version = "HTTP/1.1"  # keep-alive: clients reuse connections
    # Small request/response pairs on kept connections are both services'
    # whole workload; Nagle plus delayed ACK would stall each one.
    disable_nagle_algorithm = True
    #: ``{path: {method: route function}}``, built once per service.
    routes: Mapping[str, Mapping[str, Callable[..., Any]]] = {}
    server: JsonServer
    #: True while a request on this connection is being answered.
    busy = False

    def setup(self) -> None:
        super().setup()
        self.server._track(self)

    def finish(self) -> None:
        self.server._untrack(self)
        super().finish()

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # keep the wire quiet unless the service asks for verbosity.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.owner.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        self.busy = True
        try:
            if self.server._closing:
                # A request that raced close(): end its connection
                # unanswered, as close() ended the idle ones.
                self.close_connection = True
                return
            self.started = time.perf_counter()
            try:
                self.body = self._read_body()
                path = self.path.partition("?")[0]
                methods = self.routes.get(path)
                if methods is None:
                    raise KeyError(f"unknown path {path!r}")
                route = methods.get(self.command)
                if route is None:
                    self.send_json(405, {"error": f"{path!r} does not answer {self.command}"},
                                   {"Allow": ", ".join(methods)})
                    return
                self.serve(route)
            except Exception as error:
                self.send_json(*self.error_answer(error))
        finally:
            self.busy = False
            if self.server._closing:
                self.close_connection = True

    do_GET = do_POST = do_PUT = do_DELETE = _dispatch

    def serve(self, route: Callable[..., Any]) -> None:
        """Run one route and answer its payload (a service may wrap this)."""
        payload = route(self)
        if payload is not None:
            self.send_json(200, payload)

    def error_answer(self, error: Exception) -> Answer:
        """The answer to a route that raised ``error``."""
        if isinstance(error, ValueError):
            return 400, {"error": str(error)}, None
        if isinstance(error, KeyError):
            return 404, {"error": error.args[0] if error.args else str(error)}, None
        return 500, {"error": f"{type(error).__name__}: {error}"}, None

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _read_body(self) -> bytes:
        """The whole request body; a body left unread closes the connection."""
        header = self.headers.get("Content-Length")
        try:
            length = int(header or 0)
        except ValueError:
            length = -1
        if "Transfer-Encoding" in self.headers:
            refusal = "chunked request bodies are not accepted; send a Content-Length"
        elif length < 0:
            refusal = f"invalid Content-Length {header!r}"
        elif length > MAX_BODY_BYTES:
            refusal = f"request body of {length} bytes exceeds {MAX_BODY_BYTES} byte limit"
        else:
            return self.rfile.read(length) if length else b""
        # The unread body would be parsed as the next request.
        self.close_connection = True
        raise ValueError(refusal)

    def json_body(self) -> Dict[str, Any]:
        """The request body as a JSON object (anything else is a 400)."""
        if not self.body:
            raise ValueError("request body required (JSON object)")
        try:
            body = json.loads(self.body)
        except ValueError as error:
            raise ValueError(f"request body is not valid JSON: {error}") from None
        if not isinstance(body, dict):
            raise ValueError(f"request body must be a JSON object, got {type(body).__name__}")
        return body

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def count_answer(self, code: int) -> None:
        """Called once per request, just before its answer is written."""

    def send_json(self, code: int, payload: Dict[str, Any],
                  headers: Optional[Dict[str, str]] = None) -> None:
        self.send_raw(code, json.dumps(payload).encode("utf-8"),
                      "application/json", headers)

    def send_raw(self, code: int, data: bytes, content_type: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        self.count_answer(code)
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            if self.close_connection:
                self.send_header("Connection", "close")
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            if self.request_version == "HTTP/0.9":  # a bare body, no headers
                self.wfile.write(data)
            else:
                # end_headers() would write the headers, then the body
                # apart: one write is one syscall and one TCP segment.
                self._headers_buffer += (b"\r\n", data)
                self.flush_headers()
        except OSError:
            pass  # the client went away mid-answer: nothing to salvage

    def metrics(self) -> None:
        """The ``GET /metrics`` route: Prometheus text exposition."""
        self.send_raw(200, prometheus_text().encode("utf-8"),
                      "text/plain; version=0.0.4; charset=utf-8")


class KeptConnection(http.client.HTTPConnection):
    """A keep-alive HTTP/1.1 client connection with Nagle's algorithm off.

    It connects on first use, and again on the next request after any
    close: a transport error, an answer that ends the connection, or
    :meth:`close`.  Like any ``http.client`` connection it is not
    thread-safe: one thread owns it, or a lock guards it.  The daemon's
    clients and the distributed sweep's workers both talk through it.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        super().__init__(host, port, timeout=timeout)
        #: Connections opened so far.
        self.connects = 0

    def connect(self) -> None:  # noqa: D102
        super().connect()
        # Small request/response pairs: Nagle plus delayed ACK would
        # stall each one.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connects += 1

    def round_trip(self, method: str, path: str, body: Optional[bytes] = None
                   ) -> Tuple[http.client.HTTPResponse, bytes]:
        """Send one request and read its whole answer: ``(response, body)``.

        A JSON body gets its content type.  Any error closes the
        connection before it propagates, so the next call starts clean.
        """
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.request(method, path, body=body, headers=headers)
            response = self.getresponse()
            return response, response.read()  # always drain: keep-alive hygiene
        except BaseException:
            self.close()
            raise
