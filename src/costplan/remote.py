"""Remote estimator wire protocol: newline-delimited JSON over TCP.

Request:  {"action": <string>, "level": <int >= 1>}
Reply:    {"lb": <number>, "ub": <number|null>, "time_ms": <number >= 0>}
       or {"error": <string>}

Numbers are finite JSON numbers, as in a manifest; only a null ub means +inf.

A connection carries any number of request/reply pairs, one line each, in
order; the client keeps one open across calls. The mock server answers from a
loaded EstimatorManifest, so remote runs reproduce local ones exactly.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from .errors import EstimatorUnavailableError, ManifestError
from .intervals import INF, CostInterval
from .manifest import EstimatorManifest, as_number

#: serve_forever's shutdown poll; the default 0.5 s makes every shutdown()
#: wait up to half a second.
POLL_INTERVAL_S = 0.01


class RemoteEstimatorClient:
    """Synchronous, blocking client over one persistent connection.

    The connection opens on the first call and stays open until close(). A
    call that fails on a connection an earlier call opened (the server may
    have closed it since) reconnects once and resends: a lookup is idempotent.
    A failure on a fresh connection, or a timeout, raises at once. Any failure
    or malformed reply drops the connection, so a late reply is never read as
    the answer to the next call; an {"error": ...} reply keeps it. Once a
    connect fails, every later call raises at once without connecting: a
    dead endpoint costs one timeout, not one per action.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 10.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._sock = None
        self._unreachable = None  # the failed connect's message, once one fails

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def estimate(self, action_name: str, level: int) -> tuple[CostInterval, float]:
        """Interval plus the server-reported time_ms."""
        if self._unreachable is not None:
            raise EstimatorUnavailableError(f"estimator endpoint unreachable: {self._unreachable}")
        request = (json.dumps({"action": action_name, "level": level}) + "\n").encode("utf-8")
        while True:  # at most twice: a retry always runs on a fresh connection
            reused = self._sock is not None
            try:
                line = self._roundtrip(request).decode("utf-8", "replace")
                break
            except OSError as exc:
                self.close()
                if not reused or isinstance(exc, TimeoutError):
                    raise EstimatorUnavailableError(
                        f"estimator endpoint unreachable: {exc}") from exc

        try:
            reply = json.loads(line)
            if not isinstance(reply, dict):
                raise TypeError("reply is not an object")
            if "error" in reply:
                raise EstimatorUnavailableError(f"estimator error: {reply['error']}")
            lb = as_number(reply["lb"], "lb")
            ub = INF if reply["ub"] is None else as_number(reply["ub"], "ub")
            time_ms = as_number(reply["time_ms"], "time_ms")
            if time_ms < 0:
                raise ValueError("negative time_ms")
            return CostInterval(lb, ub), time_ms
        except (KeyError, TypeError, ValueError, RecursionError, ManifestError) as exc:
            self.close()
            raise EstimatorUnavailableError(f"malformed estimator reply: {line!r}") from exc

    def _roundtrip(self, request: bytes) -> bytes:
        """Send one request line and read one reply line; EOF is a ConnectionError."""
        if self._sock is None:
            try:
                self._sock = socket.create_connection((self.host, self.port), self.timeout_s)
            except OSError as exc:
                self._unreachable = str(exc)
                raise
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.sendall(request)
        line = b""
        while not line.endswith(b"\n"):
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("estimator server closed the connection")
            line += chunk
        return line


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        try:
            for raw in self.rfile:
                if raw.isspace():
                    continue
                self.wfile.write((json.dumps(self._reply(raw)) + "\n").encode("utf-8"))
                self.wfile.flush()
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client went away: not an error of the server's

    def _reply(self, raw: bytes) -> dict:
        try:
            request = json.loads(raw.decode("utf-8"))  # UnicodeDecodeError is a ValueError
            action, level = request["action"], request["level"]
        except (KeyError, TypeError, ValueError, RecursionError):
            return {"error": "malformed request"}
        if type(action) is not str or type(level) is not int:  # bool is not a level
            return {"error": "malformed request"}
        entry = self.server.entries.get(action)
        if entry is None:
            return {"error": "unknown action"}
        if not (1 <= level <= len(entry.levels)):
            return {"error": f"level {level} out of range"}
        lvl = entry.levels[level - 1]
        ub = None if lvl.interval.ub == INF else lvl.interval.ub
        return {"lb": lvl.interval.lb, "ub": ub, "time_ms": lvl.time_ms}


class MockEstimatorServer(socketserver.ThreadingTCPServer):
    """Serves a manifest's estimator chains over the wire protocol."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, manifest: EstimatorManifest, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.entries = manifest.by_action()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
        )
        thread.start()
        return thread
