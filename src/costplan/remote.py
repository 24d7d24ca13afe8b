"""Remote estimator wire protocol: newline-delimited JSON over TCP.

Request:  {"action": <string>, "level": <int >= 1>}
Reply:    {"lb": <number>, "ub": <number|null>, "time_ms": <number>}
       or {"error": <string>}

The mock server answers from a loaded EstimatorManifest, so remote runs
reproduce local ones exactly.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from .errors import EstimatorUnavailableError
from .intervals import INF, CostInterval
from .manifest import EstimatorManifest

#: serve_forever's shutdown poll; the default 0.5 s makes every shutdown()
#: wait up to half a second.
POLL_INTERVAL_S = 0.01


class RemoteEstimatorClient:
    """Synchronous, blocking client; one connection per estimate call."""

    def __init__(self, host: str, port: int, timeout_s: float = 10.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    def estimate(self, action_name: str, level: int) -> tuple[CostInterval, float]:
        """Interval plus the server-reported time_ms."""
        request = json.dumps({"action": action_name, "level": level}) + "\n"
        try:
            with socket.create_connection((self.host, self.port), timeout=self.timeout_s) as sock:
                sock.sendall(request.encode("utf-8"))
                with sock.makefile("r", encoding="utf-8") as fh:
                    line = fh.readline()
        except OSError as exc:
            raise EstimatorUnavailableError(f"estimator endpoint unreachable: {exc}") from exc

        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EstimatorUnavailableError(f"malformed estimator reply: {line!r}") from exc
        if not isinstance(reply, dict):
            raise EstimatorUnavailableError(f"malformed estimator reply: {line!r}")
        if "error" in reply:
            raise EstimatorUnavailableError(f"estimator error: {reply['error']}")
        try:
            lb = float(reply["lb"])
            ub = INF if reply["ub"] is None else float(reply["ub"])
            time_ms = float(reply["time_ms"])
            interval = CostInterval(lb, ub)
        except (KeyError, TypeError, ValueError) as exc:
            raise EstimatorUnavailableError(f"malformed estimator reply: {line!r}") from exc
        return interval, time_ms


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            self.wfile.write((json.dumps(self._reply(line)) + "\n").encode("utf-8"))
            self.wfile.flush()

    def _reply(self, line: str) -> dict:
        try:
            request = json.loads(line)
            action = request["action"]
            level = int(request["level"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
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
