import gc
import json
import math
import socket
import socketserver
import time
import warnings

import pytest

from costplan.bench import gen_gridworld, synthetic_manifest_for
from costplan.errors import EstimatorUnavailableError
from costplan.estimators import EstimatorRegistry, SyntheticConfig
from costplan.intervals import CostInterval
from costplan.manifest import load_manifest
from costplan.pddl import ground
from costplan.remote import MockEstimatorServer, RemoteEstimatorClient
from costplan.search import SearchConfig, solve


class CountingServer(MockEstimatorServer):
    """A MockEstimatorServer that records the connections it accepts and closes.

    With `hang_up` set, it closes each new connection without reading from it.
    """

    def __init__(self, manifest, handler=None):
        super().__init__(manifest)
        if handler is not None:
            self.RequestHandlerClass = handler
        self.connections = []
        self.closed = 0
        self.hang_up = False

    def process_request(self, request, client_address):
        self.connections.append(request)
        if self.hang_up:
            self.shutdown_request(request)
        else:
            super().process_request(request, client_address)

    def shutdown_request(self, request):
        self.closed += 1
        super().shutdown_request(request)


@pytest.fixture()
def drive_server(drive_paths):
    server = CountingServer(load_manifest(drive_paths["manifest"]))
    server.start_background()
    yield server
    server.shutdown()
    server.server_close()


def raw_request(server, payload: str) -> dict:
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall((payload + "\n").encode())
        with sock.makefile("r") as fh:
            return json.loads(fh.readline())


def test_wire_format(drive_server):
    request = json.dumps({"action": "drive a b", "level": 1})
    for payload in (request, "\n" + request):  # a blank line gets no reply
        assert raw_request(drive_server, payload) == {"lb": 5.0, "ub": 10.0, "time_ms": 1.0}


def test_unknown_action_is_error_reply(drive_server):
    reply = raw_request(drive_server, json.dumps({"action": "teleport", "level": 1}))
    assert reply == {"error": "unknown action"}


def test_malformed_request_is_error_reply(drive_server):
    assert "error" in raw_request(drive_server, "not json")
    assert "error" in raw_request(drive_server, json.dumps({"action": "drive a b"}))
    for request in [
        {"action": ["x"], "level": 1},
        {"action": {"drive a b": 1}, "level": 1},
        {"action": "drive a b", "level": "1"},
        {"action": "drive a b", "level": 1.9},
        {"action": "drive a b", "level": 1.0},
        {"action": "drive a b", "level": True},
        {"action": "drive a b", "level": None},
        ["drive a b", 1],
    ]:
        assert raw_request(drive_server, json.dumps(request)) == {"error": "malformed request"}


def test_non_utf8_request_is_error_reply_and_keeps_the_connection(drive_server):
    valid = json.dumps({"action": "drive a b", "level": 1}).encode()
    with socket.create_connection(("127.0.0.1", drive_server.port), timeout=5) as sock:
        sock.sendall(b'\xff\xfe{"action": 1}\n' + valid + b"\n")  # pipelined
        with sock.makefile("rb") as fh:
            replies = [json.loads(fh.readline()) for _ in range(2)]
    assert replies == [{"error": "malformed request"}, {"lb": 5.0, "ub": 10.0, "time_ms": 1.0}]


def test_level_out_of_range(drive_server):
    reply = raw_request(drive_server, json.dumps({"action": "drive a b", "level": 9}))
    assert "error" in reply


def test_client_roundtrip(drive_server):
    with RemoteEstimatorClient("127.0.0.1", drive_server.port) as client:
        interval, time_ms = client.estimate("drive a b", 2)
    assert (interval.lb, interval.ub, time_ms) == (7.0, 7.0, 100.0)


def test_client_error_surfaces_as_unavailable(drive_server):
    with RemoteEstimatorClient("127.0.0.1", drive_server.port) as client:
        with pytest.raises(EstimatorUnavailableError, match="unknown action"):
            client.estimate("teleport", 1)


def test_client_unreachable_endpoint(monkeypatch):
    attempts = []
    connect = socket.create_connection

    def counting_connect(address, *args, **kwargs):
        attempts.append(address)
        return connect(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting_connect)
    with RemoteEstimatorClient("127.0.0.1", 1, timeout_s=0.2) as client:
        for level in (1, 2):  # the second call fails without connecting again
            with pytest.raises(EstimatorUnavailableError, match="unreachable"):
                client.estimate("drive a b", level)
    assert attempts == [("127.0.0.1", 1)]


def test_client_keeps_one_connection(drive_server):
    with RemoteEstimatorClient("127.0.0.1", drive_server.port) as client:
        replies = [client.estimate("drive a b", level) for level in (1, 2, 1, 2, 2)]
    assert [interval.lb for interval, _ in replies] == [5.0, 7.0, 5.0, 7.0, 7.0]
    assert len(drive_server.connections) == 1


def test_error_reply_keeps_the_connection(drive_server):
    with RemoteEstimatorClient("127.0.0.1", drive_server.port) as client:
        client.estimate("drive a b", 1)
        with pytest.raises(EstimatorUnavailableError, match="unknown action"):
            client.estimate("teleport", 1)
        interval, _ = client.estimate("drive a b", 2)
    assert interval == CostInterval(7.0, 7.0)
    assert len(drive_server.connections) == 1


def test_client_reconnects_once_after_server_closes(drive_server):
    with RemoteEstimatorClient("127.0.0.1", drive_server.port) as client:
        client.estimate("drive a b", 1)
        drive_server.connections[0].shutdown(socket.SHUT_RDWR)
        interval, _ = client.estimate("drive a b", 2)
        assert interval == CostInterval(7.0, 7.0)
        assert len(drive_server.connections) == 2

        # the retry is bounded: a reconnect that fails too makes the call fail
        drive_server.hang_up = True
        drive_server.connections[1].shutdown(socket.SHUT_RDWR)
        with pytest.raises(EstimatorUnavailableError):  # EOF, or a reset if the hang-up wins
            client.estimate("drive a b", 2)
        assert len(drive_server.connections) == 3


class LateReplyHandler(socketserver.StreamRequestHandler):
    """Answers "slow" only once the next request on its connection arrives.

    Every reply carries lb 1 for "slow" and lb 2 for any other action, so a
    client that reads a late reply as the next call's answer sees lb 1.
    Answers "garbage" with a line that is not JSON.
    """

    def handle(self):
        late = b""
        for raw in self.rfile:
            action = json.loads(raw)["action"]
            if action == "slow":
                late = b'{"lb": 1, "ub": 1, "time_ms": 0}\n'
            elif action == "garbage":
                self.wfile.write(b"not json\n")
            else:
                self.wfile.write(late + b'{"lb": 2, "ub": 2, "time_ms": 0}\n')
                late = b""


@pytest.fixture()
def late_server(drive_paths):
    server = CountingServer(load_manifest(drive_paths["manifest"]), LateReplyHandler)
    server.start_background()
    yield server
    server.shutdown()
    server.server_close()


def test_timeout_drops_the_connection(late_server):
    with RemoteEstimatorClient("127.0.0.1", late_server.port, timeout_s=0.5) as client:
        assert client.estimate("fast", 1)[0].lb == 2.0
        with pytest.raises(EstimatorUnavailableError, match="timed out"):
            client.estimate("slow", 1)
        assert client.estimate("fast", 1)[0].lb == 2.0  # its own reply, not the late one
    assert len(late_server.connections) == 2


def test_malformed_reply_drops_the_connection(late_server):
    with RemoteEstimatorClient("127.0.0.1", late_server.port) as client:
        with pytest.raises(EstimatorUnavailableError, match="malformed"):
            client.estimate("garbage", 1)
        assert client.estimate("fast", 1)[0].lb == 2.0
    assert len(late_server.connections) == 2


class EchoReplyHandler(socketserver.StreamRequestHandler):
    """Replies to each request with its "action" string as the reply line."""

    def handle(self):
        for raw in self.rfile:
            self.wfile.write(json.loads(raw)["action"].encode() + b"\n")


@pytest.mark.parametrize("reply", [
    '{"lb": true, "ub": "9", "time_ms": "1"}',
    '{"lb": 1, "ub": 9, "time_ms": "1"}',
    '{"lb": 1, "ub": "Infinity", "time_ms": 1}',
    '{"lb": 1, "ub": Infinity, "time_ms": 1}',
    '{"lb": 1, "ub": 9, "time_ms": "nan"}',
    '{"lb": 1, "ub": 9, "time_ms": NaN}',
    '{"lb": 1, "ub": 9, "time_ms": -50}',
    "[" * 200000 + "]" * 200000,
    "[1, 9, 0]",
], ids=[
    "bool-and-strings", "time-str", "ub-infinity-str", "ub-infinity", "time-nan-str", "time-nan",
    "time-negative", "deep-nesting", "not-an-object",
])
def test_bad_number_reply_is_malformed(drive_paths, reply):
    server = CountingServer(load_manifest(drive_paths["manifest"]), EchoReplyHandler)
    server.start_background()
    try:
        with RemoteEstimatorClient("127.0.0.1", server.port) as client:
            with pytest.raises(EstimatorUnavailableError, match="malformed estimator reply"):
                client.estimate(reply, 1)
            interval, time_ms = client.estimate('{"lb": 2, "ub": null, "time_ms": 0}', 1)
    finally:
        server.shutdown()
        server.server_close()
    assert (interval, time_ms) == (CostInterval(2.0, math.inf), 0.0)
    assert len(server.connections) == 2  # the malformed reply dropped the first


@pytest.mark.parametrize("command", ["plan", "compare"])
def test_cli_closes_its_connection(capsys, drive_paths, drive_server, command):
    from costplan.cli import main

    argv = [command, "--domain", drive_paths["domain"], "--problem", drive_paths["problem"],
            "--manifest", drive_paths["manifest"], "--epsilon", "1.2",
            "--endpoint", f"127.0.0.1:{drive_server.port}"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(argv) == 0
        gc.collect()
    capsys.readouterr()
    # closed explicitly, not left to the garbage collector
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    deadline = time.monotonic() + 5.0  # the server sees EOF once the client has closed
    while drive_server.closed < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert (len(drive_server.connections), drive_server.closed) == (1, 1)


def test_unavailable_treated_as_chain_exhausted(drive_task, drive_server):
    # a client pointed at a server that knows nothing keeps the priors
    class NoServer:
        def estimate(self, name, level):
            raise EstimatorUnavailableError("down")

    registry = EstimatorRegistry(drive_task, remote=NoServer())
    cert, report = solve(drive_task, SearchConfig(epsilon=1.5), registry)
    assert cert.verdict == "uncertified"
    assert report.calls == ()


def test_real_latency_charges_measured_remote_time(drive_task):
    # a remote that takes ~20 ms per call but reports 1 ms
    class SlowServer:
        def estimate(self, name, level):
            time.sleep(0.02)
            return CostInterval(7.0, 7.0), 1.0

    registry = EstimatorRegistry(drive_task, remote=SlowServer(), real_latency=True)
    cert, report = solve(drive_task, SearchConfig(epsilon=1.0, mode="offline"), registry)
    assert cert.verdict == "certified"
    assert len(report.calls) == drive_task.n_actions
    assert all(entry.time_ms >= 20.0 for entry in report.calls)
    assert report.t_planning_ms < report.t_modeling_ms / 2


def test_real_latency_charges_unavailable_calls_as_modeling(drive_task):
    # a remote that takes ~20 ms per call and then fails
    class FailingServer:
        def estimate(self, name, level):
            time.sleep(0.02)
            raise EstimatorUnavailableError("down")

    registry = EstimatorRegistry(drive_task, remote=FailingServer(), real_latency=True)
    cert, report = solve(drive_task, SearchConfig(epsilon=1.0, mode="offline"), registry)
    assert cert.verdict == "uncertified"  # the priors are kept
    assert report.t_modeling_ms == registry.total_charged_ms() >= 20.0 * drive_task.n_actions
    assert report.t_planning_ms < report.t_modeling_ms / 2
    assert [entry.failed for entry in report.calls] == [True] * drive_task.n_actions
    assert registry.estimated_actions() == set()


def test_remote_matches_local_execution():
    domain, problem = gen_gridworld(3, 3, seed=9, corner_to_corner=True)
    manifest = synthetic_manifest_for(domain, problem, 9, SyntheticConfig())
    task = ground(domain, problem, manifest)
    server = MockEstimatorServer(manifest)
    server.start_background()
    try:
        local_cert, local_report = solve(task, SearchConfig(epsilon=1.2))
        with RemoteEstimatorClient("127.0.0.1", server.port) as client:
            registry = EstimatorRegistry(task, remote=client)
            remote_cert, remote_report = solve(task, SearchConfig(epsilon=1.2), registry)
    finally:
        server.shutdown()
        server.server_close()
    assert remote_cert == local_cert
    assert remote_report.calls == local_report.calls
    assert remote_report.t_modeling_ms == local_report.t_modeling_ms
