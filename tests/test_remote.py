import gc
import json
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
from costplan.search import SearchConfig, asec, astar_offline, post_search_refine

from helpers import make_task


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
    reply = raw_request(drive_server, json.dumps({"action": "drive a b", "level": 1}))
    assert reply == {"lb": 5.0, "ub": 10.0, "time_ms": 1.0}


def test_unknown_action_is_error_reply(drive_server):
    reply = raw_request(drive_server, json.dumps({"action": "teleport", "level": 1}))
    assert reply == {"error": "unknown action"}


def test_malformed_request_is_error_reply(drive_server):
    assert "error" in raw_request(drive_server, "not json")
    assert "error" in raw_request(drive_server, json.dumps({"action": "drive a b"}))


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
        with pytest.raises(EstimatorUnavailableError, match="unreachable"):
            client.estimate("drive a b", 1)
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
    cert, report = asec(drive_task, SearchConfig(epsilon=1.5), registry)
    assert cert.verdict == "uncertified"
    assert report.calls == ()


def test_real_latency_charges_measured_remote_time(drive_task):
    # a remote that takes ~20 ms per call but reports 1 ms
    class SlowServer:
        def estimate(self, name, level):
            time.sleep(0.02)
            return CostInterval(7.0, 7.0), 1.0

    registry = EstimatorRegistry(drive_task, remote=SlowServer(), real_latency=True)
    cert, report = astar_offline(drive_task, SearchConfig(epsilon=1.0), registry)
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
    cert, report = astar_offline(drive_task, SearchConfig(epsilon=1.0), registry)
    assert cert.verdict == "uncertified"  # the priors are kept
    assert report.t_modeling_ms == registry.total_charged_ms() >= 20.0 * drive_task.n_actions
    assert report.t_planning_ms < report.t_modeling_ms / 2
    assert [entry.failed for entry in report.calls] == [True] * drive_task.n_actions
    assert registry.estimated_actions() == set()


def test_real_latency_refine_budget_counts_measured_time():
    # three levels declared at 1 ms each, but every remote call takes ~30 ms
    task = make_task(
        [("a", {0}, {1}, set(), [(1.0, (5.0, 10.0)), (1.0, (6.0, 9.0)), (1.0, (7.0, 7.0))])],
        goal={1},
    )

    class SlowServer:
        def estimate(self, name, level):
            time.sleep(0.03)
            return task.chains[0][level - 1].interval, 1.0

    registry = EstimatorRegistry(task, remote=SlowServer(), real_latency=True)
    cert, _ = asec(task, SearchConfig(epsilon=float("inf")), registry)
    assert not registry.ledger
    refined = post_search_refine(cert, registry, budget_ms=5.0)
    assert len(registry.ledger) == 1  # the first call spent the budget
    assert registry.ledger[0].time_ms >= 30.0
    assert (refined.lower, refined.upper) == (5.0, 10.0)


def test_remote_matches_local_execution():
    domain, problem = gen_gridworld(3, 3, seed=9, corner_to_corner=True)
    manifest = synthetic_manifest_for(domain, problem, 9, SyntheticConfig())
    task = ground(domain, problem, manifest)
    server = MockEstimatorServer(manifest)
    server.start_background()
    try:
        local_cert, local_report = asec(task, SearchConfig(epsilon=1.2))
        with RemoteEstimatorClient("127.0.0.1", server.port) as client:
            registry = EstimatorRegistry(task, remote=client)
            remote_cert, remote_report = asec(task, SearchConfig(epsilon=1.2), registry)
    finally:
        server.shutdown()
        server.server_close()
    assert remote_cert == local_cert
    assert remote_report.calls == local_report.calls
    assert remote_report.t_modeling_ms == local_report.t_modeling_ms
