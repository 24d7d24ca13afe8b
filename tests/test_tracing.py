"""perfbench's layer tracer still sees every layer of `costplan plan`.

The tracer records a layer by patching the functions it names (`cli.ground`,
`search.astar_lb`, `search.make_heuristic`, ...); a refactor that bypasses
one would leave that layer silently empty in every traced benchmark run.
"""

import importlib.util
from pathlib import Path

from costplan.bench import EMPTY_MANIFEST
from costplan.cli import main
from costplan.manifest import load_manifest
from costplan.remote import MockEstimatorServer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_fire_on_every_layer(capsys, drive_paths, tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    files = ["--domain", drive_paths["domain"], "--problem", drive_paths["problem"],
             "--manifest", drive_paths["manifest"]]
    server = MockEstimatorServer(load_manifest(drive_paths["manifest"]))
    server.start_background()
    try:
        with tracer.patched():
            codes = [
                main(["plan", *files, "--heuristic", "hmax", "--out", str(tmp_path / "run")]),
                main(["plan", *files, "--mode", "offline"]),
                main(["plan", *files, "--endpoint", f"127.0.0.1:{server.port}"]),
            ]
    finally:
        server.shutdown()
        server.server_close()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    missing = set(tracing.LAYER_OF) - {"episode"} - {span.name for span in tracer.spans}
    assert not missing


def test_tracer_counts_remote_errors_the_registry_absorbs(capsys, drive_paths):
    # a server that knows no action: every estimate fails, and each action keeps its prior
    tracing = load_tracing()
    tracer = tracing.Tracer()
    server = MockEstimatorServer(EMPTY_MANIFEST)
    server.start_background()
    try:
        with tracer.patched():
            code = main(["plan", "--domain", drive_paths["domain"],
                         "--problem", drive_paths["problem"],
                         "--manifest", drive_paths["manifest"], "--mode", "offline",
                         "--endpoint", f"127.0.0.1:{server.port}"])
    finally:
        server.shutdown()
        server.server_close()
    capsys.readouterr()
    (ground,) = [span for span in tracer.spans if span.name == "cli.ground"]
    n_actions = ground.attrs["actions"]
    invokes = [span for span in tracer.spans if span.name == "estimators.invoke_final"]
    assert code == 1  # uncertified on the priors
    assert n_actions > 0 and tracer.remote_errors() == n_actions
    assert len(invokes) == n_actions
    assert not [span for span in invokes if "error" in span.attrs]
