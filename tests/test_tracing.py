"""perfbench's layer tracer still sees every layer of `costplan plan`.

The tracer records a layer by patching the functions it names (`cli.ground`,
`search.astar_lb`, `search.make_heuristic`, ...); a refactor that bypasses
one would leave that layer silently empty in every traced benchmark run.
"""

import importlib.util
from pathlib import Path

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
