"""The benchmark's span hooks still find every name they wrap.

benchmarks/tracing.py wraps names in tbswap's modules by attribute lookup
and skips a name that has gone, which leaves its declared per-layer metrics
out of a traced run. This test installs the benchmark's own tracer, reading
its HOOKS table at run time, runs one oracle query and one method-both
sweep through cli.main from cold oracle caches, and requires that every
hook found its target and that the hooks that read call arguments ran.
"""

import importlib.util
import json
from pathlib import Path

import tbswap.channel as channel
import tbswap.cli as cli
import tbswap.states as states

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves_and_runs(tmp_path, capsys):
    tracing = load_tracing()
    config = {
        "quantity": "swap_fidelity",
        "axis1": {"name": "k", "min": 1, "max": 2, "steps": 2},
        "axis2": {"name": "eta", "values": [0.6, 0.8]},
        "fixed": {"nbar": 0.05},
        "method": "both",
        "out": str(tmp_path / "both.csv"),
    }
    cfg_path = tmp_path / "both.json"
    cfg_path.write_text(json.dumps(config))
    tracer = tracing.Tracer()
    # Cold caches, so the hooks that count work (the channel kernel and the
    # mixing-unitary keys) run whatever earlier tests have already computed.
    states._channel_images.cache_clear()
    channel._mixing_unitary.cache_clear()
    try:
        tracer.install()
        query = ["fidelity", "swap", "--method", "both", "--eta", "0.7", "--nbar", "0.1",
                 "--k", "2", "--json"]
        assert cli.main(query) == cli.EXIT_OK
        assert cli.main(["sweep", "--config", str(cfg_path), "--json"]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert {layer for *_, layer in tracing.HOOKS} <= tracer.present
    for layer in ("channel.mixing_unitary", "fock.beam_splitter_unitary"):
        assert tracer.cache_info(layer) is not None
    counts = tracer.counts()
    assert counts["oracle_flops"] > 0
    assert counts["csv_bytes"] > 0
    keys = tracer.keys()
    assert keys
    assert all(isinstance(eta, float) and isinstance(d, int) for eta, d in keys)
