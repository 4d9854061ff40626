"""Every module binding that the benchmark's tracer wraps still exists, and its
counters still read the config objects that the stages pass.

perfbench/spans.py replaces each (module, attribute) of its BINDINGS with a
timing wrapper, and fails when one is gone; this finds that without running
the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _bindings():
    return sorted({(module, attribute) for module, attribute, _, _ in _spans().BINDINGS})


@pytest.mark.parametrize("module, attribute", _bindings())
def test_binding_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_tracer_reads_the_stage_config_objects(demo_manifest, tmp_path):
    # the counters read taps, delay and block_length of the WpeConfig that WPE gets,
    # and frame_shift of the StftParams that GSS gets
    from farfield.pipeline import load_config, load_manifest, run_full

    tracer = _spans().Tracer()
    tracer.install()
    try:
        run_full(load_manifest(demo_manifest)[0], load_config(None, {"gss.iterations": 1}),
                 tmp_path / "run")
    finally:
        tracer.uninstall()
    fields = {}
    for name, _, _, counted in tracer.take():
        fields.setdefault(name, []).append(counted)
    assert fields["preprocess.wpe"] and all(f["stacked_bytes"] > 0
                                            for f in fields["preprocess.wpe"])
    assert fields["gss.turn"] and all(f["emitted_frames"] > 0 for f in fields["gss.turn"])
