"""The benchmark's layer hooks resolve against the current source.

``perfbench/spans.py`` times each layer by wrapping a function at the
module attribute its caller resolves, e.g.
``repro.service.engine.analyze_sa_ds``.  A rename or move under
``src/`` that leaves one of those names unbound breaks every traced
benchmark run.  Constructing a ``Tracer`` resolves every target without
installing anything, so the unit tier catches such a break.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_resolves_every_target():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    # One wrapper per layer target, the fixpoint solver and wire json.
    assert len(tracer._wrappers) == len(spans.LAYER_TARGETS) + 2
    for owner, leaf, wrapper in tracer._wrappers:
        assert getattr(owner, leaf) is not wrapper, f"{leaf} installed"
