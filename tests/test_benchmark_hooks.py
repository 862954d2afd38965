"""The benchmark's per-layer hooks still find every function they wrap.

A refactor that renames or removes a hooked function (for example
``candidate_thresholds`` or ``DiagramPath.at``) would otherwise report
that layer as absent in traced benchmark runs without failing anything.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_hook_family_is_installed(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == {}
        families = {family for _, family, _, _ in tracing.HOOKS}
        assert sorted(f for f in families if tracer.installed.get(f, 0) < 1) == []
    finally:
        tracer.uninstall()
