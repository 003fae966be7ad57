"""The per-layer tracer in perfbench/tracer.py substitutes hyperlab
attributes by name; every name it lists must exist, and uninstalling must
put every original object back."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import hyperlab.cli  # noqa: F401  (imports every traced module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(mod: str, path: str):
    obj = sys.modules[f"hyperlab.{mod}"]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _snapshot() -> dict:
    """Identity of every module global and module-level dict entry in hyperlab."""
    snap = {}
    for name, m in list(sys.modules.items()):
        if m is None or not (name == "hyperlab" or name.startswith("hyperlab.")):
            continue
        for key, val in vars(m).items():
            snap[(name, key)] = id(val)
            if isinstance(val, dict):
                for k2, v2 in val.items():
                    snap[(name, key, k2)] = id(v2)
            elif isinstance(val, type) and val.__module__ == name:
                for k2, v2 in vars(val).items():
                    snap[(name, key, "attr", k2)] = id(v2)
    return snap


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    for _, mod, path in tracer.TARGETS:
        assert callable(_resolve(mod, path)), f"hyperlab.{mod}.{path}"


def test_tracer_install_uninstall_restores():
    tracer = _load_tracer()
    before = _snapshot()
    originals = [_resolve(mod, path) for _, mod, path in tracer.TARGETS]
    t = tracer.Tracer()
    t.install()
    try:
        for orig, (_, mod, path) in zip(originals, tracer.TARGETS):
            assert _resolve(mod, path).__wrapped__ is orig, f"hyperlab.{mod}.{path}"
    finally:
        t.uninstall()
    assert _snapshot() == before


def test_tracer_counts_toeplitz_script_calls(tmp_path):
    """The CLI calls Toeplitz functions through its name table; the tracer
    must wrap the table's entries, or a script's products go uncounted."""
    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        {"let": "S", "expr": "shift()"},
        {"eval": "mul(adj(S), S)"},
        {"eval": "mul(S, mul(S, S))"},
    ]))
    t = _load_tracer().Tracer()
    t.install()
    try:
        assert hyperlab.cli.main(["toeplitz", "--script", str(script)]) == 0
    finally:
        t.uninstall()
    assert t.metrics(passes=1, overhead_s=0.0)["toeplitz.mul.calls"] == 3
