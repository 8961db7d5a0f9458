"""Registry manifest writes are atomic even when they nest in one process.

``ModelRegistry._write_manifest`` goes through
:func:`repro.runtime.cache.write_atomic`, whose temp file is unique per
call, so a second write started while the first is still serialising
cannot share (and tear) the first one's temp file.
"""

import json

from repro.serve import ModelRegistry
from repro.serve.registry import MANIFEST_FORMAT


class _NestedWrite(dict):
    """A manifest whose serialisation runs a second manifest write first."""

    def __init__(self, registry, inner, models):
        super().__init__(format=MANIFEST_FORMAT, models=models)
        self._registry = registry
        self._inner = inner

    def items(self):
        inner, self._inner = self._inner, None
        if inner is not None:
            self._registry._write_manifest(inner)
        return super().items()


def test_nested_manifest_writes_both_succeed_and_the_last_one_wins(tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    inner = {"format": MANIFEST_FORMAT, "models": {"inner": {}}}
    outer = _NestedWrite(registry, inner, {"outer": {}})
    registry._write_manifest(outer)
    assert json.loads(registry.manifest_path.read_text(encoding="utf-8")) == {
        "format": MANIFEST_FORMAT,
        "models": {"outer": {}},
    }
    assert registry.names() == ["outer"]
    assert [path.name for path in registry.directory.iterdir()] == ["manifest.json"]
