"""The benchmark's span patches resolve against the current source.

``perfbench/spans.py`` times layers by replacing named functions and
methods of ``repro`` with recording wrappers; a method is looked up in
its owner's own ``__dict__``.  Moving a patched method into a base class
or renaming it would break ``perfbench/run.py --trace 1`` with a
``KeyError`` that no other test exercises, so this installs and
uninstalls the recorder with the real patch table.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _target(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_patch_target_installs_and_uninstalls():
    spans = _load_spans()
    assert len(spans.PATCHES) == 16
    targets = {name: _target(*where) for name, where in spans.PATCHES.items()}
    originals = {name: _current(*t) for name, t in targets.items()}
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        for name, t in targets.items():
            assert _current(*t).__wrapped__ is originals[name], name
    finally:
        recorder.uninstall()
    for name, t in targets.items():
        assert _current(*t) is originals[name], name
