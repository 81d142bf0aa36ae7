"""Every span target of the benchmark's tracer names a function to wrap.

``bench/spans.py`` ``Tracer.install`` looks each ``TARGETS`` entry up in its
owner's ``__dict__``, so a renamed or moved function makes a traced
benchmark run (``bench/run.py --trace 1``) raise ``KeyError``; these tests
fail on it first. They only read ``bench/``.
"""

import importlib
import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "spans", os.path.join(HERE, os.pardir, "bench", "spans.py"))
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def _owner(module_name, attr):
    """The object whose ``__dict__`` holds the target, as ``install`` finds
    it, and the target's name there."""
    module = importlib.import_module(module_name)
    owner_name, _, leaf = attr.rpartition(".")
    if owner_name == "json":
        # cli writes --out reports through its own ``json`` global
        return module.json, leaf
    return (getattr(module, owner_name, None) if owner_name else module), leaf


def test_every_span_target_resolves():
    missing = []
    for group, module_name, attr, _ in spans.TARGETS:
        owner, leaf = _owner(module_name, attr)
        if owner is None or not callable(owner.__dict__.get(leaf)):
            missing.append((group, module_name, attr))
    assert not missing, missing


def test_tracer_install_wraps_and_restores_every_target():
    originals = [owner.__dict__[leaf] for owner, leaf in
                 (_owner(module, attr) for _, module, attr, _ in spans.TARGETS)]
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert [owner.__dict__[leaf] for owner, leaf in
            (_owner(module, attr) for _, module, attr, _ in spans.TARGETS)
            ] == originals
