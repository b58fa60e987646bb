"""The program surface ``perfbench/tracer.py`` relies on.

A traced benchmark run (``perfbench/run.py --trace 1``) replaces methods
on the program's classes by name and puts the originals back
afterwards.  A refactor that renames or moves one of those methods
breaks the traced run without failing any other test, so the names are
checked here.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_spans_name_class_attributes(tracer):
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracer.RUN_SPANS
               if attr not in owner.__dict__]
    assert missing == []


def test_process_step_exists(tracer):
    assert "_step" in tracer.Process.__dict__


def test_install_then_uninstall_restores_every_descriptor(tracer):
    targets = {(owner, attr) for owner, attr, _ in tracer.RUN_SPANS}
    targets |= {(tracer.Simulator, "run"), (tracer.Process, "_step")}
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr in targets}
    spans = tracer.Tracer()
    spans.install()
    try:
        replaced = [key for key, descriptor in originals.items()
                    if key[0].__dict__[key[1]] is not descriptor]
    finally:
        spans.uninstall()
    assert sorted(f"{owner.__name__}.{attr}" for owner, attr in replaced) \
        == sorted(f"{owner.__name__}.{attr}" for owner, attr in targets)
    not_restored = [f"{owner.__name__}.{attr}"
                    for (owner, attr), descriptor in originals.items()
                    if owner.__dict__[attr] is not descriptor]
    assert not_restored == []
