"""Every package name that ``bench/tracer.py`` wraps or reads must exist.

The traced bench mode (``bench/run.py --trace 1``) replaces the functions
and methods named in ``tracer.TARGETS`` and reads ``cache_info()`` of the
memos named in ``tracer.CACHES``; deleting or renaming one of them breaks
that mode without failing any other test.
"""

import importlib
import sys
from pathlib import Path

import pytest

import schreier_kit

BENCH = Path(__file__).parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def _module(name):
    return importlib.import_module(f"{schreier_kit.__name__}.{name}")


def test_every_target_resolves(tracer):
    for _layer, mod_name, attr, _mode in tracer.TARGETS:
        mod = _module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), attr
        else:
            assert callable(getattr(mod, attr)), attr


def test_every_cache_has_cache_info(tracer):
    for mod_name, attr in tracer.CACHES:
        getattr(_module(mod_name), attr).cache_info()
