"""Every package name that ``bench/tracer.py`` or ``bench/queries.py``
wraps or reads must exist.

The traced bench mode (``bench/run.py --trace 1``) replaces the functions
and methods named in ``tracer.TARGETS`` and reads ``cache_info()`` of the
memos named in ``tracer.CACHES``; the ``queries`` workload serves its
requests through names such as ``sk.compacta`` and ``fam.parse_family``
on the package.  Deleting or renaming one of them breaks that bench route
without failing any other test.
"""

import importlib
import sys
from pathlib import Path

import pytest

import schreier_kit

BENCH = Path(__file__).parents[1] / "bench"


def _from_bench(name):
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def tracer():
    yield from _from_bench("tracer")


@pytest.fixture(scope="module")
def queries():
    yield from _from_bench("queries")


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


def test_queries_stream_meets_no_error(queries):
    # a name missing from the package shows as an "error" outcome, not a
    # documented refusal
    outcomes = [queries.run_one(schreier_kit, req)
                for req in queries.generate(1, 2000)]
    errors = [o for o in outcomes if o[0] == "error"]
    assert errors == []


def test_queries_answers_agree_with_the_oracles(queries):
    requests = queries.generate(2, 300)
    outcomes = [queries.run_one(schreier_kit, req) for req in requests]
    assert queries.check(schreier_kit, requests, outcomes) == []
