"""Every memo in the package is bounded.

A memo with no bound keeps every key it is asked for until the process
ends; only a function of no arguments, which has one key, may go without.
"""

import importlib
import inspect
import pkgutil

import schreier_kit


def _package_memos():
    """(qualified name, memo) for each function with ``cache_info`` that a
    package module defines, at module level or in a class."""
    for info in pkgutil.iter_modules(schreier_kit.__path__):
        if info.name == "__main__":  # runs the command line on import
            continue
        mod = importlib.import_module(f"{schreier_kit.__name__}.{info.name}")
        found = list(vars(mod).values())
        found += [attr for cls in vars(mod).values() if inspect.isclass(cls)
                  for attr in vars(cls).values()]
        for fn in found:
            if (hasattr(fn, "cache_info")
                    and getattr(fn, "__module__", None) == mod.__name__):
                yield f"{mod.__name__}.{fn.__qualname__}", fn


def test_every_package_memo_is_bounded():
    memos = dict(_package_memos())
    # the walk finds the memos of every layer that keeps one
    assert {name.split(".")[1] for name in memos} >= {
        "averaging", "cli", "compacta", "family", "kernel", "ordinal",
        "verify"}
    for name, memo in memos.items():
        if inspect.signature(memo.__wrapped__).parameters:
            assert memo.cache_info().maxsize is not None, name
