"""Order-preserving serial map, kept because ``bench/tracer.py`` wraps
``map_ordered`` by name; no package module calls it."""


def map_ordered(fn, items):
    return [fn(x) for x in items]
