"""The desk-scale matroid corpus used by the verification batteries.

Uniform matroids are the proper ones (rank < size); booleans are listed
separately up to 5 ground elements. Graphic members: K4, K4 minus an edge,
the wheel W4 (hub plus 4-cycle rim, 8 edges), and K5.
"""

from __future__ import annotations

from .matroid import Matroid, boolean, graphic, uniform

K4_EDGES = tuple((a, b) for a in range(4) for b in range(a + 1, 4))
K4_MINUS_EDGE = K4_EDGES[:-1]
K5_EDGES = tuple((a, b) for a in range(5) for b in range(a + 1, 5))
W4_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1))

_BUILDERS = []
for _n in range(1, 6):
    _BUILDERS.append((f"boolean({_n})", (lambda n=_n: boolean(n))))
for _n in range(3, 8):
    for _k in range(2, _n):
        _BUILDERS.append((f"uniform({_k},{_n})", (lambda k=_k, n=_n: uniform(k, n))))
_BUILDERS += [
    ("graphic(K4)", lambda: graphic(K4_EDGES)),
    ("graphic(K4-e)", lambda: graphic(K4_MINUS_EDGE)),
    ("graphic(W4)", lambda: graphic(W4_EDGES)),
    ("graphic(K5)", lambda: graphic(K5_EDGES)),
]

_CACHE: dict[str, Matroid] = {}


def corpus_names() -> tuple[str, ...]:
    return tuple(name for name, _ in _BUILDERS)


def corpus_matroid(name: str) -> Matroid:
    got = _CACHE.get(name)
    if got is None:
        got = dict(_BUILDERS)[name]()
        _CACHE[name] = got
    return got

