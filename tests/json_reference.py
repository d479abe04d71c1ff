"""The conversion that ``gbsn.cli`` ran before ``json.dumps`` until its
reports came to be written in one pass, kept as the tests' reference. Not
a test module.

``json.dumps(_jsonable(x), sort_keys=True, indent=2)`` is the text that
``gbsn.cli._json_text(x)`` must give for every payload x.
"""

from __future__ import annotations

from fractions import Fraction

from gbsn.linalg import ProjInterval, ProjPoint, QMat, QuadraticNumber, slope_text
from gbsn.record import Record
from gbsn.words import Word


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, QuadraticNumber):
        return {"a": str(obj.a), "b": str(obj.b), "d": obj.d}
    if isinstance(obj, QMat):
        return [[str(x) for x in row] for row in obj.rows]
    if isinstance(obj, Word):
        return str(obj)
    if isinstance(obj, ProjPoint):
        return {"x": _jsonable(obj.x), "y": _jsonable(obj.y)}
    if isinstance(obj, ProjInterval):
        return {"lo": slope_text(obj.lo), "hi": slope_text(obj.hi)}
    if isinstance(obj, Record):
        out = {"type": type(obj).__name__}
        for name in obj._fields:
            out[name] = _jsonable(getattr(obj, name))
        return out
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(x) for x in obj]
    return str(obj)


