"""Matrix-pair JSON file format.

A pair file is a JSON object {"n": int, "A": grid, "B": grid} where each
grid is an n x n array of [re, im] pairs.  Values must be finite;
parse-then-serialize round-trips bit-exactly because floats are emitted
with shortest round-trip repr.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .dcmatrix import DCMatrix
from .dcnum import DoubleComplex


class PairFormatError(ValueError):
    """Malformed matrix-pair document."""


def _is_number(v) -> bool:
    """A JSON number: json.load reads true and false as bool, an int subclass."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_float(v) -> float:
    """A JSON number as a float; an integer past the float range reads as
    infinite, so that it is refused as not finite."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def scalar_to_obj(x: DoubleComplex) -> dict:
    """Standalone tessarine scalars serialize as {"p": [re,im], "q": [re,im]}."""
    return {
        "p": [float(x.p.real), float(x.p.imag)],
        "q": [float(x.q.real), float(x.q.imag)],
    }


def obj_to_scalar(obj) -> DoubleComplex:
    if not isinstance(obj, dict) or {"p", "q"} - obj.keys():
        raise PairFormatError('scalar must be an object with "p" and "q"')
    parts = {}
    for key in ("p", "q"):
        cell = obj[key]
        if (
            not isinstance(cell, list)
            or len(cell) != 2
            or not all(_is_number(v) and math.isfinite(_as_float(v)) for v in cell)
        ):
            raise PairFormatError(f'"{key}" must be a finite [re, im] pair')
        parts[key] = complex(float(cell[0]), float(cell[1]))
    return DoubleComplex(parts["p"], parts["q"])


def _grid_to_array(grid, n: int, name: str) -> np.ndarray:
    if not isinstance(grid, list) or len(grid) != n:
        raise PairFormatError(f"{name} must be a list of {n} rows")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != n:
            raise PairFormatError(f"{name} row {i} must have {n} entries")
        for k, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(_is_number(x) for x in cell)
            ):
                raise PairFormatError(
                    f"{name}[{i}][{k}] must be a [re, im] number pair"
                )
            re, im = _as_float(cell[0]), _as_float(cell[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise PairFormatError(f"{name}[{i}][{k}] is not finite")
            out[i, k] = complex(re, im)
    return out


def _array_to_grid(a: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def pair_to_obj(m: DCMatrix) -> dict:
    return {"n": m.n, "A": _array_to_grid(m.a), "B": _array_to_grid(m.b)}


def _blocks_as_json(blocks) -> list:
    """A canonical Jordan block list as [[re, im, size], ...]."""
    return [[float(lam.real), float(lam.imag), int(size)] for lam, size in blocks]


def obj_to_pair(obj) -> DCMatrix:
    if not isinstance(obj, dict):
        raise PairFormatError("document must be a JSON object")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise PairFormatError('"n" must be a positive integer')
    missing = {"A", "B"} - obj.keys()
    if missing:
        raise PairFormatError(f"missing keys: {sorted(missing)}")
    a = _grid_to_array(obj["A"], n, "A")
    b = _grid_to_array(obj["B"], n, "B")
    return DCMatrix(a, b)


def load_pair(path) -> DCMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as ex:
            raise PairFormatError(f"invalid JSON: {ex}") from ex
        except UnicodeDecodeError as ex:
            raise PairFormatError(f"not UTF-8 text: {ex}") from ex
        except ValueError as ex:  # an integer past Python's int-string conversion limit
            raise PairFormatError(f"number out of range: {ex}") from ex
        except RecursionError:
            raise PairFormatError("invalid JSON: nested too deeply") from None
    return obj_to_pair(obj)


def save_pair(path, m: DCMatrix):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pair_to_obj(m), fh)
        fh.write("\n")
