"""Per-layer tracing of tessarine from outside the package.

``Tracer.install`` replaces every public function of the tessarine layers,
two ``DCMatrix`` methods, the ``numpy.linalg`` kernels tessarine calls and
``scipy.linalg.schur`` with wrappers that record one span per call.  A
wrapper is bound wherever tessarine looks the original up: in every
tessarine module namespace that holds it (so names bound with
``from .x import y`` are reached), and, for numpy, through a copy of the
``numpy`` and ``numpy.linalg`` modules put in place of the ``np`` name in
tessarine's modules.  ``uninstall`` restores every binding.

Calls through a reference stored elsewhere, such as the command table in
``tessarine.cli``, bypass the wrappers; their time counts as self time of
the nearest traced caller.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the benchmark's op
id, and ``info`` holds extra facts (input digest, Jordan path, extension
draws, exception).  Spans stay in memory until ``write``.

This module imports only the standard library at import time, so a
child process can load it before timing ``import tessarine``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import types

LAYERS = (
    "dcmatrix",
    "complex_linalg",
    "orthonormal",
    "decompositions",
    "explorer",
    "pairfile",
    "cli",
)
LAPACK = ("svd", "eig", "inv", "solve", "pinv", "norm")
METHODS = (("matmul", "__matmul__"), ("new", "__post_init__"))


def _digest(a) -> str:
    import numpy

    arr = numpy.asarray(a, dtype=complex)
    return f"{arr.shape}:{hash(arr.tobytes())}"


def _keyed(args, kwargs):
    return args, kwargs, {"key": _digest(args[0])}


def _jordan_path(args, kwargs, result, info):
    blocks = result.blocks
    generic = all(size == 1 for _, size in blocks) and len(
        {lam for lam, _ in blocks}
    ) == len(blocks)
    info["path"] = "generic" if generic else "clustered"
    return info


def _with_stats(args, kwargs):
    # extend_orthonormal(s, d, rng, max_retries, tol, stats) fills ``stats``
    # when given one; jordan_svd passes none, so supply it from outside.
    if len(args) < 6 and kwargs.get("stats") is None:
        kwargs = dict(kwargs, stats={})
    stats = args[5] if len(args) >= 6 else kwargs["stats"]
    return args, kwargs, {"stats": stats}


def _read_stats(args, kwargs, result, info):
    stats = info.pop("stats")
    info["draws"] = stats.get("draws", 0)
    info["retries"] = stats.get("retries", 0)
    return info


HOOKS = {
    "complex_linalg.jordan_decomposition": (_keyed, _jordan_path),
    "complex_linalg.rank": (_keyed, None),
    "orthonormal.extend_orthonormal": (_with_stats, _read_stats),
}


class Tracer:
    """Span recorder for one process; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.off = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_exc: BaseException | None = None

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        before, after = HOOKS.get(name, (None, None))
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.off:
                return fn(*args, **kwargs)
            info = None
            if before is not None:
                args, kwargs, info = before(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, info]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                rec[2] = clock()
                stack.pop()
                rec[5] = dict(
                    info or {},
                    error=type(ex).__name__,
                    origin=ex is not tracer._last_exc,
                )
                tracer._last_exc = ex
                raise
            rec[2] = clock()
            stack.pop()
            if after is not None:
                rec[5] = after(args, kwargs, result, info)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        self.off = True
        try:
            yield
        finally:
            self.off = False

    def next_op(self, op: int):
        self.op = op
        self._last_exc = None

    def merge(self, spans: list[list], op: int):
        """Append spans recorded in a child process under this op id."""
        base = len(self.spans)
        for name, start, end, parent, _, info in spans:
            self.spans.append(
                [name, start, end, parent + base if parent >= 0 else -1, op, info]
            )

    def write(self, path, extra: dict | None = None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import numpy
        import numpy.linalg

        replace: dict[int, tuple[object, object]] = {}

        def add(original, wrapper):
            replace[id(original)] = (original, wrapper)

        for layer in LAYERS:
            mod = sys.modules.get(f"tessarine.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    add(obj, self.wrap(f"{layer}.{attr}", obj))

        linalg = types.ModuleType(numpy.linalg.__name__)
        linalg.__dict__.update(vars(numpy.linalg))
        for fname in LAPACK:
            original = getattr(numpy.linalg, fname)
            wrapper = self.wrap(f"lapack.{fname}", original)
            setattr(linalg, fname, wrapper)
            add(original, wrapper)
        np_copy = types.ModuleType(numpy.__name__)
        np_copy.__dict__.update(vars(numpy))
        np_copy.linalg = linalg
        add(numpy, np_copy)
        add(numpy.linalg, linalg)

        scipy_linalg = sys.modules.get("scipy.linalg")
        if scipy_linalg is not None:
            wrapper = self.wrap("lapack.schur", scipy_linalg.schur)
            add(scipy_linalg.schur, wrapper)
            # also reaches a later ``from scipy.linalg import schur``
            self._patch(scipy_linalg, "schur", wrapper)

        for name, mod in list(sys.modules.items()):
            if name != "tessarine" and not name.startswith("tessarine."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

        dcmatrix = sys.modules["tessarine.dcmatrix"].DCMatrix
        for short, attr in METHODS:
            self._patch(
                dcmatrix, attr, self.wrap(f"dcmatrix.{short}", getattr(dcmatrix, attr))
            )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
