"""Outside-in tracer for ksgnslab.

`Tracer.install()` replaces, in every loaded ksgnslab module namespace, each
public function of the layer modules by a span-recording wrapper.  Modules
bind imported functions by name (`from .ksgns import ksgns`), so patching
only the defining module would miss most calls.  It also wraps
`PreModule.pair` and `AlgebraElement.__post_init__` on their classes, and
`numpy.einsum`, `numpy.einsum_path` and the `numpy.linalg` entry points,
including the names numpy's own functions call (`norm` and `pinv` call
`svd` through `numpy.linalg._linalg`).

A span's self time is its duration minus the time its direct child spans
cover.  The process is single threaded, so spans nest strictly and the self
times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import sys
import time
from dataclasses import fields, is_dataclass

import numpy as np
import numpy._core.einsumfunc as _einsumfunc
import numpy.linalg._linalg as _linalg

LAYERS = (
    "numkernel",
    "cstar",
    "hilbert",
    "cp",
    "ksgns",
    "poscor",
    "equivariant",
    "generators",
    "serialize",
    "harness",
)

LINALG = (
    "eigh", "eigvalsh", "eig", "eigvals", "svd", "norm", "pinv", "inv", "qr",
    "solve", "lstsq", "det", "slogdet", "cholesky", "matrix_rank",
)

# Spans that build a dilation or tensor module; their outermost time is
# `harness.construct_s`.
CONSTRUCTIONS = frozenset({
    "ksgns.ksgns",
    "ksgns.ksgns_lift",
    "equivariant.dilate",
    "poscor.dilate_object",
    "poscor.interior_tensor",
    "poscor.interior_tensor_along",
    "hilbert.quotient_by_null",
})

# Calls whose named arguments are fingerprinted to count repeats within an
# instance.
REPEAT_KEYED = {"poscor.interior_tensor_along": ("E", "rho")}


def layer_of(name: str) -> str:
    """`numpy.linalg.svd` -> `numpy`, `serialize.load_module` -> `serialize`."""
    return name.split(".", 1)[0]


def group_of(name: str) -> str:
    """Aggregate name: numpy.linalg.* -> numpy.linalg, serialize dump/load
    families -> serialize.dump / serialize.load, others unchanged."""
    layer, _, rest = name.partition(".")
    if layer == "numpy" and rest.startswith("linalg."):
        return "numpy.linalg"
    if layer == "serialize" and rest.startswith(("dump", "load")):
        return "serialize." + rest[:4]
    return name


class Stat:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


def _content_key(*objs) -> bytes:
    """Digest of nested dataclasses, lists and arrays, compared by value."""
    digest = hashlib.blake2b(digest_size=16)

    def feed(x) -> None:
        if isinstance(x, np.ndarray):
            digest.update(repr((x.shape, x.dtype.str)).encode())
            digest.update(np.ascontiguousarray(x).tobytes())
        elif is_dataclass(x) and not isinstance(x, type):
            digest.update(type(x).__name__.encode())
            for f in fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (list, tuple)):
            digest.update(b"[%d" % len(x))
            for item in x:
                feed(item)
        else:
            digest.update(repr(x).encode())

    for obj in objs:
        feed(obj)
    return digest.digest()


def linalg_flops(name: str, args: tuple, kwargs: dict) -> float:
    """Floating-point operations of one LAPACK-backed call, computed from the
    argument shapes with the textbook counts (Golub & Van Loan, 4th ed.),
    times 4 for complex arguments.  `norm`, `pinv` and `matrix_rank` count 0
    here because their `svd` is a span of its own."""
    if not args:
        return 0.0
    shape = getattr(args[0], "shape", None)
    if shape is None or len(shape) < 2:
        return 0.0
    m, n = int(shape[-2]), int(shape[-1])
    batch = math.prod(int(s) for s in shape[:-2])
    big, k = max(m, n), min(m, n)
    if name == "svd":
        if kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
            count = 6.0 * big * k * k + 20.0 * k**3
        else:
            count = 4.0 * big * k * k - 4.0 * k**3 / 3.0
    elif name == "eigh":
        count = 9.0 * n**3
    elif name == "eigvalsh":
        count = 4.0 * n**3 / 3.0
    elif name == "eig":
        count = 25.0 * n**3
    elif name == "eigvals":
        count = 10.0 * n**3
    elif name == "inv":
        count = 2.0 * n**3
    elif name == "qr":
        count = 4.0 * big * k * k - 4.0 * k**3 / 3.0
    elif name == "lstsq":
        count = 4.0 * big * k * k
    elif name in ("solve", "det", "slogdet"):
        count = 2.0 * n**3 / 3.0
    elif name == "cholesky":
        count = n**3 / 3.0
    else:
        return 0.0
    factor = 4.0 if np.iscomplexobj(args[0]) else 1.0
    return factor * batch * count


class Tracer:
    """Span bookkeeping plus the patches that feed it."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.originals: dict[str, object] = {}  # name -> the wrapped function
        self.flops = 0.0
        self.construct_s = 0.0
        self.load_s = 0.0
        self.repeat_calls = 0
        self.repeat_hits = 0
        self._stack: list[list[float]] = []  # [start, child seconds]
        self._open: dict[str, int] = {}  # depth of each name, for inclusive time
        self._group_depth = {"construct": 0, "load": 0}
        self._seen: set[bytes] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- bookkeeping ------------------------------------------------------

    def new_instance(self) -> None:
        """Start a new instance: repeat detection is per instance."""
        self._seen.clear()

    def self_total(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def _span(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        self.originals[name] = fn
        stack = self._stack
        opened = self._open
        clock = time.perf_counter
        group = (
            "construct" if name in CONSTRUCTIONS
            else "load" if group_of(name) == "serialize.load"
            else None
        )
        depths = self._group_depth
        repeat_params = REPEAT_KEYED.get(name)
        signature = inspect.signature(fn) if repeat_params else None
        linalg_name = name[len("numpy.linalg."):] if name.startswith("numpy.linalg.") else None
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if linalg_name is not None:
                tracer.flops += linalg_flops(linalg_name, args, kwargs)
            if repeat_params:
                bound = signature.bind(*args, **kwargs).arguments
                key = _content_key(*(bound.get(p) for p in repeat_params))
                tracer.repeat_calls += 1
                if key in tracer._seen:
                    tracer.repeat_hits += 1
                tracer._seen.add(key)
            depth = opened.get(name, 0)
            opened[name] = depth + 1
            if group is not None:
                depths[group] += 1
            frame = [0.0, 0.0]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.self_s += duration - frame[1]
                opened[name] = depth
                if depth == 0:
                    stat.incl_s += duration
                if group is not None:
                    depths[group] -= 1
                    if depths[group] == 0:
                        if group == "construct":
                            tracer.construct_s += duration
                        else:
                            tracer.load_s += duration

        return span

    # -- patching ---------------------------------------------------------

    def _replace(self, namespaces, original, wrapper) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def install(self) -> None:
        """Wrap every public layer function wherever ksgnslab bound it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "ksgnslab" or key.startswith("ksgnslab.")
        ]
        for layer in LAYERS:
            module = sys.modules[f"ksgnslab.{layer}"]
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    self._replace(namespaces, obj, self._span(f"{layer}.{attr}", obj))
        from ksgnslab.cstar import AlgebraElement
        from ksgnslab.hilbert import PreModule

        for cls, attr, name in (
            (PreModule, "pair", "hilbert.pair"),
            (AlgebraElement, "__post_init__", "cstar.element"),
        ):
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._span(name, original))
        numpy_spaces = [np, _einsumfunc]
        for attr in ("einsum", "einsum_path"):
            self._replace(numpy_spaces, getattr(np, attr), self._span(f"numpy.{attr}", getattr(np, attr)))
        linalg_spaces = [np.linalg, _linalg]
        for attr in LINALG:
            original = getattr(np.linalg, attr)
            self._replace(linalg_spaces, original, self._span(f"numpy.linalg.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
