"""The build memo shared by the construction layers, the content keys that
name its entries, and the process's table of block-size structure.

Content-keyed builds live per instance: one BuildMemo lives for one checked
instance (harness.check_instance makes it and drops it on return); every
builder that shares work takes it as a required argument.  Entries are keyed
by content: modules, CP maps and star maps carry a `key`, a digest of their
data, so two objects with equal keys are interchangeable and the memo builds
each content once, whichever object asks for it.

Block-size structure lives per process: what depends on block sizes and
dimensions alone (the shape a block list loads as, an algebra's product table
and its module over itself, the row and column copies of a tensor's Gram and
their layouts, the groups instances are generated over) is built once, on
first request, into one module-level table that `structure` reads, and is
read-only, since every instance of the process shares it.  It grows with the
shapes a run meets, not with its instances.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Sequence

import numpy as np


def content_key(*parts) -> bytes:
    """blake2b digest of arrays (dtype, shape and C-order bytes, from its buffer),
    bytes (such as other keys) and any other value by its repr, each length-prefixed."""
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(f"{part.dtype.str}{part.shape}{part.nbytes}:".encode())
            data = np.ascontiguousarray(part)  # part itself when C-contiguous
        else:
            data = part if isinstance(part, bytes) else repr(part).encode()
            digest.update(b"%d:" % len(data))
        digest.update(data)
    return digest.digest()


_STRUCTURE: dict[tuple, Any] = {}


def structure(key: tuple, build: Callable[[], Any]) -> Any:
    """The process's build under key, a builder's name with the block sizes and
    dimensions that alone decide it: build() on the first request, which must
    return read-only data, and that same object on every later one."""
    if (value := _STRUCTURE.get(key)) is None:
        value = _STRUCTURE[key] = build()
    return value


class BuildMemo:
    """Finished builds, each stored under the content key of its inputs.
    A build that raises stores nothing: the next request repeats it and
    raises again."""

    def __init__(self) -> None:
        self._done: dict[tuple, Any] = {}

    def get_all(self, keys: Sequence[tuple], build: Callable[[list[int]], list]) -> list:
        """The entries of keys, the missing ones from one call build(todo) that
        returns the builds of keys[i] for i in todo, the first position of
        each missing key; a stack of builds that raises stores nothing."""
        done = self._done
        if len(keys) == 1:
            if keys[0] not in done:
                done[keys[0]] = build([0])[0]
            return [done[keys[0]]]
        todo: dict[tuple, int] = {}
        for i, key in enumerate(keys):
            if key not in done:
                todo.setdefault(key, i)
        if todo:
            done.update(zip(todo, build(list(todo.values()))))
        return [done[key] for key in keys]
