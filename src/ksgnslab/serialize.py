"""JSON (de)serialization for every wire format the harness reads or writes.

Conventions:

* complex scalars are two-element arrays [re, im] everywhere;
* algebra shapes are integer arrays; elements are arrays of row-major
  complex block matrices, loaded as coefficient rows; star maps carry the
  image of each matrix unit as an element;
* modules carry {algebra, dim, action per basis element, pairing per basis
  pair}; maps carry {source_id, target_id, matrix};
* CP maps carry {algebra, module_id, images, strict}.

Python's json round-trips doubles exactly (shortest-repr), so a dumped
instance reloads bit-identically and deterministic constructions built from
it (quotient coordinates in particular) reproduce exactly on the same
platform.
"""

from __future__ import annotations

import json
from itertools import accumulate
from typing import Any

import numpy as np

from .cp import CPMap
from .cstar import AlgebraShape, Automorphism, StarMap, block_stacks
from .errors import ValidationError
from .hilbert import HilbertModule, ModuleMap
from .memo import structure
from .equivariant import (
    DynamicalSystem,
    EquivariantCorrespondence,
    FiniteGroup,
)


# -- scalars and matrices -----------------------------------------------------


def dump_cmatrices(X: np.ndarray) -> list:
    """The dumped matrices of a stack X (..., rows, cols), from one tolist."""
    X = np.asarray(X, dtype=complex)
    return np.stack([X.real, X.imag], -1).tolist()


def dump_cmatrix(M: np.ndarray) -> list:
    if np.ndim(M) != 2:
        raise ValidationError(f"expected a matrix, got ndim {np.ndim(M)}")
    return dump_cmatrices(np.asarray(M)[None])[0]


def load_cmatrix(data: Any, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    if not isinstance(data, list):
        raise ValidationError("matrix must be a list of rows")
    if not data and not rows:  # a (0, n) matrix dumps as []
        return np.zeros((0, cols or 0), dtype=complex)
    try:
        A = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"matrix must be rows of [re, im] pairs: {exc}") from exc
    if A.size == 0 and A.ndim < 3:  # no rows, or rows of zero columns
        A = A.reshape(len(data), 0, 2)
    if A.ndim != 3 or A.shape[2] != 2:
        raise ValidationError(f"matrix must be rows of [re, im] pairs, got shape {A.shape}")
    if rows is not None and A.shape[0] != rows:
        raise ValidationError(f"matrix has {A.shape[0]} rows, expected {rows}")
    if cols is not None and A.shape[1] != cols:
        raise ValidationError(f"matrix has {A.shape[1]} cols, expected {cols}")
    if not np.isfinite(A).all():
        raise ValidationError("matrix contains non-finite entries")
    return A.view(complex)[..., 0]


def load_cmatrices(items: Any, rows: int, cols: int) -> np.ndarray:
    """Matrices (len(items), rows, cols) of a list of dumped matrices of one
    shape, parsed as one array.  A list that is anything else goes through
    load_cmatrix item by item, which names the first fault."""
    if isinstance(items, list) and rows * cols:
        try:
            A = np.array(items, dtype=float)
        except (TypeError, ValueError, OverflowError):
            A = None
        if A is not None and A.shape == (len(items), rows, cols, 2) and np.isfinite(A).all():
            return A.view(complex)[..., 0]
    stack = [load_cmatrix(m, rows, cols) for m in items]
    return np.stack(stack) if stack else np.zeros((0, rows, cols), dtype=complex)


# -- algebra layer ------------------------------------------------------------


def dump_shape(shape: AlgebraShape) -> list[int]:
    return list(shape.blocks)


def load_shape(data: Any) -> AlgebraShape:
    """The AlgebraShape of a block list: one per block sizes, shared by the
    process (AlgebraShape is frozen)."""
    try:
        blocks = tuple(int(n) for n in data)
        return structure(("load_shape", blocks), lambda: AlgebraShape(blocks))
    except Exception as exc:
        raise ValidationError(f"bad algebra shape {data!r}") from exc


def dump_elements(shape: AlgebraShape, C: np.ndarray) -> list:
    """The dumped elements of coefficient rows C (count, dim A), each block of
    all of them dumped as one stack."""
    return [list(x) for x in zip(*(dump_cmatrices(S) for S in block_stacks(shape, C)))]


def dump_element(shape: AlgebraShape, c: np.ndarray) -> list:
    """The element with coefficients c (dim A,), block by block."""
    return dump_elements(shape, np.asarray(c)[None])[0]


def load_element(shape: AlgebraShape, data: Any) -> np.ndarray:
    """Coefficients (dim A,) of a dumped element."""
    if not isinstance(data, list) or len(data) != len(shape.blocks):
        raise ValidationError("element block count does not match the shape")
    return np.concatenate([load_cmatrix(b, n, n).reshape(-1) for b, n in zip(data, shape.blocks)])


def load_elements(shape: AlgebraShape, items: Any) -> np.ndarray:
    """Coefficient rows (len(items), dim A) of a list of dumped elements, each
    block of all of them parsed as one array.  A list that is anything else
    goes through load_element item by item, which names the first fault."""
    count = len(items) if isinstance(items, list) else -1
    if count >= 0 and all(isinstance(x, list) and len(x) == len(shape.blocks) for x in items):
        try:
            blocks = [
                np.array([x[t] for x in items], dtype=float) for t in range(len(shape.blocks))
            ]
        except (TypeError, ValueError, OverflowError):
            blocks = []
        sizes = [(count, n, n, 2) for n in shape.blocks]
        if [b.shape for b in blocks] == sizes and all(np.isfinite(b).all() for b in blocks):
            return np.concatenate([b.view(complex).reshape(count, -1) for b in blocks], axis=1)
        if count == 0:
            return np.zeros((0, shape.dim), dtype=complex)
    for x in items:
        load_element(shape, x)
    raise ValidationError("elements do not stack into one array")


def dump_star_map(rho: StarMap) -> dict:
    return {
        "domain": dump_shape(rho.domain),
        "codomain": dump_shape(rho.codomain),
        "images": dump_elements(rho.codomain, rho.matrix.T),
    }


def load_star_map(data: Any) -> StarMap:
    return load_star_maps([data])[0]


def load_star_maps(items: list) -> list[StarMap]:
    """load_star_map of each item; the images of maps that all share one
    codomain are parsed by one load_elements call."""
    heads = []
    for data in items:
        dom, cod = load_shape(data["domain"]), load_shape(data["codomain"])
        images = data["images"]
        if len(images) != dom.dim:
            raise ValidationError("star map needs one image per domain basis element")
        heads.append((dom, cod, images))
    if len({cod for _, cod, _ in heads}) != 1:
        return [StarMap(dom, cod, np.ascontiguousarray(load_elements(cod, images).T))
                for dom, cod, images in heads]
    coeffs = load_elements(heads[0][1], [x for _, _, images in heads for x in images])
    ends = list(accumulate(dom.dim for dom, _, _ in heads))
    return [StarMap(dom, cod, np.ascontiguousarray(coeffs[end - dom.dim : end].T))
            for (dom, cod, _), end in zip(heads, ends)]


def dump_automorphism(alpha: Automorphism) -> dict:
    return {
        "forward": dump_star_map(alpha.forward),
        "inverse": dump_star_map(alpha.inverse),
    }


def load_automorphism(data: Any) -> Automorphism:
    return load_automorphisms([data])[0]


def load_automorphisms(items: list) -> list[Automorphism]:
    """load_automorphism of each item, every forward and inverse image parsed
    by one load_elements call when all the maps share one codomain."""
    maps = load_star_maps([m for data in items for m in (data["forward"], data["inverse"])])
    return [Automorphism(*maps[i : i + 2]) for i in range(0, len(maps), 2)]


# -- module layer -------------------------------------------------------------


def dump_module(E: HilbertModule) -> dict:
    d, B = E.dim, E.algebra
    table = np.concatenate([P.reshape(d * d, n * n) for n, P in zip(B.blocks, E.pairing)], 1)
    pairing = dump_elements(B, table)  # <e_i, e_j>, row-major in (i, j)
    return {
        "algebra": dump_shape(B),
        "dim": d,
        "action": dump_cmatrices(E.action),
        "pairing": [pairing[i * d : (i + 1) * d] for i in range(d)],
    }


def load_module(data: Any) -> HilbertModule:
    B = load_shape(data["algebra"])
    d = int(data["dim"])
    action_rows = data["action"]
    if len(action_rows) != B.dim:
        raise ValidationError("module action needs one matrix per basis element")
    action = load_cmatrices(action_rows, d, d)
    rows = data["pairing"]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValidationError("module pairing must be a dim x dim table")
    table = load_elements(B, [e for row in rows for e in row]).reshape(d, d, B.dim)
    pairing = [np.ascontiguousarray(P) for P in block_stacks(B, table)]
    try:
        return HilbertModule(B, d, action, pairing)
    except Exception as exc:
        raise ValidationError(f"module data rejected: {exc}") from exc


def dump_module_map(m: ModuleMap, source_id: str, target_id: str) -> dict:
    return {
        "source_id": source_id,
        "target_id": target_id,
        "matrix": dump_cmatrix(m.matrix),
    }


def load_module_map(data: Any, modules: dict[str, HilbertModule]) -> ModuleMap:
    try:
        src = modules[data["source_id"]]
        tgt = modules[data["target_id"]]
    except KeyError as exc:
        raise ValidationError(f"unknown module id {exc}") from exc
    return ModuleMap(src, tgt, load_cmatrix(data["matrix"], tgt.dim, src.dim))


def dump_cpmap(phi: CPMap, module_id: str) -> dict:
    return {
        "algebra": dump_shape(phi.algebra),
        "module_id": module_id,
        "images": dump_cmatrices(phi.images),
        "strict": bool(phi.strict),
    }


def load_cpmap(data: Any, modules: dict[str, HilbertModule]) -> CPMap:
    A = load_shape(data["algebra"])
    try:
        E = modules[data["module_id"]]
    except KeyError as exc:
        raise ValidationError(f"unknown module id {exc}") from exc
    images = data["images"]
    if len(images) != A.dim:
        raise ValidationError("cp map needs one image per basis element")
    stack = load_cmatrices(images, E.dim, E.dim)
    return CPMap(A, E, stack, strict=bool(data.get("strict", True)))


# -- groups and equivariance ---------------------------------------------------


def dump_group(G: FiniteGroup) -> dict:
    out = {
        "order": G.order,
        "table": G.table.tolist(),
        "identity": G.identity,
        "inverse": G.inverse.tolist(),
        "name": G.name,
    }
    if G.perms is not None:
        out["perms"] = [list(p) for p in G.perms]
    return out


def load_group(data: Any) -> FiniteGroup:
    try:
        return FiniteGroup(
            order=int(data["order"]),
            table=np.asarray(data["table"], dtype=int),
            identity=int(data["identity"]),
            inverse=np.asarray(data["inverse"], dtype=int),
            perms=tuple(tuple(p) for p in data["perms"]) if "perms" in data else None,
            name=str(data.get("name", "G")),
        )
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"bad group data: {exc}") from exc


def dump_system(sys: DynamicalSystem) -> dict:
    return {
        "algebra": dump_shape(sys.algebra),
        "group": dump_group(sys.group),
        "action": [dump_automorphism(a) for a in sys.action],
    }


def load_system(data: Any) -> DynamicalSystem:
    return DynamicalSystem(
        load_shape(data["algebra"]),
        load_group(data["group"]),
        load_automorphisms(data["action"]),
    )


def dump_equivariant(c: EquivariantCorrespondence) -> dict:
    return {
        "system_in": dump_system(c.system_in),
        "system_out": dump_system(c.system_out),
        "module": dump_module(c.module),
        "phi": dump_cpmap(c.phi, "module"),
        "unitaries": dump_cmatrices(c.unitaries),
    }


def load_equivariant(data: Any) -> EquivariantCorrespondence:
    module = load_module(data["module"])
    phi = load_cpmap(data["phi"], {"module": module})
    sys_in = load_system(data["system_in"])
    sys_out = load_system(data["system_out"])
    unitaries = list(load_cmatrices(data["unitaries"], module.dim, module.dim))
    return EquivariantCorrespondence(sys_in, sys_out, module, phi, unitaries)


# -- file helpers ----------------------------------------------------------------


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def loads(text: str) -> Any:
    return json.loads(text)
