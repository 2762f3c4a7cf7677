"""JSON (de)serialization for every wire format the harness reads or writes.

Conventions:

* complex scalars are two-element arrays [re, im] everywhere;
* algebra shapes are integer arrays; elements are arrays of row-major
  complex block matrices, loaded as coefficient rows; star maps carry the
  image of each matrix unit as an element;
* modules carry {algebra, dim, action per basis element, pairing per basis
  pair}; maps carry {source_id, target_id, matrix};
* CP maps carry {algebra, module_id, images, strict}; strict is always true.

Python's json round-trips doubles exactly (shortest-repr), so a dumped
instance reloads bit-identically and deterministic constructions built from
it (quotient coordinates in particular) reproduce exactly on the same
platform.
"""

from __future__ import annotations

import json
from itertools import accumulate
from typing import Any, Callable

import numpy as np

from .cp import CPMap
from .cstar import AlgebraShape, Automorphism, StarMap, block_stacks
from .errors import ShapeMismatch, ValidationError
from .hilbert import HilbertModule, ModuleMap
from .memo import structure
from .numkernel import stackwise
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
    """The matrix of one dumped matrix, checked: [re, im] pairs, the shape
    (rows, cols) where given, finite entries."""
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


# A payload section (a module's action, a path's automorphisms, a category's
# star maps) loads through one stacked loader: its fast path parses the whole
# list as one array per shape and checks it whole (finite entries, shapes and
# counts), and raises ValidationError when the list does not stack.  Its one
# fallback then loads the items one at a time and raises the first fault again
# with the item's index in front of its message.


def _loaded(kind: str, items: Any, stacked: Callable[[Any], Any], one: Callable[[Any], Any]):
    """stacked(items), or where it raises ValidationError, [one(x) for x in
    items] with the first item's ValidationError raised again as `kind i: ...`."""
    try:
        return stacked(items)
    except ValidationError:
        pass
    loaded = []
    for i, item in enumerate(items):
        try:
            loaded.append(one(item))
        except ValidationError as exc:
            raise ValidationError(f"{kind} {i}: {exc}") from exc
    return loaded


def _matrix_stack(items: Any, rows: int, cols: int) -> np.ndarray:
    """Matrices (len(items), rows, cols) of nonzero size, parsed as one array."""
    if not isinstance(items, list) or not rows * cols:
        raise ValidationError("not a stack of nonempty matrices")
    try:
        A = np.array(items, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("not a stack of matrices") from exc
    if A.shape != (len(items), rows, cols, 2) or not np.isfinite(A).all():
        raise ValidationError("not a stack of finite matrices")
    return A.view(complex)[..., 0]


def load_cmatrices(items: Any, rows: int, cols: int) -> np.ndarray:
    """Matrices (len(items), rows, cols) of a list of dumped matrices of one
    shape, parsed as one array; a faulty item is named by its index."""
    M = _loaded("matrix", items, lambda x: _matrix_stack(x, rows, cols),
                lambda m: load_cmatrix(m, rows, cols))
    return M if isinstance(M, np.ndarray) else np.array(M, complex).reshape(len(M), rows, cols)


def load_cmatrix_list(items: list, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """The matrices of a list of dumped matrices, item i of shape shapes[i]:
    those of one shape parsed as one array; a faulty item is named by its index."""
    return _loaded(
        "matrix", list(zip(items, shapes)),
        lambda pairs: stackwise(pairs, lambda pair: pair[1],
                                lambda stack: _matrix_stack([m for m, _ in stack], *stack[0][1])),
        lambda pair: load_cmatrix(pair[0], *pair[1]),
    )


def _integral(value: Any) -> int:
    """value as an int, where int() leaves it equal; ValidationError otherwise
    (2.5, "2", None), where int() would truncate or convert."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{value!r} is not an integer") from exc
    if n != value:
        raise ValidationError(f"{value!r} is not an integer")
    return n


# -- algebra layer ------------------------------------------------------------


def dump_shape(shape: AlgebraShape) -> list[int]:
    return list(shape.blocks)


def load_shape(data: Any) -> AlgebraShape:
    """The AlgebraShape of a block list, one per block sizes for the process
    (AlgebraShape is frozen): found by the list's entries as given, before
    any is converted, and built from their integer values on first sight."""
    try:
        return structure(("load_shape", tuple(data)),
                         lambda: AlgebraShape(tuple(map(_integral, data))))
    except (TypeError, ValidationError, ShapeMismatch) as exc:
        raise ValidationError(f"bad algebra shape {data!r}") from exc


def dump_elements(shape: AlgebraShape, C: np.ndarray) -> list:
    """The dumped elements of coefficient rows C (count, dim A), each block of
    all of them dumped as one stack."""
    return [list(x) for x in zip(*(dump_cmatrices(S) for S in block_stacks(shape, C)))]


def dump_element(shape: AlgebraShape, c: np.ndarray) -> list:
    """The element with coefficients c (dim A,), block by block."""
    return dump_elements(shape, np.asarray(c)[None])[0]


def _element(shape: AlgebraShape, data: Any) -> np.ndarray:
    """Coefficients (dim A,) of one dumped element."""
    if not isinstance(data, list) or len(data) != len(shape.blocks):
        raise ValidationError("element block count does not match the shape")
    return np.concatenate([load_cmatrix(b, n, n).reshape(-1) for b, n in zip(data, shape.blocks)])


def _element_stack(shape: AlgebraShape, items: Any) -> np.ndarray:
    """Coefficient rows (len(items), dim A), each block of all the elements
    parsed as one array."""
    count, k, n = len(items), len(shape.blocks), shape.blocks[0]
    if shape.blocks == (n,) * k:  # blocks of one size: the count is the second axis
        parts, sizes = [items], [(count, k, n, n, 2)]
    elif set(map(type, items)) <= {list} and set(map(len, items)) <= {k}:
        parts = [[x[t] for x in items] for t in range(k)]
        sizes = [(count, n, n, 2) for n in shape.blocks]
    else:
        raise ValidationError("elements of another block count")
    try:
        blocks = [np.array(part, dtype=float) for part in parts]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("not a stack of elements") from exc
    if [b.shape for b in blocks] != sizes or not all(np.isfinite(b).all() for b in blocks):
        raise ValidationError("not a stack of finite elements")
    C = [b.view(complex).reshape(count, -1) for b in blocks]
    return C[0] if len(C) == 1 else np.concatenate(C, axis=1)


def load_elements(shape: AlgebraShape, items: Any) -> np.ndarray:
    """Coefficient rows (len(items), dim A) of a list of dumped elements, each
    block of all of them parsed as one array; a faulty item is named by its
    index."""
    C = _loaded("element", items, lambda x: _element_stack(shape, x), lambda x: _element(shape, x))
    return C if isinstance(C, np.ndarray) else np.array(C, complex).reshape(len(C), shape.dim)


def dump_star_map(rho: StarMap) -> dict:
    return {
        "domain": dump_shape(rho.domain),
        "codomain": dump_shape(rho.codomain),
        "images": dump_elements(rho.codomain, rho.matrix.T),
    }


def _star_map(data: Any) -> StarMap:
    """The StarMap of one dumped star map."""
    dom, cod = load_shape(data["domain"]), load_shape(data["codomain"])
    if len(data["images"]) != dom.dim:
        raise ValidationError("star map needs one image per domain basis element")
    return StarMap(dom, cod, load_elements(cod, data["images"]).T)


def _star_map_stack(items: list) -> list[StarMap]:
    """The StarMaps of dumped star maps, the images of all those into one
    codomain parsed by one _element_stack."""
    heads = []
    for data in items:
        dom, cod, images = load_shape(data["domain"]), load_shape(data["codomain"]), data["images"]
        if len(images) != dom.dim:
            raise ValidationError("star map image count")
        heads.append((dom, cod, images))

    def maps(stack: list) -> list[StarMap]:  # the maps into one codomain
        C = _element_stack(stack[0][1], [x for _, _, images in stack for x in images])
        ends = accumulate(dom.dim for dom, _, _ in stack)
        return [StarMap(dom, cod, C[end - dom.dim : end].T)
                for (dom, cod, _), end in zip(stack, ends)]

    return stackwise(heads, lambda head: head[1], maps)


def load_star_maps(items: list) -> list[StarMap]:
    """The StarMaps of a list of dumped star maps, the images of those into
    one codomain parsed as one array; a faulty item is named by its index."""
    return _loaded("star map", items, _star_map_stack, _star_map)


def dump_automorphism(alpha: Automorphism) -> dict:
    return {
        "forward": dump_star_map(alpha.forward),
        "inverse": dump_star_map(alpha.inverse),
    }


def _automorphism_stack(items: list) -> list[Automorphism]:
    maps = _star_map_stack([m for data in items for m in (data["forward"], data["inverse"])])
    return [Automorphism(*maps[i : i + 2]) for i in range(0, len(maps), 2)]


def load_automorphisms(items: list) -> list[Automorphism]:
    """The Automorphisms of a list of dumped automorphisms, every forward and
    inverse image on one algebra parsed as one array; a faulty item is named
    by its index."""
    return _loaded("automorphism", items, _automorphism_stack,
                   lambda x: Automorphism(*load_star_maps([x["forward"], x["inverse"]])))


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
    d = _integral(data["dim"])
    action_rows = data["action"]
    if len(action_rows) != B.dim:
        raise ValidationError("module action needs one matrix per basis element")
    action = load_cmatrices(action_rows, d, d)
    rows = data["pairing"]
    if len(rows) != d or set(map(len, rows)) - {d}:
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


def load_module_maps(items: list, modules: dict[str, HilbertModule]) -> list[ModuleMap]:
    """The ModuleMaps of a list of dumped module maps between `modules`, by
    id, the matrices of one shape parsed as one array (load_cmatrix_list)."""
    try:
        ends = [(modules[x["source_id"]], modules[x["target_id"]]) for x in items]
    except KeyError as exc:
        raise ValidationError(f"unknown module id {exc}") from exc
    mats = load_cmatrix_list([x["matrix"] for x in items], [(t.dim, s.dim) for s, t in ends])
    return [ModuleMap(s, t, M) for (s, t), M in zip(ends, mats)]


def dump_cpmap(phi: CPMap, module_id: str) -> dict:
    return {
        "algebra": dump_shape(phi.algebra),
        "module_id": module_id,
        "images": dump_cmatrices(phi.images),
        "strict": True,  # every map of the unital model is strict
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
    if data.get("strict", True) is not True:
        raise ValidationError(f"cp maps of unital algebras are strict, not {data['strict']!r}")
    return CPMap(A, E, load_cmatrices(images, E.dim, E.dim))


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
    """The FiniteGroup of a dumped group, one per content for the process:
    found by its fields as given (order, identity, table, inverse, perms and
    name) before any is converted, and on first sight built from their integer
    values, validated and made read-only."""

    def build() -> FiniteGroup:
        G = FiniteGroup(
            order=_integral(data["order"]),
            table=np.array([list(map(_integral, row)) for row in data["table"]], dtype=int),
            identity=_integral(data["identity"]),
            inverse=np.array(list(map(_integral, data["inverse"])), dtype=int),
            perms=tuple(tuple(p) for p in data["perms"]) if "perms" in data else None,
            name=str(data.get("name", "G")),
        )
        G.table.flags.writeable = G.inverse.flags.writeable = False
        return G

    try:
        perms = tuple(map(tuple, data["perms"])) if "perms" in data else None
        content = (data["order"], data["identity"], tuple(map(tuple, data["table"])),
                   tuple(data["inverse"]), perms, data.get("name", "G"))
        return structure(("load_group", *content), build)
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


def dump_equivariant(c: EquivariantCorrespondence) -> dict:
    return {
        "system_in": dump_system(c.system_in),
        "system_out": dump_system(c.system_out),
        "module": dump_module(c.module),
        "phi": dump_cpmap(c.phi, "module"),
        "unitaries": dump_cmatrices(c.unitaries),
    }


def load_equivariant(data: Any) -> EquivariantCorrespondence:
    """The correspondence of a dumped one; the automorphisms of both systems
    load as one stack, system_in's first."""
    module = load_module(data["module"])
    phi = load_cpmap(data["phi"], {"module": module})
    systems = [data["system_in"], data["system_out"]]
    alphas = load_automorphisms([a for system in systems for a in system["action"]])
    cut = len(systems[0]["action"])
    sys_in, sys_out = (
        DynamicalSystem(load_shape(system["algebra"]), load_group(system["group"]), action)
        for system, action in zip(systems, (alphas[:cut], alphas[cut:]))
    )
    unitaries = list(load_cmatrices(data["unitaries"], module.dim, module.dim))
    return EquivariantCorrespondence(sys_in, sys_out, module, phi, unitaries)


# -- file helpers ----------------------------------------------------------------


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def loads(text: str) -> Any:
    return json.loads(text)
