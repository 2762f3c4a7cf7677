"""JSON (de)serialization for every wire format the harness reads or writes.

Conventions:

* complex scalars are two-element arrays [re, im] everywhere;
* algebra shapes are integer arrays; elements are arrays of row-major
  complex block matrices, loaded as coefficient rows; star maps carry the
  image of each matrix unit as an element;
* modules carry {algebra, dim, action per basis element, pairing per basis
  pair}; maps carry {source_id, target_id, matrix};
* CP maps carry {algebra, module_id, images, strict}; strict is always true.

One parser, _matrices, reads every float of a payload: a section loads as one
parse per matrix shape, and a faulty item is named by its index in its
section.  Rules between fields (the algebra each CP map is drawn on, the one
group of a correspondence) are checked where they are read: in the harness's
checkers and in EquivariantCorrespondence.

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


def _matrices(items: Any, rows: int | None, cols: int | None) -> np.ndarray:
    """Matrices (len(items), rows, cols) of a list of dumped matrices, parsed as
    one array and checked: lists of rows of [re, im] pairs, the shape (rows,
    cols) where given, finite entries.  A matrix of no rows dumps as []."""
    if not isinstance(items, list) or set(map(type, items)) - {list}:
        raise ValidationError("matrix must be a list of rows")
    try:
        A = np.array(items, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"matrix must be rows of [re, im] pairs: {exc}") from exc
    if A.size == 0 and A.ndim < 4:  # no matrices, matrices of no rows, or rows of no columns
        A = A.reshape(A.shape + (rows or 0, cols or 0)[A.ndim - 1 :] + (2,))
    if A.ndim != 4 or A.shape[3] != 2:
        raise ValidationError(f"matrix must be rows of [re, im] pairs, got shape {A.shape[1:]}")
    if rows is not None and A.shape[1] != rows:
        raise ValidationError(f"matrix has {A.shape[1]} rows, expected {rows}")
    if cols is not None and A.shape[2] != cols:
        raise ValidationError(f"matrix has {A.shape[2]} cols, expected {cols}")
    if not np.isfinite(A).all():
        raise ValidationError("matrix contains non-finite entries")
    return A.view(complex)[..., 0]


def load_cmatrix(data: Any, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """The matrix of one dumped matrix, checked as _matrices checks a list."""
    return _matrices([data], rows, cols)[0]


# A payload section (a module's action, a path's automorphisms) is a list of
# dumped items of one kind, loaded by one parse of the whole list.  Where that
# raises, _named parses each item alone and names the first that raises.  Each
# nested part loads through its own named loader (elements inside star maps,
# star maps inside automorphisms): `automorphism 6: star map 0: element 1: ...`.


def _named(kind: str, parse: Callable[[list], Any], items: Any) -> Any:
    """parse(items), or where it raises ValidationError, the error of the first
    item that raises parsed alone, as `kind i: ...` (the section's own error
    where no item does)."""
    try:
        return parse(items)
    except ValidationError:
        for i, item in enumerate(items if isinstance(items, list) else ()):
            try:
                parse([item])
            except ValidationError as exc:
                raise ValidationError(f"{kind} {i}: {exc}") from exc
        raise


def load_cmatrices(items: Any, rows: int, cols: int) -> np.ndarray:
    """Matrices (len(items), rows, cols) of a list of dumped matrices of one
    shape, parsed as one array; a faulty item is named by its index."""
    return _named("matrix", lambda x: _matrices(x, rows, cols), items)


def load_cmatrix_list(items: list, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """The matrices of a list of dumped matrices, item i of shape shapes[i]:
    those of one shape parsed as one array; a faulty item is named by its index."""
    return _named("matrix", lambda pairs: stackwise(
        pairs, lambda pair: pair[1], lambda stack: _matrices([m for m, _ in stack], *stack[0][1])
    ), list(zip(items, shapes)))


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


def _elements(shape: AlgebraShape, items: Any) -> np.ndarray:
    """Coefficient rows (len(items), dim A) of dumped elements, the blocks of
    all of them parsed as one matrix stack per block (one stack where the
    blocks are of one size)."""
    k = len(shape.blocks)
    if not isinstance(items, list) or set(map(type, items)) - {list} or set(map(len, items)) - {k}:
        raise ValidationError("element block count does not match the shape")
    count, n = len(items), shape.blocks[0]
    if shape.blocks == (n,) * k:
        return _matrices([b for x in items for b in x], n, n).reshape(count, shape.dim)
    return np.concatenate([_matrices([x[t] for x in items], m, m).reshape(count, m * m)
                           for t, m in enumerate(shape.blocks)], axis=1)


def load_elements(shape: AlgebraShape, items: Any) -> np.ndarray:
    """Coefficient rows (len(items), dim A) of a list of dumped elements, each
    block of all of them parsed as one array; a faulty item is named by its
    index."""
    return _named("element", lambda x: _elements(shape, x), items)


def dump_star_map(rho: StarMap) -> dict:
    return {
        "domain": dump_shape(rho.domain),
        "codomain": dump_shape(rho.codomain),
        "images": dump_elements(rho.codomain, rho.matrix.T),
    }


def _star_maps(items: list) -> list[StarMap]:
    """The StarMaps of dumped star maps, the images of all those into one
    codomain loaded as one list of elements."""
    heads = []
    for data in items:
        dom, cod, images = load_shape(data["domain"]), load_shape(data["codomain"]), data["images"]
        if len(images) != dom.dim:
            raise ValidationError("star map needs one image per domain basis element")
        heads.append((dom, cod, images))

    def maps(stack: list) -> list[StarMap]:  # the maps into one codomain
        C = load_elements(stack[0][1], [x for _, _, images in stack for x in images])
        ends = accumulate(dom.dim for dom, _, _ in stack)
        return [StarMap(dom, cod, C[end - dom.dim : end].T)
                for (dom, cod, _), end in zip(stack, ends)]

    return stackwise(heads, lambda head: head[1], maps)


def load_star_maps(items: list) -> list[StarMap]:
    """The StarMaps of a list of dumped star maps, the images of those into
    one codomain parsed as one array; a faulty item is named by its index."""
    return _named("star map", _star_maps, items)


def dump_automorphism(alpha: Automorphism) -> dict:
    return {
        "forward": dump_star_map(alpha.forward),
        "inverse": dump_star_map(alpha.inverse),
    }


def _automorphisms(items: list) -> list[Automorphism]:
    maps = load_star_maps([m for data in items for m in (data["forward"], data["inverse"])])
    return [Automorphism(*maps[i : i + 2]) for i in range(0, len(maps), 2)]


def load_automorphisms(items: list) -> list[Automorphism]:
    """The Automorphisms of a list of dumped automorphisms, every forward and
    inverse image on one algebra parsed as one array; a faulty item is named
    by its index."""
    return _named("automorphism", _automorphisms, items)


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


def load_group(data: Any, group: FiniteGroup | None = None) -> FiniteGroup:
    """The FiniteGroup of a dumped group, one per content for the process:
    found by its fields as given (order, identity, table, inverse, perms and
    name) before any is converted, and on first sight `group` (a read-only
    group of that content) where given, or else built from their integer
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
        return structure(("load_group", *content), build if group is None else lambda: group)
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
