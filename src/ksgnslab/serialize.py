"""JSON (de)serialization for every wire format the harness reads or writes.

Conventions:

* complex scalars are two-element arrays [re, im] everywhere;
* algebra shapes are integer arrays; elements are arrays of row-major
  complex block matrices;
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
from typing import Any

import numpy as np

from .cp import CPMap
from .cstar import AlgebraElement, AlgebraShape, Automorphism, StarMap
from .errors import ValidationError
from .hilbert import HilbertModule, ModuleMap
from .equivariant import (
    DynamicalSystem,
    EquivariantCorrespondence,
    FiniteGroup,
)


# -- scalars and matrices -----------------------------------------------------


def dump_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def load_complex(data: Any) -> complex:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValidationError(f"complex scalar must be [re, im], got {data!r}")
    return complex(float(data[0]), float(data[1]))


def dump_cmatrix(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim {M.ndim}")
    return [[dump_complex(z) for z in row] for row in M]


def load_cmatrix(data: Any, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    if not isinstance(data, list):
        raise ValidationError("matrix must be a list of rows")
    if not data and not rows:  # a (0, n) matrix dumps as []
        return np.zeros((0, cols or 0), dtype=complex)
    M = np.array([[load_complex(z) for z in row] for row in data], dtype=complex)
    if M.ndim == 1:  # zero columns
        M = M.reshape(len(data), 0)
    if rows is not None and M.shape[0] != rows:
        raise ValidationError(f"matrix has {M.shape[0]} rows, expected {rows}")
    if cols is not None and M.shape[1] != cols:
        raise ValidationError(f"matrix has {M.shape[1]} cols, expected {cols}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValidationError("matrix contains non-finite entries")
    return M


# -- algebra layer ------------------------------------------------------------


def dump_shape(shape: AlgebraShape) -> list[int]:
    return list(shape.blocks)


def load_shape(data: Any) -> AlgebraShape:
    try:
        return AlgebraShape(tuple(int(n) for n in data))
    except Exception as exc:
        raise ValidationError(f"bad algebra shape {data!r}") from exc


def dump_element(a: AlgebraElement) -> list:
    return [dump_cmatrix(b) for b in a.blocks]


def load_element(shape: AlgebraShape, data: Any) -> AlgebraElement:
    if not isinstance(data, list) or len(data) != len(shape.blocks):
        raise ValidationError("element block count does not match the shape")
    blocks = [load_cmatrix(b, n, n) for b, n in zip(data, shape.blocks)]
    return AlgebraElement(shape, blocks)


def dump_star_map(rho: StarMap) -> dict:
    return {
        "domain": dump_shape(rho.domain),
        "codomain": dump_shape(rho.codomain),
        "images": [dump_element(img) for img in rho.images],
    }


def load_star_map(data: Any) -> StarMap:
    dom = load_shape(data["domain"])
    cod = load_shape(data["codomain"])
    images = data["images"]
    if len(images) != dom.dim:
        raise ValidationError("star map needs one image per domain basis element")
    return StarMap(dom, cod, [load_element(cod, img) for img in images])


def dump_automorphism(alpha: Automorphism) -> dict:
    return {
        "forward": dump_star_map(alpha.forward),
        "inverse": dump_star_map(alpha.inverse),
    }


def load_automorphism(data: Any) -> Automorphism:
    return Automorphism(load_star_map(data["forward"]), load_star_map(data["inverse"]))


# -- module layer -------------------------------------------------------------


def dump_module(E: HilbertModule) -> dict:
    d = E.dim
    pairing = [
        [
            dump_element(
                AlgebraElement(E.algebra, [np.asarray(P[i, j]) for P in E.pairing])
            )
            for j in range(d)
        ]
        for i in range(d)
    ]
    return {
        "algebra": dump_shape(E.algebra),
        "dim": d,
        "action": [dump_cmatrix(E.action[p]) for p in range(E.algebra.dim)],
        "pairing": pairing,
    }


def load_module(data: Any) -> HilbertModule:
    B = load_shape(data["algebra"])
    d = int(data["dim"])
    action_rows = data["action"]
    if len(action_rows) != B.dim:
        raise ValidationError("module action needs one matrix per basis element")
    action = (
        np.stack([load_cmatrix(m, d, d) for m in action_rows])
        if B.dim
        else np.zeros((0, d, d), dtype=complex)
    )
    rows = data["pairing"]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValidationError("module pairing must be a dim x dim table")
    pairing = [np.zeros((d, d, n, n), dtype=complex) for n in B.blocks]
    for i in range(d):
        for j in range(d):
            el = load_element(B, rows[i][j])
            for t in range(len(B.blocks)):
                pairing[t][i, j] = el.blocks[t]
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
        "images": [dump_cmatrix(img) for img in phi.images],
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
    stack = (
        np.stack([load_cmatrix(img, E.dim, E.dim) for img in images])
        if A.dim
        else np.zeros((0, E.dim, E.dim), dtype=complex)
    )
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
        [load_automorphism(a) for a in data["action"]],
    )


def dump_equivariant(c: EquivariantCorrespondence) -> dict:
    return {
        "system_in": dump_system(c.system_in),
        "system_out": dump_system(c.system_out),
        "module": dump_module(c.module),
        "phi": dump_cpmap(c.phi, "module"),
        "unitaries": [dump_cmatrix(U) for U in c.unitaries],
    }


def load_equivariant(data: Any) -> EquivariantCorrespondence:
    module = load_module(data["module"])
    phi = load_cpmap(data["phi"], {"module": module})
    sys_in = load_system(data["system_in"])
    sys_out = load_system(data["system_out"])
    unitaries = [
        load_cmatrix(U, module.dim, module.dim) for U in data["unitaries"]
    ]
    return EquivariantCorrespondence(sys_in, sys_out, module, phi, unitaries)


# -- file helpers ----------------------------------------------------------------


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def loads(text: str) -> Any:
    return json.loads(text)
