"""Numerical verification lab for finite-dimensional Hilbert C*-modules,
completely positive maps, the KSGNS dilation, correspondence categories, and
equivariant dilation of finite-group dynamical correspondences."""

from .numkernel import Tolerance, DEFAULT_TOL
from .cstar import AlgebraShape, AlgebraElement, StarMap, Automorphism
from .hilbert import HilbertModule, ModuleMap, PreModule
from .cp import CPMap, Intertwiner
from .ksgns import KsgnsTriple, ksgns
from .equivariant import (
    FiniteGroup,
    DynamicalSystem,
    EquivariantCorrespondence,
    DilationQuadruple,
    cyclic_group,
    symmetric_group,
    dilate,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "AlgebraShape",
    "AlgebraElement",
    "StarMap",
    "Automorphism",
    "HilbertModule",
    "ModuleMap",
    "PreModule",
    "CPMap",
    "Intertwiner",
    "KsgnsTriple",
    "ksgns",
    "FiniteGroup",
    "DynamicalSystem",
    "EquivariantCorrespondence",
    "DilationQuadruple",
    "cyclic_group",
    "symmetric_group",
    "dilate",
]

__version__ = "0.1.0"
