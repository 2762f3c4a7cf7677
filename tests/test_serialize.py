import json

import numpy as np
import pytest

from ksgnslab import serialize as ser
from ksgnslab.cstar import AlgebraShape, random_automorphism, random_element
from ksgnslab.cp import random_cp
from ksgnslab.equivariant import cyclic_group, random_equivariant
from ksgnslab.errors import ValidationError
from ksgnslab.generators import random_module, random_star_map
from ksgnslab.numkernel import operator_norm

from conftest import random_complex


def test_complex_scalar_wire_format():
    assert ser.dump_complex(1 + 2j) == [1.0, 2.0]
    assert ser.load_complex([1.0, 2.0]) == 1 + 2j
    with pytest.raises(ValidationError):
        ser.load_complex([1.0])
    with pytest.raises(ValidationError):
        ser.load_complex("zz")


def test_matrix_round_trip_bit_exact(rng):
    M = random_complex(rng, 3, 4)
    data = json.loads(json.dumps(ser.dump_cmatrix(M)))
    back = ser.load_cmatrix(data, 3, 4)
    assert np.array_equal(M, back)
    with pytest.raises(ValidationError):
        ser.load_cmatrix(data, 4, 4)


def test_zero_row_matrix_rejects_listed_rows():
    assert ser.dump_cmatrix(np.zeros((0, 3))) == []
    assert ser.load_cmatrix([], 0, 3).shape == (0, 3)
    with pytest.raises(ValidationError):
        ser.load_cmatrix([[[1.0, 0.0]]], 0, 1)
    with pytest.raises(ValidationError):
        ser.load_cmatrix([[]], 0, 0)


def test_element_and_star_map_round_trip(rng):
    shape = AlgebraShape((2, 1))
    a = random_element(shape, rng)
    back = ser.load_element(shape, json.loads(json.dumps(ser.dump_element(a))))
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks, back.blocks))
    rho = random_star_map(shape, rng, max_block=3)
    data = json.loads(json.dumps(ser.dump_star_map(rho)))
    back = ser.load_star_map(data)
    assert np.array_equal(rho.matrix, back.matrix)
    alpha = random_automorphism(shape, 3)
    back = ser.load_automorphism(json.loads(json.dumps(ser.dump_automorphism(alpha))))
    assert np.array_equal(alpha.matrix, back.matrix)
    assert np.array_equal(alpha.inverse_matrix, back.inverse_matrix)


def test_module_round_trip_bit_exact(rng):
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=5)
    data = json.loads(json.dumps(ser.dump_module(E)))
    back = ser.load_module(data)
    assert np.array_equal(E.action, back.action)
    assert all(np.array_equal(p, q) for p, q in zip(E.pairing, back.pairing))
    assert np.array_equal(E.gram_matrix, back.gram_matrix)


def test_cpmap_round_trip(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    data = json.loads(json.dumps(ser.dump_cpmap(phi, "E")))
    back = ser.load_cpmap(data, {"E": E})
    assert np.array_equal(phi.images, back.images)
    assert back.strict is True
    with pytest.raises(ValidationError):
        ser.load_cpmap(data, {"other": E})


def test_group_and_equivariant_round_trip():
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), cyclic_group(2), seed=2)
    data = json.loads(json.dumps(ser.dump_equivariant(c)))
    back = ser.load_equivariant(data)
    assert np.array_equal(back.system_in.group.table, c.system_in.group.table)
    assert all(np.array_equal(u, v) for u, v in zip(c.unitaries, back.unitaries))
    assert np.array_equal(c.phi.images, back.phi.images)


def test_dim_zero_module_round_trip():
    from ksgnslab.generators import canonical_module

    E0 = canonical_module(AlgebraShape((2,)), (0,))
    data = json.loads(json.dumps(ser.dump_module(E0)))
    back = ser.load_module(data)
    assert back.dim == 0
    assert back.action.shape == (4, 0, 0)


def test_malformed_module_rejected(rng):
    E = random_module(AlgebraShape((2,)), rng, max_dim=3)
    data = json.loads(json.dumps(ser.dump_module(E)))
    data["action"] = data["action"][:-1]
    with pytest.raises(ValidationError):
        ser.load_module(data)
    data2 = json.loads(json.dumps(ser.dump_module(E)))
    data2["pairing"][0][0][0][0][0][0] = float("nan") if False else 1e400
    with pytest.raises(ValidationError):
        ser.load_module(data2)
