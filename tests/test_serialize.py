import json

import numpy as np
import pytest

from ksgnslab import serialize as ser
from ksgnslab.cstar import AlgebraShape, identity_star_map, random_automorphism, random_element
from ksgnslab.cp import left_mult_correspondence, random_cp
from ksgnslab.equivariant import cyclic_group, random_equivariant
from ksgnslab.errors import ValidationError
from ksgnslab.generators import random_module, random_representation, random_star_map
from ksgnslab.memo import BuildMemo

from conftest import random_complex, scalar_module, star_map_images


def entrywise_dump(M):
    """The [re, im] wire format written one scalar at a time: the reference
    the whole-array codec matches byte for byte."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def entrywise_load(data):
    return np.array([[complex(float(z[0]), float(z[1])) for z in row] for row in data], complex)


def test_complex_scalar_wire_format():
    assert ser.dump_cmatrix(np.array([[1 + 2j]])) == [[[1.0, 2.0]]]
    assert ser.load_cmatrix([[[1.0, 2.0]]], 1, 1)[0, 0] == 1 + 2j
    with pytest.raises(ValidationError):
        ser.load_cmatrix([[[1.0]]], 1, 1)  # a pair of length 1
    with pytest.raises(ValidationError):
        ser.load_cmatrix([["zz"]], 1, 1)
    with pytest.raises(ValidationError):
        ser.load_cmatrix([[[1.0, 2.0, 3.0]]], 1, 1)


def test_matrix_round_trip_bit_exact(rng):
    M = random_complex(rng, 3, 4)
    data = json.loads(json.dumps(ser.dump_cmatrix(M)))
    back = ser.load_cmatrix(data, 3, 4)
    assert np.array_equal(M, back)
    with pytest.raises(ValidationError):
        ser.load_cmatrix(data, 4, 4)


@pytest.mark.parametrize("shape", [(3, 4), (1, 1), (2, 0), (0, 3)])
def test_matrix_codec_matches_the_entrywise_codec(shape, rng):
    M = random_complex(rng, *shape)
    if M.size:
        M[0, 0] = complex(-0.0, 0.0)
        M.flat[-1] = complex(0.0, -0.0)
    text = json.dumps(ser.dump_cmatrix(M))
    assert text == json.dumps(entrywise_dump(M))
    back = ser.load_cmatrix(json.loads(text), *shape)
    assert back.dtype == complex and back.shape == shape
    assert back.tobytes() == M.tobytes()  # signed zeros included
    assert back.tobytes() == entrywise_load(json.loads(text)).tobytes()


@pytest.mark.parametrize(
    "data",
    [
        [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],  # ragged rows
        [[[1.0, 0.0], [2.0]]],  # ragged pairs
        [[[1.0, 0.0, 0.0]]],  # a pair of length 3
        [[[None, 0.0]]],
        [[[{}, 0.0]]],
        [[[1.0, "zz"]]],
        [[[float("nan"), 0.0]]],
        [[[0.0, float("inf")]]],
        [[[1e400, 0.0]]],
        [[[10**400, 0.0]]],
        [[[]]],
        "[[1.0, 0.0]]",
    ],
)
def test_malformed_matrix_rejected(data):
    with pytest.raises(ValidationError):
        ser.load_cmatrix(data)


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
    data = ser.dump_element(shape, a.coeffs())
    assert data == [ser.dump_cmatrix(b) for b in a.blocks]
    (back,) = ser.load_elements(shape, [json.loads(json.dumps(data))])
    assert np.array_equal(back, a.coeffs())
    rho = random_star_map(shape, rng, max_block=3)
    data = json.loads(json.dumps(ser.dump_star_map(rho)))
    # one element per matrix unit, block by block
    assert data["images"] == [
        [ser.dump_cmatrix(b) for b in img.blocks] for img in star_map_images(rho)
    ]
    (back,) = ser.load_star_maps([data])
    assert np.array_equal(rho.matrix, back.matrix)
    for broken in (data["images"][:-1], [img[:-1] for img in data["images"]]):
        with pytest.raises(ValidationError):
            ser.load_star_maps([{**data, "images": broken}])
    alpha = random_automorphism(shape, 3)
    (back,) = ser.load_automorphisms([json.loads(json.dumps(ser.dump_automorphism(alpha)))])
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
    with pytest.raises(ValidationError, match="strict"):  # the unital model has no other
        ser.load_cpmap({**data, "strict": False}, {"E": E})
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



def test_module_with_singular_gram_rejected():
    data = json.loads(json.dumps(ser.dump_module(scalar_module(np.eye(2)))))
    data["pairing"][1][1] = [[[[0.0, 0.0]]]]  # <e_2, e_2> = 0
    with pytest.raises(ValidationError, match=r"module data rejected: Gram spectrum \[0\.000e"):
        ser.load_module(data)


# -- malformed tables name their faulty entry ----------------------------------
# Pairing tables and star-map images are parsed one block stack at a time;
# malformed data must fail with the message the first faulty entry gives
# alone, named by its index.


def drop_block(entry):
    entry.pop()


def inf_entry(entry):
    entry[0][0][0][0] = float("inf")


def short_block(entry):
    entry[-1].pop()


def ragged_pair(entry):
    entry[-1][0][-1] = [1.0]


def string_entry(entry):
    entry[0][0][0][1] = "zz"


CORRUPTIONS = [drop_block, inf_entry, short_block, ragged_pair, string_entry]


def itemwise_message(kind, items, load):
    """The message a stacked loader gives for items: the first item that
    fails loaded alone (`load([item])`, which names it `kind 0`), named by its
    index in items."""
    for i, item in enumerate(items):
        try:
            load([item])
        except ValidationError as exc:
            alone = f"{kind} 0: "
            assert str(exc).startswith(alone), str(exc)
            return f"{kind} {i}: {str(exc)[len(alone):]}"
    raise AssertionError("no item fails")


def elementwise_message(shape, entries):
    return itemwise_message("element", entries, lambda items: ser.load_elements(shape, items))


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_malformed_pairing_table_keeps_its_message(corrupt, rng):
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=3)
    data = json.loads(json.dumps(ser.dump_module(E)))
    corrupt(data["pairing"][1][-1])
    expected = elementwise_message(E.algebra, [e for row in data["pairing"] for e in row])
    with pytest.raises(ValidationError) as err:
        ser.load_module(data)
    assert str(err.value) == expected


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_malformed_star_map_keeps_its_message(corrupt, rng):
    rho = random_star_map(AlgebraShape((2, 1)), rng, max_block=3)
    data = json.loads(json.dumps(ser.dump_star_map(rho)))
    corrupt(data["images"][2])
    expected = "star map 0: " + elementwise_message(rho.codomain, data["images"])
    assert expected.startswith("star map 0: element 2: ")
    with pytest.raises(ValidationError) as err:
        ser.load_star_maps([data])
    assert str(err.value) == expected


def test_wrong_count_tables_rejected(rng):
    E = random_module(AlgebraShape((2,)), rng, max_dim=3)
    data = json.loads(json.dumps(ser.dump_module(E)))
    for rows in (data["pairing"][:-1], [row[:-1] for row in data["pairing"]]):
        with pytest.raises(ValidationError, match="^module pairing must be a dim x dim table$"):
            ser.load_module({**data, "pairing": rows})
    rho = random_star_map(AlgebraShape((2,)), rng, max_block=2)
    data = json.loads(json.dumps(ser.dump_star_map(rho)))
    with pytest.raises(ValidationError, match="^star map 1: star map needs one image per domain"):
        ser.load_star_maps([data, {**data, "images": data["images"] + data["images"][:1]}])


def test_loaded_shapes_with_equal_blocks_share_one_read_only_product_table():
    # serialize.load_shape loads one AlgebraShape per block sizes for the
    # process, with its product table, and a shared table cannot be written
    first, second = ser.load_shape([1, 2]), ser.load_shape([1, 2])
    assert first is second and first.product_table is second.product_table
    assert ser.load_shape([2, 1]).product_table is not first.product_table
    with pytest.raises(ValueError, match="read-only"):
        first.product_table[0, 0] = 1


# -- stacked lists name their faulty item ----------------------------------------
# A module action, CP images and unitaries parse as one array each, and all
# forward and inverse images of both dynamical systems as one element stack;
# one bad item must fail with the message it gives alone, named by its index.


def drop_row(matrix):
    matrix.pop()


def inf_scalar(matrix):
    matrix[0][0][0] = float("inf")


def string_scalar(matrix):
    matrix[0][0][1] = "zz"


def ragged_scalar(matrix):
    matrix[-1][-1] = [1.0]


MATRIX_CORRUPTIONS = [drop_row, inf_scalar, string_scalar, ragged_scalar]


def equivariant_data():
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), cyclic_group(3), seed=4)
    return c, json.loads(json.dumps(ser.dump_equivariant(c)))


@pytest.mark.parametrize("corrupt", MATRIX_CORRUPTIONS)
@pytest.mark.parametrize("field", ["action", "images", "unitaries"])
def test_malformed_matrix_list_keeps_its_message(corrupt, field):
    c, data = equivariant_data()
    items = {"action": data["module"]["action"], "images": data["phi"]["images"],
             "unitaries": data["unitaries"]}[field]
    corrupt(items[1])
    d = c.module.dim
    expected = itemwise_message("matrix", items, lambda x: ser.load_cmatrices(x, d, d))
    assert expected.startswith("matrix 1: ")
    with pytest.raises(ValidationError) as err:
        ser.load_equivariant(data)
    assert str(err.value) == expected


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("system", ["system_in", "system_out"])
def test_malformed_system_action_keeps_its_message(corrupt, system):
    c, data = equivariant_data()
    action = data[system]["action"]
    corrupt(action[1]["inverse"]["images"][2])
    images = action[1]["inverse"]["images"]
    # both systems' automorphisms are one section, system_in's first
    index = 1 if system == "system_in" else len(data["system_in"]["action"]) + 1
    named = f"automorphism {index}: star map 1: "
    expected = named + elementwise_message(AlgebraShape((2,)), images)
    with pytest.raises(ValidationError) as err:
        ser.load_equivariant(data)
    assert str(err.value) == expected


def test_system_star_map_with_a_wrong_image_count_keeps_its_message():
    _, data = equivariant_data()
    star_map = data["system_in"]["action"][2]["forward"]
    star_map["images"].pop()
    with pytest.raises(ValidationError) as err:
        ser.load_star_maps([star_map])
    alone = "star map needs one image per domain basis element"
    assert str(err.value) == f"star map 0: {alone}"
    with pytest.raises(ValidationError) as err:
        ser.load_equivariant(data)
    assert str(err.value) == f"automorphism 2: star map 0: {alone}"


def test_stacked_lists_load_what_the_items_load():
    c, data = equivariant_data()
    back = ser.load_equivariant(data)
    d = c.module.dim
    for items, loaded in ((data["module"]["action"], back.module.action),
                          (data["phi"]["images"], back.phi.images),
                          (data["unitaries"], np.array(back.unitaries))):
        assert loaded.tobytes() == np.array([ser.load_cmatrix(m, d, d) for m in items]).tobytes()
    for system, loaded in ((data["system_in"], back.system_in),
                           (data["system_out"], back.system_out)):
        for a, alpha in zip(system["action"], loaded.action, strict=True):
            forward, inverse = (ser.load_star_maps([a[k]])[0].matrix for k in ("forward", "inverse"))
            assert alpha.matrix.tobytes() == forward.tobytes()
            assert alpha.inverse_matrix.tobytes() == inverse.tobytes()


@pytest.mark.parametrize("which", ["random_representation", "left_multiplication"])
def test_representation_keeps_its_key_across_a_round_trip(which):
    # a generated representation and its payload twin are one map to the memo:
    # equal module keys and images give equal keys, whatever built the map
    if which == "random_representation":
        _, pi = random_representation(
            AlgebraShape((2,)), AlgebraShape((1, 2)), np.random.default_rng(3), max_dim=4
        )
    else:
        (pi,) = left_mult_correspondence([identity_star_map(AlgebraShape((2,)))], BuildMemo())
    F = ser.load_module(ser.dump_module(pi.module))
    twin = ser.load_cpmap(ser.dump_cpmap(pi, "F"), {"F": F})
    assert F.key == pi.module.key
    assert np.array_equal(twin.images, pi.images)
    assert twin.key == pi.key


# -- sizes and group entries are integers, not truncated ----------------------


@pytest.mark.parametrize("blocks", [[2.5], [1, 1.5], ["2"], [None], [float("nan")]])
def test_a_block_list_of_non_integers_is_rejected(blocks):
    # int() would truncate 2.5 to 2 and read "2" as 2
    with pytest.raises(ValidationError, match="bad algebra shape"):
        ser.load_shape(blocks)


def test_integral_sizes_load_as_their_integers():
    assert ser.load_shape([2.0, 1]) is ser.load_shape([2, 1])
    assert ser.load_shape([2.0, 1]).blocks == (2, 1)


def test_a_module_of_non_integral_dimension_is_rejected(rng):
    data = json.loads(json.dumps(ser.dump_module(random_module(AlgebraShape((2,)), rng, 3))))
    assert ser.load_module({**data, "dim": float(data["dim"])}).dim == data["dim"]
    with pytest.raises(ValidationError, match="not an integer"):
        ser.load_module({**data, "dim": data["dim"] + 0.9})


def fractional(data, field):
    """A copy of a dumped group with 0.5 added to one integer of `field`."""
    data = json.loads(json.dumps(data))
    if field in ("order", "identity"):
        data[field] += 0.5
    elif field == "table":
        data["table"][1][1] += 0.5
    else:
        data["inverse"][1] += 0.5
    return data


@pytest.mark.parametrize("field", ["order", "identity", "table", "inverse"])
def test_a_group_with_a_non_integral_entry_is_rejected(field):
    # int() and dtype=int would truncate the entry and load another group
    data = ser.dump_group(cyclic_group(3))
    with pytest.raises(ValidationError, match="not an integer"):
        ser.load_group(fractional(data, field))


def test_loaded_groups_are_one_read_only_group_per_content(monkeypatch):
    # a group's laws are checked on first sight, and each later load of the
    # same content is that group; other content is another group
    from ksgnslab import equivariant

    data = {**ser.dump_group(cyclic_group(5)), "name": "Z5 as loaded here"}
    checked, real = [], equivariant.FiniteGroup.__post_init__
    monkeypatch.setattr(equivariant.FiniteGroup, "__post_init__",
                        lambda G: checked.append(G.name) or real(G))
    first = ser.load_group(json.loads(json.dumps(data)))
    assert checked == ["Z5 as loaded here"]
    assert ser.load_group(json.loads(json.dumps(data))) is first and len(checked) == 1
    assert ser.load_group({**data, "name": "another"}) is not first and len(checked) == 2
    for array in (first.table, first.inverse):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    broken = {**data, "name": "Z5 with a broken table"}
    broken["table"] = [list(reversed(row)) for row in data["table"]]
    for _ in range(2):  # a group that fails its laws is not kept
        with pytest.raises(ValidationError):
            ser.load_group(broken)
