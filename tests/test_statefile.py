import json
import math
from pathlib import Path

import numpy as np
import pytest

import ent23.statefile
from ent23 import (
    PureState,
    RandomStream,
    StateFileError,
    UnsupportedDimensionError,
    ValidationError,
    haar_random,
    parse_state_file,
    render_state_file,
)

STATES_DIR = Path(__file__).resolve().parent.parent / "states"


def test_parse_golden_product_file():
    psi = parse_state_file((STATES_DIR / "product_00.json").read_text())
    expected = np.zeros((2, 3))
    expected[0, 0] = 1.0
    assert np.array_equal(psi.amplitudes, expected)


def test_parse_golden_bell_file():
    psi = parse_state_file((STATES_DIR / "bell_pair.json").read_text())
    assert abs(psi.amplitudes[0, 0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(psi.amplitudes[1, 1] - 1 / math.sqrt(2)) < 1e-15


def test_parse_golden_triple_file():
    psi = parse_state_file((STATES_DIR / "equal_triple.json").read_text())
    third = 1 / math.sqrt(3)
    assert abs(psi.amplitudes[0, 0] - third) < 1e-15
    assert abs(psi.amplitudes[1, 1] - third) < 1e-15
    assert abs(psi.amplitudes[1, 2] - third) < 1e-15


def test_parse_accepts_bytes():
    text = (STATES_DIR / "product_00.json").read_text()
    psi = parse_state_file(text.encode("utf-8"))
    assert psi.d_b == 3


@pytest.mark.parametrize("wrap", (bytearray, memoryview), ids=("bytearray", "memoryview"))
def test_parse_accepts_bytes_like_input(wrap):
    data = (STATES_DIR / "bell_pair.json").read_bytes()
    assert parse_state_file(wrap(data)).amplitudes.tobytes() == \
        parse_state_file(data).amplitudes.tobytes()


@pytest.mark.parametrize("text", (5, None, 1.5, ["{}"]), ids=("int", "none", "float", "list"))
def test_parse_rejects_input_that_is_neither_str_nor_bytes(text):
    with pytest.raises(StateFileError, match="must be str or bytes"):
        parse_state_file(text)


@pytest.mark.parametrize("wrap", (bytes, bytearray, memoryview),
                         ids=("bytes", "bytearray", "memoryview"))
def test_parse_decodes_every_bytes_like_input_as_utf8(wrap):
    text = (STATES_DIR / "bell_pair.json").read_text()
    with pytest.raises(StateFileError, match="not valid UTF-8"):
        parse_state_file(wrap(text.encode("utf-16")))


def test_parse_two_qubit_file():
    payload = {"dims": [2, 2],
               "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    psi = parse_state_file(json.dumps(payload))
    assert psi.amplitudes.shape == (2, 2)


def test_parse_rejects_unsupported_dims():
    payload = {"dims": [3, 3], "amplitudes": [[1.0, 0.0]] * 9}
    with pytest.raises(UnsupportedDimensionError):
        parse_state_file(json.dumps(payload))


def test_parse_reports_syntax_position():
    with pytest.raises(StateFileError, match=r"line 2, column"):
        parse_state_file('{\n  "dims": [2, 3],,\n}')


def test_parse_rejects_missing_fields():
    with pytest.raises(StateFileError, match="amplitudes"):
        parse_state_file('{"dims": [2, 3]}')
    with pytest.raises(StateFileError, match="dims"):
        parse_state_file('{"amplitudes": []}')


def test_parse_rejects_bad_entry_shape():
    payload = {"dims": [2, 3],
               "amplitudes": [[1.0, 0.0]] * 5 + [[1.0]]}
    with pytest.raises(StateFileError, match=r"amplitudes\[5\]"):
        parse_state_file(json.dumps(payload))


def test_parse_rejects_string_complex():
    payload = {"dims": [2, 3],
               "amplitudes": [["1+2j", 0.0]] + [[0.0, 0.0]] * 5}
    with pytest.raises(StateFileError):
        parse_state_file(json.dumps(payload))


@pytest.mark.parametrize("value", ("1" + "0" * 400, "NaN", "-Infinity"))
def test_parse_rejects_values_outside_the_float_range(value):
    # An int too large for a float must not escape as OverflowError.
    text = '{"dims": [2, 2], "amplitudes": [[%s, 0], [0, 0], [0, 0], [0, 0]]}' % value
    with pytest.raises(StateFileError, match="finite"):
        parse_state_file(text)


def test_parse_rejects_wrong_length():
    payload = {"dims": [2, 3], "amplitudes": [[1.0, 0.0]] * 5}
    with pytest.raises(StateFileError, match="6 pairs"):
        parse_state_file(json.dumps(payload))


def test_parse_norm_violation_needs_renormalize():
    payload = {"dims": [2, 3],
               "amplitudes": [[0.57735, 0.0], [0.0, 0.0], [0.0, 0.0],
                              [0.0, 0.0], [0.57735, 0.0], [0.57735, 0.0]]}
    text = json.dumps(payload)
    with pytest.raises(ValidationError):
        parse_state_file(text)
    psi = parse_state_file(text, renormalize=True)
    assert abs(np.linalg.norm(psi.vector()) - 1.0) < 1e-15
    assert abs(psi.amplitudes[0, 0] - 1 / math.sqrt(3)) < 1e-12


def test_renormalize_rejects_zero_vector():
    payload = {"dims": [2, 3], "amplitudes": [[0.0, 0.0]] * 6}
    with pytest.raises(StateFileError):
        parse_state_file(json.dumps(payload), renormalize=True)


def test_render_parse_round_trip():
    stream = RandomStream(41)
    for _ in range(25):
        psi = haar_random((2, 3), stream)
        again = parse_state_file(render_state_file(psi))
        assert np.max(np.abs(again.amplitudes - psi.amplitudes)) < 1e-12


def test_render_round_trip_is_exact():
    psi = haar_random((2, 2), RandomStream(42))
    again = parse_state_file(render_state_file(psi))
    assert np.array_equal(again.amplitudes, psi.amplitudes)


def test_rendered_file_is_schema_shaped():
    psi = PureState(np.array([[1, 0, 0], [0, 0, 0]], dtype=complex))
    payload = json.loads(render_state_file(psi))
    assert payload["dims"] == [2, 3]
    assert len(payload["amplitudes"]) == 6
    assert payload["amplitudes"][0] == [1.0, 0.0]


def test_parse_rounds_each_part_as_complex_does(monkeypatch):
    # The reader builds its array with one np.array call; each part must get
    # the bits complex(re, im) gives it, for ints beyond 2**53 and 2**64 too.
    parts = [[2 ** 53 + 1, -0.0], [-(2 ** 64 + 1), 10 ** 300], [0, -0], [5e-324, -1e-310],
             [3, 0.1], [-(10 ** 308), 2 ** 1023]]
    built = []
    monkeypatch.setattr(ent23.statefile, "PureState", built.append)
    parse_state_file(json.dumps({"dims": [2, 3], "amplitudes": parts}))
    expected = np.array([complex(re, im) for re, im in parts]).reshape(2, 3)
    assert built[0].shape == (2, 3) and built[0].dtype == expected.dtype
    assert built[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("depth", (10 ** 5, 10 ** 6))
def test_parse_rejects_deep_nesting_as_a_state_file_error(depth):
    with pytest.raises(StateFileError, match="nested too deeply"):
        parse_state_file("[" * depth + "]" * depth)
