"""Fuzzed input: every public call returns a value or raises a package error.

One hypothesis test draws, per example, one target and its arguments:

- a callable that the package root imports, or ``linalg.require_finite`` or
  ``linalg.require_hermitian``, with every array and scalar parameter drawn
  from scalars of every kind, arrays of every dtype and shape (long doubles
  too, where they are wider than a double), ragged and mixed lists, and
  valid arrays made extreme (beyond the float range too), strided,
  read-only or listed, and every parameter that takes a package object
  drawn from valid objects, package objects of another type and those
  arrays and scalars;
- or ``cli.main``, on fuzzed argv or on a fuzzed state file written under
  ``tmp_path``.

The contract: a call returns, or raises ``ValidationError``,
``StateFileError`` or ``ConsistencyError`` (which ``decompose`` raises for
a raw non-Hermitian matrix), and no warning escapes.  A CLI run exits 0, 1
or 2, prints no traceback, and prints nothing to stdout when it exits 2.

Kept out of the draw: a count parameter gets only a small or an invalid
value, never a large valid one (``next_gaussian(10**12)`` would allocate
terabytes); ``require_hermitian``'s ``tol`` and each check's ``what`` are
the caller's settings; the record types (``EntanglementReport``, ``SchmidtForm``,
``CheckResult``, ``VerifyOutcome``) and the exception classes store their
arguments unchecked.  The draw is derandomized and the example count fixed,
so every run calls the same inputs.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ent23
from ent23 import (CoherenceDecomposition, ConsistencyError, DensityMatrix, PureState,
                   RandomStream, StateFileError, ValidationError, cli, decompose, haar_random,
                   random_unitary, reduced_a, reduced_b, schmidt_decompose, schmidt_pair_state)
from ent23.linalg import require_finite, require_hermitian

PACKAGE_ERRORS = (ValidationError, StateFileError, ConsistencyError)
STATES_DIR = Path(__file__).resolve().parent.parent / "states"

# Valid package objects, one state and a stack of each shape.
_STREAM = RandomStream(7)
STATES = (schmidt_pair_state(0.8), schmidt_pair_state(1.0, 2), haar_random((2, 3), _STREAM, 3),
          haar_random((2, 2), _STREAM, 2))
DENSITIES = tuple(f(psi.density()) for psi in STATES[::2] for f in (lambda r: r, reduced_a,
                                                                      reduced_b))
CODEC = tuple(decompose(psi.density()) for psi in STATES)
FORMS = tuple(schmidt_decompose(psi) for psi in STATES)

# Valid arrays of each parameter's shape, which the variants below perturb.
VALID = (
    *(psi.amplitudes for psi in STATES),
    *(rho.matrix for rho in DENSITIES),
    *(array for coeffs in CODEC for array in (coeffs.u, coeffs.v, coeffs.beta)),
    np.eye(2), np.eye(3), random_unitary(2, _STREAM, 3), random_unitary(3, _STREAM, 2),
    np.array([1.0, 0.0]), np.array([0.6, 0.8j]), np.array([1.0, 0.0, 0.0]),
    np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [-1.0, 0.0]]),
    np.array([[0.6, 0.8], [1.0, 0.0]]),
    np.array([0.0, 0.5, 1.0]),
)

INTS = st.one_of(st.integers(), st.sampled_from([2**63, 2**64, -2**63 - 1, 10**400, -10**400]))
NON_INTEGERS = st.one_of(
    st.none(), st.booleans(), st.floats(), st.complex_numbers(), st.fractions(),
    st.decimals(), st.text(max_size=4), st.binary(max_size=4),
    st.sampled_from([np.float64(np.nan), np.float32(1e30), np.float16(np.inf),
                     np.complex64(1j), np.bool_(True), np.str_("1"), 0.5 + 0j]),
)
SCALARS = st.one_of(INTS, NON_INTEGERS, st.sampled_from([np.int64(-1), np.uint64(2**64 - 1)]))

SHAPES = st.one_of(
    st.sampled_from([(2, 2), (2, 3), (3, 2, 3), (2, 2, 2), (3, 3), (6, 6), (2, 6, 6), (2,),
                     (3,), (8,), (3, 8), (2, 3, 8), (0, 2, 3), (0, 6, 6)]),
    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
)
# Long doubles, where they are wider than a double.
LONG_DOUBLES = ([np.longdouble, np.clongdouble]
                if np.finfo(np.longdouble).max > np.finfo(float).max else [])
NUMERIC_DTYPES = st.sampled_from([bool, np.int8, np.int64, np.uint8, np.uint64, np.float16,
                                  np.float32, np.float64, np.complex64, np.complex128,
                                  *LONG_DOUBLES])
OTHER_DTYPES = st.sampled_from(["U2", "S2", "M8[s]", "m8[s]"])


def _variant(array, how, factor):
    """``array`` perturbed one way; NumPy's own warnings here are not under test."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if how == "scaled":
            return array * factor
        if how == "strided":  # the same values, not contiguous
            return np.repeat(array, 2, axis=-1)[..., ::2]
        if how == "read-only":
            array = array.copy()
            array.setflags(write=False)
            return array
        if how == "fortran":
            return np.asfortranarray(array)
        if how == "complex64":
            return array.astype(np.complex64)
        if how == "entry":  # one entry replaced
            array = array.astype(np.result_type(array, factor))
            array.flat[0] = factor
            return array
        if how == "beyond-double":  # one entry a long double beyond the float range
            array = array.astype(np.result_type(array, np.longdouble))
            array.flat[0] = np.longdouble("1e4000")
            return array
        return array.tolist()


VARIANTS = st.builds(_variant, st.sampled_from(VALID),
                     st.sampled_from(["as-is", "scaled", "strided", "read-only", "fortran",
                                      "complex64", "entry", "listed"]
                                     + (["beyond-double"] if LONG_DOUBLES else [])),
                     st.one_of(st.floats(), st.complex_numbers(),
                               st.sampled_from([1.7e308, 1e300, 1e-300])))
ARRAYS = st.one_of(
    hnp.arrays(NUMERIC_DTYPES, SHAPES),
    hnp.arrays(OTHER_DTYPES, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3)),
    VARIANTS,
    st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=8),
)
VALUES = st.one_of(ARRAYS, SCALARS)
# Small or invalid counts only (module notes).
COUNTS = st.one_of(st.integers(-3, 4), NON_INTEGERS,
                   hnp.arrays(st.sampled_from([np.float64, "U2"]),
                              hnp.array_shapes(min_dims=0, max_dims=1, max_side=2)))
DIMS = st.one_of(st.sampled_from([(2, 3), (2, 2), [2, 3], (3, 2), (2,), (2, 3, 1), "23",
                                  np.array([2, 3]), (2.0, 3.0), (True, 3)]),
                 SCALARS, st.lists(SCALARS, max_size=3))


_LEAVES = st.one_of(st.none(), st.booleans(), INTS, st.floats(), st.text(max_size=3))
JSON_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=10)
_PAIRS = st.lists(st.one_of(st.floats(), INTS, JSON_VALUES), min_size=2, max_size=2)
_PAYLOADS = st.fixed_dictionaries({
    "dims": st.one_of(st.sampled_from([[2, 3], [2, 2], [3, 2], [2]]), JSON_VALUES),
    "amplitudes": st.one_of(st.lists(_PAIRS, min_size=4, max_size=6), JSON_VALUES)})
# State-file contents: the files in states/, schema-shaped JSON or not, and bytes.
STATE_TEXT = st.one_of(
    st.sampled_from([path.read_bytes() for path in sorted(STATES_DIR.glob("*.json"))]),
    st.binary(max_size=40),
    st.builds(lambda value, encoding: json.dumps(value).encode(encoding),
              st.one_of(_PAYLOADS, JSON_VALUES), st.sampled_from(["utf-8", "utf-16"])),
    st.sampled_from([b"[" * 100000, b'{"dims": [2, 3], "dims": [2, 2]}']),
)


# Each library target: the callable and a strategy per argument.  An object
# parameter gets a valid object, or any package object, array or scalar.
_WRONG_OBJECTS = st.one_of(st.sampled_from(STATES + DENSITIES + CODEC + FORMS), VALUES)
OBJECTS = {kind: st.one_of(st.sampled_from(valid), _WRONG_OBJECTS)
           for kind, valid in (("state", STATES), ("density", DENSITIES), ("codec", CODEC),
                               ("form", FORMS))}
CALLS = {
    "PureState": (PureState, (VALUES,)),
    "DensityMatrix": (DensityMatrix, (VALUES,)),
    "CoherenceDecomposition": (CoherenceDecomposition, (VALUES, VALUES, VALUES)),
    "decompose": (decompose, (st.one_of(VALUES, OBJECTS["density"]),)),
    "reconstruct": (ent23.reconstruct, (OBJECTS["codec"],)),
    "reduced_a": (reduced_a, (OBJECTS["density"],)),
    "reduced_b": (reduced_b, (OBJECTS["density"],)),
    "hermitian_eig2": (ent23.hermitian_eig2, (VALUES,)),
    "hermitian_eig3": (ent23.hermitian_eig3, (VALUES,)),
    "hermitian_eigvecs2": (ent23.hermitian_eigvecs2, (VALUES,)),
    "require_finite": (require_finite, (VALUES,)),
    "require_hermitian": (require_hermitian, (VALUES,)),
    "binary_entropy": (ent23.binary_entropy, (VALUES,)),
    "eof_from_concurrence": (ent23.eof_from_concurrence, (VALUES,)),
    "concurrence_amplitudes": (ent23.concurrence_amplitudes, (OBJECTS["state"],)),
    "concurrence_bloch": (ent23.concurrence_bloch,
                          (st.one_of(OBJECTS["state"], OBJECTS["codec"]),)),
    "concurrence_schmidt": (ent23.concurrence_schmidt, (OBJECTS["form"],)),
    "full_report": (ent23.full_report, (OBJECTS["state"],)),
    "schmidt_decompose": (schmidt_decompose, (OBJECTS["state"],)),
    "von_neumann_entropy": (ent23.von_neumann_entropy, (OBJECTS["density"],)),
    "RandomStream.next_gaussian": (lambda seed, counter, n: RandomStream(seed, counter)
                                   .next_gaussian(n), (SCALARS, SCALARS, COUNTS)),
    "haar_random": (lambda dims, n: haar_random(dims, RandomStream(1), n),
                    (DIMS, st.one_of(st.none(), COUNTS))),
    "random_unitary": (lambda dim, n: random_unitary(dim, RandomStream(1), n),
                       (COUNTS, st.one_of(st.none(), COUNTS))),
    "product_state": (ent23.product_state, (VALUES, VALUES)),
    "rotate_local": (ent23.rotate_local, (OBJECTS["state"], VALUES, VALUES)),
    "schmidt_pair_state": (schmidt_pair_state, (st.one_of(SCALARS, st.floats(0.7, 1.0)),
                                                st.one_of(SCALARS, st.sampled_from([2, 3])))),
    "parse_state_file": (ent23.parse_state_file,
                         (st.one_of(STATE_TEXT, STATE_TEXT.map(bytearray),
                                    STATE_TEXT.map(memoryview), VALUES), SCALARS)),
    "render_state_file": (ent23.render_state_file, (OBJECTS["state"],)),
    "run_verification": (ent23.run_verification, (COUNTS, SCALARS, SCALARS)),
}

OPTION_VALUES = {
    "--n": st.integers(-3, 4).map(str),
    "--seed": st.one_of(INTS.map(str), st.sampled_from(["-1", "0x10", "1e3"])),
    "--tol": st.one_of(st.floats().map(repr), st.sampled_from(["1e-10", "-0.0", "1e999"])),
    "--format": st.sampled_from(["text", "json", "csv"]),
    "--out": st.sampled_from(["-", "out.csv", ".", "", "missing/out.csv"]),
}
OPTIONS = sorted(OPTION_VALUES) + ["--renormalize", "--help"]
# No junk token holds a digit of any script, so none is a large valid --n.
JUNK = st.one_of(st.sampled_from(["", "-", "--", "--bogus", "-x", "-h", "nan", "state.json"]),
                 st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=4))


@st.composite
def cli_argv(draw):
    """A command, its state path, options of any command, and maybe junk."""
    command = draw(st.sampled_from(["compute", "verify", "sample", "nosuch", "--help"]))
    argv = [command]
    if command == "compute":
        argv.append(draw(st.sampled_from(["state.json", "missing.json", "."])))
    for option in draw(st.lists(st.sampled_from(OPTIONS), max_size=3)):
        argv += [option, draw(OPTION_VALUES[option])] if option in OPTION_VALUES else [option]
    return argv + draw(st.lists(JUNK, max_size=1))


STATE_FILE_ARGV = st.lists(st.sampled_from(["--renormalize", "--format=json"]), max_size=2).map(
    lambda flags: ["compute", "state.json"] + flags)
# The CLI targets are listed more than once, for a larger share of the draw.
TARGETS = sorted(CALLS) + ["cli argv"] * 4 + ["cli state file"] * 2


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", (argv, out.getvalue())


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_input_returns_a_value_or_raises_a_package_error(data, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where --out writes and state paths resolve
    target = data.draw(st.sampled_from(TARGETS), label="target")
    if target in CALLS:
        call, params = CALLS[target]
        args = [data.draw(param, label=f"arg {i}") for i, param in enumerate(params)]
    else:
        (tmp_path / "state.json").write_bytes(data.draw(STATE_TEXT, label="state file"))
        argv = data.draw(cli_argv() if target == "cli argv" else STATE_FILE_ARGV, label="argv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if target in CALLS:
            try:
                call(*args)
            except PACKAGE_ERRORS:
                pass
        else:
            _run_cli(argv)
