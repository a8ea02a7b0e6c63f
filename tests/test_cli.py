import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ent23 import ValidationError, run_verification
from ent23.cli import main
from ent23.sampling import CHUNK_STATES

STATES_DIR = Path(__file__).resolve().parent.parent / "states"

C_TRIPLE = 0.9428090415820634
E_TRIPLE = 0.9182958340544896

#: sha256 of ``ent23 sample --n N --seed S`` output, keyed by ``(N, S)``.  The
#: first two are the digests the benchmark pins; 1001 states cross the
#: sampler's chunk boundary and leave a remainder chunk.
GOLDEN_SAMPLE_DIGESTS = {
    (250, 42): "7a6ad4e4dd7d15db5e8631d2da4f56be40b15cee3d270fcde271253f452bf02f",
    (250, 20061): "e850525425a08d074e563a016eefe21cb1fd84b7415673e1b00ef49ccda41dc0",
    (1001, 7): "a002e8210a1166fb013be1bd040921a46fc32c01729909e811854922bcb4b206",
}

#: sha256 of ``ent23 verify --n N --seed S --format F`` stdout, keyed by
#: ``(N, S, F)``.  501 states leave a one-state remainder after a stack of
#: 500 (``CHUNK_STATES``), and 251 one after a stack of 250.
GOLDEN_VERIFY_DIGESTS = {
    (1000, 42, "text"): "733cae94ca7e2eec4969a49bafd555453ef49933459bd5bb99aa22449ed0cea9",
    (1000, 42, "json"): "c831e557a7c4e055c4989519c78552d65a411efaf59e0f553de41260941d1ff9",
    (251, 11, "text"): "1702bd45c743288b0616bd97e0e52487f39c724726a3ad0ccdd5dc70f1a182fa",
    (251, 11, "json"): "6a535260885fe5d72996271d0b9b474e837a2c37648a7f0f7f2a9e73f068d53f",
    (501, 11, "text"): "32336c889fdad1062ac0865d3cd32686b7d0b4fb0f98e5468425e91a8528ba7b",
    (501, 11, "json"): "39bc429a432a3bbe16e61797c6fd0073c52802249df7de5b760e59daba0049cf",
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_text_report(out):
    report = {}
    for line in out.strip().splitlines():
        name, value = line.split()
        report[name] = float(value)
    return report


def test_compute_product_file(capsys):
    code, out, err = run(["compute", str(STATES_DIR / "product_00.json")], capsys)
    assert code == 0 and err == ""
    report = parse_text_report(out)
    assert report["c_amplitude"] == 0.0
    assert report["eof"] == 0.0
    assert report["k1"] == 1.0


def test_compute_bell_file(capsys):
    code, out, _ = run(["compute", str(STATES_DIR / "bell_pair.json")], capsys)
    assert code == 0
    report = parse_text_report(out)
    for name in ("c_amplitude", "c_bloch", "c_schmidt", "eof", "vn_entropy_a"):
        assert abs(report[name] - 1.0) < 1e-10
    assert abs(report["v_norm"] - 0.5) < 1e-10


def test_compute_triple_file_text_and_json(capsys):
    path = str(STATES_DIR / "equal_triple.json")
    code, out, _ = run(["compute", path], capsys)
    assert code == 0
    report = parse_text_report(out)
    assert abs(report["c_amplitude"] - C_TRIPLE) < 1e-10
    assert abs(report["eof"] - E_TRIPLE) < 1e-10

    code, out, _ = run(["compute", path, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["c_schmidt"] - C_TRIPLE) < 1e-10
    assert abs(payload["vn_entropy_a"] - E_TRIPLE) < 1e-10


def test_compute_prints_12_significant_digits(capsys):
    _, out, _ = run(["compute", str(STATES_DIR / "equal_triple.json")], capsys)
    report = parse_text_report(out)
    assert abs(report["c_amplitude"] - C_TRIPLE) < 1e-14


def test_compute_missing_file_exits_2(capsys):
    code, _, err = run(["compute", "no_such_file.json"], capsys)
    assert code == 2
    assert "error:" in err


def test_compute_non_utf8_file_exits_2(tmp_path, capsys):
    state = tmp_path / "latin1.json"
    state.write_bytes('{"dims": [2, 2], "amplitudes": []} \u00e9'.encode("latin-1"))
    code, out, err = run(["compute", str(state)], capsys)
    assert code == 2 and out == ""
    assert "not valid UTF-8" in err


def test_compute_bad_dims_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [3, 3], "amplitudes": []}')
    code, _, err = run(["compute", str(bad)], capsys)
    assert code == 2
    assert "unsupported" in err


def test_compute_huge_integer_amplitude_exits_2(tmp_path, capsys):
    state = tmp_path / "huge.json"
    state.write_text('{"dims": [2, 2], "amplitudes": [[1%s, 0], [0, 0], [0, 0], [0, 0]]}'
                     % ("0" * 400))
    code, _, err = run(["compute", str(state)], capsys)
    assert code == 2
    assert "error:" in err and "finite" in err


#: A (2, 2) state file whose first entry is ``%s``.
_FIRST_ENTRY = '{"dims": [2, 2], "amplitudes": [%s, [0, 0], [0, 0], [0, 0]]}'

#: ``compute`` input errors: file bytes (None: the argument names no file)
#: and the exact stderr, recorded before the state-file reader was rewritten.
#: Each exits 2 with nothing on stdout.
COMPUTE_INPUT_ERRORS = {
    "missing": (None, "error: [Errno 2] No such file or directory: 'no/x.json'\n"),
    "directory": (None, "error: [Errno 21] Is a directory: 'statedir'\n"),
    "non_utf8_at_end": ('{"dims": [2, 2], "amplitudes": []} \u00e9'.encode("latin-1"),
                        "error: state file is not valid UTF-8: 'utf-8' codec can't decode "
                        "byte 0xe9 in position 35: unexpected end of data\n"),
    "non_utf8_past_8k": (b'{"dims": [2, 2],' + b" " * 10000 + b'\xff "amplitudes": []}',
                         "error: state file is not valid UTF-8: 'utf-8' codec can't decode "
                         "byte 0xff in position 10016: invalid start byte\n"),
    "utf8_bom": (b"\xef\xbb\xbf" + (_FIRST_ENTRY % "[1, 0]").encode(),
                 "error: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"),
    "true_part": ((_FIRST_ENTRY % "[true, 0]").encode(),
                  "error: amplitudes[0]: expected a [re, im] pair of numbers\n"),
    "string_part": ((_FIRST_ENTRY % '["1+2j", 0]').encode(),
                    "error: amplitudes[0]: expected a [re, im] pair of numbers\n"),
    "null_part": ((_FIRST_ENTRY % "[0, null]").encode(),
                  "error: amplitudes[0]: expected a [re, im] pair of numbers\n"),
    "one_element": ((_FIRST_ENTRY % "[1]").encode(),
                    "error: amplitudes[0]: expected a [re, im] pair of numbers\n"),
    "three_elements": ((_FIRST_ENTRY % "[1, 0, 0]").encode(),
                       "error: amplitudes[0]: expected a [re, im] pair of numbers\n"),
    "non_list_entry": ((_FIRST_ENTRY % "1").encode(),
                       "error: amplitudes[0]: expected a [re, im] pair of numbers\n"),
    "object_entry": ((_FIRST_ENTRY % '{"re": 1, "im": 0}').encode(),
                     "error: amplitudes[0]: expected a [re, im] pair of numbers\n"),
    "huge_int": ((_FIRST_ENTRY % ("[1" + "0" * 400 + ", 0]")).encode(),
                 "error: amplitudes[0]: values must be finite\n"),
    "huge_negative_int_imag": ((_FIRST_ENTRY % ("[0, -1" + "0" * 400 + "]")).encode(),
                               "error: amplitudes[0]: values must be finite\n"),
    "nan": ((_FIRST_ENTRY % "[NaN, 0]").encode(),
            "error: amplitudes[0]: values must be finite\n"),
    "minus_infinity": ((_FIRST_ENTRY % "[0, -Infinity]").encode(),
                       "error: amplitudes[0]: values must be finite\n"),
    # The first bad entry is reported; within one, its type before its value.
    "nan_before_bad_entry": (b'{"dims": [2, 2], '
                             b'"amplitudes": [[0, 0], [NaN, 0], [true, 0], [0, 0]]}',
                             "error: amplitudes[1]: values must be finite\n"),
    "bad_type_beside_nan": ((_FIRST_ENTRY % "[NaN, true]").encode(),
                            "error: amplitudes[0]: expected a [re, im] pair of numbers\n"),
    "wrong_pair_count": (b'{"dims": [2, 3], '
                         b'"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}',
                         "error: 'amplitudes' must contain 6 pairs, got 5\n"),
    "dims_3_3": (b'{"dims": [3, 3], "amplitudes": []}',
                 "error: dims [3, 3] unsupported; expected [2, 2] or [2, 3]\n"),
    "float_dims": (b'{"dims": [2.0, 3], "amplitudes": []}',
                   "error: 'dims' must be a pair of integers\n"),
    "bool_dims": (b'{"dims": [true, 3], "amplitudes": []}',
                  "error: 'dims' must be a pair of integers\n"),
    "missing_dims": (b'{"amplitudes": []}', "error: missing field 'dims'\n"),
    "missing_amplitudes": (b'{"dims": [2, 3]}', "error: missing field 'amplitudes'\n"),
    "amplitudes_not_array": (b'{"dims": [2, 2], "amplitudes": {}}',
                             "error: 'amplitudes' must be an array\n"),
    "top_level_array": (b"[[1, 0], [0, 0], [0, 0], [0, 0]]",
                        "error: top level must be a JSON object\n"),
    "syntax": (b'{\n  "dims": [2, 3],,\n}',
               "error: line 2, column 18: Expecting property name enclosed in double quotes\n"),
    "empty": (b"", "error: line 1, column 1: Expecting value\n"),
    "unnormalized": ((_FIRST_ENTRY % "[0.5, 0]").encode(),
                     "error: state is not normalized: sum of |a|^2 is 0.25\n"),
}


@pytest.mark.parametrize("case", sorted(COMPUTE_INPUT_ERRORS))
def test_compute_input_error_stderr_and_exit_code(tmp_path, monkeypatch, capsys, case):
    data, expected = COMPUTE_INPUT_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "statedir").mkdir()
    if case == "missing":
        # OSError prints the name as pathlib normalizes it.
        path = "./no//x.json"
    elif case == "directory":
        path = "statedir"
    else:
        path = "state.json"
        (tmp_path / path).write_bytes(data)
    assert run(["compute", path], capsys) == (2, "", expected)


@pytest.mark.parametrize("opener, closer", ((b"[", b"]"), (b'{"a":', b"}")))
def test_compute_deeply_nested_file_exits_2(tmp_path, capsys, opener, closer):
    # json.loads raises RecursionError here; exit 1 would mean "verification failed".
    state = tmp_path / "nested.json"
    state.write_bytes(opener * 100000 + b"0" + closer * 100000)
    expected = (2, "", "error: state file is nested too deeply\n")
    assert run(["compute", str(state)], capsys) == expected


def test_compute_unnormalized_needs_flag(tmp_path, capsys):
    state = tmp_path / "loose.json"
    state.write_text(json.dumps({
        "dims": [2, 3],
        "amplitudes": [[0.57735, 0.0], [0.0, 0.0], [0.0, 0.0],
                       [0.0, 0.0], [0.57735, 0.0], [0.57735, 0.0]],
    }))
    code, _, err = run(["compute", str(state)], capsys)
    assert code == 2 and "normalized" in err
    code, out, _ = run(["compute", str(state), "--renormalize"], capsys)
    assert code == 0
    assert abs(parse_text_report(out)["c_amplitude"] - C_TRIPLE) < 1e-5


def test_compute_overflowing_norm_prints_one_error_line(tmp_path):
    # A separate interpreter, so that a NumPy RuntimeWarning would reach stderr.
    state = tmp_path / "huge.json"
    state.write_text('{"dims": [2, 2], "amplitudes": [[1e200, 0], [0, 0], [0, 0], [0, 0]]}')
    result = subprocess.run([sys.executable, "-m", "ent23", "compute", str(state)],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: state is not normalized: sum of |a|^2 is inf\n"


@pytest.mark.parametrize("amplitude", ("1e200", "1e-200", "1e-310"))
def test_compute_renormalizes_huge_and_tiny_amplitudes(tmp_path, capsys, amplitude):
    # Squaring these overflowed the norm or underflowed it to zero.
    state = tmp_path / "scaled.json"
    state.write_text('{"dims": [2, 2], "amplitudes": [[%s, 0], [0, 0], [0, 0], [%s, 0]]}'
                     % (amplitude, amplitude))
    code, out, err = run(["compute", str(state), "--renormalize"], capsys)
    assert code == 0, err
    assert parse_text_report(out)["c_amplitude"] == 1.0


def test_verify_passes_and_exits_0(capsys):
    code, out, _ = run(["verify", "--n", "200", "--seed", "42"], capsys)
    assert code == 0
    assert "overall: pass" in out


def test_verify_single_state_runs(capsys):
    code, out, _ = run(["verify", "--n", "1", "--seed", "1"], capsys)
    assert code == 0
    assert "overall: pass" in out


def test_verify_zero_tolerance_fails(capsys):
    code, out, _ = run(["verify", "--n", "50", "--seed", "42", "--tol", "0"],
                       capsys)
    assert code == 1
    assert "overall: FAIL" in out


def test_verify_json_format(capsys):
    code, out, _ = run(["verify", "--n", "50", "--seed", "3",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] is True
    names = {check["name"] for check in payload["checks"]}
    assert "concurrence-amplitude-vs-schmidt" in names
    assert "max-u-v-norm-gap" in payload["observations"]


def test_verify_rejects_bad_arguments(tmp_path, capsys):
    # The library's own checks reject the count and the tolerance: one error
    # line, exit 2, and a rejected sample count opens no output file.
    path = tmp_path / "never.csv"
    for argv in (["verify", "--n", "0"], ["verify", "--tol", "-1"], ["verify", "--tol", "nan"],
                 ["verify", "--tol", "inf"], ["sample", "--n", "0", "--out", str(path)]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert not path.exists()


@pytest.mark.parametrize("tol", (-1.0, math.nan, math.inf, True, np.True_, "1e-10", None))
def test_run_verification_rejects_bad_tolerance(tol):
    with pytest.raises(ValidationError, match="tol"):
        run_verification(n_states=1, tol=tol)


def test_run_verification_rejects_a_bool_state_count():
    # True passes operator.index as 1; it must not run a one-state suite.
    with pytest.raises(ValidationError, match="n_states must be an integer, got True"):
        run_verification(n_states=True)


def test_run_verification_rejects_a_bool_seed():
    # True passes operator.index as 1; it must not run the seed-1 suite.
    with pytest.raises(ValidationError, match="seed must be an integer, got True"):
        run_verification(seed=True)


def test_sample_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sample", "--n", "20", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["sample", "--n", "20", "--seed", "7", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_csv_shape_and_ranges(tmp_path, capsys):
    path = tmp_path / "ensemble.csv"
    assert main(["sample", "--n", "50", "--seed", "9", "--out", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[0] == "index,c,eof,u_norm,v_norm,k1,k2"
    assert len(lines) == 51
    for index, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == index
        c, eof, u_norm, v_norm, k1, k2 = map(float, fields[1:])
        assert 0.0 <= c <= 1.0
        assert 0.0 <= eof <= 1.0
        assert k1 >= k2 >= 0.0
        assert abs(k1 ** 2 + k2 ** 2 - 1.0) < 1e-10


@pytest.mark.parametrize("x", (0.0, -0.0, 5e-324, 1e16, 1e-5, 1.0 - 2.0 ** -53, 0.1))
def test_csv_percent_format_equals_format(x):
    assert "%.12g" % x == format(x, ".12g")


def test_sample_indices_run_across_chunks(capsys):
    # CHUNK_STATES + 1 states are two chunks, a full one and one state.
    n = CHUNK_STATES + 1
    code, out, _ = run(["sample", "--n", str(n), "--seed", "3"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(n))


def test_sample_to_stdout(capsys):
    code, out, _ = run(["sample", "--n", "3", "--seed", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,c,eof,u_norm,v_norm,k1,k2"
    assert len(lines) == 4


def test_sample_unwritable_path_exits_2(capsys):
    code, _, err = run(["sample", "--n", "1", "--out", "/no/such/dir/out.csv"],
                       capsys)
    assert code == 2
    assert "error:" in err


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ent23", "sample", "--n", "2", "--seed", "5"],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("index,c,eof")


@pytest.mark.parametrize(("n", "seed"), sorted(GOLDEN_SAMPLE_DIGESTS))
def test_sample_matches_golden_digest(tmp_path, capsys, n, seed):
    path = tmp_path / "sample.csv"
    assert main(["sample", "--n", str(n), "--seed", str(seed), "--out", str(path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_SAMPLE_DIGESTS[(n, seed)]


@pytest.mark.parametrize(("n", "seed", "fmt"), sorted(GOLDEN_VERIFY_DIGESTS))
def test_verify_matches_golden_digest(capsys, n, seed, fmt):
    code, out, _ = run(["verify", "--n", str(n), "--seed", str(seed), "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_DIGESTS[(n, seed, fmt)]


def test_sample_stdout_bytes_equal_file_bytes(tmp_path):
    path = tmp_path / "sample.csv"
    argv = [sys.executable, "-m", "ent23", "sample", "--n", "501", "--seed", "11"]
    to_file = subprocess.run(argv + ["--out", str(path)], capture_output=True, check=False)
    to_stdout = subprocess.run(argv + ["--out", "-"], capture_output=True, check=False)
    assert to_file.returncode == 0 and to_file.stdout == b""
    assert to_stdout.returncode == 0
    assert to_stdout.stdout == path.read_bytes()


_USAGE = "usage: ent23 [-h] {compute,verify,sample} ...\n"
_COMPUTE_USAGE = "usage: ent23 compute [-h] [--format {text,json}] [--renormalize] state_file\n"
_SAMPLE_USAGE = "usage: ent23 sample [-h] [--n N] [--seed SEED] [--out OUT]\n"
_VERIFY_USAGE = ("usage: ent23 verify [-h] [--n N] [--seed SEED] [--tol TOL]\n"
                 "                    [--format {text,json}]\n")

#: ``sys.argv`` for the ``main(None)`` case.
_SYS_ARGV = ["ent23", "sample", "--n", "2", "--seed", "zz"]

#: Exit code, stdout and stderr of ``main(argv)`` at 80 columns, recorded with
#: CPython 3.11 while ``main`` still parsed every command through the
#: top-level parser.  ``None`` reads :data:`_SYS_ARGV`.
CLI_BYTES = [
    pytest.param([], 2, "", _USAGE + "ent23: error: the following arguments are required: "
                 "command\n", id="no-arguments"),
    pytest.param(["--help"], 0, _USAGE + (
        "\n"
        "Entanglement measures for qubit-qubit and qubit-qutrit pure states, cross-\n"
        "verified along independent routes.\n"
        "\n"
        "positional arguments:\n"
        "  {compute,verify,sample}\n"
        "    compute             print the measure report for a state file\n"
        "    verify              run the cross-formula verification suite\n"
        "    sample              write a CSV of measures over a random ensemble\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"), "", id="--help"),
    pytest.param(["compute", "--help"], 0, _COMPUTE_USAGE + (
        "\n"
        "positional arguments:\n"
        "  state_file            path to a JSON state file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,json}\n"
        "  --renormalize         rescale amplitudes to unit norm before use\n"), "",
        id="compute --help"),
    pytest.param(["sample", "-h"], 0, _SAMPLE_USAGE + (
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --n N        number of states (default 100)\n"
        "  --seed SEED  ensemble seed (default 42)\n"
        "  --out OUT    output path, '-' for standard output\n"), "", id="sample -h"),
    pytest.param(["verify", "--help"], 0, _VERIFY_USAGE + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N                 number of random states (default 1000)\n"
        "  --seed SEED           ensemble seed (default 42)\n"
        "  --tol TOL             tolerance for the floating-point checks (default\n"
        "                        1e-10)\n"
        "  --format {text,json}\n"), "", id="verify --help"),
    pytest.param(["nosuch"], 2, "", _USAGE + "ent23: error: argument command: invalid choice: "
                 "'nosuch' (choose from 'compute', 'verify', 'sample')\n", id="nosuch"),
    pytest.param(["-x"], 2, "", _USAGE + "ent23: error: the following arguments are required: "
                 "command\n", id="-x"),
    pytest.param(["compute"], 2, "", _COMPUTE_USAGE + "ent23 compute: error: the following "
                 "arguments are required: state_file\n", id="compute"),
    pytest.param(["sample", "--n", "x"], 2, "", _SAMPLE_USAGE + "ent23 sample: error: "
                 "argument --n: invalid int value: 'x'\n", id="sample --n x"),
    pytest.param(["verify", "--format", "xml"], 2, "", _VERIFY_USAGE + "ent23 verify: error: "
                 "argument --format: invalid choice: 'xml' (choose from 'text', 'json')\n",
                 id="verify --format xml"),
    # Arguments a command leaves over are reported under that command's usage.
    pytest.param(["compute", "missing.json", "--bogus"], 2, "", _COMPUTE_USAGE + "ent23 compute: "
                 "error: unrecognized arguments: --bogus\n", id="compute F --bogus"),
    pytest.param(["verify", "--n", "5", "stray"], 2, "", _VERIFY_USAGE + "ent23 verify: error: "
                 "unrecognized arguments: stray\n", id="verify --n 5 stray"),
    pytest.param(None, 2, "", _SAMPLE_USAGE + "ent23 sample: error: argument --seed: "
                 "invalid int value: 'zz'\n", id="sys.argv"),
]


@pytest.mark.parametrize(("argv", "code", "out", "err"), CLI_BYTES)
def test_help_usage_and_error_bytes(monkeypatch, capsys, argv, code, out, err):
    # argparse wraps help to the terminal width, which it reads from COLUMNS first.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", _SYS_ARGV)
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err)
