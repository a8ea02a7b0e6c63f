import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from ent23 import ValidationError, run_verification
from ent23.cli import main

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
#: ``(N, S, F)``; 251 states leave a one-state remainder chunk.
GOLDEN_VERIFY_DIGESTS = {
    (1000, 42, "text"): "733cae94ca7e2eec4969a49bafd555453ef49933459bd5bb99aa22449ed0cea9",
    (1000, 42, "json"): "c831e557a7c4e055c4989519c78552d65a411efaf59e0f553de41260941d1ff9",
    (251, 11, "text"): "1702bd45c743288b0616bd97e0e52487f39c724726a3ad0ccdd5dc70f1a182fa",
    (251, 11, "json"): "6a535260885fe5d72996271d0b9b474e837a2c37648a7f0f7f2a9e73f068d53f",
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


def test_verify_rejects_bad_arguments():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--n", "0"])
    assert excinfo.value.code == 2
    for tol in ("-1", "nan", "inf"):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--tol", tol])
        assert excinfo.value.code == 2, tol


@pytest.mark.parametrize("tol", (-1.0, math.nan, math.inf))
def test_run_verification_rejects_bad_tolerance(tol):
    with pytest.raises(ValidationError, match="tol"):
        run_verification(n_states=1, tol=tol)


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
    # 251 states are two chunks, of 250 and 1.
    code, out, _ = run(["sample", "--n", "251", "--seed", "3"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(251))


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
