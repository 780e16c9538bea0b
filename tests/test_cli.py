"""End-to-end checks of the eaqc command line."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eaqc.cli import main
from eaqc.eacode import build_theorem5
from eaqc.gf2 import ModelMatrix, expand, gfrank, matmul
from eaqc.harness import CSV_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_params_nine(capsys):
    doc = run_json(capsys, "params", "--family", "thm5",
                   "--p", "3", "--l1", "1", "--l2", "1")
    assert doc == {
        "family": "theorem5", "n": 9, "k": 4, "c": 1,
        "gfrank_hx": 3, "gfrank_hz": 3, "girth_floor": 8,
    }


def test_params_thm8(capsys):
    doc = run_json(capsys, "params", "--family", "thm8", "--l", "6", "--w", "2")
    assert (doc["n"], doc["k"], doc["c"]) == (390, 132, 128)
    assert doc["gfrank_hx"] == 193


def test_params_thm9_reduced(capsys):
    doc = run_json(capsys, "params", "--family", "thm9",
                   "--set", "2,4,6", "--w", "2", "--reduced")
    assert (doc["n"], doc["k"], doc["c"]) == (381, 2, 379)


def test_construct_round_trips_the_code(capsys):
    doc = run_json(capsys, "construct", "--family", "thm5",
                   "--p", "3", "--l1", "1", "--l2", "1")
    code = build_theorem5(3, 1, 1)
    hex_bits = np.array([[int(ch) for ch in row] for row in doc["hex"]], np.uint8)
    hez_bits = np.array([[int(ch) for ch in row] for row in doc["hez"]], np.uint8)
    assert np.array_equal(hex_bits, code.hex.to_dense())
    assert np.array_equal(hez_bits, code.hez.to_dense())
    mx = ModelMatrix(doc["mx"]["order"], np.array(doc["mx"]["exponents"]))
    assert np.array_equal(expand(mx).to_dense(), code.hx.to_dense())


def test_construct_commutation_holds(capsys):
    doc = run_json(capsys, "construct", "--family", "thm6",
                   "--p", "7", "--l1", "3", "--l2", "3")
    hex_bits = np.array([[int(c) for c in r] for r in doc["hex"]], np.uint8)
    hez_bits = np.array([[int(c) for c in r] for r in doc["hez"]], np.uint8)
    from eaqc.gf2 import BinaryMatrix
    prod = matmul(BinaryMatrix.from_dense(hex_bits),
                  BinaryMatrix.from_dense(hez_bits).transpose())
    assert gfrank(prod) == 0


def test_girth_agrees_and_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "girth", "--family", "thm7",
                           "--p", "11", "--l", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["girth_floor"] == 6
    assert doc["bfs_girth"] == 6


def test_girth_thm9_reduced_above_six(capsys):
    code, out, _ = run_cli(capsys, "girth", "--family", "thm9",
                           "--set", "2,4,6", "--w", "2", "--reduced")
    assert code == 0
    doc = json.loads(out)
    assert doc["girth_floor"] == 8
    assert doc["bfs_girth"] is None or doc["bfs_girth"] >= 8


def test_transversal_reports_preserved(capsys):
    doc = run_json(capsys, "transversal", "--p", "3")
    assert doc["preserved"] == {
        "hadamard_swap": True, "s_cz": True, "h_s_cz": True,
    }
    act = doc["logical_action"]["hadamard_swap"]
    assert set(act) == {"X1", "Z1", "X2", "Z2", "X3", "Z3", "X4", "Z4"}
    # the swap layer exchanges the X and Z sectors
    for key, labels in act.items():
        want = "Z" if key.startswith("X") else "X"
        assert labels and all(lab.startswith(want) for lab in labels)


# sha256 of the full stdout, recorded before group_preserved and the
# tableau's dependency check shared one sign rule
_TRANSVERSAL_SHA256 = {
    3: "2dcbd9f1d23efadecb19d1540cb77d3acbec5b1aabbc358fd100432fcb0a7827",
    5: "9db98dff3b3bda126bf67cba527b303e70d2a3d7872a7d496b8f03de57832c36",
    7: "f348c9937b095992dd16e46877fe891b3b18e1fb634ed8f57a5a0ce3411ce048",
}


@pytest.mark.parametrize("p", sorted(_TRANSVERSAL_SHA256))
def test_transversal_output_is_pinned(capsys, p):
    code, out, _ = run_cli(capsys, "transversal", "--p", str(p))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TRANSVERSAL_SHA256[p]


def test_simulate_emits_result_fields(capsys):
    doc = run_json(capsys, "simulate", "--family", "thm5",
                   "--p", "3", "--l1", "1", "--l2", "1",
                   "--pd", "0.03", "--trials", "50", "--seed", "11",
                   "--decoder", "quat")
    assert doc["decoder"] == "quaternary-spa"
    assert doc["trials"] == 50
    assert 0.0 <= doc["ci_low"] <= doc["LER"] <= doc["ci_high"] <= 1.0
    assert doc["seed"] == 11


def test_simulate_deterministic(capsys):
    argv = ("simulate", "--family", "thm5", "--p", "3", "--l1", "1",
            "--l2", "1", "--pd", "0.04", "--trials", "40", "--seed", "3")
    assert run_json(capsys, *argv) == run_json(capsys, *argv)


def test_sweep_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "thm5", "--p", "3", "--l1", "1",
        "--l2", "1", "--pd", "0.02,0.04", "--eta", "0.0,0.5",
        "--trials", "30", "--seed", "5", "--decoder", "binary")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "theorem5"
    assert first[4] == "0.02" and first[5] == "0.0"
    assert first[6] == "binary-spa"


def test_sweep_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--family", "thm5", "--p", "3", "--l1", "1",
        "--l2", "1", "--pd", "0.03", "--eta", "0.0", "--trials", "20",
        "--seed", "2", "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith(",".join(CSV_COLUMNS))


def test_sweep_with_an_empty_axis_exits_two(capsys):
    for pd, eta in (("", "0.0"), ("0.03", ""), (",", "0.5")):
        code, out, err = run_cli(
            capsys, "sweep", "--family", "thm5", "--p", "3", "--l1", "1",
            "--l2", "1", "--pd", pd, "--eta", eta, "--trials", "20")
        assert code == 2 and out == ""
        assert "p_d" in err


def test_burst_check_rejects_the_flags_it_does_not_read(capsys):
    base = ["burst-check", "--family", "thm5", "--p", "3", "--l1", "1",
            "--l2", "1", "--length", "1"]
    for extra in (["--trials", "7"], ["--seed", "1"], ["--eta", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
    for pd in ("", "0.02,0.03"):
        with pytest.raises(SystemExit) as exc:
            main(base + ["--pd", pd])
        assert exc.value.code == 2
        assert "single --pd" in capsys.readouterr().err


def test_burst_check_rejects_a_negative_length(capsys):
    code, out, err = run_cli(capsys, "burst-check", "--family", "thm5", "--p", "3",
                             "--l1", "1", "--l2", "1", "--length", "-1")
    assert code == 2 and out == ""
    assert "burst length -1" in err


def test_burst_check_reports_fractions(capsys):
    doc = run_json(capsys, "burst-check", "--family", "thm5",
                   "--p", "3", "--l1", "1", "--l2", "1", "--length", "3")
    assert doc["windows"] == 7
    assert doc["patterns"] == 351
    assert doc["oracle_corrected"] == 51
    assert doc["spa_corrected"] == 9
    assert doc["oracle_failures"]
    assert doc["oracle_fraction"] == pytest.approx(51 / 351)


def test_burst_check_refuses_large_enumerations(capsys):
    code, _, err = run_cli(capsys, "burst-check", "--family", "thm5",
                           "--p", "5", "--l1", "2", "--l2", "2",
                           "--length", "10")
    assert code == 1
    assert "verification failure" in err


def test_missing_family_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["params", "--family", "thm7", "--p", "11"])
    assert exc.value.code == 2
    assert "--l" in capsys.readouterr().err


def test_flags_the_family_does_not_read_exit_two(capsys):
    thm5 = ["params", "--family", "thm5", "--p", "3", "--l1", "1", "--l2", "1"]
    thm7 = ["girth", "--family", "thm7", "--p", "11", "--l", "5"]
    for argv, stray in ((thm5 + ["--w", "2"], "--w"),
                        (thm5 + ["--reduced"], "--reduced"),
                        (thm7 + ["--set", "2,4", "--l1", "1"], "--l1, --set")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"does not read {stray}" in capsys.readouterr().err


def test_invalid_prime_exits_two(capsys):
    code, _, err = run_cli(capsys, "params", "--family", "thm5",
                           "--p", "9", "--l1", "1", "--l2", "1")
    assert code == 2
    assert "prime" in err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "eaqc.cli", "params", "--family", "thm5",
         "--p", "3", "--l1", "1", "--l2", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 9


def test_verify_codes_script_prints_one_line_per_small_family():
    script = Path(__file__).resolve().parents[1] / "scripts" / "verify_codes.py"
    proc = subprocess.run([sys.executable, str(script), "--skip-large"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["thm5"] * 3 + ["thm6", "thm7"]
    assert [line[line.index("[["):line.index("]]") + 2] for line in lines] == [
        "[[9, 4; 1]]", "[[25, 8; 1]]", "[[49, 12; 1]]", "[[42, 10; 6]]",
        "[[121, 70; 51]]",
    ]
    assert last.startswith("all constructions verified")
