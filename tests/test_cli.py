import json
import subprocess
import sys

import pytest

from qgdd.cli import main, _parse_select


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_select():
    assert _parse_select(["2,3=1"]) == {(2, 3): 1}
    assert _parse_select(["2,1=4,2,3=1"]) == {(2, 1): 4, (2, 3): 1}
    assert _parse_select(["2,1=4", "3,1=2"]) == {(2, 1): 4, (3, 1): 2}
    with pytest.raises(ValueError):
        _parse_select(["2,3"])


def test_gbinom(capsys):
    code, out, _ = run_cli(["gbinom", "--v", "6", "--k", "3", "--q", "2"], capsys)
    assert code == 0 and out.strip() == "1395"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gbinom", "--v", "6"])
    assert exc.value.code == 2


def test_singer_orbits_json_stable(capsys):
    args = ["singer-orbits", "--l", "4", "--d", "2", "--q", "2", "--json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    body = json.loads(out1)
    assert len(body["orbits"]) == 3
    assert {o["u"] for o in body["orbits"]} == {1, 2}


def test_singer_orbits_counts_only(capsys):
    code, out, _ = run_cli(
        ["singer-orbits", "--l", "7", "--d", "3", "--q", "2",
         "--counts-only", "--json"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["n_orbits"] == 93
    assert body["by_stabilizer"] == {"1": 93}


def test_orbit_atlas(capsys):
    code, out, _ = run_cli(
        ["orbit-atlas", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
         "--json"], capsys)
    assert code == 0
    body = json.loads(out)
    sizes = sorted(lab["orbit_size"] for lab in body["labels"])
    assert sizes == [9, 504, 882]


def test_stabilizer_with_brute_force(capsys):
    code, out, _ = run_cli(
        ["stabilizer", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
         "--r", "2", "--u", "3", "--brute-force"], capsys)
    assert code == 0
    assert "stabilizer_order=7" in out
    assert "orbit_size=504" in out
    assert "brute_force=7" in out


def test_incidence_both_agrees(capsys):
    code, out, _ = run_cli(
        ["incidence", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
         "--mode", "both"], capsys)
    assert code == 0
    assert "agree" in out


def test_incidence_json(capsys):
    code, out, _ = run_cli(
        ["incidence", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
         "--mode", "closed", "--json"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["entries"] == [[1, 14, 0], [0, 9, 6]]


def test_build_and_verify_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    code, out, _ = run_cli(
        ["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
         "--select", "2,3=1", "--out", str(out_file)], capsys)
    assert code == 0 and "504 blocks" in out
    code, out, _ = run_cli(["verify", "--in", str(out_file)], capsys)
    assert code == 0
    assert out.startswith("PASS")
    assert "coverage 6" in out


def test_verify_failure_exits_1(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    run_cli(["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--select", "2,3=1", "--out", str(out_file)], capsys)
    data = json.loads(out_file.read_text())
    data["claimed_lambda"] = 7  # wrong claim
    out_file.write_text(json.dumps(data))
    code, out, _ = run_cli(["verify", "--in", str(out_file)], capsys)
    assert code == 1
    assert out.startswith("FAIL")
    assert "witness" in out


@pytest.mark.parametrize("field,value", [("labels", None),
                                         ("multiplicity", -3)])
def test_verify_malformed_labels_exit_2(tmp_path, capsys, field, value):
    out_file = tmp_path / "g.json"
    run_cli(["build-gdd", "--m", "2", "--l", "4", "--k", "3", "--q", "2",
             "--select", "2,1=1", "--out", str(out_file)], capsys)
    data = json.loads(out_file.read_text())
    implicit = data["blocks"]["implicit"]
    if field == "labels":
        implicit["labels"] = value
    else:
        implicit["labels"][0]["multiplicity"] = value
    out_file.write_text(json.dumps(data))
    code, out, err = run_cli(["verify", "--in", str(out_file)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("field", ["q", "v", "K", "implicit.m", "implicit.l",
                                   "implicit.k"])
def test_verify_null_structure_field_exit_2(tmp_path, capsys, field):
    out_file = tmp_path / "g.json"
    run_cli(["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--select", "2,3=1", "--out", str(out_file)], capsys)
    data = json.loads(out_file.read_text())
    owner = data["blocks"]["implicit"] if field.startswith("implicit.") else data
    owner[field.split(".")[-1]] = None
    out_file.write_text(json.dumps(data))
    code, out, err = run_cli(["verify", "--in", str(out_file)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_sampled_seed_stable(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    run_cli(["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--select", "2,3=1", "--out", str(out_file)], capsys)
    args = ["verify", "--in", str(out_file), "--sample", "150",
            "--seed", "7", "--json"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    body = json.loads(out1)
    assert body["mode"] == "sampled" and body["sample"] == [150, 7]


def test_verify_threads_agree(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    run_cli(["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--select", "2,3=1", "--out", str(out_file)], capsys)
    _, out1, _ = run_cli(["verify", "--in", str(out_file), "--threads", "1",
                          "--json"], capsys)
    _, out8, _ = run_cli(["verify", "--in", str(out_file), "--threads", "8",
                          "--json"], capsys)
    assert out1 == out8


def test_build_gdd_file_bytes_stable(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
            "--select", "2,3=1"]
    run_cli(args + ["--out", str(f1)], capsys)
    run_cli(args + ["--out", str(f2)], capsys)
    assert f1.read_bytes() == f2.read_bytes()


def _write_complete_design(path, v, k, q, mult=1):
    from qgdd.designs import design_to_json_dict
    from test_designs import complete_design
    path.write_text(json.dumps(design_to_json_dict(
        complete_design(v, k, q, mult)), indent=2, sort_keys=True))


def test_build_pbd_flow(tmp_path, capsys):
    seed_file = tmp_path / "seed.json"
    _write_complete_design(seed_file, 3, 2, 2)
    out_file = tmp_path / "pbd.json"
    code, out, _ = run_cli(
        ["build-pbd", "--seed", str(seed_file), "--m", "2", "--k", "3",
         "--select", "2,3=1", "--out", str(out_file)], capsys)
    assert code == 0 and "mixed" in out
    code, out, _ = run_cli(["verify", "--in", str(out_file)], capsys)
    assert code == 0 and "PASS" in out


def test_break_blocks_flow(tmp_path, capsys):
    pbd_file = tmp_path / "pbd.json"
    ing_file = tmp_path / "ing.json"
    out_file = tmp_path / "broken.json"
    _write_complete_design(pbd_file, 4, 3, 2)
    _write_complete_design(ing_file, 3, 2, 2)
    code, out, _ = run_cli(
        ["break-blocks", "--pbd", str(pbd_file),
         "--ingredient", f"3={ing_file}", "--out", str(out_file)], capsys)
    assert code == 0 and "2-(4,2,3)_2" in out
    code, _, _ = run_cli(["verify", "--in", str(out_file)], capsys)
    assert code == 0


def test_fill_holes_flow(tmp_path, capsys):
    gdd_file = tmp_path / "g.json"
    master_file = tmp_path / "m.json"
    out_file = tmp_path / "filled.json"
    run_cli(["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--select", "2,3=1", "--out", str(gdd_file)], capsys)
    _write_complete_design(master_file, 3, 3, 2, mult=6)
    code, out, _ = run_cli(
        ["fill-holes", "--gdd", str(gdd_file), "--master", str(master_file),
         "--hole-dim", "0", "--out", str(out_file)], capsys)
    assert code == 0 and "PASS" in out
    code, _, _ = run_cli(["verify", "--in", str(out_file)], capsys)
    assert code == 0


def test_supplement_flow(tmp_path, capsys):
    in_file = tmp_path / "d.json"
    out_file = tmp_path / "supp.json"
    _write_complete_design(in_file, 4, 3, 2)
    code, out, _ = run_cli(
        ["supplement", "--in", str(in_file), "--out", str(out_file)], capsys)
    assert code == 0 and "0 blocks" in out


def test_supplement_of_gdd_verifies(tmp_path, capsys):
    gdd_file = tmp_path / "g.json"
    out_file = tmp_path / "supp.json"
    run_cli(["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--select", "2,3=1", "--out", str(gdd_file)], capsys)
    code, out, _ = run_cli(
        ["supplement", "--in", str(gdd_file), "--out", str(out_file)], capsys)
    assert code == 0 and "891 blocks, mixed, span1=15 span2=9" in out
    data = json.loads(out_file.read_text())
    assert data["kind"] == "mixed" and len(data["groups"]) == 9
    code, out, _ = run_cli(["verify", "--in", str(out_file)], capsys)
    assert code == 0
    assert "class span1: 63 pairs, coverage 15" in out
    assert "class span2: 588 pairs, coverage 9" in out


@pytest.mark.parametrize("command", ["verify", "fill-holes"])
@pytest.mark.parametrize("n", ["0", "-5", "x"])
def test_sample_below_one_exit_2(tmp_path, capsys, command, n):
    gdd_file = tmp_path / "g.json"
    run_cli(["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--select", "2,3=1", "--out", str(gdd_file)], capsys)
    args = ["verify", "--in", str(gdd_file)] if command == "verify" else \
        ["fill-holes", "--gdd", str(gdd_file), "--master", str(gdd_file),
         "--hole-dim", "0", "--out", str(tmp_path / "f.json")]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--sample", n])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--sample: must be an integer >= 1" in out.err
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("command", ["verify", "fill-holes"])
@pytest.mark.parametrize("n", ["0", "-3", "x"])
def test_threads_below_one_exit_2(tmp_path, capsys, command, n):
    gdd_file = tmp_path / "g.json"
    run_cli(["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--select", "2,3=1", "--out", str(gdd_file)], capsys)
    args = ["verify", "--in", str(gdd_file)] if command == "verify" else \
        ["fill-holes", "--gdd", str(gdd_file), "--master", str(gdd_file),
         "--hole-dim", "0", "--out", str(tmp_path / "f.json")]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--threads", n])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--threads: must be an integer >= 1" in out.err
    assert not (tmp_path / "f.json").exists()


def test_verify_directory_exit_2(tmp_path, capsys):
    code, out, err = run_cli(["verify", "--in", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_km_solve_cli(capsys):
    code, out, _ = run_cli(
        ["km-solve", "--l", "3", "--k", "3", "--q", "2", "--lambda", "1"],
        capsys)
    assert code == 0
    assert "status=exhausted" in out and "x=1" in out


def test_error_exit_2_on_bad_selection(capsys):
    code, _, err = run_cli(
        ["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
         "--select", "2,3=9", "--out", "/tmp/never.json"], capsys)
    assert code == 2 and "error" in err


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "qgdd.cli", "gbinom",
                           "--v", "3", "--k", "2", "--q", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"
