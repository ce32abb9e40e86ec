import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_singer_orbits_counts_only_stabilizers_match_catalogue(capsys):
    # --counts-only reads its stabilizer keys off the closed form, never the catalogue
    from qgdd.singer import orbit_representatives
    for q in (2, 3):
        for l in range(1, 7):
            for d in range(l + 1):
                code, out, _ = run_cli(["singer-orbits", "--l", str(l), "--d", str(d),
                                        "--q", str(q), "--counts-only", "--json"], capsys)
                assert code == 0
                want = {str(o.u) for o in orbit_representatives(l, d, q)}
                assert set(json.loads(out)["by_stabilizer"]) == want, (l, d, q)


def test_orbit_atlas(capsys):
    code, out, _ = run_cli(
        ["orbit-atlas", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
         "--json"], capsys)
    assert code == 0
    body = json.loads(out)
    sizes = sorted(lab["orbit_size"] for lab in body["labels"])
    assert sizes == [9, 504, 882]


@pytest.mark.parametrize("k", [-1, 0, 1, 2, 4])
def test_orbit_atlas_k_outside_block_range_exit_2(capsys, k):
    # k = 1 once listed the 63 points twice, as a line and as a full orbit
    code, out, err = run_cli(
        ["orbit-atlas", "--m", "2", "--l", "3", "--k", str(k), "--q", "2"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: k={k} outside 3..min(m+1, l)\n"


def test_stabilizer_with_brute_force(capsys):
    code, out, _ = run_cli(
        ["stabilizer", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
         "--r", "2", "--u", "3", "--brute-force"], capsys)
    assert code == 0
    assert "stabilizer_order=7" in out
    assert "orbit_size=504" in out
    assert "brute_force=7" in out


def test_stabilizer_brute_force_realizes_an_orbit_of_the_asked_u(capsys):
    # 2-subspaces of GF(2)^4 have u = 1 and u = 2; the u = 1 orbits come first
    code, out, _ = run_cli(
        ["stabilizer", "--m", "2", "--l", "4", "--k", "3", "--q", "2",
         "--r", "1", "--u", "2", "--brute-force"], capsys)
    assert code == 0
    assert out.splitlines() == ["stabilizer_order=12", "orbit_size=5100",
                                "brute_force=12"]


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


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
def test_incidence_both_document_owns_stdout(capsys, fmt):
    # with a document on stdout the verdict goes to stderr
    args = ["incidence", "--m", "2", "--l", "3", "--k", "3", "--q", "2"]
    code, closed, _ = run_cli(args + ["--mode", "closed", fmt], capsys)
    assert code == 0
    code, out, err = run_cli(args + ["--mode", "both", fmt], capsys)
    assert code == 0 and out == closed
    assert err.strip() == "closed and brute-force matrices agree (2x3)"
    if fmt == "--json":
        assert json.loads(out)["entries"] == [[1, 14, 0], [0, 9, 6]]


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


def _other_orbit_member(data):
    """Replace the first label's rep by another member of its Singer orbit."""
    from qgdd.singer import singer_action
    from qgdd.subspaces import Subspace, canonicalize
    imp = data["blocks"]["implicit"]
    label = imp["labels"][0]
    rep = canonicalize(label["rep"], data["q"], imp["l"]).rows
    other = next(m for m in singer_action(imp["l"], data["q"]).cycle(rep)
                 if m != rep)
    label["rep"] = Subspace(data["q"], imp["l"], other).basis_lists()


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("params,mutate", [
    (("3", "2,3=1"), lambda d: d["blocks"]["implicit"].update(k=4)),
    (("3", "2,3=1"), lambda d: d["blocks"]["implicit"]["labels"][0].update(u=1)),
    (("4", "2,1=1"), _other_orbit_member),
    (("3", "2,3=1"), lambda d: d["blocks"]["implicit"].update(omega_kk=True)),
    (("3", "2,3=1"), lambda d: d["blocks"]["implicit"].update(omega_kk="false")),
    (("3", "2,3=1"), lambda d: d.update(K=[5])),
], ids=["k=4", "u=1", "rep-off-canonical", "omega_kk-k>m", "omega_kk-string",
        "K-without-k"])
def test_verify_malformed_implicit_exit_2_in_both_modes(tmp_path, capsys, params,
                                                        mutate, lenient):
    out_file = tmp_path / "g.json"
    l, select = params
    run_cli(["build-gdd", "--m", "2", "--l", l, "--k", "3", "--q", "2",
             "--select", select, "--out", str(out_file)], capsys)
    data = json.loads(out_file.read_text())
    mutate(data)
    out_file.write_text(json.dumps(data))
    for sample in ([], ["--sample", "50"]):
        code, out, err = run_cli(["verify", "--in", str(out_file)] + sample
                                 + ["--lenient"] * lenient, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("how,message", [
    ("truncated", "error: groups do not cover the 1-subspaces exactly once\n"),
    ("overlap", "error: groups overlap in a nonzero vector\n"),
], ids=["truncated", "overlap"])
def test_verify_broken_groups_exit_2(tmp_path, capsys, how, message, lenient):
    out_file = tmp_path / "g.json"
    run_cli(["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--select", "2,3=1", "--out", str(out_file)], capsys)
    data = json.loads(out_file.read_text())
    groups = data["groups"]
    data["groups"] = groups[:-1] + (groups[:1] if how == "overlap" else [])
    out_file.write_text(json.dumps(data))
    code, out, err = run_cli(["verify", "--in", str(out_file)]
                             + ["--lenient"] * lenient, capsys)
    assert (code, out, err) == (2, "", message)


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


def test_verify_over_budget_same_exit_at_any_threads(tmp_path, capsys):
    # [10,3]_2 = 6347715 blocks to sweep, past EXPANSION_BUDGET; the pairs are not
    out_file = tmp_path / "g.json"
    run_cli(["build-gdd", "--m", "2", "--l", "5", "--k", "3", "--q", "2",
             "--select", "2,1=1", "--out", str(out_file)], capsys)
    got = [run_cli(["verify", "--in", str(out_file), "--threads", t], capsys)
           for t in ("1", "2")]
    assert got[0] == got[1]
    code, out, err = got[0]
    assert code == 2 and out == ""
    assert err == ("error: expansion needs a sweep over 6347715 subspaces "
                   "(budget 2000000); use sampled verification\n")


def test_build_gdd_file_bytes_stable(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
            "--select", "2,3=1"]
    run_cli(args + ["--out", str(f1)], capsys)
    run_cli(args + ["--out", str(f2)], capsys)
    assert f1.read_bytes() == f2.read_bytes()


def _write_complete_design(path, v, k, q, mult=1):
    from qgdd.designfile import design_to_json_dict
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


def test_u_not_dividing_gcd_exit_2(tmp_path, capsys):
    code, out, err = run_cli(
        ["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
         "--select", "2,2=1", "--out", str(tmp_path / "never.json")], capsys)
    assert code == 2 and out == ""
    assert err == "error: u=2 does not divide gcd(d, v)=3\n"
    assert not (tmp_path / "never.json").exists()


@pytest.mark.parametrize("flag", ["--budget", "--max-solutions"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_km_solve_limits_below_one_exit_2(capsys, flag, n):
    with pytest.raises(SystemExit) as exc:
        main(["km-solve", "--l", "7", "--k", "3", "--q", "2", "--lambda", "31",
              flag, n])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and f"{flag}: must be an integer >= 1" in out.err


def test_huge_q_is_refused_before_factoring(monkeypatch, capsys):
    from qgdd import fields

    factorize = fields.factorize

    def bounded_factorize(n):
        assert n <= 2 ** 20, f"factorize({n}) past the table limit"
        return factorize(n)

    monkeypatch.setattr(fields, "factorize", bounded_factorize)
    code, out, err = run_cli(
        ["singer-orbits", "--l", "3", "--d", "1", "--q", "1000000000000000003"], capsys)
    assert code == 2 and out == ""
    assert "above the field table limit" in err


@pytest.mark.parametrize("u", ["-1", "0"])
@pytest.mark.parametrize("command", ["stabilizer", "build-gdd"])
def test_nonpositive_u_exit_2(tmp_path, monkeypatch, capsys, command, u):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--m", "2", "--l", "3", "--k", "3", "--q", "2"]
    if command == "stabilizer":
        argv += ["--r", "2", "--u", u]
    else:
        argv += ["--select", f"2,{u}=1", "--out", "never.json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and "." not in out
    assert err == f"error: u={u} must be a positive integer\n"
    assert not (tmp_path / "never.json").exists()


def test_verify_implicit_without_labels_exit_2(tmp_path, capsys):
    out_file = tmp_path / "g.json"
    run_cli(["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--select", "2,3=1", "--out", str(out_file)], capsys)
    data = json.loads(out_file.read_text())
    del data["blocks"]["implicit"]["labels"]
    out_file.write_text(json.dumps(data))
    code, out, err = run_cli(["verify", "--in", str(out_file)], capsys)
    assert (code, out, err) == (2, "", "error: labels must be a list of objects\n")


@pytest.mark.parametrize("sample", [[], ["--sample", "40"]], ids=["full", "sampled"])
@pytest.mark.parametrize("claim,code", [(0, 0), (6, 1)])
def test_verify_point_blocks(tmp_path, capsys, sample, claim, code):
    from qgdd.designfile import design_to_json_dict
    from qgdd.designs import DesignInstance, make_explicit
    from qgdd.subspaces import iter_rref_bases
    design = DesignInstance(
        q=3, v=3, kind="design", K=(1,), claimed_lambda=claim,
        blocks=make_explicit((rows, 1) for rows in iter_rref_bases(3, 1, 3)))
    path = tmp_path / "points.json"
    path.write_text(json.dumps(design_to_json_dict(design)))
    got, out, err = run_cli(["verify", "--in", str(path)] + sample, capsys)
    assert (got, err) == (code, "")
    assert "coverage 0" in out
    assert ("witness" in out) == (claim != 0)


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "qgdd.cli", "gbinom",
                           "--v", "3", "--k", "2", "--q", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"


def test_atlas_survey_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "atlas_survey.py"),
                           "--points", "2,3,3,2;2,4,3,2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "lambda = 6\n" in proc.stdout
    assert "lambda = 42\n" in proc.stdout


def _cli_env():
    root = Path(__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("sample", [[], ["--sample", "5"]], ids=["full", "sampled"])
def test_verify_v_below_two_exit_2(tmp_path, sample):
    # a sampled draw of 2-subspaces of GF(2)^1 would never end
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "format_version": 1, "q": 2, "v": 1, "kind": "design", "K": [1],
        "claimed_lambda": 0,
        "blocks": {"explicit": [{"basis": [[1]], "multiplicity": 1}]}}))
    proc = subprocess.run([sys.executable, "-m", "qgdd.cli", "verify",
                           "--in", str(path)] + sample,
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: v must be an integer >= 2, got 1\n"


class _ClosedStdout:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("claim,code", [(6, 0), (7, 1)])
@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
def test_verify_verdict_survives_closed_stdout(tmp_path, monkeypatch, capsys,
                                               claim, code, as_json):
    path = tmp_path / "g.json"
    run_cli(["build-gdd", "--m", "2", "--l", "3", "--k", "3", "--q", "2",
             "--select", "2,3=1", "--out", str(path)], capsys)
    data = json.loads(path.read_text())
    data["claimed_lambda"] = claim
    path.write_text(json.dumps(data))
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["verify", "--in", str(path)] + as_json) == code
    assert capsys.readouterr().err == ""


def test_other_command_exits_0_on_closed_stdout(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["singer-orbits", "--l", "4", "--d", "2", "--q", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_closed_pipe_ends_quietly():
    # the reader takes 10 bytes of a long listing and closes the pipe
    proc = subprocess.Popen([sys.executable, "-m", "qgdd.cli", "singer-orbits",
                             "--l", "8", "--d", "4", "--q", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_cli_env())
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head == b"791 orbit("
    assert err == b""


# -- malformed design files -----------------------------------------------------

def _robustness_bases():
    """(name, JSON object, verify options): valid q = 2 and q = 3 design files."""
    from qgdd.designfile import design_to_json_dict
    from qgdd.designs import (DesignInstance, GddSelection, build_gdd,
                              make_explicit, supplementary)
    from qgdd.subspaces import enumerate_subspaces
    gdd2 = build_gdd(2, 3, 3, 2, GddSelection.of({(2, 3): 1}))
    gdd3 = build_gdd(2, 3, 3, 3, GddSelection.of({(2, 3): 1}))
    out = [("gdd2", gdd2, []), ("supplement2", supplementary(gdd2), []),
           ("gdd3", gdd3, ["--sample", "8"])]
    for q in (2, 3):  # every 3-subspace of GF(q)^4: a 2-(4,3,q+1)_q design
        blocks = make_explicit((s.rows, 1) for s in enumerate_subspaces(4, 3, q))
        design = DesignInstance(q=q, v=4, kind="design", K=(3,),
                                claimed_lambda=q + 1, blocks=blocks)
        out.append((f"all3_{q}", design, []))
    return [(name, design_to_json_dict(d), opts) for name, d, opts in out]


ROBUSTNESS_BASES = _robustness_bases()


def _json_paths(obj, path=()):
    """Every key or index path into a JSON value, the value itself first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


@st.composite
def mutated_design(draw):
    """A valid design file with one to three keys deleted, retyped or set out of range."""
    name, data, opts = draw(st.sampled_from(ROBUSTNESS_BASES))
    data = json.loads(json.dumps(data))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(data))[1:]
        if not paths:
            break
        shallow = [p for p in paths if len(p) <= 3]
        path = draw(st.sampled_from(draw(st.sampled_from([shallow, paths]))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        how = draw(st.sampled_from(["delete", "retype", "int"]))
        if how == "delete":
            del parent[path[-1]]
        elif how == "retype":
            parent[path[-1]] = draw(st.sampled_from(
                [None, "x", 1.5, True, [], {}, [0], {"a": 1}]))
        else:
            parent[path[-1]] = draw(st.sampled_from(
                [-1, 0, 1, 2, 3, 4, 7, 9, 64, 2 ** 31, 10 ** 12]))
    return name, data, opts


@settings(max_examples=150, deadline=None)
@given(case=mutated_design())
def test_verify_mutated_design_files(case):
    """Exit 0, 1 or 2 and never an exception; exit 1 only for a file that loads."""
    import contextlib
    import io
    import tempfile
    from qgdd.designfile import design_from_json_dict
    name, data, opts = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["verify", "--in", str(path), "--json"] + opts)
    assert code in (0, 1, 2)
    assert code != 2 or err.getvalue().startswith("error: ")
    if code == 1:
        design_from_json_dict(data)
