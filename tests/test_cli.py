"""Command-line interface: subcommand wiring, report format, exit codes,
and artifact determinism."""

import os
import subprocess
import sys

import pytest

from bimodal.cli import main
from bimodal import formula as fm
from bimodal.semantics import load_model
from bimodal import atm as am
from tests.conftest import M1_PATH, ROOT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_dict(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(": ")
        pairs.setdefault(key, value)
    return pairs


def test_gen_counter_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "counter-ssl", "--n", "1")
    assert code == 0
    report = report_dict(out)
    assert report["result"] == "pass"
    fm.parse(report["formula"])  # well-formed output


def test_gen_writes_artifacts(tmp_path, capsys):
    out_file = tmp_path / "f.txt"
    cat_file = tmp_path / "cat.txt"
    code, out, _ = run(capsys, "gen", "counter-s4s5", "--n", "2",
                       "--out", str(out_file), "--catalog", str(cat_file))
    assert code == 0
    first = out_file.read_bytes()
    run(capsys, "gen", "counter-s4s5", "--n", "2", "--out", str(out_file),
        "--catalog", str(cat_file))
    assert out_file.read_bytes() == first  # byte-identical regeneration
    fm.parse(out_file.read_text())


def test_gen_f_requires_machine_arguments(capsys):
    code, _, err = run(capsys, "gen", "f-ssl", "--n", "1")
    assert code == 2
    assert "requires" in err


def test_extract_tree_requires_machine_arguments(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_text("class cross-axiom\ndesignated w\nworld w\n"
                          "d w w\nl w w\n")
    code, _, err = run(capsys, "extract", "tree", "--logic", "ssl",
                       "--model", str(model_file))
    assert code == 2
    assert "requires" in err


def test_missing_n_exits_two(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_text("class cross-axiom\ndesignated w\nworld w\n"
                          "d w w\nl w w\n")
    for argv in (["gen", "counter-ssl"],
                 ["extract", "trace", "--logic", "ssl", "--model", str(model_file)]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "requires --n" in err


def test_missing_n_exits_two_before_the_model_is_read(capsys):
    code, out, err = run(capsys, "extract", "trace", "--logic", "ssl",
                         "--model", "/nonexistent")
    assert code == 2
    assert out == ""
    assert err == "error: extract trace requires --n\n"


@pytest.mark.parametrize("argv, message", [
    (["extract", "tree", "--logic", "ssl", "--model", "/nonexistent",
      "--point", "p0"], "the reduction requires --atm, --w and --poly"),
    (["extract", "trace", "--logic", "ssl", "--model", "/nonexistent",
      "--n", "0"], "--n must be at least 1"),
    (["gen", "counter-s4s5", "--n", "0"], "--n must be at least 1"),
    (["sat", "--formula", "/nonexistent", "--class", "cross-axiom",
      "--bound", "0"], "--bound must be at least 1"),
    (["sat", "--formula", "/nonexistent", "--class", "cross-axiom",
      "--bound", "6"], "--bound must be at most 5"),
    (["sat", "--formula", "/nonexistent", "--class", "cross-axiom",
      "--max-atoms", "0"], "--max-atoms must be at least 1"),
    (["atm", "run", "--atm", "/nonexistent", "--w", "a", "--fuel", "-1"],
     "--fuel must be at least 0"),
    (["gen", "f-ssl", "--atm", "/nonexistent", "--w", "a", "--poly=-1,1"],
     "polynomial coefficients must be natural numbers"),
    (["gen", "f-ssl", "--atm", "/nonexistent", "--w", "a", "--poly", "0"],
     "need p(n) >= max(n, 1), got p(1) = 0"),
], ids=["extract-tree", "extract-trace-n", "gen-n", "sat-bound",
        "sat-bound-above-lists", "sat-max-atoms", "atm-run-fuel", "poly-coefficient", "poly-too-small"])
def test_usage_errors_exit_two_before_files_are_read(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_python_m_bimodal_runs_the_command_line():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-m", "bimodal", "--help"],
                            capture_output=True, text=True, env=env,
                            timeout=60)
    assert result.returncode == 0
    assert result.stdout.startswith("usage: bimodal")


@pytest.mark.parametrize("argv", [["gen", "f-ssl"],
                                  ["build", "model", "--logic", "ssl"],
                                  ["verify", "pipeline"]],
                         ids=["gen", "build", "verify"])
def test_unparsable_poly_exits_two(capsys, m1_path, argv):
    code, _, err = run(capsys, *argv, "--atm", m1_path, "--w", "a",
                       "--poly", "2,x")
    assert code == 2
    assert "bad polynomial" in err


POINT_COMMANDS = pytest.mark.parametrize("argv", [
    ["check"],
    ["extract", "tree", "--logic", "ssl", "--atm", str(M1_PATH), "--w", "a",
     "--poly", "2,1"],
    ["extract", "trace", "--logic", "ssl", "--n", "1"],
    ["lift"],
    ["restrict"],
], ids=["check", "extract-tree", "extract-trace", "lift", "restrict"])


def run_at_point(tmp_path, capsys, argv, model_text):
    model_file = tmp_path / "model.txt"
    formula_file = tmp_path / "f.txt"
    model_file.write_text(model_text)
    formula_file.write_text("x0\n")
    if argv[0] != "extract":
        argv = argv + ["--formula", str(formula_file)]
    return run(capsys, *argv, "--model", str(model_file))


@POINT_COMMANDS
def test_missing_point_is_named(tmp_path, capsys, argv):
    # a model file with no designated world and no --point on the command
    code, out, err = run_at_point(tmp_path, capsys, argv,
                                  "class cross-axiom\nworld w\nd w w\nl w w\n")
    assert code == 1
    assert out == ""
    assert err == "error: no --point given and the model has no designated world\n"


@POINT_COMMANDS
def test_unknown_point_is_named(tmp_path, capsys, argv):
    code, out, err = run_at_point(tmp_path, capsys, argv + ["--point", "nope"],
                                  "class cross-axiom\ndesignated w\nworld w\n"
                                  "d w w\nl w w\n")
    assert code == 1
    assert out == ""
    assert err == "error: unknown world 'nope'\n"


def test_build_and_check_round_trip(tmp_path, capsys, m1_path):
    model_file = tmp_path / "model.txt"
    formula_file = tmp_path / "f.txt"
    code, out, _ = run(capsys, "build", "model", "--logic", "ssl",
                       "--atm", m1_path, "--w", "a", "--poly", "2,1",
                       "--out", str(model_file))
    assert code == 0
    assert report_dict(out)["formula-holds"] == "pass"
    run(capsys, "gen", "f-ssl", "--atm", m1_path, "--w", "a",
        "--poly", "2,1", "--out", str(formula_file))
    model = load_model(model_file.read_text())
    code, out, _ = run(capsys, "check", "--model", str(model_file),
                       "--formula", str(formula_file),
                       "--point", model.designated,
                       "--class", "cross-axiom")
    assert code == 0
    assert report_dict(out)["result"] == "pass"


def test_check_failure_exits_one(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    formula_file = tmp_path / "f.txt"
    run(capsys, "sat", "--formula", "/dev/null", "--class", "cross-axiom")
    # build a tiny model and check a false formula against it
    formula_file.write_text("x0\n")
    model_file.write_text("class cross-axiom\ndesignated w\nworld w\n"
                          "d w w\nl w w\n")
    code, out, err = run(capsys, "check", "--model", str(model_file),
                         "--formula", str(formula_file))
    assert code == 1
    assert report_dict(out)["holds"] == "fail"
    assert "error:" in err


def test_check_rejects_a_file_that_only_claims_a_product(tmp_path, capsys):
    # three worlds factor only as 1x3 or 3x1, so [] or K would have to be
    # the identity; the class line alone does not make a product
    model_file = tmp_path / "model.txt"
    formula_file = tmp_path / "f.txt"
    formula_file.write_text("(x0 | !x0)\n")
    model_file.write_text(
        "class s4s5-product\nworld a\nworld b\nworld c\n"
        "d a a\nd a c\nd b b\nd b c\nd c c\n"
        "l a a\nl a b\nl b a\nl b b\nl c c\n")
    code, out, _ = run(capsys, "check", "--model", str(model_file),
                       "--formula", str(formula_file), "--point", "a",
                       "--class", "s4s5-product")
    assert code == 1
    assert "product-provenance: fail a" in out.splitlines()


def test_check_rejects_an_unknown_class_line(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    formula_file = tmp_path / "f.txt"
    formula_file.write_text("(x0 | !x0)\n")
    model_file.write_text("class cross-axoim\nworld a\nl a a\n")
    code, out, err = run(capsys, "check", "--model", str(model_file),
                         "--formula", str(formula_file), "--point", "a")
    assert code == 1
    assert out == ""
    assert "unknown frame class 'cross-axoim'" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "nonsense"])
    assert exc.value.code == 2


def test_sat_reports_verdict(tmp_path, capsys):
    formula_file = tmp_path / "f.txt"
    formula_file.write_text("(x0 & !x0)\n")
    code, out, _ = run(capsys, "sat", "--formula", str(formula_file),
                       "--class", "s4s5-product", "--bound", "2")
    assert code == 0
    assert report_dict(out)["verdict"] == "unsat-within-bound"


def test_sat_reports_frames_and_candidates(tmp_path, capsys):
    # products on at most two points: one frame on one point, two with
    # a two-point second factor and four with a two-point first factor;
    # one atom has 2 valuations on one point and 4 on two
    formula_file = tmp_path / "f.txt"
    formula_file.write_text("(x0 & !x0)\n")
    code, out, _ = run(capsys, "sat", "--formula", str(formula_file),
                       "--class", "s4s5-product", "--bound", "2")
    assert code == 0
    assert out.splitlines() == [
        "command: sat", "class: s4s5-product", "verdict: unsat-within-bound",
        "max-points: 2", "frames: 7", "candidates: 26", "result: pass"]


@pytest.mark.parametrize("frame_class", ["cross-axiom", "k4s5-commutator",
                                         "s4s5-product"])
def test_sat_model_file_checks_in_its_class(tmp_path, capsys, frame_class):
    formula_file = tmp_path / "f.txt"
    model_file = tmp_path / "m.txt"
    formula_file.write_text("(x0 & !Kx0)\n")  # two points in one cloud
    code, out, _ = run(capsys, "sat", "--formula", str(formula_file),
                       "--class", frame_class, "--out", str(model_file))
    assert code == 0
    report = report_dict(out)
    assert report["worlds"] == "2"
    assert load_model(model_file.read_text()).designated == report["point"]
    code, out, _ = run(capsys, "check", "--model", str(model_file),
                       "--formula", str(formula_file), "--class", frame_class)
    assert code == 0
    assert report_dict(out)["result"] == "pass"


def test_atm_run_and_extract_tree(tmp_path, capsys, m1_path):
    tree_file = tmp_path / "tree.txt"
    code, out, _ = run(capsys, "atm", "run", "--atm", m1_path, "--w", "ab",
                       "--fuel", "7", "--out", str(tree_file))
    assert code == 0
    assert report_dict(out)["accepts"] == "pass"
    am.load_tree(tree_file.read_text())

    model_file = tmp_path / "model.txt"
    run(capsys, "build", "model", "--logic", "s4s5", "--atm", m1_path,
        "--w", "ab", "--poly", "2,1", "--out", str(model_file))
    out_tree = tmp_path / "extracted.txt"
    code, out, _ = run(capsys, "extract", "tree", "--logic", "s4s5",
                       "--model", str(model_file), "--atm", m1_path,
                       "--w", "ab", "--poly", "2,1", "--out", str(out_tree))
    assert code == 0
    extracted = am.load_tree(out_tree.read_text())
    reference = am.load_tree(tree_file.read_text())
    assert am.trees_label_equal(extracted, reference)


SCANNER = """symbols: # a
input: a
states: q0 qacc qrej
exists: q0
forall:
accept: qacc
reject: qrej
init: q0
delta: q0 # -> q0 # R
delta: q0 a -> q0 a R
"""


def test_atm_run_long_scan_reports_no_acceptance(tmp_path, capsys):
    # a machine that scans right forever: the search descends once per
    # unit of fuel
    machine = tmp_path / "scan.atm"
    machine.write_text(SCANNER)
    code, out, err = run(capsys, "atm", "run", "--atm", str(machine),
                         "--w", "a", "--fuel", "5000")
    assert code == 1
    assert out.splitlines()[-2:] == ["accepts: fail", "result: fail"]
    assert "does not accept" in err


def test_extract_trace(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    from bimodal.red_ssl import build_counter_ssl_model
    from bimodal.semantics import save_model
    model, _ = build_counter_ssl_model(1)
    model_file.write_text(save_model(model))
    code, out, _ = run(capsys, "extract", "trace", "--logic", "ssl",
                       "--model", str(model_file), "--n", "1")
    assert code == 0
    report = report_dict(out)
    assert report["steps"] == "2"


def test_translate_and_lift_restrict(tmp_path, capsys):
    formula_file = tmp_path / "f.txt"
    from bimodal.red_ssl import gen_counter_ssl, build_counter_ssl_model
    from bimodal.semantics import save_model
    f, _ = gen_counter_ssl(1)
    formula_file.write_text(fm.render(f) + "\n")
    code, out, _ = run(capsys, "translate", "ssl-s4s5",
                       "--formula", str(formula_file))
    assert code == 0
    assert "main-atom" in report_dict(out)

    model_file = tmp_path / "model.txt"
    lifted_file = tmp_path / "lifted.txt"
    model, _ = build_counter_ssl_model(1)
    model_file.write_text(save_model(model))
    code, out, _ = run(capsys, "lift", "--model", str(model_file),
                       "--formula", str(formula_file),
                       "--out", str(lifted_file))
    assert code == 0
    assert report_dict(out)["translated-holds"] == "pass"
    code, out, _ = run(capsys, "restrict", "--model", str(lifted_file),
                       "--formula", str(formula_file))
    assert code == 0
    assert report_dict(out)["formula-holds"] == "pass"


def test_verify_pipeline(capsys, m1_path):
    code, out, _ = run(capsys, "verify", "pipeline", "--atm", m1_path,
                       "--w", "a", "--poly", "2,1")
    assert code == 0
    report = report_dict(out)
    assert report["result"] == "pass"
    assert report["extractions-agree"] == "pass"


def test_verify_pipeline_reports_an_extraction_error(monkeypatch, capsys, m1_path):
    from bimodal import cli, red_s4s5
    from bimodal.reduction import ExtractionError

    def grow_tree(red, *args):
        if red is red_s4s5.S4S5:
            raise ExtractionError("witness-not-found", "stubbed")
        return real(red, *args)

    real = cli.grow_tree
    monkeypatch.setattr(cli, "grow_tree", grow_tree)
    code, out, err = run(capsys, "verify", "pipeline", "--atm", m1_path,
                         "--w", "a", "--poly", "2,1")
    assert code == 1
    lines = out.splitlines()
    assert "s4s5-extraction-error: witness-not-found: stubbed" in lines
    assert "s4s5-extraction: fail" in lines
    assert "ssl-tree-matches: pass" in lines
    assert not any(line.startswith(("s4s5-tree-matches", "extractions-agree"))
                   for line in lines)
    assert lines[-1] == "result: fail"
    assert "pipeline verification failed" in err


def test_atm_run_names_a_malformed_machine_file(tmp_path, capsys):
    machine = tmp_path / "twice.atm"
    machine.write_text(M1_PATH.read_text() + "init: q1\n")
    code, out, err = run(capsys, "atm", "run", "--atm", str(machine), "--w", "a",
                         "--fuel", "5")
    assert code == 1
    assert out == ""
    assert err == "error: repeated field 'init' on line 16\n"


def test_translate_s4s5_to_k4s5_counts_box_subformulas(tmp_path, capsys):
    from bimodal.red_s4s5 import gen_f_s4s5
    from bimodal.reduction import ReductionParams
    from bimodal.translations import t_s4s5_to_k4s5
    f = gen_f_s4s5(ReductionParams(am.parse_atm(M1_PATH.read_text()), [2, 1], "a"))[0]
    formula_file = tmp_path / "f.txt"
    formula_file.write_text(fm.render(f) + "\n")
    code, out, _ = run(capsys, "translate", "s4s5-k4s5",
                       "--formula", str(formula_file))
    assert code == 0
    report = report_dict(out)
    assert report["command"] == "translate s4s5-k4s5"
    assert report["box-subformulas"] == str(len(t_s4s5_to_k4s5(f).box_subformulas))
    assert report["result"] == "pass"


def test_verify_pipeline_without_an_accepting_tree_fails(tmp_path, capsys):
    from tests.test_rejection import NEAR_MISS_TEXT
    machine = tmp_path / "near_miss.atm"
    machine.write_text(NEAR_MISS_TEXT)
    code, out, err = run(capsys, "verify", "pipeline", "--atm", str(machine),
                         "--w", "bbb", "--poly", "0,1")
    assert code == 1
    report = report_dict(out)
    assert report["accepting-tree-found"] == "fail"
    assert report["result"] == "fail"
    assert "no accepting tree" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "check", "--model", "/nonexistent",
                       "--formula", "/nonexistent")
    assert code == 1
    assert "error:" in err
