"""Rejected inputs through the reductions: the "only if" direction.

fan's universal state q0 has two moves on b.  The near-miss machine
points one of them, `q0 b -> q0 a R`, at the rejecting state, so every
run on a word with a b in the universal phase has a rejecting branch and
the mutant accepts neither "bbb" nor "abbb", where fan accepts both.  The
formula of the mutant must then be false at every world of fan's
witnesses, and the CLI must refuse to build a witness for it.
"""

import pytest

from bimodal import atm as am
from bimodal import red_s4s5, red_ssl
from bimodal.cli import main
from bimodal.reduction import ReductionParams
from tests.conftest import FAN_PATH

FAN_TEXT = FAN_PATH.read_text()
NEAR_MISS_TEXT = FAN_TEXT.replace("delta: q0 b -> q0 a R\n",
                                  "delta: q0 b -> qrej a R\n")
LOGICS = {"ssl": (red_ssl.gen_f_ssl, red_ssl.build_f_ssl_model),
          "s4s5": (red_s4s5.gen_f_s4s5, red_s4s5.build_f_s4s5_model)}


def test_near_miss_differs_in_one_transition():
    assert NEAR_MISS_TEXT != FAN_TEXT
    changed = set(NEAR_MISS_TEXT.splitlines()) ^ set(FAN_TEXT.splitlines())
    assert changed == {"delta: q0 b -> q0 a R", "delta: q0 b -> qrej a R"}


@pytest.mark.parametrize("logic", sorted(LOGICS))
@pytest.mark.parametrize("w, worlds", [("bbb", {"ssl": 701, "s4s5": 576}),
                                       ("abbb", {"ssl": 812, "s4s5": 625})])
def test_near_miss_formula_holds_nowhere_on_the_witness(w, worlds, logic):
    gen, build = LOGICS[logic]
    fan = am.parse_atm(FAN_TEXT)
    near_miss = am.parse_atm(NEAR_MISS_TEXT)
    params = ReductionParams(fan, [0, 1], w)
    bound = 2 ** params.N - 1
    assert am.find_accepting_tree(near_miss, w, bound) is None
    model, point = build(params, am.find_accepting_tree(fan, w, bound))
    assert len(model.worlds) == worlds[logic]
    assert model.eval(point, gen(params)[0])
    # the same window size, so the same vocabulary over the same atoms
    f_near_miss, _ = gen(ReductionParams(near_miss, [0, 1], w))
    assert model.sat_set(f_near_miss) == []


@pytest.mark.parametrize("logic", sorted(LOGICS))
def test_build_model_refuses_a_rejected_input(tmp_path, capsys, logic):
    atm_file = tmp_path / "near_miss.atm"
    atm_file.write_text(NEAR_MISS_TEXT)
    out_file = tmp_path / "model.txt"
    code = main(["build", "model", "--logic", logic, "--atm", str(atm_file),
                 "--w", "bbb", "--poly", "0,1", "--out", str(out_file)])
    assert code == 1
    assert ("the machine does not accept 'bbb' within 7 steps"
            in capsys.readouterr().err)
    assert not out_file.exists()
