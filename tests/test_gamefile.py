from __future__ import annotations

import json
from fractions import Fraction

import pytest

from stopgame.cli import main
from stopgame.errors import ParseError, ValidationError
from stopgame.gamefile import (
    GameDoc,
    emit_game,
    parse_game,
    profile_from_obj,
    profile_to_obj,
)
from stopgame.generator import generate_instance
from stopgame.space import constant_time
from stopgame.strategy import lift_constant3
from stopgame.verify import resolve_profile


def make_doc(seed=31, **kw):
    inst = generate_instance(seed, **kw)
    return GameDoc(
        space=inst.space,
        fields=inst.fields,
        theta=constant_time(inst.space, 0),
        epsilon=inst.epsilon,
        h=None,
    )


def test_game_roundtrip():
    doc = make_doc(n_outcomes=3, n_times=4)
    text = emit_game(doc)
    back = parse_game(text)
    assert back.space == doc.space
    assert back.fields == doc.fields
    assert back.theta == doc.theta
    assert back.epsilon == doc.epsilon
    assert emit_game(back) == text


def test_parse_rejects_bad_weights():
    doc = make_doc()
    obj = json.loads(emit_game(doc))
    obj["outcomes"][0]["weight"] = "3/5"
    with pytest.raises(ValidationError, match="sum"):
        parse_game(json.dumps(obj))


def test_parse_rejects_missing_payoff_entry():
    doc = make_doc()
    obj = json.loads(emit_game(doc))
    obj["payoffs"][0][0] = obj["payoffs"][0][0][:-1]  # drop one time branch
    with pytest.raises(ParseError, match="missing entries"):
        parse_game(json.dumps(obj))


def test_parse_rejects_non_adapted_payoff():
    doc = make_doc()
    obj = json.loads(emit_game(doc))
    # make the all-zero time tuple distinguish outcomes under a trivial F_0
    layer = obj["payoffs"][0][0][0][0]
    layer[0] = "1"
    layer[1] = "0"
    with pytest.raises(ValidationError, match="settled"):
        parse_game(json.dumps(obj))


def test_parse_rejects_bad_start():
    doc = make_doc()
    obj = json.loads(emit_game(doc))
    obj["start"][0] = "17/3"
    with pytest.raises(ValidationError, match="start"):
        parse_game(json.dumps(obj))


def test_profile_roundtrip_order3():
    doc = make_doc()
    profile = [lift_constant3(doc.space, s, min(s, 2)) for s in range(3)]
    obj = profile_to_obj(doc.space, profile)
    back = profile_from_obj(doc.space, obj)
    assert resolve_profile(doc.space, back) == resolve_profile(doc.space, profile)
    assert back == profile


def test_cli_gen_solve_verify_roundtrip(tmp_path):
    game = tmp_path / "game.json"
    rep = tmp_path / "report.json"
    ver = tmp_path / "verify.json"
    assert main(["gen", "--seed", "9", "--outcomes", "2", "--times", "3", "--out", str(game)]) == 0
    assert main(["solve", "--game", str(game), "--out", str(rep)]) == 0
    assert main(["verify", "--game", str(game), "--profile", str(rep), "--out", str(ver)]) == 0
    r = json.loads(rep.read_text())
    v = json.loads(ver.read_text())
    assert r["max_gap"] == v["max_gap"]
    assert [p["gap"] for p in r["per_player"]] == [p["gap"] for p in v["per_player"]]


def test_cli_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["gen", "--seed", "3", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_solve_deterministic(tmp_path):
    game = tmp_path / "game.json"
    main(["gen", "--seed", "4", "--out", str(game)])
    a, b = tmp_path / "ra.json", tmp_path / "rb.json"
    for out in (a, b):
        assert main(["solve", "--game", str(game), "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_corrupted_profile_fails(tmp_path):
    """Stopping immediately in a game that rewards waiting fails loudly."""
    from stopgame.payoff import payoff_from_function
    from stopgame.space import FilteredSpace, make_grid

    space = FilteredSpace(
        grid=make_grid(["0", "1/10", "1/5", "3/10"]),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        partitions=(((0, 1),), ((0,), (1,)), ((0,), (1,)), ((0,), (1,))),
    )
    pts = space.grid.points
    fields = tuple(
        payoff_from_function(
            space, 3, lambda ks, w, i=i: Fraction(1, 2) + Fraction(4, 5) * pts[ks[i]]
        )
        for i in range(3)
    )
    doc = GameDoc(
        space=space,
        fields=fields,
        theta=constant_time(space, 0),
        epsilon=Fraction(1, 1000),
        h=None,
    )
    game = tmp_path / "game.json"
    game.write_text(emit_game(doc))
    profile = [lift_constant3(space, s, 0) for s in range(3)]
    prof = tmp_path / "prof.json"
    prof.write_text(json.dumps(profile_to_obj(space, profile)))
    out = tmp_path / "v.json"
    code = main(["verify", "--game", str(game), "--profile", str(prof), "--out", str(out)])
    assert code == 1
    rep_obj = json.loads(out.read_text())
    assert not rep_obj["passes"]
    offending = [p for p in rep_obj["per_player"] if not p["passes"]]
    assert offending and all("max_gap" in p for p in offending)


def test_cli_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "r.json"
    assert main(["solve", "--game", str(bad), "--out", str(out)]) == 2
    assert main(["solve", "--game", str(tmp_path / "nope.json"), "--out", str(out)]) == 2


def test_cli_report_renders(tmp_path, capsys):
    game = tmp_path / "game.json"
    rep = tmp_path / "report.json"
    main(["gen", "--seed", "11", "--out", str(game)])
    main(["solve", "--game", str(game), "--out", str(rep)])
    assert main(["report", "--in", str(rep)]) == 0
    out = capsys.readouterr().out
    assert "passes: True" in out


def test_cli_two_player_flow(tmp_path):
    game = tmp_path / "g2.json"
    rep = tmp_path / "r2.json"
    ver = tmp_path / "v2.json"
    assert main(
        ["gen", "--seed", "5", "--players", "2", "--outcomes", "2", "--times", "3",
         "--out", str(game)]
    ) == 0
    assert main(["solve", "--game", str(game), "--out", str(rep)]) == 0
    assert main(["verify", "--game", str(game), "--profile", str(rep), "--out", str(ver)]) == 0
    r = json.loads(rep.read_text())
    v = json.loads(ver.read_text())
    assert r["players"] == 2
    assert r["bound"] == v["bound"]
    assert r["max_gap"] == v["max_gap"]


def test_roundtrip_many_instances():
    for seed in range(50, 60):
        doc = make_doc(seed, n_outcomes=2 + seed % 2, n_times=3 + seed % 2)
        assert parse_game(emit_game(doc)).fields == doc.fields


def test_cli_solve_overrides(tmp_path):
    game = tmp_path / "g.json"
    rep = tmp_path / "r.json"
    main(["gen", "--seed", "6", "--out", str(game)])
    doc = parse_game(game.read_text())
    step = doc.space.grid.min_step
    assert main(
        ["solve", "--game", str(game), "--epsilon", "1/10", "--h", str(step), "--out", str(rep)]
    ) == 0
    obj = json.loads(rep.read_text())
    assert obj["epsilon"] == "1/10"
    assert obj["bound"] == "13/10"


STRUCTURAL_ERRORS = [
    pytest.param("solve", lambda g: g["outcomes"][0].pop("weight"), None, (), id="no-weight"),
    pytest.param("solve", lambda g: g.update(players="three"), None, (), id="players-word"),
    pytest.param("solve", lambda g: g.update(grid=5), None, (), id="scalar-grid"),
    pytest.param(
        "solve", lambda g: g["partitions"][0][0].__setitem__(0, "a"), None, (), id="partition-id"
    ),
    pytest.param(
        "verify", None, lambda r: r["profile"]["strategies"][0].pop("initial"), (),
        id="no-initial",
    ),
    *(
        pytest.param("solve", None, None, (flag, value), id=f"{flag[2:]}={value}")
        for flag in ("--h", "--epsilon")
        for value in ("0", "-1", "abc")
    ),
]


@pytest.mark.parametrize("command, edit_game, edit_report, flags", STRUCTURAL_ERRORS)
def test_cli_structural_input_exits_2(tmp_path, capsys, command, edit_game, edit_report, flags):
    """Malformed input is an input error (2), never a certification failure (1)."""
    game, rep = tmp_path / "g.json", tmp_path / "r.json"
    assert main(["gen", "--seed", "5", "--players", "2", "--outcomes", "2", "--times", "3",
                 "--out", str(game)]) == 0
    assert main(["solve", "--game", str(game), "--out", str(rep)]) == 0
    for path, edit in ((game, edit_game), (rep, edit_report)):
        if edit is not None:
            obj = json.loads(path.read_text())
            edit(obj)
            path.write_text(json.dumps(obj))
    argv = [command, "--game", str(game), "--out", str(tmp_path / "o.json"), *flags]
    if command == "verify":
        argv += ["--profile", str(rep)]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad flag value
        code = exc.code
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_report_rejects_partial_report(tmp_path, capsys):
    game, rep = tmp_path / "g.json", tmp_path / "r.json"
    main(["gen", "--seed", "5", "--players", "2", "--outcomes", "2", "--times", "3",
          "--out", str(game)])
    main(["solve", "--game", str(game), "--out", str(rep)])
    obj = json.loads(rep.read_text())
    del obj["per_player"][0]["max_gap"]
    rep.write_text(json.dumps(obj))
    assert main(["report", "--in", str(rep)]) == 2
    assert "input error: report: missing field 'max_gap'" in capsys.readouterr().err
