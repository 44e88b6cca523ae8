from __future__ import annotations

import dataclasses
import itertools
import json
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SETTINGS, assert_parses_as_reference
from oracles import reference_s2f
from stopgame.cli import main
from stopgame.errors import ParseError, ValidationError
from stopgame.gamefile import (
    GameDoc,
    _s2f,
    dump_report,
    emit_game,
    parse_game,
    profile_from_obj,
    profile_to_obj,
)
from stopgame.generator import generate_instance
from stopgame.payoff import PayoffField
from stopgame.space import constant_time
from stopgame.strategy import lift_constant3, lift_obstinate2
from stopgame.verify import certify_nash, resolve_profile


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


def test_profile_time_lookups_keep_their_errors():
    """Repeated time strings resolve once; a bool or an off-grid time still fails."""
    doc = make_doc()
    obj = profile_to_obj(doc.space, [lift_constant3(doc.space, s, 1) for s in range(3)])
    first = obj["strategies"][0]["initial"][0]
    assert profile_from_obj(doc.space, json.loads(json.dumps(obj)))
    for bad, message in ((True, "initial: not a rational: True"), ("7/3", "7/3 is not a grid point")):
        broken = json.loads(json.dumps(obj))
        broken["strategies"][1]["initial"] = [first, bad] + broken["strategies"][1]["initial"][2:]
        with pytest.raises(ParseError, match=message):
            profile_from_obj(doc.space, broken)


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


NOT_UTF8 = b'{"weights": ["1/2", "1/2"], "note": "\xff\xfe"}'


@pytest.mark.parametrize("command, bad", [
    ("solve", "game-dir"),
    ("solve", "game-bytes"),
    ("verify", "game-bytes"),
    ("verify", "profile-bytes"),
    ("verify", "profile-dir"),
    ("report", "report-bytes"),
    ("report", "report-dir"),
])
def test_cli_unreadable_file_exits_2(tmp_path, capsys, command, bad):
    """A directory or a non-UTF-8 file given as a game, profile or report is
    an input error (2) with one line and no traceback."""
    game, rep = tmp_path / "g.json", tmp_path / "r.json"
    assert main(["gen", "--seed", "5", "--players", "2", "--outcomes", "2", "--times", "3",
                 "--out", str(game)]) == 0
    assert main(["solve", "--game", str(game), "--out", str(rep)]) == 0
    role, kind = bad.split("-")
    target = {"game": game, "profile": rep, "report": rep}[role]
    target.unlink()
    if kind == "dir":
        target.mkdir()
    else:
        target.write_bytes(NOT_UTF8)
    argv = {
        "solve": ["solve", "--game", str(game), "--out", str(tmp_path / "o.json")],
        "verify": ["verify", "--game", str(game), "--profile", str(rep),
                   "--out", str(tmp_path / "o.json")],
        "report": ["report", "--in", str(rep)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(target) in err


def _set_players(obj, v):
    obj["players"] = v


def _set_partition_block(obj, v):
    obj["partitions"][0][0] = v


def _set_order(obj, v):
    obj["profile"]["strategies"][0]["order"] = v


def _set_seat(obj, v):
    obj["profile"]["strategies"][0]["seat"] = v


def _rename_react_one_key(obj, v):
    table = obj["profile"]["strategies"][0]["react_one"]
    table[v] = table.pop("1")


def _rename_react_two_key(obj, v):
    table = obj["profile"]["strategies"][0]["react_two"]
    table[v] = table.pop("0,1")


@pytest.mark.parametrize("players, role, edit, value, message", [
    (2, "game", _set_players, 2.5, "players: need a JSON integer, got 2.5"),
    (2, "game", _set_players, 2.0, "players: need a JSON integer, got 2.0"),
    (2, "game", _set_players, "2", "players: need a JSON integer, got '2'"),
    (2, "game", _set_players, True, "players: need a JSON integer, got True"),
    (2, "game", _set_partition_block, [0.0, 1.9], "partitions: need a JSON integer, got 0.0"),
    (2, "game", _set_partition_block, [0, "1"], "partitions: need a JSON integer, got '1'"),
    (2, "profile", _set_order, 2.0, "order: need a JSON integer, got 2.0"),
    (2, "profile", _set_order, "2", "order: need a JSON integer, got '2'"),
    (3, "profile", _set_seat, 0.0, "seat: need a JSON integer, got 0.0"),
    (3, "profile", _set_seat, False, "seat: need a JSON integer, got False"),
    (3, "profile", _rename_react_two_key, "0,1,2",
     "react_two key '0,1,2': expected two grid indices \"a,b\""),
    (3, "profile", _rename_react_two_key, "0",
     "react_two key '0': expected two grid indices \"a,b\""),
    (3, "profile", _rename_react_two_key, "x,1",
     "react_two key 'x,1': expected two grid indices \"a,b\""),
    (3, "profile", _rename_react_one_key, "x", "react_one key 'x': expected a seat index"),
], ids=["players-float", "players-integral-float", "players-string", "players-bool",
        "partition-floats", "partition-string", "order-float", "order-string",
        "seat-float", "seat-bool", "react-two-key-three-indices", "react-two-key-one-index",
        "react-two-key-word", "react-one-key-word"])
def test_cli_non_integer_counts_and_indices_exit_2(
    tmp_path, capsys, players, role, edit, value, message
):
    """Player counts, partition outcome indices, strategy orders and seats
    must be JSON integers: a float, string or boolean is an input error (2)
    naming the field, never truncated or coerced.  A reaction key that is
    not one seat index ("q") or two grid indices ("a,b") is an input error
    naming its table and the key."""
    game, rep = tmp_path / "g.json", tmp_path / "r.json"
    assert main(["gen", "--seed", "5", "--players", str(players), "--outcomes", "2",
                 "--times", "3", "--out", str(game)]) == 0
    assert main(["solve", "--game", str(game), "--out", str(rep)]) == 0
    target = {"game": game, "profile": rep}[role]
    obj = json.loads(target.read_text())
    edit(obj, value)
    target.write_text(json.dumps(obj))
    argv = ["verify", "--game", str(game), "--profile", str(rep), "--out", str(tmp_path / "v.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert message in err


NON_OBJECT_DOCUMENTS = [
    pytest.param("game", "[]", "game: expected a JSON object, got list", id="game-list"),
    pytest.param("game", '"x"', "game: expected a JSON object, got str", id="game-string"),
    pytest.param("game", "null", "game: expected a JSON object, got null", id="game-null"),
    pytest.param("game", "3", "game: expected a JSON object, got int", id="game-int"),
    pytest.param("profile", "[]", "profile: expected a JSON object, got list", id="profile-list"),
    pytest.param(
        "profile", "null", "profile: expected a JSON object, got null", id="profile-null"
    ),
    pytest.param(
        "profile", '{"profile": [1]}', "profile: expected a JSON object, got list",
        id="report-profile-list",
    ),
    pytest.param(
        "profile", '{"strategies": [1, 2, 3]}',
        "profile: strategy 0: expected a JSON object, got int", id="strategy-int",
    ),
    pytest.param(
        "profile", '{"profile": {"strategies": ["a"]}}',
        "profile: strategy 0: expected a JSON object, got str", id="report-strategy-string",
    ),
]


@pytest.mark.parametrize("role, text, message", NON_OBJECT_DOCUMENTS)
def test_cli_non_object_documents_exit_2(tmp_path, capsys, role, text, message):
    """A game, profile or strategy that is valid JSON but not a JSON object
    is an input error (2) saying what was expected and what came, not a
    Python error text."""
    game, rep = tmp_path / "g.json", tmp_path / "r.json"
    assert main(["gen", "--seed", "5", "--players", "2", "--outcomes", "2", "--times", "3",
                 "--out", str(game)]) == 0
    assert main(["solve", "--game", str(game), "--out", str(rep)]) == 0
    {"game": game, "profile": rep}[role].write_text(text)
    capsys.readouterr()
    argv = ["verify", "--game", str(game), "--profile", str(rep), "--out", str(tmp_path / "v.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    if role == "game":
        assert main(["solve", "--game", str(game), "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


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


@pytest.mark.parametrize("players", (2, 3))
def test_cli_solve_timings_adds_only_timings(tmp_path, players):
    """--timings adds one key; everything else is the default report's bytes."""
    game, plain, timed = tmp_path / "g.json", tmp_path / "plain.json", tmp_path / "timed.json"
    assert main(["gen", "--seed", "9", "--players", str(players), "--outcomes", "2",
                 "--times", "3", "--out", str(game)]) == 0
    assert main(["solve", "--game", str(game), "--out", str(plain)]) == 0
    assert main(["solve", "--game", str(game), "--timings", "--out", str(timed)]) == 0
    obj = json.loads(timed.read_text())
    timings = obj.pop("timings")
    assert set(timings) == {"solve_seconds"} and timings["solve_seconds"] >= 0
    assert dump_report(obj) == plain.read_text()


@pytest.mark.parametrize("flag, value", [
    ("--times", "0"), ("--times", "1"), ("--outcomes", "0"), ("--outcomes", "-1"),
    ("--modulus", "0"), ("--modulus", "abc"), ("--epsilon", "abc"), ("--epsilon", "0"),
])
def test_cli_gen_bad_flag_exits_2(tmp_path, capsys, flag, value):
    """Out-of-range gen flags are input errors (2), reported by argparse."""
    game = tmp_path / "g.json"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--seed", "1", flag, value, "--out", str(game)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not game.exists()


@pytest.mark.parametrize("command, flag", [
    ("gen", "--epsilon"), ("gen", "--modulus"), ("solve", "--h"), ("solve", "--epsilon"),
])
@pytest.mark.parametrize("value", ["-1/2", "-3/7"])
def test_cli_negative_rational_flag_reaches_rational_check(tmp_path, capsys, command, flag, value):
    """A negative rational given as a separate token is read as the flag's value
    and rejected by the positive-rational check, not taken for an option."""
    game, out = tmp_path / "g.json", tmp_path / "o.json"
    assert main(["gen", "--seed", "5", "--players", "2", "--outcomes", "2", "--times", "3",
                 "--out", str(game)]) == 0
    argv = {"gen": ["gen", "--seed", "1"], "solve": ["solve", "--game", str(game)]}[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be a positive rational, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


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
    *(
        pytest.param("solve", lambda g, v=value: g.update(h=v), None, (), id=f"file-h={value}")
        for value in ("0", "-1")
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


def _strategy(obj, seat=0):
    return obj["profile"]["strategies"][seat]


INVALID_PROFILES = [
    pytest.param(
        3, lambda r, _: _strategy(r).update(initial=["0", "1/200"]), id="initial-not-stopping"
    ),
    pytest.param(
        3, lambda r, _: _strategy(r)["react_one"]["1"].__setitem__(1, ["1/200", "1/200"]),
        id="react-not-strictly-later",
    ),
    pytest.param(3, lambda r, _: _strategy(r)["react_one"].pop("2"), id="missing-react-one"),
    pytest.param(3, lambda r, _: _strategy(r).update(seat=7), id="seat-7"),
    pytest.param(3, lambda r, _: _strategy(r, 1).update(seat=0), id="duplicate-seat"),
    pytest.param(
        2, lambda r, three: r["profile"]["strategies"].__setitem__(0, _strategy(three)),
        id="order-3-in-2-player",
    ),
    # a second key for one observation pair or one seat, read by int() per part
    pytest.param(
        3, lambda r, _: _strategy(r)["react_two"].__setitem__(
            "00,1", _strategy(r)["react_two"]["0,1"]
        ), id="duplicate-react-two-key",
    ),
    pytest.param(
        3, lambda r, _: _strategy(r)["react_one"].__setitem__("01", _strategy(r)["react_one"]["1"]),
        id="duplicate-react-one-key",
    ),
]


@pytest.mark.parametrize("players, edit", INVALID_PROFILES)
def test_cli_verify_rejects_invalid_strategies(tmp_path, capsys, players, edit):
    """A profile breaking the strategy rules is an input error, never certified."""
    reports = {}
    for n in (players, 3):
        game, rep = tmp_path / f"g{n}.json", tmp_path / f"r{n}.json"
        assert main(["gen", "--seed", "3", "--players", str(n), "--outcomes", "2",
                     "--times", "3", "--out", str(game)]) == 0
        assert main(["solve", "--game", str(game), "--out", str(rep)]) == 0
        reports[n] = json.loads(rep.read_text())
    edit(reports[players], reports[3])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(reports[players]))
    capsys.readouterr()
    code = main(["verify", "--game", str(tmp_path / f"g{players}.json"), "--profile", str(bad),
                 "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def _read(fn, x):
    """(accepted value) or (exception type, message) of one value reader."""
    try:
        return ("ok", fn(x, "where"))
    except Exception as exc:  # the type and text are compared, whatever they are
        return ("raise", type(exc), str(exc))


def _same_reading(x):
    mine, ref = _read(_s2f, x), _read(reference_s2f, x)
    assert mine == ref
    if mine[0] == "ok":
        assert type(mine[1]) is Fraction


PINNED_VALUES = (
    "1 /2", "1/ 2", "1/-2", "+1/2", " 1/2 ", "1_0/3", "١/٢", "1/0", "-0/5", "01/02",
    "1.5", "1e3", "1" * 5000, "1/" + "3" * 5000, "-7", "0", "-12/18", "0/00", "1/2\n",
    "", "-", "/", "1/", "/2", "--1/2", "1//2", "²/3", "nan", "inf",
    # at the edge of the bulk reader's character check, [0-9/-]
    ",", "1,2", "1/2,3", "2/-0", "-/2", "0/-3", "1-2",
)


@pytest.mark.parametrize("x", PINNED_VALUES, ids=range(len(PINNED_VALUES)))
def test_s2f_matches_reference_on_pinned_values(x):
    _same_reading(x)


_PIECES = st.sampled_from(
    ["0", "1", "7", "09", "-", "+", "/", ".", "e", "E", "_", " ", "\t", "\n",
     "١", "٢", "²", "x", "inf", "nan", "j", "1/0", "00"]
)
_JSON_VALUES = st.one_of(
    st.lists(_PIECES, max_size=8).map("".join),
    st.builds(
        lambda sign, p, q, pad: f"{pad}{sign}{p}/{q}{pad}",
        st.sampled_from(("", "-", "+", "--")),
        st.integers(0, 10**25).map(str),
        st.integers(0, 10**25).map(str),
        st.sampled_from(("", " ", "0")),
    ),
    st.decimals(allow_nan=True).map(str),
    st.floats().map(repr),
    st.text(max_size=12),
    st.integers(-10**30, 10**30),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
)


@settings(max_examples=600, **SETTINGS)
@given(x=_JSON_VALUES)
def test_s2f_matches_reference(x):
    """The integer fast path accepts, rejects, values and words every drawn
    string or JSON value exactly as the plain ``rat`` reader does."""
    _same_reading(x)


def _edited(obj, path, value):
    """A copy of a JSON object with the entry at ``path`` replaced."""
    obj = json.loads(json.dumps(obj))
    node = obj
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return obj


def test_parse_error_texts_unchanged():
    """Lazily built labels read as the eager ones did (texts taken from the
    reader they replaced); a non-adapted game names its first bad tuple."""
    game = json.loads(emit_game(make_doc()))
    for path, new, message in (
        (("payoffs", 1, 0, 2, 3, 1), "x", "payoff[1](0, 2, 3): not a rational: 'x'"),
        (("payoffs", 0, 0), game["payoffs"][0][0][:-1],
         "payoff[0] missing entries under times (0,)"),
        (("payoffs", 1, 2, 0, 1), ["1"],
         "payoff[1] at times (2, 0, 1): need one value per outcome"),
        (("payoffs", 2), "x", "payoff[2] missing entries under times ()"),
    ):
        with pytest.raises(ParseError) as err:
            parse_game(json.dumps(_edited(game, path, new)))
        assert str(err.value) == message

    # blocks (0, 1, 2) at index 1 and (1, 2) at indices 2 and 3
    game = json.loads(emit_game(make_doc(7, n_outcomes=4, n_times=5)))
    for ks in ((2, 1, 0), (0, 1, 2), (1, 1, 0)):
        game = _edited(game, ("payoffs", 2, *ks, 1), "12345/7")
    with pytest.raises(ValidationError) as err:
        parse_game(json.dumps(game))
    assert str(err.value) == "payoff[2] not settled at the latest stop for times (0, 1, 2)"


def test_profile_error_texts_unchanged():
    """Bad profile times keep their row labels, built only on failure."""
    space3, space2 = make_doc().space, make_doc(n_players=2).space
    profile3 = profile_to_obj(space3, [lift_constant3(space3, s, 1) for s in range(3)])
    profile2 = profile_to_obj(
        space2, [lift_obstinate2(space2, constant_time(space2, k)) for k in (1, 2)]
    )
    for space, profile, path, bad, message in (
        (space3, profile3, (0, "initial", 0), "x", "initial: not a rational: 'x'"),
        (space3, profile3, (1, "react_one", "2", 1, 0), "1/0",
         "react_one[2][1]: not a rational: '1/0'"),
        (space3, profile3, (2, "react_two", "1,2", 1), "7/3",
         "react_two[1,2]: 7/3 is not a grid point"),
        (space3, profile3, (0, "react_two", "3,0", 0), None,
         "react_two[3,0]: not a rational: None"),
        (space2, profile2, (1, "react", 2, 1), "2.5e", "react[2]: not a rational: '2.5e'"),
        (space2, profile2, (0, "react", 3, 0), "1/7", "react[3]: 1/7 is not a grid point"),
    ):
        with pytest.raises(ParseError) as err:
            profile_from_obj(space, _edited(profile, ("strategies", *path), bad))
        assert str(err.value) == message


def _gen(tmp_path, seed, players, outcomes, times):
    path = tmp_path / f"g{seed}-{players}-{outcomes}x{times}.json"
    assert main(["gen", "--seed", str(seed), "--players", str(players), "--outcomes",
                 str(outcomes), "--times", str(times), "--out", str(path)]) == 0
    return path


def test_parse_matches_reference_on_golden_bench_and_large_games(tmp_path):
    """The 8 golden games, games of the bench sizes (3-player 4x6 and 3x7,
    2-player 6x10 and 8x12) and the 3x20 game parse to the reference's
    fields under ==, with its den and rows."""
    from test_golden import GOLDEN

    games = [case[:4] for case in GOLDEN]
    games += [(1000 + i, 3, 4, 6) for i in range(3)] + [(1004, 3, 3, 7)]
    games += [(1000 + i, 2, 6, 10) for i in range(3)] + [(1004, 2, 8, 12)]
    games.append((3, 3, 3, 20))
    for seed, players, outcomes, times in games:
        assert_parses_as_reference(_gen(tmp_path, seed, players, outcomes, times).read_text())


@pytest.mark.parametrize("later", [1.0, True])
@pytest.mark.parametrize("first", [1, "1"])
def test_equal_json_values_are_read_one_by_one(tmp_path, capsys, first, later):
    """``True == 1 == 1.0``: a payoff read once per distinct string must not
    let a float or a boolean after an equal integer or string pass as it."""
    game = json.loads(emit_game(make_doc()))
    game = _edited(game, ("payoffs", 0, 0, 0, 0, 0), first)
    game = _edited(game, ("payoffs", 0, 0, 0, 1, 0), later)
    text = json.dumps(game)
    message = f"payoff[0](0, 0, 1): not a rational: {later!r}"
    assert_parses_as_reference(text)
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_game(text)
    path = tmp_path / "g.json"
    path.write_text(text)
    capsys.readouterr()
    assert main(["solve", "--game", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_parse_error_order_matches_reference():
    """Two faults in one tensor: the one first in depth-first order is
    raised, whether it is a bad value or a node of the wrong shape."""
    base = json.loads(emit_game(make_doc()))
    faults = [
        (("payoffs", 1, 0, 2, 3, 1), "x"),
        (("payoffs", 1, 0, 3), ["1"]),
        (("payoffs", 1, 1), "x"),
        (("payoffs", 1, 0, 1, 2), []),
        (("payoffs", 1, 0, 0, 0, 0), None),
    ]
    for (path_a, a), (path_b, b) in itertools.permutations(faults, 2):
        assert_parses_as_reference(json.dumps(_edited(_edited(base, path_a, a), path_b, b)))


# payoffs outside the bulk grammar that Fraction reads: JSON integers, signs,
# spaces, decimals and exponents
EXACT_ONLY = (1, -3, 10**30, "+1/2", " 1/2", "1/2 ", "0.5", "-0.25", "1e0")


def test_exact_path_matches_reference_on_mixed_tensors():
    """Bulk-readable tensors given values only the exact path reads, one at
    a time and all at once, parse as the reference parser does; with a bad
    value and a bad node added, the first in tuple order is raised, either
    way round.  Every spot has a time at which the outcomes are apart, so
    any value there is settled."""
    base = json.loads(emit_game(make_doc()))
    spots = [("payoffs", 1, i % 4, 1 + i % 3, 3, i % 2) for i in range(len(EXACT_ONLY))]
    mixed = base
    for path, x in zip(spots, EXACT_ONLY):
        assert_parses_as_reference(json.dumps(_edited(base, path, x)))
        mixed = _edited(mixed, path, x)
    doc = parse_game(json.dumps(mixed))
    read = [doc.fields[1].at(path[2:5])[path[5]] for path in spots]
    assert read == [Fraction(x) for x in EXACT_ONLY]
    assert_parses_as_reference(json.dumps(mixed))
    for faults, message in (
        ([(("payoffs", 1, 1, 0, 2, 1), 0.5), (("payoffs", 1, 2, 1), ["1"])],
         "payoff[1](1, 0, 2): not a rational: 0.5"),
        ([(("payoffs", 1, 0, 3), "x"), (("payoffs", 1, 1, 0, 2, 1), "x")],
         "payoff[1] missing entries under times (0, 3)"),
    ):
        game = mixed
        for path, bad in faults:
            game = _edited(game, path, bad)
        assert_parses_as_reference(json.dumps(game))
        with pytest.raises(ParseError) as err:
            parse_game(json.dumps(game))
        assert str(err.value) == message


def _count_at(monkeypatch) -> list:
    """Record every call of ``PayoffField.at``, the one ``Fraction`` reader
    of a field."""
    calls, at = [], PayoffField.at
    monkeypatch.setattr(PayoffField, "at", lambda field, ks: calls.append(ks) or at(field, ks))
    return calls


@pytest.mark.parametrize("players", [2, 3])
def test_verify_path_builds_no_payoff_fraction(tmp_path, monkeypatch, players):
    """Solving, parsing and certifying a solve's profile read only the
    fields' integer rows: no field's ``Fraction`` reader is called."""
    calls = _count_at(monkeypatch)
    game, report = _gen(tmp_path, 5, players, 3, 5), tmp_path / "r.json"
    assert main(["solve", "--game", str(game), "--out", str(report)]) == 0
    doc = parse_game(game.read_text())
    profile = profile_from_obj(doc.space, json.loads(report.read_text()))
    cert = certify_nash(doc.space, doc.fields, profile, doc.theta, doc.epsilon)
    assert cert.passes
    assert calls == []
    doc.fields[0].at((0,) * players)
    assert len(calls) == 1  # the counter is live


def test_solve_path_builds_no_payoff_fraction(tmp_path, monkeypatch):
    """A three-player solve reads its payoffs only as integer rows: parsing,
    solving and verifying the golden three-player games and two bench-size
    games (4x6 at the minimal grid step, 3x5 at auto h) never call a
    field's ``Fraction`` reader."""
    from test_golden import GOLDEN

    calls = _count_at(monkeypatch)
    games = [case for case in GOLDEN if case[1] == 3]
    games += [(1004, 3, 4, 6, True), (1000, 3, 3, 5, False)]
    for seed, players, outcomes, times, min_step_h in games:
        game, report = _gen(tmp_path, seed, players, outcomes, times), tmp_path / "r.json"
        doc = parse_game(game.read_text())
        h = ["--h", str(doc.space.grid.min_step)] if min_step_h else []
        assert main(["solve", "--game", str(game), *h, "--out", str(report)]) == 0
        verify = ["verify", "--game", str(game), "--profile", str(report)]
        assert main([*verify, "--out", str(tmp_path / "v.json")]) == 0
    assert calls == []
    doc.fields[0].at((0, 0, 0))
    assert len(calls) == 1  # the counter is live


def test_field_from_values_has_the_parsed_rows():
    """A field built with ``PayoffField(space, arity, values)`` gets the den
    and rows of the same field parsed from its game file."""
    for seed, players in ((31, 3), (8, 2)):
        doc = make_doc(seed, n_outcomes=3, n_times=5, n_players=players)
        parsed = parse_game(emit_game(doc))
        for field, built in zip(parsed.fields, doc.fields, strict=True):
            assert (built.den, built.rows) == (field.den, field.rows)
            assert built == field


def test_duplicate_reaction_keys_are_rejected():
    """Two keys naming one observation pair or one seat are an input error
    naming the later key; a key written otherwise but given once still reads."""
    space = make_doc().space
    base = profile_to_obj(space, [lift_constant3(space, s, 1) for s in range(3)])
    for table, key, twin, message in (
        ("react_two", "0,1", "00,1", "react_two[00,1]: a second key for observation pair (0, 1)"),
        ("react_one", "1", "01", "react_one[01]: a second key for seat 1"),
    ):
        doubled = json.loads(json.dumps(base))
        entries = doubled["strategies"][0][table]
        entries[twin] = entries[key]
        with pytest.raises(ParseError) as err:
            profile_from_obj(space, doubled)
        assert str(err.value) == message
        renamed = json.loads(json.dumps(base))
        entries = renamed["strategies"][0][table]
        entries[twin] = entries.pop(key)
        assert profile_from_obj(space, renamed) == profile_from_obj(space, base)


def test_repeated_profile_rows_read_as_each_row_alone(tmp_path):
    """A bench report's profile with one row repeated under many keys, one
    repeat written with a non-canonical time, reads as each row read alone,
    and a canonical repeat is the stopping time read first; a bad time at a
    later key keeps its error text."""
    game, report = _gen(tmp_path, 1000, 3, 4, 6), tmp_path / "r.json"
    doc = parse_game(game.read_text())
    h = ["--h", str(doc.space.grid.min_step)]
    assert main(["solve", "--game", str(game), *h, "--out", str(report)]) == 0
    obj = json.loads(report.read_text())
    base = profile_from_obj(doc.space, obj)
    table = obj["profile"]["strategies"][1]["react_two"]
    keys = list(table)
    assert keys[3:5] == ["0,3", "0,4"]
    row = table["0,3"]
    for key in keys[4:20]:
        table[key] = list(row)
    table[keys[9]] = [_twice(row[0]), *row[1:]]  # "2p/2q" for a time p/q other than 0
    react_two = dict(base[1].react_two)
    for key in keys[4:20]:
        react_two[tuple(map(int, key.split(",")))] = base[1].react_two[(0, 3)]
    got = profile_from_obj(doc.space, obj)
    assert got == [base[0], dataclasses.replace(base[1], react_two=react_two), base[2]]
    assert got[1].react_two[(0, 4)] is got[1].react_two[(0, 3)]
    table[keys[30]] = [True, *row[1:]]
    with pytest.raises(ParseError) as err:
        profile_from_obj(doc.space, obj)
    assert str(err.value) == "react_two[5,0]: not a rational: True"


@pytest.mark.parametrize("x", PINNED_VALUES, ids=range(len(PINNED_VALUES)))
def test_pinned_values_as_payoffs_parse_as_the_reference(x):
    """Each pinned string, put among payoffs in the bulk grammar (first in
    its tensor, or inside one), reads as the reference parser reads it."""
    game = json.loads(emit_game(make_doc()))
    for path in (("payoffs", 0, 0, 0, 0, 0), ("payoffs", 1, 2, 1, 3, 1)):
        assert_parses_as_reference(json.dumps(_edited(game, path, x)))


@pytest.mark.parametrize("seed, players, outcomes, times", [
    (31, 3, 3, 4), (8, 2, 1, 3), (5, 2, 4, 2), (9, 3, 1, 2),
])
def test_emitted_game_is_the_plain_encoders_text(seed, players, outcomes, times):
    """The payoff tensors written as text lay out as ``json.dumps(indent=1)``
    lays out the whole document, with and without an ``h``."""
    doc = make_doc(seed, n_players=players, n_outcomes=outcomes, n_times=times)
    for d in (doc, dataclasses.replace(doc, h=Fraction(1, 7))):
        text = emit_game(d)
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"


def _twice(text: str) -> str:
    """The same rational as "2p/2q", twice its numerator over twice its denominator."""
    x = Fraction(text)
    return f"{2 * x.numerator}/{2 * x.denominator}"


def _equal_payoff(text: str, i: int):
    """Payoff ``text`` (canonical) written otherwise: every third value a JSON
    integer where it is whole, every third from the next a decimal where its
    denominator has no prime but 2 and 5, and "2p/2q" for the rest."""
    x = Fraction(text)
    decimal = str(Decimal(x.numerator) / x.denominator)
    if i % 3 == 0 and x.denominator == 1:
        return x.numerator
    if i % 3 == 1 and Fraction(decimal) == x:
        return decimal
    return _twice(text)


def _rewritten(node, rewrite):
    """A JSON value with every string in its lists and dict values rewritten."""
    if isinstance(node, list):
        return [_rewritten(child, rewrite) for child in node]
    if isinstance(node, dict):
        return {key: _rewritten(child, rewrite) for key, child in node.items()}
    return rewrite(node) if isinstance(node, str) else node


def _leaves(node):
    """The innermost lists of a nested list, in order."""
    if node and isinstance(node[0], list):
        for child in node:
            yield from _leaves(child)
    else:
        yield node


@pytest.mark.parametrize("seed, players, outcomes, times, epsilon, min_step_h", [
    (1000, 3, 4, 6, "1/20", True),
    (1000, 2, 6, 10, "1/20", False),
    # a grid step so long that the clamp binds, so some payoffs are whole
    (11, 3, 3, 5, "10", False),
])
def test_noncanonical_payoffs_and_times_read_as_the_canonical(
    tmp_path, seed, players, outcomes, times, epsilon, min_step_h
):
    """A game whose every payoff is written as an equal non-canonical value
    parses to the same den and rows and gives the same solve and verify
    reports, byte for byte; a profile whose every time is written as "2p/2q"
    reads to the same strategies and verifies the same."""
    game = tmp_path / "game.json"
    assert main(["gen", "--seed", str(seed), "--players", str(players), "--outcomes",
                 str(outcomes), "--times", str(times), "--epsilon", epsilon,
                 "--out", str(game)]) == 0
    obj = json.loads(game.read_text())
    whole = any(v in ("0", "1") for v in itertools.chain.from_iterable(_leaves(obj["payoffs"])))
    count = itertools.count()
    obj["payoffs"] = _rewritten(obj["payoffs"], lambda v: _equal_payoff(v, next(count)))
    flat = list(itertools.chain.from_iterable(_leaves(obj["payoffs"])))
    assert whole == (epsilon == "10") == any(type(v) is int for v in flat)
    assert any("." in v for v in flat if type(v) is str)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(obj))

    doc, same = parse_game(game.read_text()), parse_game(other.read_text())
    for field, twin in zip(doc.fields, same.fields, strict=True):
        assert (twin.den, list(twin.rows.items())) == (field.den, list(field.rows.items()))
    h = ["--h", str(doc.space.grid.min_step)] if min_step_h else []
    out = {}
    for name, path in (("canonical", game), ("other", other)):
        report = tmp_path / f"{name}-report.json"
        assert main(["solve", "--game", str(path), *h, "--out", str(report)]) == 0
        verify = tmp_path / f"{name}-verify.json"
        assert main(["verify", "--game", str(path), "--profile", str(report),
                     "--out", str(verify)]) == 0
        out[name] = (report.read_bytes(), verify.read_bytes())
    assert out["other"] == out["canonical"]

    report = json.loads(out["canonical"][0])
    twice = dict(report, profile=_rewritten(report["profile"], _twice))
    assert twice != report
    assert profile_from_obj(doc.space, twice) == profile_from_obj(doc.space, report)
    profile, verify = tmp_path / "twice.json", tmp_path / "twice-verify.json"
    profile.write_text(json.dumps(twice))
    assert main(["verify", "--game", str(game), "--profile", str(profile),
                 "--out", str(verify)]) == 0
    assert verify.read_bytes() == out["canonical"][1]

