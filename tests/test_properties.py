"""Property tests over generated games: exact round trips, malformed input,
and the existence theorem at user-chosen h and epsilon.

Every property runs derandomized with a bounded number of examples, so the
suite stays deterministic and each test takes a few seconds.
"""

from __future__ import annotations

import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SETTINGS, assert_parses_as_reference
from stopgame.cli import main
from stopgame.gamefile import parse_game
from stopgame.payoff import estimate_modulus


def _gen(out: Path, seed: int, players: int, outcomes: int, times: int, *extra) -> None:
    assert main(["gen", "--seed", str(seed), "--players", str(players),
                 "--outcomes", str(outcomes), "--times", str(times), *extra,
                 "--out", str(out)]) == 0


def _atoms(rows) -> list:
    return [(Fraction(r["time"]), tuple(r["outcomes"]), Fraction(r["value"])) for r in rows]


@settings(max_examples=30, **SETTINGS)
@given(
    seed=st.integers(0, 10**6),
    players=st.sampled_from((2, 3)),
    outcomes=st.integers(2, 3),
    times=st.integers(3, 4),
    min_step_h=st.booleans(),
)
def test_verify_reproduces_every_solve_gap(seed, players, outcomes, times, min_step_h):
    """``verify`` on a solve report read back from disk recomputes every
    per-atom best response, on-path value and gap exactly."""
    with tempfile.TemporaryDirectory() as tmp:
        game, rep, ver = (Path(tmp) / name for name in ("g.json", "r.json", "v.json"))
        _gen(game, seed, players, outcomes, times)
        extra = []
        if min_step_h and players == 3:
            extra = ["--h", str(parse_game(game.read_text()).space.grid.min_step)]
        code = main(["solve", "--game", str(game), "--out", str(rep), *extra])
        assume(code in (0, 1))
        assert main(["verify", "--game", str(game), "--profile", str(rep),
                     "--out", str(ver)]) == code
        solved, verified = (json.loads(p.read_text()) for p in (rep, ver))
    assert len(solved["per_player"]) == len(verified["per_player"]) == players
    for mine, theirs in zip(solved["per_player"], verified["per_player"]):
        for key in ("best_response", "on_path", "gap"):
            assert _atoms(mine[key]) == _atoms(theirs[key])
        assert Fraction(mine["max_gap"]) == Fraction(theirs["max_gap"])
    assert Fraction(solved["max_gap"]) == Fraction(verified["max_gap"])
    assert Fraction(solved["bound"]) == Fraction(verified["bound"])


@settings(max_examples=100, **SETTINGS)
@given(
    seed=st.integers(0, 10**6),
    players=st.sampled_from((2, 3)),
    outcomes=st.integers(2, 3),
    times=st.integers(3, 4),
    modulus=st.sampled_from(("1", "5", "20")),
    eps=st.sampled_from((Fraction(1, 20), Fraction(1, 100), Fraction(1, 1000))),
    steps=st.integers(1, 3),
)
def test_solve_at_any_h_and_epsilon(seed, players, outcomes, times, modulus, eps, steps):
    """The theorem's premise in the code is eta(h) < epsilon.  A solve at any
    user h and epsilon ends with a documented exit code; a 3-player solve
    that keeps the premise passes its 13*epsilon bound."""
    with tempfile.TemporaryDirectory() as tmp:
        game, rep = Path(tmp) / "g.json", Path(tmp) / "r.json"
        _gen(game, seed, players, outcomes, times, "--modulus", modulus)
        doc = parse_game(game.read_text())
        h = min(steps, times - 1) * doc.space.grid.min_step
        code = main(["solve", "--game", str(game), "--epsilon", str(eps),
                     "--h", str(h), "--out", str(rep)])
        assert code in (0, 1, 2, 3)
        eta = max(estimate_modulus(f).eval(h) for f in doc.fields)
        if players == 3 and eta < eps:
            assert code == 0
            report = json.loads(rep.read_text())
            assert Fraction(report["max_gap"]) <= Fraction(report["bound"])


@pytest.fixture(scope="module")
def base_documents(tmp_path_factory):
    """A solved 2-player and 3-player game: players -> (game obj, report obj)."""
    out = {}
    for players in (2, 3):
        game = tmp_path_factory.mktemp("base") / "g.json"
        rep = game.with_name("r.json")
        _gen(game, 3, players, 2, 3)
        assert main(["solve", "--game", str(game), "--out", str(rep)]) == 0
        out[players] = (json.loads(game.read_text()), json.loads(rep.read_text()))
    return out


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


REPLACEMENTS = (
    None, True, "abc", "0", "-1", "1/3", "1/0", 0, 7, -1, 1.5, [], {},
    # the edge of the payoff reader's bulk grammar, ASCII -?[0-9]+(/[0-9]*[1-9][0-9]*)?:
    # strings just outside it, which ``int`` or ``Fraction`` may still accept,
    # and equal values written otherwise than canonically
    "1/-2", "1//2", "1/2/3", "+1", " 1", "1_0", "\u0661", "0.5", "1e-3", "2/4", "-0",
    "007/010", "1\n2", "-", "",
    # at the edge of its character check, [0-9/-]
    ",", "1,2", "1/2,3", "2/-0", "-/2", "0/-3", "1-2",
)


def _mutate(data, doc):
    """Drop, replace or perturb one node of a JSON document (in place)."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(st.sampled_from(REPLACEMENTS))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    leaf = parent[path[-1]]
    op = data.draw(st.sampled_from(("drop", "replace", "perturb")))
    if op == "drop":
        del parent[path[-1]]
    elif op == "replace" or isinstance(leaf, (dict, list, bool)) or leaf is None:
        parent[path[-1]] = data.draw(st.sampled_from(REPLACEMENTS))
    elif isinstance(leaf, int):
        parent[path[-1]] = leaf + data.draw(st.sampled_from((-3, -1, 1, 2, 7)))
    else:
        try:
            value = Fraction(leaf)
        except (ValueError, ZeroDivisionError):
            parent[path[-1]] = leaf + "x"
        else:
            delta = data.draw(st.sampled_from((Fraction(-1), Fraction(1, 7), Fraction(1))))
            parent[path[-1]] = str(value + delta)
    return doc


@settings(max_examples=300, **SETTINGS)
@given(
    data=st.data(),
    players=st.sampled_from((2, 3)),
    target=st.sampled_from(("game", "profile")),
)
def test_mutated_documents_map_to_exit_codes(base_documents, data, players, target):
    """Mutated game and profile documents never raise out of ``main``; exit 1
    comes only with a written report whose max gap exceeds its bound."""
    game_obj, rep_obj = json.loads(json.dumps(base_documents[players]))
    if target == "game":
        game_obj = _mutate(data, game_obj)
    else:
        rep_obj = _mutate(data, rep_obj)
    # solve reads no profile, so a mutated profile is only verified
    command = data.draw(st.sampled_from(("solve", "verify"))) if target == "game" else "verify"
    with tempfile.TemporaryDirectory() as tmp:
        game, rep, out = (Path(tmp) / name for name in ("g.json", "r.json", "o.json"))
        game.write_text(json.dumps(game_obj))
        rep.write_text(json.dumps(rep_obj))
        argv = [command, "--game", str(game), "--out", str(out)]
        if command == "verify":
            argv += ["--profile", str(rep)]
        code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 1:
            report = json.loads(out.read_text())
            assert Fraction(report["max_gap"]) > Fraction(report["bound"])


@settings(max_examples=300, **SETTINGS)
@given(data=st.data(), players=st.sampled_from((2, 3)))
def test_mutated_games_parse_as_the_reference(base_documents, data, players):
    """A mutated game document parses to the reference parser's fields, den
    and rows, or fails with its error type and text."""
    game_obj = json.loads(json.dumps(base_documents[players][0]))
    assert_parses_as_reference(json.dumps(_mutate(data, game_obj)))
