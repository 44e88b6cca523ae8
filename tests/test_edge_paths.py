"""Error-surface and dispatch-table coverage the main modules promise."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_rv
from stopgame.cli import main as cli_main
from stopgame.config import ENV_OVERRIDE, current_guards
from stopgame.errors import (
    CertificationFailed,
    DeskScaleExceeded,
    WindowCertificationFailed,
)
from stopgame.generator import generate_instance
from stopgame.nash2 import build_single_family, solve_2p_nash
from stopgame.nash3 import solve_three_player
from stopgame.payoff import payoff_from_function
from stopgame.space import FilteredSpace, cond_exp, constant_time, make_grid
from stopgame.strategy import phi_h
from stopgame.zerosum import ReactionGameSpec, reaction_game_saddle, reaction_game_value


def test_guard_env_override(monkeypatch):
    monkeypatch.delenv(ENV_OVERRIDE, raising=False)
    base = current_guards()
    monkeypatch.setenv(ENV_OVERRIDE, "12345")
    assert current_guards().enumeration_cap == 12345
    assert current_guards().dp_state_cap == 12345
    monkeypatch.setenv(ENV_OVERRIDE, "enum=7,dp=9")
    assert current_guards().enumeration_cap == 7
    assert current_guards().dp_state_cap == 9
    monkeypatch.delenv(ENV_OVERRIDE)
    assert current_guards() == base


def test_cli_exit_3_on_guard(tmp_path, monkeypatch):
    game = tmp_path / "g.json"
    out = tmp_path / "r.json"
    assert cli_main(["gen", "--seed", "2", "--out", str(game)]) == 0
    monkeypatch.setenv(ENV_OVERRIDE, "dp=1")
    assert cli_main(["solve", "--game", str(game), "--out", str(out)]) == 3


def node_gap_spec():
    """Deterministic duel whose last interior node has no pure saddle."""
    space = FilteredSpace(
        grid=make_grid([0, 1, 2]),
        weights=(Fraction(1),),
        partitions=(((0,),), ((0,),), ((0,),)),
    )
    table = {
        (1, 1): 0, (1, 2): 2, (2, 1): 1, (2, 2): 0,
    }
    field = payoff_from_function(
        space, 3, lambda ks, w: table.get((ks[0], ks[1]), 0)
    )
    return space, ReactionGameSpec(payoff=field, frozen_slot=2, max_slot=0, min_slot=1)


def test_node_gap_reported_not_hidden():
    space, spec = node_gap_spec()
    res = reaction_game_value(spec, 0)
    assert any(ng.k == 1 and ng.gap == 1 for ng in res.report)
    saddle = reaction_game_saddle(spec, 0, Fraction(1, 1000))
    assert saddle.certified_gap <= saddle.tolerance
    assert saddle.tolerance == Fraction(1, 1000) + 1  # eps plus the weighted gap


def test_reaction_certification_failure_surfaced(monkeypatch):
    """An over-tolerance gap raises instead of being silently accepted."""
    space, spec = node_gap_spec()
    import stopgame.zerosum as zs

    real = zs.exact_best_response

    def inflated(space_, field, strategies, controlled, objective, start):
        res = real(space_, field, strategies, controlled, objective, start)
        if objective == "max":
            bumped = {a: v + 10 for a, v in res.values.items()}
            return type(res)(values=bumped, value_rv=res.value_rv, objective=objective)
        return res

    monkeypatch.setattr(zs, "exact_best_response", inflated)
    with pytest.raises(CertificationFailed):
        reaction_game_saddle(spec, 0, Fraction(1, 1000))


def matching_pennies_fields(space):
    """No pure equilibrium at the opening node: stop-parity payoffs."""

    def fa(ks, w):
        return 1 if (ks[0] + ks[1]) % 2 == 0 else 0

    def fb(ks, w):
        return 1 if (ks[0] + ks[1]) % 2 == 1 else 0

    return (
        payoff_from_function(space, 2, fa),
        payoff_from_function(space, 2, fb),
    )


def test_fallback_runs_on_tiny_instance(three_time_space):
    fa, fb = matching_pennies_fields(three_time_space)
    res = solve_2p_nash(three_time_space, fa, fb, 0, Fraction(1, 10**9))
    assert res.fallback_used
    assert res.gap >= 0  # best enumerable profile, achieved gap reported


def test_fallback_desk_scale_exceeded(branching_space, monkeypatch):
    monkeypatch.setenv(ENV_OVERRIDE, "enum=50,dp=10000000")
    fa, fb = matching_pennies_fields(branching_space)
    with pytest.raises(DeskScaleExceeded):
        solve_2p_nash(branching_space, fa, fb, 0, Fraction(1, 10**9))


def test_window_certification_failure_surfaced(three_time_space):
    """A window width violating eta(h) < eps fails loudly, naming the entry."""
    space = three_time_space
    rng = random.Random(139)
    base = {k: cond_exp(space, random_rv(rng, 2, lo=0, hi=2), k) for k in range(3)}
    field = payoff_from_function(
        space, 3, lambda ks, w: base[max(ks)][w] + Fraction(ks[0], 11)
    )
    with pytest.raises(WindowCertificationFailed) as info:
        build_single_family(space, field, 0, "sup", 1, Fraction(1, 2))
    assert info.value.g is not None


def test_golden_two_player_certificate():
    space = FilteredSpace(
        grid=make_grid([0, 1, 2]),
        weights=(Fraction(1, 2), Fraction(1, 2)),
        partitions=(((0, 1),), ((0,), (1,)), ((0,), (1,))),
    )
    ba = {k: cond_exp(space, (Fraction(2), Fraction(0)), k) for k in range(3)}
    bb = {k: cond_exp(space, (Fraction(0), Fraction(3)), k) for k in range(3)}
    fa = payoff_from_function(
        space, 2, lambda ks, w: ba[max(ks)][w] + Fraction(ks[0] - ks[1], 4)
    )
    fb = payoff_from_function(
        space, 2, lambda ks, w: bb[max(ks)][w] + Fraction(ks[1] - ks[0], 4)
    )
    res = solve_2p_nash(space, fa, fb, 0, Fraction(1, 2))
    assert res.gap == 0
    assert not res.fallback_used
    assert res.strategies[0].initial.idx == (2, 2)
    assert res.strategies[1].initial.idx == (2, 2)


def test_golden_pipeline_gaps():
    """Frozen oracle numbers for one generated instance (seed 14)."""
    from stopgame.coalition import assemble_saddle, build_components, certify_saddle

    inst = generate_instance(14, n_outcomes=3, n_times=4)
    h = inst.space.grid.min_step
    comp = build_components(
        inst.space, inst.fields[1], 1, constant_time(inst.space, 0), inst.epsilon, h
    )
    cert = certify_saddle(comp, assemble_saddle(comp))
    atom = next(iter(cert.on_path))
    assert cert.on_path[atom] == Fraction(36647, 80000)
    assert cert.leader_best[atom] == Fraction(36647, 80000)
    assert cert.coalition_best[atom] == Fraction(36557, 80000)
    assert cert.value_at_start[atom] == Fraction(36557, 80000)
    sol = solve_three_player(inst.space, inst.fields, eps=inst.epsilon)
    assert sol.certificate.worst_gap == Fraction(27, 6400)


def test_phi_h_indexes_strictly_later_windows():
    h = Fraction(1, 4)
    for num in range(0, 20):
        t = Fraction(num, 10)
        g = phi_h(t, h)
        assert g > t
        assert (g / h).denominator == 1
        assert g - t <= h


def test_cli_malformed_guard_override_exits_2(tmp_path, monkeypatch, capsys):
    game = tmp_path / "g.json"
    assert cli_main(["gen", "--seed", "2", "--players", "2", "--out", str(game)]) == 0
    monkeypatch.setenv(ENV_OVERRIDE, "enum=abc")
    assert cli_main(["solve", "--game", str(game), "--out", str(tmp_path / "r.json")]) == 2
    assert ENV_OVERRIDE in capsys.readouterr().err
