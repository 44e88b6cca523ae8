"""Error-surface and dispatch-table coverage the main modules promise."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conftest import random_rv, solo_solutions
from stopgame import payoff
from stopgame.cli import main as cli_main
from stopgame.config import ENV_OVERRIDE, current_guards
from stopgame.errors import (
    DeskScaleExceeded,
    NoValidDelta,
    NoValidH,
    TheoremViolation,
    WindowCertificationFailed,
)
from stopgame.generator import generate_instance
from stopgame.nash2 import (
    build_coop_family,
    build_single_family,
    solve_2p_nash,
    stop_now_solutions,
)
from stopgame.nash3 import solve_three_player
from stopgame.payoff import payoff_from_function
from stopgame.space import FilteredSpace, cond_exp, constant_time, make_grid, phi_h
from stopgame.zerosum import ReactionGameSpec, reaction_game_value


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
    solo = solo_solutions(space, field, 0, "sup")
    with pytest.raises(WindowCertificationFailed) as info:
        build_single_family(space, field, 0, solo, 1, Fraction(1, 2))
    err = info.value
    assert str(err) == "single entry at 2 reached gap 10/11 > 1*eps at grid index 1"
    assert (err.g, err.at, err.kind) == (2, 1, "single")
    assert (err.achieved, err.bound) == (Fraction(10, 11), Fraction(1, 2))


def test_coop_window_certification_failure_surfaced():
    """A coop entry whose committed pair misses the cooperative infimum at an
    earlier window time by more than 5*eps fails, naming the entry, the
    window time and the measured gap."""
    space = FilteredSpace(
        grid=make_grid([0, 1, 2]),
        weights=(Fraction(1, 3), Fraction(2, 3)),
        partitions=(((0, 1),), ((0,), (1,)), ((0,), (1,))),
    )
    rng = random.Random(1)
    base = {k: cond_exp(space, random_rv(rng, 2, lo=0, hi=2), k) for k in range(3)}
    field = payoff_from_function(
        space, 3, lambda ks, w: base[max(ks)][w] + Fraction(ks[1] - ks[2], 7)
    )
    with pytest.raises(WindowCertificationFailed) as info:
        build_coop_family(space, field, 0, stop_now_solutions(space, field, 0), 1, Fraction(1, 20))
    err = info.value
    assert str(err) == "coop entry at 2 reached gap 3/2 > 5*eps at grid index 1"
    assert (err.g, err.at, err.kind) == (2, 1, "coop_pair")
    assert (err.achieved, err.bound) == (Fraction(3, 2), Fraction(1, 4))


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
        inst.space, inst.fields[1], 1, constant_time(inst.space, 0), inst.epsilon, h,
        stop_now_solutions(inst.space, inst.fields[1], 1),
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
    for raw in ("enum=abc", "²", "enum=²,dp=5"):  # ``²`` is a digit to ``str.isdigit``
        monkeypatch.setenv(ENV_OVERRIDE, raw)
        assert cli_main(["solve", "--game", str(game), "--out", str(tmp_path / "r.json")]) == 2
        assert ENV_OVERRIDE in capsys.readouterr().err


def test_cli_broken_premise_exits_2_with_eta_line(tmp_path, capsys):
    """A user h and epsilon with eta(h) >= epsilon are an input error, not a bug:
    at seed 1 an ordering fact fails, at seed 2 the settle delay."""
    game = tmp_path / "t.json"
    out = tmp_path / "r.json"
    for seed in ("1", "2"):
        gen = ["gen", "--seed", seed, "--outcomes", "3", "--times", "4", "--modulus", "20"]
        assert cli_main([*gen, "--out", str(game)]) == 0
        capsys.readouterr()
        solve = ["solve", "--game", str(game), "--h", "1/4800", "--epsilon", "1/1000"]
        assert cli_main([*solve, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "input error: eta(h) = 3618751/1000000000 >= epsilon = 1/1000 at h = 1/4800; "
            "the construction needs eta(h) < epsilon\n"
        )
        assert not out.exists()


def test_cli_window_failure_writes_failing_report(tmp_path, capsys):
    """A family entry over its bound exits 1 with a report that names the
    family, the entry, the window time and the measured gap against its bound."""
    game, out = tmp_path / "t.json", tmp_path / "r.json"
    gen = ["gen", "--seed", "1", "--outcomes", "3", "--times", "4", "--modulus", "20"]
    assert cli_main([*gen, "--out", str(game)]) == 0
    capsys.readouterr()
    solve = ["solve", "--game", str(game), "--h", "1/4800", "--epsilon", "1/10000"]
    assert cli_main([*solve, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "certification failed: pair entry at 1/4800 reached gap 279/160000 > "
        "11*eps at grid index 0\n"
    )
    report = json.loads(out.read_text())
    assert report["passes"] is False
    assert (report["max_gap"], report["bound"]) == ("279/160000", "11/10000")
    assert report["window_failure"] == {"family": "nonzero_sum_pair", "g": "1/4800", "time": "0"}
    assert cli_main(["report", "--in", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "epsilon: 1/10000  bound: 11/10000  max gap: 279/160000  passes: False",
        "window failure: nonzero_sum_pair entry at 1/4800, window time 0",
    ]


def test_theorem_violation_with_premise_kept_stays_a_bug(monkeypatch):
    """With eta(h) < epsilon an ordering or settle-delay failure is re-raised
    as it was."""
    import stopgame.nash3 as n3

    inst = generate_instance(seed=1, n_outcomes=3, n_times=4, n_players=3)
    for stage, error in (("build_context", TheoremViolation), ("select_delta", NoValidDelta)):

        def broken(*args, error=error):
            raise error("planted")

        monkeypatch.setattr(n3, stage, broken)
        for h in (None, inst.space.grid.min_step):
            with pytest.raises(error, match="planted"):
                solve_three_player(inst.space, inst.fields, None, inst.epsilon, h)
        monkeypatch.undo()


@pytest.fixture
def pair_walks(monkeypatch):
    """(field count, radius, beyond) of each modulus pair walk made while the
    test runs; a radius of None is a walk over every pair."""
    walks = []
    real = payoff._pair_changes

    def counting(joint, radius=None, beyond=0):
        walks.append((len(joint.fields), radius, beyond))
        return real(joint, radius=radius, beyond=beyond)

    monkeypatch.setattr(payoff, "_pair_changes", counting)
    return walks


def _plant_theorem_violation(monkeypatch):
    import stopgame.nash3 as n3

    def broken(*args):
        raise TheoremViolation("planted")

    monkeypatch.setattr(n3, "build_context", broken)


def test_auto_h_solve_of_a_generated_game_walks_no_tuple_pairs(pair_walks, monkeypatch):
    """A generated game's payoffs move by less than eps over the whole range
    of time tuples, so h is the whole span without a pair walk, and the
    eta(h) recheck after a failure walks none either."""
    inst = generate_instance(seed=1, n_outcomes=3, n_times=5, n_players=3)
    sol = solve_three_player(inst.space, inst.fields, None, inst.epsilon)
    assert sol.certificate.passes
    assert sol.context.h == inst.space.grid.span
    assert pair_walks == []
    _plant_theorem_violation(monkeypatch)
    with pytest.raises(TheoremViolation, match="planted"):
        solve_three_player(inst.space, inst.fields, None, inst.epsilon)
    assert pair_walks == []


def test_auto_h_below_the_whole_range_walks_growing_radii(pair_walks, monkeypatch):
    """At eps = 1/150 the whole-range shortcut fails: the joint walks cover
    the displacements up to 1, 2 and 4 minimal steps, each only beyond the
    last, and stop at the first that reaches eps.  A failure at that h walks
    no more pairs: auto h keeps eta(h) < eps, so eta(h) is not rechecked."""
    inst = generate_instance(seed=1, n_outcomes=3, n_times=5, n_players=3)
    eps, step = Fraction(1, 150), inst.space.grid.min_step
    sol = solve_three_player(inst.space, inst.fields, None, eps)
    assert sol.certificate.passes
    assert sol.context.h == 2 * step
    assert pair_walks == [(3, step, 0), (3, 2 * step, step), (3, 4 * step, 2 * step)]
    pair_walks.clear()
    _plant_theorem_violation(monkeypatch)
    with pytest.raises(TheoremViolation, match="planted"):
        solve_three_player(inst.space, inst.fields, None, eps)
    assert pair_walks[3:] == []


def test_auto_h_keeps_eta_below_eps():
    """The premise a failed solve at a given h rechecks holds at every h
    ``auto_h`` picks: ``eta_reaching`` finds eta(h) < eps, on generated
    games at three shapes and six eps, half of them past the whole-range
    shortcut."""
    picks = past_shortcut = 0
    for outcomes, times in ((3, 5), (2, 6), (3, 7)):
        for seed in range(8):
            inst = generate_instance(seed=seed, n_outcomes=outcomes, n_times=times, n_players=3)
            for eps in [Fraction(1, d) for d in (20, 50, 100, 200, 500, 1000)]:
                try:
                    h = payoff.auto_h(inst.fields, eps, inst.space.grid)
                except NoValidH:
                    continue
                picks += 1
                past_shortcut += not payoff._below(payoff._joint_rows(inst.fields), eps)
                assert payoff.eta_reaching(inst.fields, eps, h) is None
    assert (picks, past_shortcut) == (96, 48)


def test_auto_h_3x12_solve_makes_no_unbounded_walk(pair_walks):
    """Counted, not timed: the 3x12 game that took seconds while auto h
    walked all 1.5 million tuple pairs.  At its own eps no pair is walked;
    at eps = 1/300 the walks stop at 4 minimal steps."""
    inst = generate_instance(seed=3, n_outcomes=3, n_times=12, n_players=3)
    step = inst.space.grid.min_step
    sol = solve_three_player(inst.space, inst.fields, None, inst.epsilon)
    assert sol.certificate.passes
    assert pair_walks == []
    sol = solve_three_player(inst.space, inst.fields, None, Fraction(1, 300))
    assert sol.certificate.passes
    assert sol.context.h == 3 * step
    assert pair_walks == [(3, step, 0), (3, 2 * step, step), (3, 4 * step, 2 * step)]


def test_passing_solve_at_given_h_walks_no_tuple_pairs(pair_walks):
    inst = generate_instance(seed=1, n_outcomes=3, n_times=5, n_players=3)
    sol = solve_three_player(inst.space, inst.fields, None, inst.epsilon, inst.space.grid.min_step)
    assert sol.certificate.passes
    assert pair_walks == []


def test_broken_premise_walks_only_the_pairs_within_h(tmp_path, capsys, pair_walks):
    """The reproduction of test_cli_broken_premise_exits_2_with_eta_line: one
    joint walk per solve, bounded by the given h, and the same eta line byte
    for byte."""
    game = tmp_path / "t.json"
    out = tmp_path / "r.json"
    for seed in ("1", "2"):
        gen = ["gen", "--seed", seed, "--outcomes", "3", "--times", "4", "--modulus", "20"]
        assert cli_main([*gen, "--out", str(game)]) == 0
        capsys.readouterr()
        pair_walks.clear()
        solve = ["solve", "--game", str(game), "--h", "1/4800", "--epsilon", "1/1000"]
        assert cli_main([*solve, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "input error: eta(h) = 3618751/1000000000 >= epsilon = 1/1000 at h = 1/4800; "
            "the construction needs eta(h) < epsilon\n"
        )
        assert pair_walks == [(3, Fraction(1, 4800), 0)]

