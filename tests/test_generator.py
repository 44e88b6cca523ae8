from __future__ import annotations

from fractions import Fraction

import pytest

from stopgame import generator
from stopgame.gamefile import GameDoc, emit_game
from stopgame.generator import generate_instance
from oracles import certifies_field, reference_random_payoff
from stopgame.payoff import Modulus, check_adapted, estimate_modulus, select_h
from stopgame.space import constant_time, rat, validate_space


def test_instances_are_valid():
    for seed in range(1, 15):
        inst = generate_instance(seed, n_outcomes=2 + seed % 2, n_times=3 + seed % 2)
        assert validate_space(inst.space) == []
        for f in inst.fields:
            assert check_adapted(f) == []


def test_payoffs_in_unit_interval():
    inst = generate_instance(5, n_outcomes=3)
    for f in inst.fields:
        for ks in f.rows:
            assert all(0 <= v <= 1 for v in f.at(ks))


def test_target_modulus_holds():
    """The empirical payoff modulus stays under the requested slope line."""
    for seed in (2, 9, 17):
        for slope in ("1", "1/2"):
            inst = generate_instance(seed, slope=slope)
            line = Modulus(
                table=tuple(
                    (d, rat(slope) * d)
                    for d in sorted(
                        {
                            abs(a - b) + abs(c - e) + abs(x - y)
                            for a in inst.space.grid.points
                            for b in inst.space.grid.points
                            for c in inst.space.grid.points
                            for e in inst.space.grid.points
                            for x in inst.space.grid.points
                            for y in inst.space.grid.points
                        }
                        - {Fraction(0)}
                    )
                ),
            )
            for f in inst.fields:
                assert certifies_field(line, f)


def test_select_h_always_possible():
    from stopgame.payoff import modulus_max

    for seed in range(1, 10):
        inst = generate_instance(seed)
        mod = modulus_max([estimate_modulus(f) for f in inst.fields])
        h = select_h(mod, inst.epsilon, inst.space.grid)
        assert h >= inst.space.grid.min_step


def test_two_player_instances():
    inst = generate_instance(3, n_players=2)
    assert len(inst.fields) == 2
    for f in inst.fields:
        assert f.arity == 2
        assert check_adapted(f) == []


def test_deterministic_per_seed():
    a = generate_instance(12, n_outcomes=3)
    b = generate_instance(12, n_outcomes=3)
    assert a.space == b.space
    assert a.fields == b.fields


def test_empirical_modulus_certifies_generated_fields():
    for seed in (4, 21, 33):
        inst = generate_instance(seed, n_outcomes=3)
        for f in inst.fields:
            assert certifies_field(estimate_modulus(f), f)


def _reference_instance(monkeypatch, seed, **kwargs):
    """The instance the ``Fraction`` generator gives for the same seed."""
    with monkeypatch.context() as mp:
        mp.setattr(generator, "random_payoff", reference_random_payoff)
        return generate_instance(seed, **kwargs)


def _game_bytes(inst) -> bytes:
    doc = GameDoc(inst.space, inst.fields, constant_time(inst.space, 0), inst.epsilon, None)
    return emit_game(doc).encode()


def _assert_identical(got, want):
    """The same space, and per field the same rows (in the same tuple order)
    and den, so the same game file bytes."""
    assert got.space == want.space
    for f, ref in zip(got.fields, want.fields, strict=True):
        assert f.arity == ref.arity and f.den == ref.den
        assert f.rows == ref.rows and list(f.rows) == list(ref.rows)
    assert _game_bytes(got) == _game_bytes(want)


# (players, outcomes, times): the bench pools' sizes, then one outcome, where
# the martingale never moves (jump 0, gamma 1)
SIZES = [(3, 3, 5), (3, 4, 6), (3, 3, 7), (2, 6, 10), (2, 8, 12), (3, 1, 5), (2, 1, 5)]


@pytest.mark.parametrize("players, outcomes, times", SIZES)
def test_integer_generator_matches_reference(monkeypatch, players, outcomes, times):
    """Each generated field's rows and den equal the ``Fraction`` generator's,
    and so do the emitted game file bytes."""
    for seed in (1, 1000, 2003):
        size = dict(n_outcomes=outcomes, n_times=times, n_players=players)
        want = _reference_instance(monkeypatch, seed, **size)
        _assert_identical(generate_instance(seed, **size), want)


@pytest.mark.parametrize(
    "seed, players, times, epsilon",
    # (30, 2, 4, "10") and (11, 3, 5, "10") clamp so many entries that the
    # rest share a factor with the common denominator, so den is below it
    [(3, 2, 5, "10"), (6, 2, 5, "10"), (1, 2, 5, "5"), (30, 2, 4, "10"), (11, 3, 5, "10")],
)
def test_integer_generator_matches_reference_where_clamp_binds(
    monkeypatch, seed, players, times, epsilon
):
    """A grid step so long that the slope terms leave [0, 1]: the clamp
    binds at both ends, and the clamped fields still match."""
    size = dict(n_outcomes=3, n_times=times, n_players=players, epsilon=epsilon)
    inst = generate_instance(seed, **size)
    assert any(0 in row for f in inst.fields for row in f.rows.values())
    assert any(f.den in row for f in inst.fields for row in f.rows.values())
    _assert_identical(inst, _reference_instance(monkeypatch, seed, **size))
