from __future__ import annotations

from fractions import Fraction

from stopgame.generator import generate_instance
from oracles import certifies_field
from stopgame.payoff import Modulus, check_adapted, estimate_modulus, select_h
from stopgame.space import rat, validate_space


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
