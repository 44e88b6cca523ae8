"""Single-agent optimal stopping, cooperative pairs, and the stopping duel.

Three exact backward inductions power everything downstream: the Snell
envelope (one stop), the cooperative two-stop infimum (a team choosing two
stops for one payoff), and the duel where a maximizer collects the lower
process and a minimizer the upper one, with epsilon-hitting times forming an
exact epsilon-saddle.
"""

from fractions import Fraction

from stopgame import dynkin_hitting_pair, dynkin_value, joint_inf_pair, snell
from stopgame.classic import duel_payoff
from stopgame.payoff import payoff_from_function
from stopgame.space import FilteredSpace, constant_time, expectation, make_grid

space = FilteredSpace(
    grid=make_grid([0, 1, 2]),
    weights=("1/2", "1/2"),
    partitions=(((0, 1),), ((0,), (1,)), ((0,), (1,))),
)

# Snell: stop a process at its best moment, earliest rule on ties
layers = [("1", "1"), ("2", "0"), ("3/2", "3/2")]
layers = [tuple(Fraction(v) for v in row) for row in layers]
res = snell(space, layers, "sup", 0)
print("snell value at 0:", res.value[0], "rule:", res.rule.idx)

# cooperative pair: both stops minimize one two-slot payoff; the outcome
# enters only once the first split is observable (so the field is adapted)
field = payoff_from_function(
    space,
    2,
    lambda ks, w: ks[0] + 2 * ks[1] + (1 if w else -1) * (1 if max(ks) >= 1 else 0),
)
pair = joint_inf_pair(space, field, 0)
print("\ncooperative infimum at 0:", pair.value)
print("one optimal committed pair:", pair.rho.idx, pair.tau.idx)

# the duel: the classic two-point fixture where waiting caps at the upper
# process (the maximizer holds the lower one and must stop at the horizon)
duel_space = FilteredSpace(
    grid=make_grid([0, 1]),
    weights=("1/2", "1/2"),
    partitions=(((0, 1),), ((0,), (1,))),
)
lower = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))]
upper = [(Fraction(1), Fraction(1)), (Fraction(3), Fraction(1))]
value = dynkin_value(duel_space, lower, upper, 0)
print("\nduel value at 0:", value[0])
mu = constant_time(duel_space, 0)
eps = Fraction(1, 10)
stop_max, stop_min = dynkin_hitting_pair(duel_space, value, lower, upper, eps, mu)
print("maximizer hit:", stop_max.idx, " minimizer hit:", stop_min.idx)
pay = duel_payoff(duel_space, lower, upper, stop_max, stop_min)
print(
    "on-path payoff:",
    expectation(duel_space, pay),
    "within",
    eps,
    "of",
    expectation(duel_space, value[0]),
)
