"""One leader against a minimizing coalition of two, with certificates.

The leader maximizes her payoff; the other two jointly minimize it.  The
solver builds the value of stopping now, the values after a coalition stop,
the duel between them, and hitting-time strategies, then measures exact
best-response gaps: the leader can gain at most 9*eps, the coalition can
push the leader down at most 5*eps below the duel value, and conforming play
stays within 8*eps of it.
"""

from stopgame import assemble_saddle, build_components, certify_saddle, stop_now_solutions
from stopgame.generator import generate_instance
from stopgame.payoff import estimate_modulus, select_h
from stopgame.space import constant_time

inst = generate_instance(seed=14, n_outcomes=3, n_times=4)
space = inst.space
leader = 1
eps = inst.epsilon
h = select_h(estimate_modulus(inst.fields[leader]), eps, space.grid)
print(f"leader seat {leader}; eps = {eps}, window width h = {h}")

stop_now = stop_now_solutions(space, inst.fields[leader], leader)
comp = build_components(space, inst.fields[leader], leader, constant_time(space, 0), eps, h, stop_now)
print("\nvalue of stopping now at t=0:    ", comp.leader_stop_value[0])
print("floor once a rival stops at t=0: ", comp.coalition_floor[0])
print("duel value at t=0:               ", comp.value[0])
print("leader hitting time:", comp.leader_hit.idx, " coalition:", comp.coalition_hit.idx)
print("designated coalition stopper per outcome:", comp.designate)

triple = assemble_saddle(comp)
cert = certify_saddle(comp, triple)
print("\ncertificate passes:", cert.passes)
for atom in sorted(cert.on_path):
    v = cert.value_at_start[atom]
    print(
        f"  atom {atom}: duel value {v}, on-path {cert.on_path[atom]}, "
        f"leader BR {cert.leader_best[atom]} (cap {v + cert.leader_bound}), "
        f"coalition BR {cert.coalition_best[atom]} (floor {v - cert.coalition_bound})"
    )
