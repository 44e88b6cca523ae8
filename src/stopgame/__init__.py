"""Certified epsilon-equilibria for stopping games settled at the last stop.

Players choose reactive stopping strategies on a finite filtered probability
tree; payoffs are revealed once everyone has stopped, and each player may
answer observed stops with a strictly later commitment.  The package builds
equilibrium profiles constructively (backward induction plus window-indexed
strategy families) and certifies every claim with an exact best-response
oracle over rational arithmetic.
"""

from .classic import (
    DynkinResult,
    SnellResult,
    dynkin_convention_gap,
    dynkin_hitting_pair,
    dynkin_value,
    joint_inf_pair,
    snell,
    solve_duel,
)
from .coalition import (
    CoalitionCertificate,
    CoalitionComponents,
    assemble_saddle,
    build_components,
    certify_saddle,
)
from .errors import (
    CertificationFailed,
    DeskScaleExceeded,
    GuardExceeded,
    NonGridResult,
    NoValidDelta,
    NoValidH,
    OrderViolation,
    ParseError,
    StopGameError,
    TheoremViolation,
    ValidationError,
    WindowCertificationFailed,
)
from .nash2 import (
    EquilibriumFamily,
    FamilyEntry,
    Nash2Result,
    family_lookup,
    solve_2p_nash,
)
from .nash3 import (
    AssemblyContext,
    PlayerProcesses,
    assemble_profile,
    build_player_processes,
    partition_ABC,
    select_delta,
    solve_three_player,
)
from .payoff import (
    Modulus,
    PayoffField,
    check_adapted,
    estimate_modulus,
    modulus_max,
    payoff_from_function,
    select_h,
)
from .space import (
    AdaptedProcess,
    FilteredSpace,
    StoppingTime,
    TimeGrid,
    cond_exp,
    cond_exp_at,
    in_T_after,
    is_stopping_time,
    make_adapted,
    make_grid,
    rat,
    validate_space,
)
from .strategy import (
    StrategyOrder2,
    StrategyOrder3,
    lift_constant3,
    lift_obstinate2,
    patch_pair,
    phi_h,
    resolve2,
    resolve3,
    validate_strategy,
)
from .verify import (
    BestResponseResult,
    NashCertificate,
    certify_nash,
    enumerate_stopping_times,
    enumerate_strategies2,
    exact_best_response,
    nash_gap,
    on_path_value,
)
from .zerosum import (
    ReactionGameSpec,
    reaction_game_saddle,
    reaction_game_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
