"""Command-line interface: generate, solve, verify, and render reports.

Exit codes: 0 success, 1 certification failure (a computed or supplied
profile exceeds its bound), 2 input error, 3 desk-scale guard tripped.
Reports are deterministic for identical inputs; wall-clock timings are only
included when explicitly requested.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction

from .classic import dynkin_convention_gap
from .errors import (
    CertificationFailed,
    DeskScaleExceeded,
    GuardExceeded,
    NoValidDelta,
    NoValidH,
    ParseError,
    PremiseViolation,
    ValidationError,
    WindowCertificationFailed,
)
from .gamefile import (
    GameDoc,
    _malformed,
    atoms_obj,
    dump_report,
    emit_game,
    parse_game,
    profile_from_obj,
    profile_to_obj,
    _f2s,
    _ratio_text,
    _time_texts,
)
from .generator import generate_instance
from .nash2 import solve_2p_nash
from .nash3 import solve_three_player
from .space import constant_time, fill_blocks, rat
from .strategy import StrategyOrder2, StrategyOrder3, validate_strategy
from .verify import certify_nash

REPORT_SCHEMA = "stopgame-report-v1"


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def _layer_obj(space, layers):
    """A process's layers as report text, each value written from its
    integer (``classic.BlockLayers``); None for an index it does not reach."""
    out = []
    for row, blocks, w_bs in zip(layers.nums, space.partitions, space.block_wnum):
        if row is None:
            out.append(None)
            continue
        texts = [_ratio_text(n, layers.scale * w_b) for n, w_b in zip(row, w_bs)]
        out.append(list(fill_blocks(space, blocks, texts)))
    return out


def cmd_gen(args) -> int:
    inst = generate_instance(
        seed=args.seed,
        n_outcomes=args.outcomes,
        n_times=args.times,
        slope=args.modulus,
        epsilon=args.epsilon,
        n_players=args.players,
    )
    doc = GameDoc(inst.space, inst.fields, constant_time(inst.space, 0), inst.epsilon, None)
    _write(args.out, emit_game(doc))
    return 0


def _gap_section(space, cert) -> list:
    times = _time_texts(space.grid)
    per_player = []
    for g, br, path in zip(cert.per_player_gaps, cert.best_response, cert.on_path):
        mg = max(g.values(), default=Fraction(0))
        per_player.append(
            {
                "best_response": atoms_obj(times, br),
                "on_path": atoms_obj(times, path),
                "gap": atoms_obj(times, g),
                "max_gap": _f2s(mg),
                "passes": mg <= cert.bound,
            }
        )
    return per_player


# the PlayerProcesses layers a three-player solve report prints, per seat
_PROCESS_LAYERS = ("stop_exact", "stop_family", "rival_floor", "value")


def _report(kind: str, players: int, eps, bound, worst, **rest) -> dict:
    """A report: its head, the measured worst gap against its bound, and the
    kind's own sections."""
    head = {"schema": REPORT_SCHEMA, "kind": kind, "players": players, "epsilon": _f2s(eps)}
    return {**head, "bound": _f2s(bound), "max_gap": _f2s(worst), "passes": worst <= bound, **rest}


def cmd_solve(args) -> int:
    doc = parse_game(_read(args.game))
    eps = args.epsilon or doc.epsilon
    h = args.h or doc.h
    t0 = time.perf_counter()
    space = doc.space
    if len(doc.fields) == 2:
        res = solve_2p_nash(space, doc.fields[0], doc.fields[1], doc.theta, eps)
        cert = res.certificate
        report = _report(
            "solve", 2, eps, cert.bound, cert.worst_gap,
            fallback_used=res.fallback_used,
            profile=profile_to_obj(space, list(res.strategies)),
            per_player=_gap_section(space, cert),
        )
    else:
        try:
            sol = solve_three_player(space, doc.fields, doc.theta, eps, h)
        except WindowCertificationFailed as exc:
            # the entry's gap at one window time, against its family's bound
            time_at = _f2s(space.grid.points[exc.at])
            failure = {"family": exc.kind, "g": _f2s(exc.g), "time": time_at}
            report = _report("solve", 3, eps, exc.bound, exc.achieved, window_failure=failure)
            _write(args.out, dump_report(report))
            raise
        cert = sol.certificate
        ctx = sol.context
        players = [ctx.players[s] for s in range(3)]
        node_gaps = [
            {"leader": s, "k": ng.k, "block": list(ng.block), "gap": _f2s(ng.gap)}
            for s in range(3)
            for ng in ctx.saddles[s][0].node_reports
        ]
        window = {
            f"after_stop_{s}": {
                _f2s(g): _f2s(e.achieved) for g, e in sorted(ctx.overline[s].entries.items())
            }
            for s in range(3)
        }
        convention = [
            _f2s(dynkin_convention_gap(space, p.value, p.stop_exact, p.rival_floor, doc.theta))
            for p in players
        ]
        report = _report(
            "solve", 3, eps, cert.bound, cert.worst_gap,
            h=_f2s(ctx.h),
            profile=profile_to_obj(space, sol.profile),
            per_player=_gap_section(space, cert),
            exit_times=[[_f2s(space.grid.points[i]) for i in p.exit_time.idx] for p in players],
            delta=atoms_obj(_time_texts(space.grid), ctx.delta.per_atom),
            events={name: list(ctx.events[s]) for s, name in enumerate(("A", "B", "C"))},
            processes=[
                {name: _layer_obj(space, getattr(p, name)) for name in _PROCESS_LAYERS}
                for p in players
            ],
            flags={
                "node_gaps": node_gaps,
                "window_achieved": window,
                "convention_gap": convention,
            },
        )
    if args.timings:
        report["timings"] = {"solve_seconds": round(time.perf_counter() - t0, 6)}
    _write(args.out, dump_report(report))
    return 0 if cert.passes else 1


def cmd_verify(args) -> int:
    doc = parse_game(_read(args.game))
    try:
        obj = json.loads(_read(args.profile))
    except json.JSONDecodeError as exc:
        raise ParseError(f"profile: {exc}") from exc
    profile = profile_from_obj(doc.space, obj)
    n = len(doc.fields)
    if len(profile) != n:
        raise ValidationError("profile size does not match the game")
    for p, strat in enumerate(profile):
        if not isinstance(strat, StrategyOrder2 if n == 2 else StrategyOrder3):
            raise ValidationError(f"strategy {p}: a {n}-player game needs order {n}")
        if n == 3 and strat.seat != p:
            raise ValidationError(f"strategy {p}: seat {strat.seat}, expected {p}")
        problems = validate_strategy(doc.space, strat)
        if problems:
            raise ValidationError(f"strategy {p}: {'; '.join(problems)}")
    cert = certify_nash(doc.space, doc.fields, profile, doc.theta, doc.epsilon)
    per_player = _gap_section(doc.space, cert)
    report = _report("verify", n, cert.eps, cert.bound, cert.worst_gap, per_player=per_player)
    _write(args.out, dump_report(report))
    if not cert.passes:
        offenders = [
            (s, p["max_gap"]) for s, p in enumerate(per_player) if not p["passes"]
        ]
        print(f"certification failed: player gaps over bound: {offenders}", file=sys.stderr)
    return 0 if cert.passes else 1


def cmd_report(args) -> int:
    with _malformed("report"):
        obj = json.loads(_read(args.input))
        lines = [
            f"kind: {obj['kind']}  players: {obj['players']}",
            f"epsilon: {obj['epsilon']}  bound: {obj['bound']}"
            f"  max gap: {obj['max_gap']}  passes: {obj['passes']}",
        ]
        for s, per in enumerate(obj.get("per_player", [])):
            lines.append(f"player {s}: max gap {per['max_gap']} (passes: {per['passes']})")
            for row in per.get("gap", []):
                lines.append(
                    f"  atom t={row['time']} outcomes={row['outcomes']}: gap {row['value']}"
                )
        if "exit_times" in obj:
            for s, et in enumerate(obj["exit_times"]):
                lines.append(f"exit times player {s}: {et}")
        if "window_failure" in obj:
            line = "window failure: {family} entry at {g}, window time {time}"
            lines.append(line.format(**obj["window_failure"]))
        if obj.get("flags", {}).get("node_gaps"):
            lines.append(f"node gaps reported: {len(obj['flags']['node_gaps'])}")
    print("\n".join(lines))
    return 0


def _positive_rational(text: str) -> Fraction:
    try:
        value = rat(text)
        if value > 0:
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"must be a positive rational, got {text!r}")


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return integer


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts with a minus and a digit, such as ``-1/2``,
    as a value, so a negative rational reaches the flag's own check; plain
    argparse knows only ``-1`` and ``-0.5`` as numbers and takes ``-1/2`` for
    an option.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="stopgame",
        description="Certified epsilon-equilibria for max-revealed stopping games.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random game file")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--outcomes", type=_int_at_least(1), default=2)
    g.add_argument("--times", type=_int_at_least(2), default=4)
    g.add_argument("--modulus", type=_positive_rational, default="1",
                   help="target time-Lipschitz slope")
    g.add_argument("--epsilon", type=_positive_rational, default="1/20")
    g.add_argument("--players", type=int, choices=(2, 3), default=3)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("solve", help="solve a game and write profile + report")
    s.add_argument("--game", required=True)
    s.add_argument("--epsilon", type=_positive_rational)
    s.add_argument("--h", type=_positive_rational)
    s.add_argument("--out", required=True)
    s.add_argument("--timings", action="store_true")
    s.set_defaults(fn=cmd_solve)

    v = sub.add_parser("verify", help="recompute gaps for a supplied profile")
    v.add_argument("--game", required=True)
    v.add_argument("--profile", required=True)
    v.add_argument("--out", required=True)
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("report", help="render a report file")
    r.add_argument("--in", dest="input", required=True)
    r.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        ParseError,
        ValidationError,
        NoValidH,
        NoValidDelta,
        PremiseViolation,
        OSError,  # a missing, unreadable or unwritable file
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (GuardExceeded, DeskScaleExceeded) as exc:
        print(f"desk-scale guard: {exc}", file=sys.stderr)
        return 3
    except CertificationFailed as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
