"""Command-line interface: generate, solve, verify, and render reports.

Exit codes: 0 success, 1 certification failure (a computed or supplied
profile exceeds its bound), 2 input error, 3 desk-scale guard tripped.
Reports are deterministic for identical inputs; wall-clock timings are only
included when explicitly requested.
"""

from __future__ import annotations

import argparse
import json
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
    ValidationError,
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
)
from .generator import generate_instance
from .nash2 import solve_2p_nash
from .nash3 import solve_three_player
from .payoff import estimate_modulus, modulus_max, select_h
from .space import constant_time, rat
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
        return fh.read()


def _layer_obj(layers):
    out = []
    for layer in layers:
        out.append(None if layer is None else [_f2s(v) for v in layer])
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
    doc = GameDoc(
        space=inst.space,
        fields=inst.fields,
        theta=constant_time(inst.space, 0),
        epsilon=inst.epsilon,
        h=None,
    )
    _write(args.out, emit_game(doc))
    return 0


def _gap_section(space, cert) -> list:
    per_player = []
    for g, br, path in zip(cert.per_player_gaps, cert.best_response, cert.on_path):
        mg = max(g.values(), default=Fraction(0))
        per_player.append(
            {
                "best_response": atoms_obj(space, br),
                "on_path": atoms_obj(space, path),
                "gap": atoms_obj(space, g),
                "max_gap": _f2s(mg),
                "passes": mg <= cert.bound,
            }
        )
    return per_player


def cmd_solve(args) -> int:
    doc = parse_game(_read(args.game))
    players = args.players or len(doc.fields)
    if players != len(doc.fields):
        raise ValidationError(
            f"--players {players} but the game file has {len(doc.fields)} payoffs"
        )
    eps = args.epsilon or doc.epsilon
    h = args.h or doc.h
    t0 = time.perf_counter()
    space = doc.space
    if players == 2:
        res = solve_2p_nash(space, doc.fields[0], doc.fields[1], doc.theta, eps)
        cert = res.certificate
        report = {
            "schema": REPORT_SCHEMA,
            "kind": "solve",
            "players": 2,
            "epsilon": _f2s(eps),
            "bound": _f2s(cert.bound),
            "fallback_used": res.fallback_used,
            "profile": profile_to_obj(space, list(res.strategies)),
            "per_player": _gap_section(space, cert),
            "max_gap": _f2s(cert.worst_gap),
            "passes": cert.passes,
        }
    else:
        if h is None:
            mod = modulus_max([estimate_modulus(f) for f in doc.fields])
            h = select_h(mod, eps, space.grid)
        sol = solve_three_player(space, doc.fields, doc.theta, eps, h)
        cert = sol.certificate
        ctx = sol.context
        node_gaps = []
        for s in range(3):
            comp = ctx.saddles[s][0]
            for ng in comp.node_reports:
                node_gaps.append(
                    {"leader": s, "k": ng.k, "block": list(ng.block), "gap": _f2s(ng.gap)}
                )
        window = {
            f"after_stop_{s}": {
                _f2s(g): _f2s(e.achieved) for g, e in sorted(ctx.overline[s].entries.items())
            }
            for s in range(3)
        }
        convention = [
            _f2s(
                dynkin_convention_gap(
                    space,
                    ctx.players[s].stop_exact,
                    ctx.players[s].rival_floor,
                    doc.theta,
                )
            )
            for s in range(3)
        ]
        report = {
            "schema": REPORT_SCHEMA,
            "kind": "solve",
            "players": 3,
            "epsilon": _f2s(eps),
            "h": _f2s(h),
            "bound": _f2s(cert.bound),
            "profile": profile_to_obj(space, sol.profile),
            "per_player": _gap_section(space, cert),
            "max_gap": _f2s(cert.worst_gap),
            "passes": cert.passes,
            "exit_times": [
                [_f2s(space.grid.points[i]) for i in ctx.players[s].exit_time.idx]
                for s in range(3)
            ],
            "delta": atoms_obj(space, ctx.delta.per_atom),
            "events": {
                name: list(ctx.events[s])
                for s, name in enumerate(("A", "B", "C"))
            },
            "processes": [
                {
                    "stop_exact": _layer_obj(ctx.players[s].stop_exact),
                    "stop_family": _layer_obj(ctx.players[s].stop_family),
                    "rival_floor": _layer_obj(ctx.players[s].rival_floor),
                    "value": _layer_obj(ctx.players[s].value),
                }
                for s in range(3)
            ],
            "flags": {
                "node_gaps": node_gaps,
                "window_achieved": window,
                "convention_gap": convention,
            },
        }
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
    if len(profile) != len(doc.fields):
        raise ValidationError("profile size does not match the game")
    cert = certify_nash(doc.space, doc.fields, profile, doc.theta, doc.epsilon)
    per_player = _gap_section(doc.space, cert)
    report = {
        "schema": REPORT_SCHEMA,
        "kind": "verify",
        "players": len(profile),
        "epsilon": _f2s(cert.eps),
        "bound": _f2s(cert.bound),
        "per_player": per_player,
        "max_gap": _f2s(cert.worst_gap),
        "passes": cert.passes,
    }
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stopgame",
        description="Certified epsilon-equilibria for max-revealed stopping games.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random game file")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--outcomes", type=int, default=2)
    g.add_argument("--times", type=int, default=4)
    g.add_argument("--modulus", default="1", help="target time-Lipschitz slope")
    g.add_argument("--epsilon", default="1/20")
    g.add_argument("--players", type=int, choices=(2, 3), default=3)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("solve", help="solve a game and write profile + report")
    s.add_argument("--game", required=True)
    s.add_argument("--players", type=int, choices=(2, 3))
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
    except (ParseError, ValidationError, NoValidH, NoValidDelta, FileNotFoundError) as exc:
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
