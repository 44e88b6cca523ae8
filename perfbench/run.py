"""Solve/verify benchmark for stopgame.

Run from the repository root:

    python3 perfbench/run.py --workload solve3-fine-h --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: the next operation starts only when the
previous one has finished.  Set-up generates the workload's game files from
``--seed`` with ``generator.generate_instance`` and ``gamefile.emit_game``;
after that the program only ever receives those files.  The timed phase then
alternates two user operations through the in-process CLI:

* solve:  ``stopgame.cli.main(["solve", ...])``, which writes the report;
* verify: ``stopgame.cli.main(["verify", ...])`` on that report.

The pool repeats a cycle of four games of the workload's first size and one
of its second, so the median lies near the middle of the first size's mode.
The timed phase makes passes over the pool until ``--seconds`` of ops have
run and every game has been solved ``min_repeats`` times; each solve is
followed by ``verifies`` verify ops.  An operation fails when its exit code
is not 0, its report says ``passes: false``, verify's per-atom gaps differ
from the solver's under ``==`` on ``Fraction``, or a game solved again gives
a different report.

Times are reported in reference-host seconds: a timer signal runs a small
fixed probe every 25 ms and each op is scaled by the probe's speed around it
(see ``Probe``), so that slow spells caused by other tenants of a shared host
cancel out.  A game's time is the median of its ops and each metric is the
median over the games.  Set-up (pool generation, file writing and one
warm-up pair) runs ``SETUP_REPEATS`` times, once before the timed phase and
then between passes, and ``setup_s`` is the median.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the time
untraced and half traced (spans from ``tracer.py``) and prints the per-layer
metrics, among them the tracing overhead; on ``solve3-auto-h`` it also prints
the stage table for the generated 3x5 and 4x6 games of generator seed 1.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

ROOT = os.getcwd()
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUP_REPEATS = 3
# Host-speed probes (see ``Probe``): one every PROBE_PERIOD_S; an interval is
# scaled by the probes within PROBE_WINDOW_S of it.  PROBE_REF_S is the time
# ``probe_unit`` takes on the reference host, a 2-vCPU Xeon VM at 2.0 GHz,
# when no other tenant slows it.
PROBE_PERIOD_S = 0.025
PROBE_WINDOW_S = 0.5
PROBE_REF_S = 0.00075
CYCLE = (0, 0, 0, 0, 1)  # size index of each game in a cycle


@dataclass(frozen=True)
class Workload:
    players: int
    sizes: tuple  # ((outcomes, times), (outcomes, times)): first and second size
    cycles: int  # the pool holds this many cycles
    fine_h: bool  # solve with --h equal to the minimal grid step
    min_repeats: int  # the timed phase solves every game at least this often
    verifies: int  # verify ops on each solve report


WORKLOADS = {
    "solve3-auto-h": Workload(3, ((3, 5), (4, 6)), 3, False, 1, 5),
    "solve3-fine-h": Workload(3, ((4, 6), (3, 7)), 5, True, 1, 5),
    "solve2-batch": Workload(2, ((6, 10), (8, 12)), 8, False, 3, 1),
}


@dataclass
class Game:
    path: str
    solve_args: tuple


def write_game(path, inst):
    from stopgame.gamefile import GameDoc, emit_game
    from stopgame.space import constant_time

    doc = GameDoc(inst.space, inst.fields, constant_time(inst.space, 0), inst.epsilon, None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_game(doc))


def write_pool(wl: Workload, seed: int, directory: str) -> list:
    """The workload's games in ``CYCLE`` order, ``wl.cycles`` times.  Game i
    of the pool uses generator seed ``seed * 1000 + i``."""
    from stopgame.generator import generate_instance

    os.makedirs(directory, exist_ok=True)
    order = [wl.sizes[k] for k in CYCLE] * wl.cycles
    games = []
    for i, (outcomes, times) in enumerate(order):
        inst = generate_instance(
            seed=seed * 1000 + i, n_outcomes=outcomes, n_times=times, n_players=wl.players
        )
        path = os.path.join(directory, f"game{i:03d}.json")
        write_game(path, inst)
        step = inst.space.grid.min_step
        args = ("--h", f"{step.numerator}/{step.denominator}") if wl.fine_h else ()
        games.append(Game(path, args))
    return games


def _gaps(report: dict) -> list:
    return [
        {(row["time"], tuple(row["outcomes"])): Fraction(row["value"]) for row in p["gap"]}
        for p in report["per_player"]
    ]


def probe_unit():
    """About a millisecond of fixed pure-Python work in the solver's style
    (``Fraction`` arithmetic, comparisons, dict updates); it does not touch
    stopgame."""
    vals = [Fraction(i % 97 + 1, i % 89 + 2) for i in range(40)]
    best = {}
    for i, a in enumerate(vals):
        for b in vals[i % 5 :: 7]:
            key = (i & 15, a > b)
            d = a - b
            if d > best.get(key, 0):
                best[key] = d
    return best


class Probe:
    """Samples the host's speed while the benchmark runs.

    Every ``PROBE_PERIOD_S`` of wall time a timer signal runs ``probe_unit``
    between two bytecodes of whatever is running, and records when it ran
    and how long it took.  ``busy`` is the probe time so far, so an interval
    can leave it out.  ``scale`` turns an interval's seconds into
    reference-host seconds: times ``PROBE_REF_S`` over the trimmed mean
    probe time near the interval.  On a shared host, other tenants slow
    every op by a factor that changes over milliseconds and over minutes;
    the probes see the same factor, so scaled times hold still.
    """

    def __init__(self):
        self.starts: list = []
        self.seconds: list = []
        self.busy = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe_unit()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.seconds.append(dt)
        self.busy += dt

    @contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def scale(self, seconds, start, end) -> float:
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + PROBE_WINDOW_S)
        near = sorted(self.seconds[lo:hi])
        cut = len(near) // 10
        near = near[cut : len(near) - cut]
        if not near:
            raise RuntimeError("no host-speed probe ran near a timed interval")
        return seconds * PROBE_REF_S / statistics.fmean(near)


class Loop:
    """Closed-loop client: runs solve/verify pairs and checks their outputs.
    Op times leave out the time of ``probe``'s samples."""

    def __init__(self, probe, tracer=None, verifies=1):
        from stopgame.cli import main

        self.main = main
        self.tracer = tracer
        self.verifies = verifies  # verify ops after each solve
        self.probe = probe
        self.ops: list = []  # (kind, game path, start, end, seconds without probes)
        self.busy = 0.0  # seconds of all ops, without probes
        self.attempted = 0
        self.failed = 0
        self.first_report: dict = {}  # game path -> bytes of its first solve report
        self._op = 0

    def _call(self, kind, argv):
        self._op += 1
        try:
            if self.tracer is None:
                return self.main(argv)
            return self.tracer.op(self._op, kind, self.main, argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a crash is a failed op, not a dead benchmark
            print(f"{kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def _timed(self, kind, game, argv):
        p0, t0 = self.probe.busy, time.perf_counter()
        rc = self._call(kind, argv)
        t1 = time.perf_counter()
        seconds = t1 - t0 - (self.probe.busy - p0)
        self.ops.append((kind, game.path, t0, t1, seconds))
        self.busy += seconds
        return rc

    def pair(self, game: Game) -> bool:
        """One solve, then ``verifies`` verify ops on its report; True when
        all pass every check."""
        out = game.path[: -len(".json")]
        report_path, verify_path = out + ".report.json", out + ".verify.json"
        self.attempted += 1 + self.verifies
        argv = ["solve", "--game", game.path, "--out", report_path, *game.solve_args]
        rc = self._timed("solve", game, argv)
        problem = None
        if rc != 0:
            problem = f"solve exit code {rc}"
        else:
            with open(report_path, "rb") as fh:
                raw = fh.read()
            report = json.loads(raw)
            first = self.first_report.setdefault(game.path, raw)
            if report.get("passes") is not True:
                problem = "solve report does not pass"
            elif first != raw:
                problem = "solve report differs from the first solve of this game"
        if problem is not None:
            self.failed += 1 + self.verifies  # the verify ops cannot run
            print(f"{game.path}: {problem}", file=sys.stderr)
            return False
        for v in range(self.verifies):
            argv = ["verify", "--game", game.path, "--profile", report_path, "--out", verify_path]
            rc = self._timed("verify", game, argv)
            if rc != 0:
                problem = f"verify exit code {rc}"
            else:
                with open(verify_path, encoding="utf-8") as fh:
                    checked = json.load(fh)
                if checked.get("passes") is not True:
                    problem = "verify report does not pass"
                elif _gaps(checked) != _gaps(report):
                    problem = "verify gaps differ from the solver's"
            if problem is not None:
                self.failed += self.verifies - v
                print(f"{game.path}: {problem}", file=sys.stderr)
                return False
        return True

    def run(self, games, seconds, min_repeats, between_passes=None):
        """Passes over the pool, in order, until ``seconds`` of ops have
        passed and every game has been solved ``min_repeats`` times.
        ``between_passes`` runs after each pass, outside the timed ops."""
        passes = 0
        while True:
            for game in games:
                self.pair(game)
                if self.busy >= seconds and passes + 1 >= min_repeats:
                    return
            passes += 1
            if between_passes is not None:
                between_passes()

    def count(self, kind) -> int:
        return sum(1 for op in self.ops if op[0] == kind)

    def times(self, kind, scaled=True) -> dict:
        """game path -> seconds of each op of ``kind``; ``scaled`` converts
        each to reference-host seconds (``Probe.scale``)."""
        out: dict = {}
        for k, path, start, end, seconds in self.ops:
            if k == kind:
                if scaled:
                    seconds = self.probe.scale(seconds, start, end)
                out.setdefault(path, []).append(seconds)
        return out

    def per_game(self, games, kind, scaled=True) -> list:
        """Each game's median op of ``kind``, for games that have one."""
        times = self.times(kind, scaled)
        return [statistics.median(times[g.path]) for g in games if g.path in times]

    def reports_sha256(self, games) -> str:
        digest = hashlib.sha256()
        for game in games:
            digest.update(self.first_report.get(game.path, b""))
        return digest.hexdigest()


class Setups:
    """Set-up: generate and write the pool, then warm up with one pair.  The
    first set-up comes before the timed phase; the rest run between its
    passes, so that the median of ``SETUP_REPEATS`` set-ups samples the
    whole run."""

    def __init__(self, wl: Workload, seed: int, work: str, probe: Probe):
        self.wl, self.seed, self.work, self.probe = wl, seed, work, probe
        self.times: list = []
        self.ok = True  # every warm-up pair passed

    def once(self) -> list:
        p0, t0 = self.probe.busy, time.perf_counter()
        games = write_pool(self.wl, self.seed, os.path.join(self.work, f"setup{len(self.times)}"))
        self.ok = Loop(self.probe).pair(games[0]) and self.ok
        t1 = time.perf_counter()
        self.times.append(self.probe.scale(t1 - t0 - (self.probe.busy - p0), t0, t1))
        return games

    def more(self):
        if len(self.times) < SETUP_REPEATS:
            self.once()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.once()
        return statistics.median(self.times)


def end_to_end(wl_name, loop: Loop, setup_s, games) -> dict:
    """Times in reference-host seconds (see ``Probe``); each game counts
    once, with the median of its ops."""
    solve, verify = loop.per_game(games, "solve"), loop.per_game(games, "verify")
    solves, verifies = loop.times("solve"), loop.times("verify")
    pair_s = [statistics.median(solves[p]) + statistics.median(verifies[p]) for p in verifies]
    metrics = {
        "solve_s_p50": (statistics.median(solve), "s"),
        "verify_s_p50": (statistics.median(verify), "s"),
        "ops_per_s": (len(pair_s) / sum(pair_s), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = {
        "solve_s_p50": f"n={len(solve)} games, >={min(map(len, solves.values()))} solves each",
        "verify_s_p50": f"n={len(verify)} games, >={loop.verifies} verifies per solve",
        "ops_per_s": f"solve+verify pairs, n={len(pair_s)} games",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
    }
    for name, (value, unit) in metrics.items():
        n = f" ({counts[name]})" if name in counts else ""
        print(f"{wl_name} {name} {value:.6g} {unit}{n}")
    every = sorted(t for ts in solves.values() for t in ts)
    p90 = every[int(0.9 * len(every))]  # nearest rank
    beyond = sum(1 for x in every if x > p90)
    if beyond >= 10:
        print(f"{wl_name} solve_s_p90 {p90:.6g} s (every solve, n={len(every)}, {beyond} beyond)")
    raw = statistics.median(loop.per_game(games, "solve", scaled=False))
    speed = PROBE_REF_S / statistics.median(loop.probe.seconds)
    print(f"{wl_name} unscaled solve_s_p50 {raw:.6g} s; host speed {speed:.3f} of reference")
    fails = f"{loop.failed}/{loop.attempted} ops"
    print(f"{wl_name} fail_ratio {loop.failed / loop.attempted:.6g} ({fails})")
    sha = loop.reports_sha256(games)
    print(f"{wl_name} reports_sha256 {sha} ({len(games)} games in pool order)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


CONTEXT_LAYERS = ("classic", "zerosum", "nash2", "coalition")
SETUP_LAYERS = ("generator.generate_instance", "gamefile.emit_game")


def per_layer(wl_name, tracer, setup_tracer, pairs, untraced_p50, traced_p50) -> dict:
    """Per-layer metrics of the traced phase, per pair (a solve and its
    verify ops); the set-up layers come from one traced pool generation, per
    set-up.  Span times are unscaled wall seconds, and the probes' samples
    (about 4% of the time) land in whichever span is open."""
    from tracer import LAYERS, REPEAT_KEYED

    stats = tracer.layer_stats()
    setup_stats = setup_tracer.layer_stats()
    metrics = {}
    for layer, quals in LAYERS.items():
        for qual in quals:
            span = f"{layer}.{qual}"
            name = f"{layer}.{qual.split('.')[-1]}"
            if span in SETUP_LAYERS:
                self_s, _, calls = setup_stats[span]
                metrics[f"{name}.self_s"] = (self_s, "s/setup")
                metrics[f"{name}.calls"] = (calls, "calls/setup")
            else:
                self_s, _, calls = stats[span]
                metrics[f"{name}.self_s"] = (self_s / pairs, "s/pair")
                metrics[f"{name}.calls"] = (calls / pairs, "calls/pair")
    metrics["nash3.build_context.total_s"] = (stats["nash3.build_context"][1] / pairs, "s/pair")
    metrics["space.cond_exp.calls"] = (tracer.counts["space.cond_exp"] / pairs, "calls/pair")
    for kind in ("solve", "verify"):
        metrics[f"cli.{kind}.self_s"] = (stats[f"cli.{kind}"][0] / pairs, "s/pair")
    for name in REPEAT_KEYED:
        calls, repeats = stats[name][2], tracer.repeats[name]
        metrics[f"{name}.repeat_ratio"] = (repeats / calls if calls else 0.0, "ratio")
        print(f"{wl_name} {name}.repeat_ratio base: {repeats} of {calls} calls repeat")

    solve_stats = tracer.layer_stats(kinds=("solve",))
    solve_total = solve_stats["cli.solve"][1]
    by_module: dict = {}
    for name, (self_s, _, _) in solve_stats.items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + self_s
    for module in [*LAYERS, "cli", "trace"]:
        if module != "generator":  # runs in set-up only
            metrics[f"solve.share.{module}"] = (100 * by_module.get(module, 0.0) / solve_total, "%")
    modulus = solve_stats["payoff.estimate_modulus"][0]
    metrics["solve.share.payoff.estimate_modulus"] = (100 * modulus / solve_total, "%")
    context = tracer.covered(CONTEXT_LAYERS, kinds=("solve",))
    metrics["solve.inclusive_share.context_layers"] = (100 * context / solve_total, "%")
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    print(f"{wl_name} tracing overhead on solve_s_p50: {traced_p50:.6g} - {untraced_p50:.6g} s")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{wl_name} {name} {value:.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def stage_table(work: str):
    """Stage split of one traced solve per size, generator seed 1 (the
    ROADMAP baseline table)."""
    from stopgame.cli import main
    from stopgame.generator import generate_instance
    from tracer import Tracer

    stages = {
        "modulus + h": ("payoff.estimate_modulus", "payoff.modulus_max", "payoff.select_h"),
        "context": ("nash3.build_context",),
        "assemble": ("nash3.assemble_profile",),
        "certify": ("nash3.certify_nash",),
    }
    print("| outcomes x times | " + " | ".join(stages) + " | solve |")
    for outcomes, times in ((3, 5), (4, 6)):
        path = os.path.join(work, f"stage{outcomes}x{times}.json")
        write_game(path, generate_instance(seed=1, n_outcomes=outcomes, n_times=times))
        tracer = Tracer()
        with tracer.installed():
            rc = tracer.op(0, "solve", main, ["solve", "--game", path, "--out", path + ".report"])
        if rc != 0:
            raise RuntimeError(f"stage-table solve of {path} exited {rc}")
        stats = tracer.layer_stats()
        cells = [f"{sum(stats[n][1] for n in names):.3f} s" for names in stages.values()]
        cells.append(f"{stats['cli.solve'][1]:.3f} s")
        print(f"| {outcomes}x{times} | " + " | ".join(cells) + " |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stopgame", "cli.py")):
        print("run from the repository root: src/stopgame is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import stopgame

    if not os.path.abspath(stopgame.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"stopgame imported from {stopgame.__file__}, not from src/", file=sys.stderr)
        return 2
    from tracer import Tracer

    wl = WORKLOADS[args.workload]
    work = os.path.join(RUN_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    probe = Probe()
    try:
        with probe.running():
            setups = Setups(wl, args.seed, work, probe)
            games = setups.once()
            if not args.trace:
                loop = Loop(probe, verifies=wl.verifies)
                loop.run(games, args.seconds, wl.min_repeats, setups.more)
                setup_s = setups.median()
            else:
                plain = Loop(probe, verifies=wl.verifies)
                plain.run(games, args.seconds / 2, 0)
                setup_tracer, tracer = Tracer(), Tracer()
                with setup_tracer.installed():
                    traced_dir = os.path.join(work, "traced-setup")
                    setup_tracer.op(0, "setup", write_pool, wl, args.seed, traced_dir)
                loop = Loop(probe, tracer, wl.verifies)
                with tracer.installed():
                    loop.run(games, args.seconds / 2, 0)
        if not loop.count("verify") or (args.trace and not plain.count("verify")):
            print("no solve/verify pair completed", file=sys.stderr)
            return 1
        if not args.trace:
            metrics = end_to_end(args.workload, loop, setup_s, games)
        else:
            metrics = per_layer(
                args.workload,
                tracer,
                setup_tracer,
                loop.count("solve"),
                statistics.median(plain.per_game(games, "solve")),
                statistics.median(loop.per_game(games, "solve")),
            )
            tracer.write(os.path.join(RUN_DIR, f"spans-{args.workload}-s{args.seed}.json"))
            if args.workload == "solve3-auto-h":
                stage_table(work)
            loop.failed += plain.failed
            loop.attempted += plain.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": setups.ok and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
