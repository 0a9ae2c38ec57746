"""Closed-loop benchmark of the braidrep command line, run in-process.

    python3 perfbench/run.py --workload invariant --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; braidrep is imported from ./src.
One client in one thread issues one `braidrep.cli.main([...])` call at a
time, with stdout captured, and checks each output against perfbench/oracle.py
outside the timed span.  Rounds of operations (see workloads.py) run until
the operations have taken `--seconds` at reference speed (see gauge.py),
always finishing the round in progress.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the same seed's first rounds run once untraced and
once traced (spans.py), the spans go to perfbench/out/, and the JSON object
holds the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from time import perf_counter

from gauge import Gauge
from oracle import Checker, span_check
from workloads import WORKLOADS, Workload, rounds

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
# A run stops early, after the round in progress, once its wall time passes
# this multiple of --seconds, so that a very slow host cannot stretch it.
WALL_CAP = 1.5
CHECKS = {
    "charpoly": Checker.check_charpoly,
    "markov": Checker.check_markov,
    "nf": Checker.check_nf,
    "verify": Checker.check_verify,
    "det-tau": Checker.check_det_tau,
    "defect": Checker.check_defect,
    "rep": Checker.check_rep,
    "solve-ext": Checker.check_solve_ext,
}


class BadCheckout(RuntimeError):
    pass


def fresh_import(src: str):
    """Import braidrep and its CLI from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "braidrep" or m.startswith("braidrep.")]:
        del sys.modules[name]
    pkg = importlib.import_module("braidrep")
    cli = importlib.import_module("braidrep.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != src:
        raise BadCheckout(f"braidrep was imported from {pkg.__file__}, not from {src}")
    return pkg, cli


def setup(workload: Workload, src: str, hook=None, gauge: Gauge | None = None):
    """Import braidrep and cold-build every representation the workload uses."""
    if gauge is not None:
        gauge.bracket_open()
    t0 = perf_counter()
    pkg, cli = fresh_import(src)
    if hook is not None:
        hook()
    for ctor, args in workload.builds:
        getattr(pkg, ctor)(*args)
    dt = perf_counter() - t0
    if gauge is not None:
        gauge.bracket_close(dt)
    return dt, cli


class Session:
    """Runs operations, times them, and judges every output."""

    def __init__(self, cli, checker: Checker, tracer=None, verdicts=None, gauge=None):
        self.cli = cli
        self.checker = checker
        self.tracer = tracer
        self.gauge = gauge
        self.durations: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.reasons: list[str] = []
        self.span_outputs: dict[bytes, tuple[int, str]] = {}
        self._verdicts: dict[bytes, str | None] = {} if verdicts is None else verdicts

    def run_op(self, op):
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.current_op = len(self.durations)
        raised = None
        if self.gauge is not None:
            self.gauge.sample()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except Exception as exc:  # an operation that raises counts as failed
                code, raised = None, exc
            dt = perf_counter() - t0
        self.durations.append(dt)
        if self.gauge is not None:
            self.gauge.mark(dt)
        if raised is not None or code != 0:
            self.fail(op, f"exit {code}" if raised is None else f"raised {raised!r}", wrong=False)
            return None
        text = out.getvalue()
        reason = self.judge(op, text)
        if reason is not None:
            self.fail(op, reason, wrong=True)
            return None
        return text

    def judge(self, op, text: str):
        key = hashlib.blake2b(repr((op.argv, text)).encode(), digest_size=16).digest()
        if key in self._verdicts:
            return self._verdicts[key]
        try:
            reason = CHECKS[op.check](self.checker, op.argv, text)
        except Exception as exc:  # unreadable output is a wrong output
            reason = f"check raised {exc!r}"
        if reason is None and op.check == "solve-ext":
            self.span_outputs[key] = (int(op.argv[op.argv.index("--n") + 1]), text)
        self._verdicts[key] = reason
        return reason

    def fail(self, op, reason: str, wrong: bool):
        self.failed += 1
        self.wrong += wrong
        if len(self.reasons) < 5:
            self.reasons.append(f"{' '.join(op.argv)[:120]}: {reason}")

    def run_round(self, rnd):
        self.check_pairs(rnd, [self.run_op(op) for op in rnd.ops])

    def check_pairs(self, rnd, outs):
        for kind, a, b in rnd.pairs:
            if outs[a] is None or outs[b] is None:
                continue
            reason = self.checker.nf_pair(kind, rnd.ops[a].argv, outs[a], rnd.ops[b].argv, outs[b])
            if reason is not None:
                self.fail(rnd.ops[b], reason, wrong=True)

    def deferred_checks(self):
        """Checks that need sympy; run after peak memory has been read."""
        for n, text in self.span_outputs.values():
            reason = span_check(n, text)
            if reason is not None:
                self.failed += 1
                self.wrong += 1
                self.reasons.append(f"solve-ext --n {n}: {reason}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload: Workload, seed: int, seconds: float, src: str):
    # Set-up is sampled at even intervals through the run, so that its median
    # sees the same machine as the operations do.  The operations keep using
    # the first import; later imports only replace the entries in sys.modules.
    setup_gauge, op_gauge = Gauge(), Gauge()
    _, cli = setup(workload, src, gauge=setup_gauge)
    session = Session(cli, Checker(random.Random(f"check/{workload.name}/{seed}")), gauge=op_gauge)
    t0 = perf_counter()
    for rnd in rounds(workload, seed):
        session.run_round(rnd)
        done = op_gauge.scaled_total() / seconds
        elapsed = perf_counter() - t0
        if len(setup_gauge.marks) < SETUP_REPEATS and done >= len(setup_gauge.marks) / SETUP_REPEATS:
            setup(workload, src, gauge=setup_gauge)
        if done >= 1 or elapsed >= WALL_CAP * seconds:
            break
    while len(setup_gauge.marks) < SETUP_REPEATS:
        setup(workload, src, gauge=setup_gauge)
    op_gauge.finish()
    wall = perf_counter() - t0
    rss = peak_rss_mb()
    session.deferred_checks()
    d = op_gauge.scaled()
    setups = setup_gauge.scaled()
    completed = len(d) - session.failed
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / sum(d), "ops/s"),
        "op_p50_s": (statistics.median(d), "s"),
        "op_p90_s": (statistics.quantiles(d, n=10)[8], "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = session.durations
    print(f"{workload.name} seed {seed}: {len(d)} operations, {session.failed} failed, "
          f"{sum(raw):.2f} s in operations ({sum(d):.2f} s at reference speed), {wall:.2f} s wall; "
          f"unscaled: {completed / sum(raw):.4g} ops/s, p50 {statistics.median(raw):.4g} s, "
          f"p90 {statistics.quantiles(raw, n=10)[8]:.4g} s, setup {statistics.median(setup_gauge.raw):.4g} s; "
          f"host at {op_gauge.speed():.3f} of reference speed", file=sys.stderr)
    return session, metrics


def traced_run(workload: Workload, seed: int, src: str):
    """The first rounds of the seed on two fresh imports of braidrep, one
    traced and one not, alternating operation by operation (ABBA order) so
    that drift in machine speed cancels out of the tracing overhead."""
    from spans import Tracer

    plan = list(islice(rounds(workload, seed), workload.trace_rounds))
    checker = Checker(random.Random(f"check/{workload.name}/{seed}"))
    verdicts: dict = {}
    _, cli = setup(workload, src)
    plain = Session(cli, checker, verdicts=verdicts)
    tracer = Tracer()
    _, cli = setup(workload, src, hook=tracer.install)
    traced = Session(cli, checker, tracer, verdicts=verdicts)
    try:
        for k, rnd in enumerate(plan):
            outs = {plain: [], traced: []}
            for j, op in enumerate(rnd.ops):
                for session in (plain, traced) if (k + j) % 2 == 0 else (traced, plain):
                    outs[session].append(session.run_op(op))
            for session in (plain, traced):
                session.check_pairs(rnd, outs[session])
    finally:
        tracer.uninstall()
    untraced_s, traced_s = sum(plain.durations), sum(traced.durations)
    overhead = traced_s - untraced_s
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace-{workload.name}-seed{seed}.json")
    tracer.write(path, {"workload": workload.name, "seed": seed, "rounds": workload.trace_rounds,
                        "operations": len(traced.durations), "traced_s": traced_s,
                        "untraced_s": untraced_s})
    print(f"tracing overhead: {traced_s:.3f} s traced - {untraced_s:.3f} s untraced = "
          f"{overhead:.3f} s over {len(traced.durations)} operations; spans in {path}")
    plain.deferred_checks()
    traced.deferred_checks()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (overhead, "s")
    # The result counts the operations of both imports.
    traced.durations += plain.durations
    traced.failed += plain.failed
    traced.wrong += plain.wrong
    traced.reasons += plain.reasons
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "braidrep", "cli.py")):
        print(f"error: no braidrep sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            session, metrics = traced_run(workload, args.seed, src)
        else:
            session, metrics = timed_run(workload, args.seed, args.seconds, src)
    except BadCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for reason in session.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": session.wrong == 0,
        "attempted": len(session.durations),
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
