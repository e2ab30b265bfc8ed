"""bilbiq benchmark: one workload, timed end to end, checked by oracles.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 55 --trace 0

Runs from a source checkout with no install: bilbiq is imported from
src/, and CLI calls run as `python -m bilbiq.cli` with PYTHONPATH=src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7  # fresh set-up processes per run, between workers; setup_s is their median
IMPORT_SAMPLES = 7  # fresh interpreters per kind for cli.import_ms
# CPU seconds a child process may use before the kernel stops it.  A
# limit, not a subprocess timeout: with a timeout, subprocess polls for
# the child's exit in sleeps of up to 50 ms, which rounds every timing
# up to the next poll.
CHILD_CPU_S = 120
CLI_REPEATS = 1  # runs of each timed CLI call per round, as do the probes
# Fresh processes that a run's rounds are spread over, one after another.
# How fast a process runs this code depends on the process: over a
# minute the same rounds kept within 5% in one process and ranged over
# 30% between processes.  Each operation's time is its best over all
# the workers, so one slow process does not set the run's figures.
WORKERS = 5


@dataclass
class Round:
    pass_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    op_s: dict = field(default_factory=dict)
    cli_s: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    cli: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def cli_env(extra=None) -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **(extra or {})}


def limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_S, CHILD_CPU_S))


def child(args, env=None, capture=False) -> subprocess.CompletedProcess:
    """Run a fresh interpreter in the checkout and wait for it to exit."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=cli_env(env),
                          capture_output=capture, text=True, preexec_fn=limit_cpu)


def run_cli(call) -> subprocess.CompletedProcess:
    return child(["-m", "bilbiq.cli", *call.args], call.env, capture=True)


def cli_failure(call, proc) -> str | None:
    if call.probe:
        err = proc.stderr.strip().splitlines()
        if proc.returncode != 2 or len(err) != 1 or not err[0].startswith("error:"):
            last = err[-1] if err else proc.stdout.strip().splitlines()[-1:]
            return f"exit {proc.returncode}, expected 2 with one error line ({last})"
        return None
    if proc.returncode != call.expect_rc:
        return f"exit {proc.returncode}, expected {call.expect_rc}: {proc.stderr.strip()[-200:]}"
    return None


def clear_caches(modules) -> None:
    """Empty every functools cache in the package, so each operation pays
    what a fresh CLI process pays (the GL_m(Z_n) list above all)."""
    for mod in modules:
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def run_cli_call(rnd: Round, call) -> None:
    t = time.perf_counter()
    proc = run_cli(call)
    elapsed = time.perf_counter() - t
    rnd.attempted += 1
    problem = cli_failure(call, proc)
    if problem:
        rnd.failures.append((f"cli {call.name}", problem))
    elif call.name not in rnd.cli or proc.stdout == rnd.cli[call.name].stdout:
        rnd.cli[call.name] = proc
    else:
        rnd.failures.append((f"cli {call.name}", "output differs between repeats"))
    if not call.probe:
        rnd.cli_s.setdefault(call.name, []).append(elapsed)


def run_round(workload, modules, tracer=None) -> Round:
    """The in-process operations in order, each after emptying every
    functools cache, with the timed CLI calls after each CLI_REPEATS-th
    part of them and the probes at the end.  pass_s sums the operations'
    times, and wall_s is the round's wall time."""
    start = time.perf_counter()
    rnd = Round()
    ops = workload.ops
    checkpoints = {len(ops) * k // CLI_REPEATS for k in range(1, CLI_REPEATS + 1)}
    for i, (name, fn) in enumerate(ops, 1):
        clear_caches(modules)
        if tracer is not None:
            tracer.op = name
        t = time.perf_counter()
        try:
            rnd.results[name] = fn(rnd.results)
        except Exception as exc:  # an operation's failure is counted, not fatal
            rnd.failures.append((name, f"{type(exc).__name__}: {str(exc)[:200]}"))
        elapsed = time.perf_counter() - t
        rnd.pass_s += elapsed
        rnd.op_s.setdefault(name, []).append(elapsed)
        rnd.attempted += 1
        if tracer is not None:
            tracer.op = None
        if i in checkpoints:
            for call in workload.cli:
                if not call.probe:
                    run_cli_call(rnd, call)
    for call in workload.cli:
        if call.probe:
            run_cli_call(rnd, call)
    rnd.wall_s = time.perf_counter() - start
    return rnd


def differences(first: Round, other: Round) -> list:
    errs = [f"{k} differs between rounds" for k in first.results if other.results.get(k) != first.results[k]]
    errs += [f"cli {k} output differs between rounds" for k in first.cli
             if k not in other.cli or other.cli[k].stdout != first.cli[k].stdout]
    if [name for name, _ in first.failures] != [name for name, _ in other.failures]:
        errs.append("failures differ between rounds")
    return errs


def best_times(rounds, attr: str) -> dict:
    """Each operation's (or CLI call's) fastest time over every sample the
    rounds took of it."""
    best: dict = {}
    for rnd in rounds:
        for name, ts in getattr(rnd, attr).items():
            best[name] = min(ts + [best.get(name, min(ts))])
    return best


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports bilbiq and builds the
    workload's inputs, then exits."""
    t = time.perf_counter()
    child([str(Path(__file__).resolve()), "--setup-only", "--workload", workload,
           "--seed", str(seed)]).check_returncode()
    return time.perf_counter() - t


def interpreter_seconds(code: str) -> float:
    t = time.perf_counter()
    child(["-c", code]).check_returncode()
    return time.perf_counter() - t


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def work(args, build, modules, bilbiq, spans) -> dict:
    """One worker's share of a run.  Whole rounds, so every run attempts
    the same operations in the same proportions, for as long as the next
    round is expected to end within --seconds; with --trace 1 the last
    round runs traced, reckoned at twice a round.  Peak memory is read
    after the first round, and later rounds keep no outputs once compared
    with it, so neither depends on how many rounds fit."""
    deadline = time.perf_counter() + args.seconds
    workload = build(args.seed, OUT)
    first = run_round(workload, modules)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds, errors = [first], []
    reserve = 2 * first.wall_s if args.trace else 0.0
    while time.perf_counter() + max(r.wall_s for r in rounds) + reserve < deadline:
        rounds.append(run_round(workload, modules))
        errors += differences(first, rounds[-1])
        rounds[-1].results = rounds[-1].cli = None

    traced, per_layer = None, None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(bilbiq)
        try:
            traced = run_round(build(args.seed, OUT), modules, tracer)
        finally:
            tracer.uninstall()
        errors += differences(first, traced)
        traced.results = traced.cli = None
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        per_layer = spans.per_layer_metrics(tracer.spans)
        untraced_pass = statistics.median(r.pass_s for r in rounds)
        per_layer["bench.trace_overhead_s"] = (traced.pass_s - untraced_pass, "s")
    return {"rounds": rounds, "traced": traced, "errors": errors,
            "peak_rss_mb": peak_rss_mb, "per_layer": per_layer}


def run_worker(args, seconds: float, trace: bool) -> dict:
    """Run one worker in a fresh process and read back what it found."""
    out = OUT / f"worker-{os.getpid()}.pickle"
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        child([str(Path(__file__).resolve()), "--worker", str(out), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]).check_returncode()
        with open(out, "rb") as f:
            return pickle.load(f)
    finally:
        out.unlink(missing_ok=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bilbiq" / "__init__.py").is_file():
        print(f"error: bilbiq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bilbiq
    from bilbiq import bilinear, biquandle, gauss, invariant, modular

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        build(args.seed, OUT)
        return 0
    if args.worker:
        found = work(args, build, (bilinear, biquandle, gauss, invariant, modular), bilbiq, spans)
        with open(args.worker, "wb") as f:
            pickle.dump(found, f)
        return 0

    # The workers share --seconds, each taking an equal part of what is
    # left when it starts; with --trace 1 the last one runs the traced
    # round.  The set-up samples are spread over the gaps between them, so
    # that their median, like the best times, draws on the whole run; the
    # traced run reports no setup_s and takes none.
    start = time.perf_counter()
    deadline = start + args.seconds
    setup, workers = [], []
    for k in range(WORKERS):
        trace = bool(args.trace) and k == WORKERS - 1
        workers.append(run_worker(args, (deadline - time.perf_counter()) / (WORKERS - k), trace))
        while not args.trace and len(setup) < SETUP_SAMPLES * (k + 1) // WORKERS:
            setup.append(setup_seconds(args.workload, args.seed))

    first = workers[0]["rounds"][0]
    errors = []
    for k, found in enumerate(workers):
        errors += found["errors"]
        errors += [f"worker {k}: {e}" for e in differences(first, found["rounds"][0])]
    try:
        errors = build(args.seed, OUT).check(first.results, first.cli) + errors
    except Exception as exc:  # a check that cannot run on these outputs fails the run
        errors.append(f"checks stopped: {type(exc).__name__}: {exc}")
    for name, detail in first.failures:
        print(f"failed: {name}: {detail}", file=sys.stderr)
    for msg in errors:
        print(f"check: {msg}", file=sys.stderr)

    # On a shared host one operation's time varies by 15% or more from
    # one run of it to the next, and noise only ever slows it down, so
    # each operation is timed by its fastest run of a dozen or so in the
    # run (see README.md, "Steadiness").
    untraced = [r for found in workers for r in found["rounds"]]
    traced = [found["traced"] for found in workers if found["traced"]]
    if not args.trace:
        ops, cli = best_times(untraced, "op_s"), best_times(untraced, "cli_s")
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (sum(ops.values()), "s"),
            "op_p50_ms": (1000 * statistics.median(ops.values()), "ms"),
            "cli_p50_ms": (1000 * statistics.median(cli.values()), "ms"),
            "peak_rss_mb": (workers[0]["peak_rss_mb"], "MB"),
        }
    else:
        metrics = workers[-1]["per_layer"]
        bare = statistics.median(interpreter_seconds("pass") for _ in range(IMPORT_SAMPLES))
        cli = statistics.median(interpreter_seconds("import bilbiq.cli") for _ in range(IMPORT_SAMPLES))
        metrics["cli.import_ms"] = (1000 * (cli - bare), "ms")

    for k, found in enumerate(workers):
        print(f"worker {k} rounds " + " ".join(f"{r.pass_s:.3f}" for r in found["rounds"]) + " s")
    print(f"{len(untraced)} rounds in {time.perf_counter() - start:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in untraced + traced),
        "failed": sum(len(r.failures) for r in untraced + traced),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
