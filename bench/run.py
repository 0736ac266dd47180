"""Benchmark of the isotypic CLI: selfcheck runs and decide calls.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  Workloads (closed loops, one client):

  selfcheck         `isotypic selfcheck` on the default spec, --jobs 1
  selfcheck-jobs2   the same with --jobs 2 (the process pool)
  decide-factorial  cold `decide --method brute|gram` at n=7..8, d=2..3
  decide-matroid    cold `decide --method dominance` at n=40..160 and
                    `decide --method gamas` at n=13..20, including plane
                    crowds that have no certificate

With --trace 0 every operation is a fresh `python -m isotypic` process,
its latency scaled to a reference host speed by a probe timed on the same
CPU (see speed.py), and the end-to-end metrics are printed.  With
--trace 1 the operations run in-process through `isotypic.cli.main`, at
least twice with layer spans (see tracing.py) and once without, and the
per-layer metrics are printed.  Every output is checked; the last stdout
line is one JSON object with keys correct, attempted, failed and metrics.
See README.md for what each metric should move and where.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("selfcheck", "selfcheck-jobs2", "decide-factorial", "decide-matroid")
# sha256 of the report of `isotypic selfcheck` with every default (seed 0).
# The selfcheck workloads run exactly that, whatever --seed says: it is the
# run users do, and the work of other seeds differs by up to 25%, which
# would swamp the changes the benchmark is there to show.
SELFCHECK_REPORT_SHA256 = "5ebd389c9ab831104d5e4c2c31236511152c76ded4b2a554e343540d93b3a047"
GRIDS = {"decide-factorial": inputs.FACTORIAL_GRID, "decide-matroid": inputs.MATROID_GRID}
SETUP_REPEATS = 5
OP_TIMEOUT_S = 150
LADDER_BUDGET_S = 1.0
CLI_OVERHEAD_SAMPLES = 7
TAIL_BEYOND = 10
INPROCESS_PROBE_SAMPLES = 5
SPEED_PROBE_PERIOD_S = 0.02

# per-layer metrics reported as .calls and .s (self time)
REPORTED_SPANS = (
    "tensors.symmetrize",
    "tensors.generalized_matrix_function",
    "tensors.apply_algebra_element",
    "tensors.operator_rank",
    "symgroup.algebra_multiply",
    "characters.character_table",
    "characters.central_idempotent",
    "characters.permutations_with_class",
    "matroid.rank_partition",
    "matroid.gamas_condition",
    "matroid.rank_partition_oracle",
    "linalg.int_rank",
    "linalg.rank_of_rows",
)
COUNTERS = (
    "tensors.symmetrize.terms",
    "symgroup.algebra_multiply.pairs",
    "matroid.rank_oracle.calls",
    "matroid.rank_oracle.misses",
    "matroid.gamas.nodes",
)
SUITES = {
    "selfcheck.suite.character_s": "selfcheck.suite.character",
    "selfcheck.suite.idempotent_s": "selfcheck.suite.idempotent",
    "selfcheck.suite.rank_law_s": "selfcheck.suite.rank_law",
}


@dataclass
class Op:
    """One CLI call: arguments after `python -m isotypic` and an output check."""

    label: str
    argv: list[str]
    check: Callable[[int, str], bool]


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "isotypic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------- inputs


def selfcheck_ops(workload: str, traced: bool) -> list[Op]:
    # the trace runs in-process, where pool workers would escape the tracer;
    # the report bytes do not depend on --jobs
    jobs = 2 if workload == "selfcheck-jobs2" and not traced else 1

    def check(code: int, out: str) -> bool:
        return code == 0 and hashlib.sha256(out.encode()).hexdigest() == SELFCHECK_REPORT_SHA256

    return [Op(f"selfcheck-jobs{jobs}", ["selfcheck", "--jobs", str(jobs)], check)]


def decide_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    ops = []
    for case in inputs.cases(GRIDS[workload], seed):
        path = workdir / f"{case.label}.json"
        path.write_text(json.dumps(case.config_json()))

        def check(code: int, out: str, case=case) -> bool:
            if code != 0:
                return False
            answer = json.loads(out)
            if answer.get("appears") is not case.expected:
                return False
            if case.method == "gamas" and case.expected:
                return inputs.certificate_ok(case, answer.get("certificate") or [])
            return True

        argv = ["decide", "--config", str(path), "--shape", case.shape_text(),
                "--method", case.method]
        ops.append(Op(case.label, argv, check))
    return ops


def workdir_of(workload: str, seed: int) -> Path:
    return WORK / f"{workload}-seed{seed}"


def setup(workload: str, seed: int, traced: bool, cpus: set[int]) -> tuple[list[Op], float]:
    """Import the package in a fresh interpreter, then make and write the
    inputs: (ops, median probe time during the import)."""
    workdir = workdir_of(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    _, probe, code, _, err = probed([sys.executable, "-c", "import isotypic"], workdir, cpus)
    if code != 0:
        fail(f"cannot import isotypic from {SRC}: {err.strip()}")
    if workload in GRIDS:
        return decide_ops(workload, seed, workdir), probe
    return selfcheck_ops(workload, traced), probe


# ------------------------------------------------------------- running ops


def checked(op: Op, code: int, out: str) -> bool:
    try:
        return op.check(code, out)
    except (ValueError, KeyError, TypeError):  # output that is not the expected JSON
        return False


def probed(command: list[str], workdir: Path, cpus: set[int]) -> tuple:
    """Run `command` on `cpus`, timing the speed probe on the same CPUs until
    it exits: (latency, median probe time, exit code or None after a timeout,
    stdout, stderr)."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)  # the command inherits it
    order = sorted(cpus)
    samples: list[float] = []
    exited: list[float] = []
    try:
        with open(workdir / "op.out", "w+") as out, open(workdir / "op.err", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                    text=True, start_new_session=True)
            waiter = threading.Thread(target=lambda: exited.append((proc.wait(), time.perf_counter())))
            waiter.start()
            timed_out = False
            while waiter.is_alive():
                if not timed_out and time.perf_counter() - start > OP_TIMEOUT_S:
                    # the command and any pool worker it started share its process group
                    os.killpg(proc.pid, signal.SIGKILL)
                    timed_out = True
                os.sched_setaffinity(0, {order[len(samples) % len(order)]})
                samples.append(speed.sample())
                waiter.join(SPEED_PROBE_PERIOD_S)
            out.seek(0)
            err.seek(0)
            code = None if timed_out else proc.returncode
            return exited[0][1] - start, statistics.median(samples), code, out.read(), err.read()
    finally:
        os.sched_setaffinity(0, allowed)


def run_subprocess(op: Op, workdir: Path, cpus: set[int]) -> tuple[float, float, bool]:
    """One CLI call: (latency, median probe time, output correct)."""
    latency, probe, code, out, err = probed(
        [sys.executable, "-m", "isotypic", *op.argv], workdir, cpus)
    ok = code is not None and checked(op, code, out)
    if not ok:
        print(f"FAILED {op.label}: exit {'timeout' if code is None else code}: "
              f"{err.strip()[-500:]}", file=sys.stderr)
    return latency, probe, ok


def run_inprocess(op: Op, main, tracer: tracing.Tracer | None) -> tuple[float, float, bool]:
    """One CLI call through `main`, with the caches a fresh process has:
    (latency, median probe time around it, output correct)."""
    tracing.clear_caches()
    samples = [speed.sample() for _ in range(INPROCESS_PROBE_SAMPLES)]
    out = io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.enter("cli.main")
            try:
                code = main(op.argv)
            finally:
                if tracer is not None:
                    tracer.exit()
    except Exception:
        traceback.print_exc()
    latency = time.perf_counter() - start
    samples += [speed.sample() for _ in range(INPROCESS_PROBE_SAMPLES)]
    ok = code is not None and checked(op, code, out.getvalue())
    if not ok:
        print(f"FAILED {op.label} (in-process)", file=sys.stderr)
    return latency, statistics.median(samples), ok


def scaled(result: tuple[float, float, bool]) -> float:
    """A (latency, probe time, ok) result's latency at the reference speed."""
    latency, probe, _ = result
    return latency * speed.REFERENCE_S / probe


def repeat(run_pass, seconds: float, min_passes: int) -> list:
    """Run passes over the ops until the next one would end past `seconds`."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def timed_pass(ops: list[Op], run_one) -> tuple[float, list[tuple[float, bool]]]:
    start = time.perf_counter()
    results = [run_one(op) for op in ops]
    return time.perf_counter() - start, results


def tail(latencies: list[float], per_pass: int) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it in
    every run, fixed by the ops per pass: (percentile, value, samples beyond).
    With too few ops per pass it is the maximum."""
    ordered = sorted(latencies)
    if per_pass <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    share = (per_pass - TAIL_BEYOND) / per_pass
    index = math.ceil(share * len(ordered)) - 1
    return 100 * share, ordered[index], len(ordered) - index - 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ------------------------------------------------------------- end to end


def end_to_end(workload: str, seed: int, seconds: float, env: dict) -> dict:
    allowed = sorted(os.sched_getaffinity(0))
    cpus = set(allowed) if workload == "selfcheck-jobs2" else {allowed[0]}
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops, probe = setup(workload, seed, False, {allowed[0]})
        setup_raw.append(time.perf_counter() - start)
        setup_scaled.append(setup_raw[-1] * speed.REFERENCE_S / probe)

    workdir = workdir_of(workload, seed)
    passes = repeat(lambda: timed_pass(ops, lambda op: run_subprocess(op, workdir, cpus)),
                    seconds, 1)
    results = [r for _, rs in passes for r in rs]
    latencies = [scaled(r) for r in results]
    pass_walls = [sum(map(scaled, rs)) for _, rs in passes]
    failed = sum(1 for _, _, ok in results if not ok)
    percentile, tail_value, beyond = tail(latencies, len(ops))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print("summary " + json.dumps({
        "workload": workload, "seed": seed, "ops_per_pass": len(ops),
        "passes": len(passes), "cpus": sorted(cpus), "fail_ratio": failed / len(results),
        "op_tail_percentile": percentile,
        "op_tail_samples": len(latencies), "op_tail_samples_beyond": beyond,
        "raw_setup_s": setup_raw, "raw_pass_walls_s": [w for w, _ in passes],
        "raw_op_p50_s": statistics.median(lat for lat, _, _ in results),
        "probe_median_s": statistics.median(probe for _, probe, _ in results),
        "probe_reference_s": speed.REFERENCE_S,
        "first_pass_scaled_s": {op.label: scaled(r) for op, r in zip(ops, passes[0][1])},
    }))
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setup_scaled), "s"),
            "wall_s": metric(statistics.median(pass_walls), "s"),
            "op_p50_s": metric(statistics.median(latencies), "s"),
            "op_tail_s": metric(tail_value, "s"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        },
    }


# ------------------------------------------------------------------ traced


def scaling_probe(iso, kind: str) -> tuple[int, int, int]:
    """Largest n on the fixed ladder that finishes within LADDER_BUDGET_S:
    (n, rungs run, rungs with a wrong answer)."""
    best = attempted = failed = 0
    for n, case in inputs.scaling_ladder(kind):
        cfg = iso.VectorConfiguration(case.dim, case.vectors)
        start = time.perf_counter()
        if kind == "rank_partition":
            got, expected = tuple(iso.rank_partition(cfg).rho), case.rho
        else:
            got = iso.gamas_condition(cfg, iso.Partition(case.shape)) is not None
            expected = case.expected
        elapsed = time.perf_counter() - start
        attempted += 1
        failed += got != expected
        if elapsed > LADDER_BUDGET_S:
            break
        best = n
    return best, attempted, failed


def cli_overhead() -> float:
    samples = []
    for _ in range(CLI_OVERHEAD_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "isotypic", "character-table", "1"],
                       cwd=ROOT, env=child_env(), capture_output=True, check=True,
                       timeout=OP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def layer_metrics(tracer: tracing.Tracer, wall: float, scaled_wall: float) -> dict:
    out = {}
    for name in REPORTED_SPANS:
        out[f"{name}.calls"] = metric(tracer.calls[name], "count")
        out[f"{name}.s"] = metric(tracer.self_time[name], "s")
    for name in COUNTERS:
        out[name] = metric(tracer.counts[name], "count")
    calls = tracer.counts["matroid.rank_oracle.calls"]
    hits = 1 - tracer.counts["matroid.rank_oracle.misses"] / calls if calls else 0.0
    out["matroid.rank_oracle.hit_ratio"] = metric(hits, "ratio")
    out["selfcheck.suite.cells_s"] = metric(tracer.total["selfcheck.cell"], "s")
    for key, name in SUITES.items():
        out[key] = metric(tracer.total[name], "s")
    out["selfcheck.cell.max_s"] = metric(tracer.longest["selfcheck.cell"], "s")
    for layer in tracing.LAYERS:
        out[f"layer.{layer}.self_s"] = metric(
            sum(t for name, t in tracer.self_time.items() if name.split(".")[0] == layer), "s")
    covered = sum(tracer.self_time.values())
    out["trace.wall_s"] = metric(scaled_wall, "s")
    out["trace.coverage_pct"] = metric(100 * covered / wall, "%")
    return out


def traced(workload: str, seed: int, seconds: float, env: dict) -> dict:
    ops, _ = setup(workload, seed, True, os.sched_getaffinity(0))
    sys.path.insert(0, str(SRC))
    import isotypic
    import isotypic.cli

    if not Path(isotypic.__file__).resolve().is_relative_to(SRC):
        fail(f"imported isotypic from {isotypic.__file__}, not from {SRC}")
    main = isotypic.cli.main

    # the scaling probe warms the heap first; the untraced passes come
    # before and after the traced ones, so that a drift of the host's speed
    # cancels out of the overhead
    ladder = {kind: scaling_probe(isotypic, kind) for kind in ("rank_partition", "gamas_condition")}
    untraced = [timed_pass(ops, lambda op: run_inprocess(op, main, None))]

    tracer = tracing.Tracer()
    missing, undo = tracing.install(tracer)

    def traced_pass():
        tracer.reset()
        start = time.perf_counter()
        results = []
        for i, op in enumerate(ops):
            tracer.request = i
            results.append(run_inprocess(op, main, tracer))
        wall = time.perf_counter() - start
        metrics = layer_metrics(tracer, wall, sum(map(scaled, results)))
        return wall, results, metrics, tracer.work_counts()

    passes = repeat(traced_pass, seconds, 2)
    tracing.uninstall(undo)
    untraced.append(timed_pass(ops, lambda op: run_inprocess(op, main, None)))
    untraced_wall = statistics.mean(sum(map(scaled, rs)) for _, rs in untraced)
    counts_repeat = all(p[3] == passes[0][3] for p in passes)
    if not counts_repeat:
        print("work counters differ between traced passes of the same inputs", file=sys.stderr)

    results = [r for _, rs in untraced for r in rs] + [r for p in passes for r in p[1]]
    failed = sum(1 for _, _, ok in results if not ok) + sum(f for _, _, f in ladder.values())
    attempted = len(results) + sum(a for _, a, _ in ladder.values())

    # counts repeat exactly (checked above); times are medians over the passes
    metrics = {
        key: first if first["unit"] == "count"
        else metric(statistics.median(p[2][key]["value"] for p in passes), first["unit"])
        for key, first in passes[0][2].items()
    }
    traced_wall = metrics["trace.wall_s"]["value"]
    metrics["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    metrics["trace.missing_hooks"] = metric(len(missing), "count")
    metrics["cli.process_overhead_s"] = metric(cli_overhead(), "s")
    for kind, (n, _, _) in ladder.items():
        metrics[f"matroid.{kind}.n_at_1s"] = metric(n, "count")

    dump = workdir_of(workload, seed) / "trace.json"
    dump.write_text(json.dumps({
        "environment": env, "workload": workload, "seed": seed,
        "passes": len(passes), "missing_hooks": missing, "work_counts": passes[-1][3],
        "metrics": metrics,
        "spans": {"fields": ["id", "parent", "request", "name", "start", "end"],
                  "last_pass": tracer.spans},
    }))
    print("summary " + json.dumps({
        "workload": workload, "seed": seed, "traced_passes": len(passes),
        "work_counts_repeat": counts_repeat, "missing_hooks": missing,
        "coverage_pct": metrics["trace.coverage_pct"]["value"],
        "overhead_pct": 100 * (traced_wall - untraced_wall) / untraced_wall,
        "spans_written_to": str(dump.relative_to(ROOT)),
    }))
    return {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "isotypic" / "__init__.py").is_file():
        fail(f"no isotypic package under {SRC}: run inside a checkout of the repository")
    env = environment()
    print("environment " + json.dumps(env))
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds, env)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
