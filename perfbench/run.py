"""Benchmark of the springer-rca CLI, run from source one process per case.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                           [--threads N]

Run from the root of a checkout.  Each case is a fresh interpreter running
the console-script entry point (``springer_rca.cli:main``) from ``src/`` on
the argv that ``workloads.py`` generates for the seed, exactly as a user
runs ``springer-rca``.  Cases run one after another from this process (a
closed loop with one client); a pass is one run over the workload's cases,
and passes repeat while another pass still fits in ``--seconds``.

Every report is checked: the exit code must be 0 (``verify`` exits 1 when
a suite fails) and the SHA-256 of the report bytes must equal the golden
digest that ``record_golden.py`` took at the seed commit.  Any miss counts
as a failed case and makes the run exit 1.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``wall_s``
and ``cpu_s`` (the wall and CPU time of one pass, as the sum over cases of
each case's median over passes), ``setup_s`` (median time to start an
interpreter and import ``springer_rca.cli``, sampled before every pass) and
``peak_rss_mb`` (largest peak RSS, VmHWM, of any case process).
``--trace 1`` runs every case untraced and then traced through
``trace_cli.py`` and reports the per-layer metrics: self times (span minus
its wrapped children), counts and ratios, each summed over a pass, with
the median over passes.  ``--threads N`` appends
``--threads N`` to every ``verify`` case (untraced runs only); it exists to
measure the CLI's thread pool.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric, and the
failed-case ratio ``fail_ratio``, by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from trace_cli import MODULES as LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
GOLDEN = HERE / "golden.json"
PEAK_RSS = WORK / "peak_rss"
# The console script's body, plus a note of the process's own peak RSS
# (VmHWM).  ru_maxrss from wait4 would not do: it carries over exec the peak
# of the forking process, here this benchmark's interpreter.
LAUNCH = f"""\
import sys
from springer_rca.cli import main
code = main()
with open("/proc/self/status") as status, open({str(PEAK_RSS)!r}, "w") as out:
    out.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""
# import timings taken before every pass, so setup_s samples the whole run
SETUP_REPS = 4
CASE_TIMEOUT_S = 120
# no new pass starts after this, so a run ends well inside three minutes
RUN_LIMIT_S = 100


@dataclass
class CaseRun:
    """One finished case process: exit code, report bytes and its resource use."""

    code: int
    report: bytes
    wall: float
    cpu: float
    rss_mb: float
    stderr: str


def run_process(argv, env):
    """Run argv to completion from the checkout root, stdout and stderr to files."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    PEAK_RSS.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CASE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CaseRun(
        proc.returncode,
        out_path.read_bytes(),
        wall,
        usage.ru_utime + usage.ru_stime,
        int(PEAK_RSS.read_text().split()[1]) / 1024 if PEAK_RSS.exists() else 0.0,
        err_path.read_text(errors="replace"),
    )


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(case_argv):
    return [sys.executable, "-c", LAUNCH, *case_argv]


def traced_argv(case_argv, trace_path):
    return [sys.executable, str(HERE / "trace_cli.py"), str(trace_path), *case_argv]


def check(case, run, golden):
    """None when the case's report is correct, otherwise the reason it is not.

    Golden digests come only from reports whose suites all passed, and a
    failed suite makes ``verify`` exit 1, so a report with ``all_passed``
    false fails both tests below.
    """
    if run.code != 0:
        tail = run.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {run.code}: {tail[0]}"
    if hashlib.sha256(run.report).hexdigest() != golden.get(case.key):
        return "report bytes differ from the golden digest"
    return None


def run_passes(cases, seconds, started, launch, golden, failures, before_pass=None):
    """Repeat passes over cases while another pass fits; return per-pass case runs."""
    passes = []
    while True:
        begin = time.perf_counter()
        if before_pass is not None:
            before_pass()
        runs = []
        for case in cases:
            run = launch(case)
            reason = check(case, run, golden)
            if reason:
                failures.append(f"{case.key}: {reason}")
            runs.append(run)
        passes.append(runs)
        now = time.perf_counter()
        if now - started + (now - begin) > seconds or now - started > RUN_LIMIT_S:
            return passes


def time_imports(env, reps, samples):
    """Append the wall time of reps fresh interpreters importing springer_rca.cli."""
    argv = [sys.executable, "-c", "import springer_rca.cli"]
    for _ in range(reps):
        run = run_process(argv, env)
        if run.code != 0:
            raise RuntimeError(f"importing springer_rca.cli failed: {run.stderr.strip()}")
        samples.append(run.wall)


def summed_case_medians(passes, attr):
    """Sum over cases of each case's median over passes."""
    return sum(
        statistics.median(getattr(runs[i], attr) for runs in passes)
        for i in range(len(passes[0]))
    )


def end_to_end(cases, seconds, threads, golden, failures):
    env = child_env()
    started = time.perf_counter()
    # untimed: warms the file cache and, where bytecode writing is on,
    # compiles the package once, as an installed package has it
    time_imports(env, 1, [])
    setup = []

    def launch(case):
        argv = case.argv
        if threads and argv[0] == "verify":
            argv = [*argv, "--threads", str(threads)]
        return run_process(cli_argv(argv), env)

    passes = run_passes(cases, seconds, started, launch, golden, failures,
                        lambda: time_imports(env, SETUP_REPS, setup))
    values = {
        "wall_s": summed_case_medians(passes, "wall"),
        "cpu_s": summed_case_medians(passes, "cpu"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.rss_mb for runs in passes for r in runs),
    }
    walls = [sum(r.wall for r in runs) for runs in passes]
    notes = [
        f"passes: {len(passes)} of {len(cases)} cases; pass wall min {min(walls):.3f} s, "
        f"max {max(walls):.3f} s; setup_s from {len(setup)} imports"
    ]
    notes += [
        f"median wall {statistics.median(runs[i].wall for runs in passes):.3f} s: {case.key}"
        for i, case in enumerate(cases)
    ]
    return values, sum(len(runs) for runs in passes), notes


def span_totals(trace):
    """Self time, inclusive time and call count per span name of one case."""
    names, spans = trace["names"], trace["spans"]
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s, incl_s, calls = {}, {}, {}
    for (index, start, end, _), child in zip(spans, covered):
        name = names[index]
        self_s[name] = self_s.get(name, 0.0) + (end - start - child) / 1e9
        incl_s[name] = incl_s.get(name, 0.0) + (end - start) / 1e9
        calls[name] = calls.get(name, 0) + 1
    return self_s, incl_s, calls


def pass_layers(runs, traces):
    """Per-layer values of one traced pass, summed over its cases."""
    self_s, incl_s, calls, counters, distinct = {}, {}, {}, {}, {}
    peaks = ("linalg.rref_max_cols", "linalg.rref_entry_bits_max")
    for trace in traces:
        for total, part in zip((self_s, incl_s, calls), span_totals(trace)):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value
        for key, value in trace["counters"].items():
            merge = max if key in peaks else (lambda a, b: a + b)
            counters[key] = merge(counters.get(key, 0), value)
        for key, value in trace["distinct"].items():
            distinct[key] = distinct.get(key, 0) + value

    def s(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def c(key):
        return counters.get(key, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_self[name.split(".")[0]] += value
    wall = sum(r.wall for r in runs)
    values = {
        "trace.wall_s": wall,
        "trace.spans": sum(calls.values()),
        "process.startup_s": wall - incl_s.get("cli.main", 0.0),
        "linalg.rref_s": s("linalg.rref"),
        "linalg.rref_calls": c("linalg.rref_calls"),
        "linalg.rref_cells": c("linalg.rref_cells"),
        "linalg.rref_max_cols": c("linalg.rref_max_cols"),
        "linalg.rref_entry_bits_max": c("linalg.rref_entry_bits_max"),
        "linalg.kernel_nontrivial_ratio": ratio(
            c("linalg.rref_nontrivial_kernels"), c("linalg.rref_calls")
        ),
        "linalg.matvec_s": s("linalg.matvec"),
        "linalg.matvec_calls": c("linalg.matvec_calls"),
        "linalg.matmul_s": s("linalg.matmul"),
        "linalg.matmul_calls": c("linalg.matmul_calls"),
        "operators.assembly_s": s("operators.minuscule_monopole", "operators.operator_h"),
        "operators.assembly_calls": c("operators.assembly_calls"),
        "operators.orbit_terms": c("operators.orbit_terms"),
        "operators.nnz": c("operators.nnz"),
        "operators.compose_s": s("operators.compose"),
        "operators.compose_calls": c("operators.compose_calls"),
        "operators.algebra_s": s("operators.add", "operators.sub", "operators.scaled"),
        "operators.algebra_calls": c("operators.algebra_calls"),
        "operators.assembly_reuse_ratio": ratio(
            distinct.get("operators.assembly", 0), c("operators.assembly_calls")
        ),
        "core.basis_s": s("core.build_graded_basis", "core.enumerate_fixed_points"),
        "core.basis_builds": c("core.basis_builds"),
        "core.fixed_points": c("core.fixed_points"),
        "core.basis_reuse_ratio": ratio(distinct.get("core.basis", 0), c("core.basis_builds")),
        "semigroup.gap_search_s": s("semigroup.enumerate_gap_sets"),
        "semigroup.gap_searches": c("semigroup.gap_searches"),
        "semigroup.ideals": c("semigroup.ideals"),
        "semigroup.stability_s": s("semigroup.count_ideals"),
        "qseries.euler_s": s("qseries.euler_series"),
        "rank_two.closed_form_s": s(*(f"rank_two.closed_form_{x}" for x in "xyefh")),
        "verify.stabilizer_s": s("verify.verify_stabilizer"),
        "cli.report_bytes": sum(len(r.report) for r in runs),
    }
    for suite in workloads.SUITES:
        values[f"verify.suite_s.{suite}"] = incl_s.get(f"verify.suite.{suite}", 0.0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    return values, calls


def per_layer(workload, cases, seconds, golden, failures, gaps):
    env = child_env()
    started = time.perf_counter()
    traces, plain = [], []

    def launch(case):
        # the untraced twin runs just before, so the overhead ratio compares
        # the two under the same load on the host
        untraced = run_process(cli_argv(case.argv), env)
        reason = check(case, untraced, golden)
        if reason:
            failures.append(f"{case.key} (untraced): {reason}")
        plain.append(untraced.wall)
        path = WORK / f"trace-{len(traces)}.json"
        path.unlink(missing_ok=True)
        run = run_process(traced_argv(case.argv, path), env)
        traces.append(json.loads(path.read_text()) if path.exists() else
                      {"names": [], "spans": [], "counters": {}, "distinct": {}})
        return run

    passes = run_passes(cases, seconds, started, launch, golden, failures)
    results = []
    for i, runs in enumerate(passes):
        part = slice(i * len(cases), (i + 1) * len(cases))
        values, calls = pass_layers(runs, traces[part])
        values["trace.overhead_ratio"] = values["trace.wall_s"] / sum(plain[part]) - 1
        missing = [name for name in workload.required_spans if not calls.get(name)]
        if missing:
            gaps.append(f"traced pass {i}: no calls recorded for {', '.join(missing)}")
        results.append(values)
    values = {key: statistics.median(r[key] for r in results) for key in results[0]}
    attempted = 2 * sum(len(runs) for runs in passes)
    return values, attempted, [f"passes: {len(passes)} of {len(cases)} cases, each untraced then traced"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    if not (SRC / "springer_rca" / "cli.py").is_file():
        print(f"error: {SRC} holds no springer_rca package; run from a checkout", file=sys.stderr)
        return 2
    if args.threads is not None and (args.trace or args.threads < 1):
        print("error: --threads takes a positive count and --trace 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(GOLDEN.read_text())
    workload = workloads.WORKLOADS[args.workload]
    cases = workload.cases(args.seed)
    WORK.mkdir(exist_ok=True)
    failures, gaps = [], []
    if args.trace:
        values, attempted, notes = per_layer(
            workload, cases, args.seconds, golden, failures, gaps
        )
        wanted = spec["per_layer"]
    else:
        values, attempted, notes = end_to_end(cases, args.seconds, args.threads, golden, failures)
        wanted = spec["end_to_end"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for case in cases:
        print(f"  case: springer-rca {case.key}")
    for note in notes:
        print(f"  {note}")
    for reason in sorted(set(failures + gaps)):
        print(f"  FAILED ({(failures + gaps).count(reason)}x) {reason}")
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:34s} {value:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':34s} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} case runs)")
    print(json.dumps({
        "correct": not failures and not gaps,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures and not gaps else 1


if __name__ == "__main__":
    sys.exit(main())
