"""Benchmark of `bol verify`: end-to-end metrics, or per-layer ones when traced.

    python3 perfbench/run.py --workload verify-n1-stock --seed 1 --seconds 60 --trace 0

Run it from the repository root.  Workloads are described in workloads.py;
the metrics and their bounds are listed in BENCHMARK.json.

--trace 0 measures what a user sees.  Five fresh interpreters time set-up.
Two capped children, one serving the package and one serving
reference/bergman_orlicz_seed (a frozen copy of the package as it was when
the benchmark was written), run every operation in turn, pass after pass,
until --seconds have passed; the first child's peak RSS after its first
pass is the workload's.  An operation's sample is its time in
reference_times.json times its median ratio to the reference copy, and
wall_s is the sum of the samples: the time a pass takes at the host speed
the table was recorded at.  On a shared host the speed of a process drifts
by up to 1.5x over minutes, more for interpreter-bound code than for large
array code; both sides of a pair run at nearly the same speed, so the ratio
repeats from run to run where the raw time does not.  The raw pass times
are printed beside the metrics.  A change to the package moves the ratio
and leaves the reference side alone; the reference copy is never edited.
`--calibrate` re-records the table, which rescales every later reading, so
a new table needs a new baseline.

--trace 1 gives the per-layer numbers.  One fresh child per suite gives that
suite's peak RSS and untraced time; a fresh child with spans installed runs
one pass; a child with --jobs 2 times the thread pool.  On verify-n2-poly it
adds the capacity probe: `bol verify --config '{"n":2}'`, one suite per
child, untimed.

Both modes check the outputs: every written quantity that has an
independent reference (oracle.py) must agree with it within
oracle.TOLERANCE, reports must be byte-identical across passes (and, when
traced, across fresh processes and --jobs 1/2), and every output must be
finite.  The last line of standard output is one JSON object; the exit code
is 1 when a check fails.  Every child runs under an address-space cap, so a
MemoryError is counted as a failed operation, never read as a verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
WORK = ROOT / ".perfbench_work"
REFERENCE_TIMES = HERE / "reference_times.json"
MEMORY_CAP_BYTES = 1536 * 2**20
SETUP_REPEATS = 5
RUN_BUDGET_S = 175.0
PROBE_LANES = 2

# Exact call counts of power:p=2, alpha=0, n=1 at the CLI's default seed.
COUNT_EXPECTED = {"norms.luxemburg_norm": 277, "norms.modular_of_values": 11103,
                  "measure.build_rule": 353}
COUNT_DISTINCT_RULES = 9

LAYER_STATS = {
    "growth.call": ("calls", "self_s", "values"),
    "growth.inverse": ("calls", "self_s", "values"),
    "growth.resolve_growth": ("self_s",),
    "measure.build_rule": ("calls", "self_s", "nodes", "bytes_computed", "distinct_ratio"),
    "measure.kernel_factor": ("calls", "self_s", "points"),
    "measure.mobius_jacobian0_batch": ("calls", "self_s", "points"),
    "measure.make_measure": ("calls", "self_s"),
    "holo.eval": ("calls", "self_s", "points"),
    "holo.partials": ("calls", "self_s", "points"),
    "holo.to_series": ("calls", "self_s", "terms"),
    "holo.chain_inequality_check": ("calls", "self_s"),
    "norms.luxemburg_norm": ("calls", "self_s", "iterations"),
    "norms.modular_of_values": ("calls", "self_s", "values"),
    "norms.rule_for_function": ("calls", "self_s"),
    "norms.derivative_modulars": ("calls", "self_s"),
    "norms.pointwise_constant": ("calls", "self_s"),
    "norms.small_type_estimate_check": ("calls", "self_s"),
    "operators.cesaro_apply_exact": ("calls", "self_s", "output_terms"),
    "operators.bloch_seminorm": ("calls", "self_s"),
    "operators.cesaro_norm_lower_bound": ("self_s",),
    "operators.cesaro_upper_bound_check": ("self_s",),
    "cli.canonical_json": ("calls", "self_s", "bytes"),
}
STAT_UNITS = {"self_s": "s", "bytes_computed": "B", "bytes": "B", "distinct_ratio": "ratio"}

END_TO_END_UNITS = {"wall_s": "s", "op_s_median": "s", "op_s_tail": "s",
                    "peak_rss_mb": "MB", "setup_s": "s", "completed_ops": "ratio",
                    "oracle_max_rel_err": "ratio"}


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a failed check)."""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def _cap_memory_one_cpu():
    # Both sides of a pair run on the same CPU, so a slow CPU slows both.
    _cap_memory()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Runner:
    """Starts capped worker children for one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self._count = 0

    def _argv(self, mode, extra):
        return [sys.executable, str(HERE / "worker.py"), mode,
                "--workload", self.args.workload, "--seed", str(self.args.seed), *extra]

    def _timeout(self) -> float:
        self.check_deadline()
        return self.deadline - time.monotonic()

    def check_deadline(self) -> None:
        if time.monotonic() >= self.deadline:
            raise BenchmarkError(f"run exceeded its {RUN_BUDGET_S:g} s budget")

    def start(self, mode, *extra):
        """Popen a worker; returns (process, result path, stderr path)."""
        self._count += 1
        tag = f"{self._count:02d}-{mode}"
        result, err = self.work / f"{tag}.json", self.work / f"{tag}.err"
        argv = self._argv(mode, [*extra, "--out", str(self.work / tag), "--result", str(result)])
        with open(err, "w") as err_file:
            proc = subprocess.Popen(argv, cwd=ROOT, preexec_fn=_cap_memory,
                                    stdout=subprocess.DEVNULL, stderr=err_file)
        return proc, result, err

    def finish(self, job) -> dict:
        proc, result, err = job
        try:
            proc.wait(timeout=self._timeout())
        except (subprocess.TimeoutExpired, BenchmarkError):
            proc.kill()
            proc.wait()
            raise BenchmarkError(f"worker {proc.args[2]} ran past the run budget") from None
        if proc.returncode != 0 or not result.exists():
            tail = "\n".join(err.read_text().strip().splitlines()[-5:])
            raise BenchmarkError(f"worker {proc.args[2]} exited {proc.returncode}: {tail}")
        return json.loads(result.read_text())

    def child(self, mode, *extra) -> dict:
        return self.finish(self.start(mode, *extra))

    def passes(self, sides, seconds: float) -> list:
        """Passes over the workload's operations, with one serving child per side.

        `sides` lists, per child, whether it serves the reference copy.  Each
        operation runs on every side in turn, and the side that goes first
        rotates from operation to operation and from pass to pass.  Passes
        continue while one more, as long as the last, would end within
        `seconds`; there is always one.  passes[p][side] is the list of that
        side's operation records.
        """
        servers, logs = [], []
        watchdog = threading.Timer(self._timeout(), lambda: [s.kill() for s in servers])
        watchdog.start()
        try:
            for reference in sides:
                tag = f"serve-{len(servers)}"
                logs.append(open(self.work / f"{tag}.err", "w"))
                argv = self._argv("serve", ["--out", str(self.work / tag)]
                                  + (["--reference"] if reference else []))
                servers.append(subprocess.Popen(
                    argv, cwd=ROOT, preexec_fn=_cap_memory_one_cpu, stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, stderr=logs[-1], text=True))
            op_ids = [self._reply(s, log) for s, log in zip(servers, logs)]
            if any(ids != op_ids[0] for ids in op_ids):
                raise BenchmarkError("the reference copy builds other operations")
            passes = []
            start = time.monotonic()
            while True:
                began = time.monotonic()
                records = [[] for _ in servers]
                for i in range(len(op_ids[0])):
                    for k in range(len(servers)):
                        side = (k + i + len(passes)) % len(servers)
                        try:
                            servers[side].stdin.write(f"{i}\n")
                            servers[side].stdin.flush()
                        except BrokenPipeError:
                            pass  # the child has exited; _reply says why
                        records[side].append(self._reply(servers[side], logs[side]))
                passes.append(records)
                now = time.monotonic()
                if now - start + (now - began) > seconds:
                    return passes
        finally:
            watchdog.cancel()
            for proc in servers:
                try:
                    proc.stdin.close()
                except OSError:
                    pass
            for proc in servers:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            for log in logs:
                log.close()

    def _reply(self, proc, log):
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            self.check_deadline()
            log.flush()
            tail = "\n".join(Path(log.name).read_text().strip().splitlines()[-5:])
            raise BenchmarkError(f"serving child exited {proc.returncode}: {tail}")
        return json.loads(line)

    def setup_seconds(self) -> float:
        """Fresh interpreter start to inputs ready, in one capped child."""
        t0 = time.monotonic()
        proc = subprocess.run(self._argv("setup", []), cwd=ROOT, preexec_fn=_cap_memory,
                              capture_output=True, text=True, timeout=self._timeout())
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up child exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}")
        return float(proc.stdout.split()[-1]) - t0


# ---------------------------------------------------------------------------
# Checks shared by both modes


class Checks:
    """Correctness findings and operation accounting for one run."""

    def __init__(self):
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.oracle_rows: list[tuple] = []

    def account(self, pass_result: dict) -> None:
        for rec in pass_result["ops"]:
            self.attempted += 1
            if rec["status"] != "ok":
                self.failed += 1
                self.failures.append(f"{rec['id']}: {rec['status']} {rec['verdict'] or ''}")

    def deterministic(self, label: str, reference: dict, *others: dict) -> None:
        """Every operation's report digest must match across the given passes."""
        want = {r["id"]: r.get("digest") for r in reference["ops"]}
        for other in others:
            for rec in other["ops"]:
                have = want.get(rec["id"])
                if rec.get("digest") and have and rec["digest"] != have:
                    self.problems.append(f"{label}: report of {rec['id']} differs")

    def outputs(self, pass_result: dict) -> None:
        """Finite numbers and oracle agreement in the written reports."""
        for rec in pass_result["ops"]:
            if not rec["path"]:
                continue
            text = Path(rec["path"]).read_text()
            try:
                doc = json.loads(text, parse_constant=_reject_constant)
            except ValueError as exc:
                self.problems.append(f"{rec['id']}: {exc}")
                continue
            for name, got, ref, err in oracle.compare(rec["group"], doc):
                self.oracle_rows.append((f"{rec['id']}:{name}", got, ref, err))
                if not err <= oracle.TOLERANCE:
                    self.problems.append(f"{rec['id']}:{name} = {got!r}, reference "
                                         f"{ref!r} (relative error {err:.3g})")

    def oracle_max(self) -> float:
        worst = max((row[3] for row in self.oracle_rows), default=0.0)
        return max(worst, oracle.ERROR_FLOOR)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def _verdict_summary(pass_result: dict) -> str:
    counts: dict[str, int] = {}
    notable = []
    for rec in pass_result["ops"]:
        v = rec["verdict"] if rec["status"] == "ok" else rec["status"]
        counts[v] = counts.get(v, 0) + 1
        if v not in ("pass", "computed"):
            notable.append(f"{rec['id']}={v}")
    text = ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
    return text + (f" [{'; '.join(notable)}]" if notable else "")


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With fewer than twenty samples that percentile lies below the median, so
    the maximum is reported instead, as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Modes


def end_to_end(runner: Runner, checks: Checks) -> dict:
    setups = [runner.setup_seconds() for _ in range(SETUP_REPEATS)]
    paired = runner.passes((False, True), runner.args.seconds)
    passes = [{"ops": current} for current, _ in paired]
    for p in passes:
        checks.account(p)
    checks.deterministic("passes of one process", *passes)
    checks.outputs(passes[-1])

    # One sample per operation: its reference time times its median ratio to
    # the reference copy over the paired passes.
    reference = reference_times(runner.args.workload)
    ratios: dict[str, list[float]] = {}
    for current, frozen in paired:
        for c, r in zip(current, frozen):
            if r["status"] != "ok":
                raise BenchmarkError(f"reference copy failed on {r['id']}: {r['status']}")
            if c["status"] == "ok":
                ratios.setdefault(c["id"], []).append(c["s"] / r["s"])
    if not ratios:
        raise BenchmarkError("no operation completed")
    missing = sorted(set(ratios) - set(reference))
    if missing:
        raise BenchmarkError(f"no reference time for {missing[0]}; run with --calibrate")
    samples = [reference[op] * statistics.median(v) for op, v in ratios.items()]
    tail, pct = tail_latency(samples)
    current = [sum(r["s"] for r in c) for c, _ in paired]
    frozen = [sum(r["s"] for r in f) for _, f in paired]
    metrics = {
        "wall_s": sum(samples),
        "op_s_median": statistics.median(samples),
        "op_s_tail": tail,
        "peak_rss_mb": paired[0][0][-1]["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "completed_ops": (checks.attempted - checks.failed) / checks.attempted,
        "oracle_max_rel_err": checks.oracle_max(),
    }
    notes = {
        "wall_s": f"sum of the {len(samples)} samples; as measured, the {len(passes)} "
                  "paired passes took " + ", ".join(
                      f"{c:.3f} s against {f:.3f} s" for c, f in zip(current, frozen)),
        "op_s_median": f"{len(samples)} operations, each paired {len(passes)} times",
        "op_s_tail": f"p{pct:.1f} of the same {len(samples)} samples",
        "peak_rss_mb": "fresh process, one pass",
        "setup_s": f"median of {len(setups)}: " + ", ".join(f"{s:.3f}" for s in setups),
        "completed_ops": f"{checks.attempted - checks.failed} of {checks.attempted} "
                         f"operations completed, {checks.failed} failed",
        "oracle_max_rel_err": _worst_oracle(checks),
    }
    print(f"verdicts: {_verdict_summary(passes[0])}")
    return {k: (v, notes[k]) for k, v in metrics.items()}


def reference_times(workload: str) -> dict:
    table = json.loads(REFERENCE_TIMES.read_text()) if REFERENCE_TIMES.exists() else {}
    return table.get(workload, {})


def calibrate(runner: Runner) -> None:
    """Record the reference copy's per-operation median times for one workload.

    The first pass, in a fresh process, is left out.
    """
    warm = runner.passes((True,), runner.args.seconds)[1:]
    per_op: dict[str, list[float]] = {}
    for (records,) in warm:
        for r in records:
            if r["status"] != "ok":
                raise BenchmarkError(f"reference copy failed on {r['id']}: {r['status']}")
            per_op.setdefault(r["id"], []).append(r["s"])
    if not per_op:
        raise BenchmarkError("no calibration pass finished; give it more --seconds")
    table = json.loads(REFERENCE_TIMES.read_text()) if REFERENCE_TIMES.exists() else {}
    table[runner.args.workload] = {op: round(statistics.median(v), 6)
                                   for op, v in per_op.items()}
    REFERENCE_TIMES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    n = len(warm)
    print(f"{runner.args.workload}: reference times of {len(per_op)} operations, "
          f"medians of {n} passes, written to {REFERENCE_TIMES.relative_to(ROOT)}")


def _worst_oracle(checks: Checks) -> str:
    if not checks.oracle_rows:
        return "no quantity with a reference"
    name, got, ref, err = max(checks.oracle_rows, key=lambda r: r[3])
    return (f"{len(checks.oracle_rows)} quantities; worst {name}: {got:.6g} vs {ref:.6g}"
            f" ({err:.3g}); floor {oracle.ERROR_FLOOR:g}")


def _probe(runner: Runner) -> list[dict]:
    """`bol verify --config '{"n":2}'`, one suite per capped child, untimed.

    PROBE_LANES children run at once; a lane takes the next suite as soon as
    its child ends.
    """
    results, queue, running = [], list(workloads.SUITES), []
    try:
        while queue or running:
            while queue and len(running) < PROBE_LANES:
                running.append(runner.start("probe", "--group", queue.pop(0)))
            done = [job for job in running if job[0].poll() is not None]
            if not done:
                runner.check_deadline()
                time.sleep(0.2)
            for job in done:
                running.remove(job)
                results.append(runner.finish(job))
    finally:
        for proc, _, _ in running:
            proc.kill()
            proc.wait()
    return results


def per_layer(runner: Runner, checks: Checks) -> dict:
    workload = runner.args.workload
    group_runs = {g: runner.child("group", "--group", g) for g in workloads.suites(workload)}
    spans_path = WORK / f"trace-{workload}.jsonl"
    traced = runner.child("traced", "--spans", str(spans_path))
    jobs2 = runner.child("jobs", "--jobs", "2")
    probe = _probe(runner) if workload == "verify-n2-poly" else []

    traced_pass = traced["first"]
    for p in [traced_pass, jobs2["first"], *(g["first"] for g in group_runs.values())]:
        checks.account(p)
    fresh = {"ops": [r for g in group_runs.values() for r in g["first"]["ops"]]}
    checks.deterministic("fresh processes (traced vs one suite per process)",
                         traced_pass, fresh)
    checks.deterministic("--jobs 1 vs --jobs 2", traced_pass, jobs2["first"])
    checks.outputs(traced_pass)

    spans = tracing.read(spans_path)
    pass_ops = {r["id"] for r in traced_pass["ops"]}
    # Set-up spans count too, so growth.resolve_growth shows what setup_s pays.
    agg = tracing.aggregate(spans, pass_ops | {tracing.SETUP_OP})
    metrics = {}
    for span, stats in LAYER_STATS.items():
        a = agg.get(span, {})
        for stat in stats:
            if stat == "distinct_ratio":
                value = len(a["rule_ids"]) / a["calls"] if a.get("calls") else 0.0
            else:
                value = a.get(stat, 0)
            metrics[f"{span}.{stat}"] = (value, STAT_UNITS.get(stat, "count"))
    lux_calls = agg.get("norms.luxemburg_norm", {}).get("calls", 0)
    nested = tracing.nested_calls(spans, "norms.modular_of_values",
                                  "norms.luxemburg_norm", pass_ops)
    metrics["norms.modular_evals_per_norm"] = (nested / lux_calls if lux_calls else 0.0,
                                               "count")

    pass_agg = tracing.aggregate(spans, pass_ops)
    for suite in workloads.SUITES:
        span = f"harness.{suite}"
        run = group_runs.get(suite)
        metrics[f"{span}.wall_s"] = (pass_agg.get(span, {}).get("wall_s", 0.0), "s")
        metrics[f"{span}.peak_rss_mb"] = (run["peak_rss_mb"] if run else 0.0, "MB")

    untraced = sum(r["s"] for r in fresh["ops"])
    traced_same = sum(r["s"] for r in traced_pass["ops"] if r["group"] in group_runs)
    top = sum(a["top_s"] for a in pass_agg.values())
    jobs2_same = sum(r["s"] for r in jobs2["first"]["ops"] if r["group"] in group_runs)
    metrics["harness.jobs2_wall_ratio"] = (jobs2_same / untraced, "ratio")
    metrics["trace.overhead_s"] = (traced_same - untraced, "s")
    metrics["trace.untraced_s"] = (traced_pass["wall_s"] - top, "s")
    probe_ops = [(p["first"]["ops"][0], p["peak_rss_mb"]) for p in probe]
    metrics["cli.n2_probe.refused"] = (sum(op["status"] != "ok" for op, _ in probe_ops),
                                       "count")

    if workload == "verify-n1-stock":
        _count_check(spans, traced["count_pass"], checks)
    for op, rss in probe_ops:
        print(f"n=2 capacity probe {op['id']}: {op['verdict'] or op['status']} "
              f"({op['s']:.1f} s, peak RSS {rss:.0f} MB)")
    print(f"traced pass {traced_pass['wall_s']:.3f} s, of which the suites {traced_same:.3f} s"
          f" ({untraced:.3f} s untraced, {jobs2_same:.3f} s at --jobs 2); "
          f"{len(spans)} spans in {spans_path.relative_to(ROOT)}")
    print(f"verdicts: {_verdict_summary(traced_pass)}")
    return metrics


def _count_check(spans, count_pass: dict, checks: Checks) -> None:
    ops = {r["id"] for r in count_pass["ops"]}
    agg = tracing.aggregate(spans, ops)
    got = {name: agg.get(name, {}).get("calls", 0) for name in COUNT_EXPECTED}
    distinct = len(agg.get("measure.build_rule", {}).get("rule_ids", ()))
    print(f"count check (power:p=2, alpha=0, seed 0): {got}, {distinct} distinct rules")
    if got != COUNT_EXPECTED or distinct != COUNT_DISTINCT_RULES:
        checks.problems.append(f"call counts {got} / {distinct} distinct rules, expected "
                               f"{COUNT_EXPECTED} / {COUNT_DISTINCT_RULES}")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--calibrate", action="store_true",
                    help="time the reference copy alone and rewrite its table of times")
    args = ap.parse_args(argv)
    if not (workloads.SRC / "bergman_orlicz" / "__init__.py").is_file():
        print(f"benchmark: no package under {workloads.SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    checks = Checks()
    checks.problems.extend(f"oracle self-test: {p}" for p in oracle.self_test())
    runner = Runner(args)
    try:
        if args.calibrate:
            calibrate(runner)
            return 0
        if args.trace:
            rendered = {k: {"value": v, "unit": u}
                        for k, (v, u) in per_layer(runner, checks).items()}
            notes = {}
        else:
            metrics = end_to_end(runner, checks)
            rendered = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, (v, _) in metrics.items()}
            notes = {k: f" ({note})" for k, (_, note) in metrics.items()}
        for k, d in rendered.items():
            print(f"{args.workload} {k} = {d['value']:.6g} {d['unit']}{notes.get(k, '')}")
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    bad = [k for k, d in rendered.items() if not math.isfinite(d["value"])]
    checks.problems.extend(f"metric {k} is not finite" for k in bad)
    for f in checks.failures:
        print(f"failed operation: {f}")
    for p in checks.problems:
        print(f"check failed: {p}")
    correct = not checks.problems
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": rendered}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
