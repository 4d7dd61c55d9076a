"""Child process of the benchmark; run.py starts it under an address-space cap.

Modes (the first argument):

  setup    build the inputs, print the monotonic clock, exit; run.py times it.
  serve    build the inputs (of the frozen reference copy with --reference),
           print the operation ids as one JSON line, then run the operation
           whose index each line of standard input names and answer with
           its record as one JSON line; run.py drives two of these in turn.
  group    one pass over a single operation group (a suite), for its RSS.
  traced   one pass with spans installed; writes the spans file.
  jobs     one pass over the suites with --jobs worker threads.
  probe    `bol verify --config '{"n":2}' --suite S`, for the capacity probe.

Every mode but setup and serve writes a JSON result to --result.  A
MemoryError raised under the cap is an operation status, never a verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

COUNT_CHECK_OPS = ("power:p=2", 0.0)
COUNT_CHECK_SEED = 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(ops, out_dir: Path, jobs: int, tracer=None) -> dict:
    records = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.op_id
        t0 = time.perf_counter()
        try:
            status, verdict, path = op.run(out_dir, jobs)
        except MemoryError:
            status, verdict, path = "memory", None, None
        except Exception as exc:  # an operation's failure is data, not a crash
            status, verdict, path = "error", f"{type(exc).__name__}: {exc}"[:300], None
        records.append({"id": op.op_id, "group": op.group, "s": time.perf_counter() - t0,
                        "status": status, "verdict": verdict,
                        "path": str(path) if path else None})
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    for rec in records:
        if rec["path"]:
            rec["digest"] = hashlib.sha256(Path(rec["path"]).read_bytes()).hexdigest()
    return {"wall_s": wall, "ops": records}


def serve(ops, out_dir: Path) -> None:
    """Answer each operation index read from stdin with that operation's record.

    Replies go to the original stdout; anything the package prints goes to
    stderr instead, so it cannot corrupt a reply.
    """
    replies = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    replies.write(json.dumps([op.op_id for op in ops]) + "\n")
    for line in sys.stdin:
        rec = run_pass([ops[int(line)]], out_dir, 1)["ops"][0]
        rec["peak_rss_mb"] = _peak_rss_mb()
        replies.write(json.dumps(rec) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "serve", "group", "traced", "jobs", "probe"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--group")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--result")
    ap.add_argument("--spans")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)
    out_dir = Path(args.out) if args.out else None

    if args.mode == "probe":
        workloads.import_package()
        op = workloads.cli_operation({"n": 2}, args.group, f"n2-probe|{args.group}")
        result = {"first": run_pass([op], out_dir, 1), "peak_rss_mb": _peak_rss_mb()}
    else:
        tracer = None
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracer.install(workloads.import_package())
            tracer.op = tracing.SETUP_OP
        package = workloads.REFERENCE if args.reference else workloads.PACKAGE
        ops = workloads.prepare(args.workload, args.seed, package)
        if args.mode == "setup":
            print(repr(time.monotonic()), flush=True)
            return 0
        if args.mode == "serve":
            serve(ops, out_dir)
            return 0
        result = {}
        if args.mode == "group":
            chosen = [op for op in ops if op.group == args.group]
            result["first"] = run_pass(chosen, out_dir, 1)
            result["peak_rss_mb"] = _peak_rss_mb()
        elif args.mode == "jobs":
            suites = workloads.suites(args.workload)
            result["first"] = run_pass([op for op in ops if op.group in suites],
                                       out_dir, args.jobs)
        elif args.mode == "traced":
            result["first"] = run_pass(ops, out_dir, 1, tracer)
            if args.workload == "verify-n1-stock":
                # The call counts are pinned for the CLI's default seed.
                growth, alpha = COUNT_CHECK_OPS
                count_ops = [op for op in workloads.prepare(args.workload, COUNT_CHECK_SEED)
                             if op.op_id.startswith(f"{growth}|alpha={alpha:g}|")]
                for op in count_ops:
                    op.op_id = "count|" + op.op_id
                result["count_pass"] = run_pass(count_ops, out_dir / "count", 1, tracer)
            tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
