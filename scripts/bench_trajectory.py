#!/usr/bin/env python3
"""Append one perfsmoke run to the tracked BENCH_trajectory.json.

The perfsmoke CI stage overwrites BENCH_kernels.json with the latest numbers,
which loses history. This script folds each green run into a rolling
trajectory file — one summarized entry per run, newest last — so performance
drift across commits is visible from the tree itself.

Usage: scripts/bench_trajectory.py <report.json> [<report2.json> ...]
           [-o <trajectory.json>]

Each report is identified by its keys — bench_kernels.json carries
`packed_gemm`/`dense_update`/`panel_trsm`/`grid_gemm`/`backends`,
bench_refactorize.json carries `refactorize`/`solve_throughput`/
`solve_plan` — and all reports given on one invocation fold into a single
trajectory entry.

The trajectory entry keeps only the headline numbers (packed-gemm speedups
per size, the dense update's and the panel TRSM's ratios to the packed gemm,
the grid GEMM's micro-tile and copied target entries, per-backend GF/s,
steady-state refactorize speedup per strategy, blocked-solve throughput per
width, the solve plan's slice tasks and parallelism bound) plus the commit
and timestamp, so the file stays small no matter how many runs accumulate.
The newest `MAX_RUNS` entries are retained. Earlier entries are carried
over verbatim, whatever keys they hold (entries from before the batched
dispatch path was removed still carry `batched_*` speedups); no key is
required of them.

Each entry's `commit` is `git describe --always` of the checkout, with
`-dirty` appended when a tracked file differs from that commit, as
`git describe --always --dirty` does, except that the BENCH_*.json reports
perfsmoke rewrites just before calling this script do not count. So an
entry stamped `<id>-dirty` measured commit <id> plus uncommitted changes
(for instance a change under review, before it is committed), and only an
entry stamped `<id>` measured commit <id> itself.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

MAX_RUNS = 200


def git_commit(repo: Path) -> str:
    """The checkout's `git describe --always`, plus `-dirty` (see above)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(repo), "describe", "--always"],
            capture_output=True, text=True, check=True,
        )
        changed = subprocess.run(
            ["git", "-C", str(repo), "diff", "--quiet", "HEAD", "--",
             ".", ":(exclude)BENCH_*.json"],
            capture_output=True,
        )
    except (subprocess.CalledProcessError, OSError):
        return "unknown"
    return out.stdout.strip() + ("-dirty" if changed.returncode == 1 else "")


def summarize(report: dict) -> dict:
    entry = {}
    packed = report.get("packed_gemm", [])
    if packed:
        entry["packed_gemm_speedup"] = {
            str(row["n"]): row["speedup"] for row in packed if "n" in row
        }
    backends = report.get("backends", [])
    if backends:
        # Headline per-backend GF/s at the largest measured size, plus the
        # Native ISA tier the run dispatched to.
        biggest = max(row["n"] for row in backends if "n" in row)
        entry["backend_gflops"] = {
            row["backend"]: row["gflops"]
            for row in backends if row.get("n") == biggest
        }
        isas = {row["isa"] for row in backends if row.get("isa")}
        if isas:
            entry["backend_isa"] = sorted(isas)[0]
    update = report.get("dense_update")
    if update:
        # The factorization's dense update GF/s relative to the packed gemm
        # of the same run (the perf-smoke floor's quantity).
        entry["dense_update_ratio"] = update["ratio_to_packed_256"]
    trsm = report.get("panel_trsm")
    if trsm:
        # The factorization's stacked panel TRSM GF/s, likewise.
        entry["panel_trsm_ratio"] = trsm["ratio_to_packed_256"]
    grid = report.get("grid_gemm")
    if grid:
        # The active tier's fp64 micro-tile, and the update's target entries
        # that reached their targets through a gathered copy (0: all in place).
        entry["grid_tile"] = f'{grid["tile_mr"]}x{grid["tile_nr"]}'
        entry["grid_copied_entries"] = grid["copied_target_entries"]
    refac = report.get("refactorize", [])
    if refac:
        # bench_refactorize.json: first-step vs steady-state cost per
        # strategy, plus how much of the steady pass ran off warm hints.
        entry["refactorize_speedup"] = {
            row["strategy"]: row["speedup"]
            for row in refac if "strategy" in row
        }
        entry["refactorize_warm_hits"] = {
            row["strategy"]: row.get("warm_hits", 0) + row.get("dense_skips", 0)
            for row in refac if "strategy" in row
        }
    solves = report.get("solve_throughput", [])
    if solves:
        # Keyed "<nrhs>@<threads>t" so the 1-thread sweep and the parallel
        # solve-pool sweep track as separate series (rows from reports
        # predating the threads axis fold in as 1-thread).
        entry["solve_rhs_per_s"] = {
            f"{row['nrhs']}@{row.get('threads', 1)}t": row["rhs_per_s"]
            for row in solves if "nrhs" in row
        }
    plan = report.get("solve_plan")
    if plan:
        # bench_refactorize.json: the solve plan's Slice tasks and its
        # entry-weighted parallelism bound (total / critical-path entries).
        entry["solve_slice_tasks"] = plan["slice_tasks"]
        entry["solve_parallelism_bound"] = plan["parallelism_bound"]
    return entry


def main(argv: list) -> int:
    args = argv[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    repo = Path(__file__).resolve().parent.parent
    traj_path = repo / "BENCH_trajectory.json"
    report_paths = []
    i = 0
    while i < len(args):
        if args[i] == "-o":
            if i + 1 >= len(args):
                print("bench_trajectory: -o needs a path", file=sys.stderr)
                return 2
            traj_path = Path(args[i + 1])
            i += 2
        else:
            report_paths.append(Path(args[i]))
            i += 1

    runs = []
    if traj_path.exists():
        try:
            runs = json.loads(traj_path.read_text()).get("runs", [])
        except (json.JSONDecodeError, AttributeError):
            print(f"bench_trajectory: {traj_path} unreadable, restarting",
                  file=sys.stderr)
            runs = []

    entry = {}
    for report_path in report_paths:
        entry.update(summarize(json.loads(report_path.read_text())))
    entry["commit"] = git_commit(repo)
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs.append(entry)
    runs = runs[-MAX_RUNS:]

    traj_path.write_text(
        json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n"
    )
    print(f"bench_trajectory: appended run {len(runs)} -> {traj_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
