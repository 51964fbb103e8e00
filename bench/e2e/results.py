#!/usr/bin/env python3
"""Collects and checks the per-workload outputs of bench_e2e.

  results.py merge OUT.json DIR
      Merge DIR/<workload>.result.json into one file keyed by workload.
  results.py merge-trace BUILD DIR
      Merge DIR/<workload>.layers.json into BUILD/bench_e2e.layers.json, with
      the tracing overhead against BUILD/bench_e2e.json, and the span files
      DIR/<workload>.trace.json into BUILD/bench_e2e.trace.json (one trace
      process per workload).
  results.py validate BENCHMARK.json DIR
      Check a traced and an untraced run of every workload: the result line
      has exactly the keys and metrics BENCHMARK.json names, every answer
      was correct, and the trace is a well-formed traceEvents array.
"""

import json
import os
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def workload_files(directory, suffix):
    """{workload: path} for every DIR/<workload><suffix>."""
    return {
        name[: -len(suffix)]: os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.endswith(suffix)
    }


def load_results(path):
    """{workload: {metric: value}} from a merged file or one workload's file."""
    data = load_json(path)
    if "workloads" in data:
        entries = data["workloads"]
    elif "workload" in data:
        entries = {data["workload"]: data}
    else:
        raise ValueError(f"{path}: not a bench_e2e result file")
    out = {}
    for workload, entry in entries.items():
        metrics = entry.get("metrics") or entry.get("per_layer") or {}
        out[workload] = {name: m["value"] for name, m in metrics.items()}
    return out


def merge(out_path, directory):
    files = workload_files(directory, ".result.json")
    if not files:
        sys.exit(f"results.py: no .result.json files under {directory}")
    merged = {"workloads": {w: load_json(p) for w, p in files.items()}}
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")


def merge_trace(build, directory):
    untraced_path = os.path.join(build, "bench_e2e.json")
    untraced = load_results(untraced_path) if os.path.exists(untraced_path) else {}
    layers, events = {}, []
    for pid, (workload, path) in enumerate(workload_files(directory, ".layers.json").items(), 1):
        entry = load_json(path)
        traced = {n: m["value"] for n, m in entry["end_to_end_traced"].items()}
        base = untraced.get(workload, {})
        entry["tracing_overhead_s"] = {
            name: traced[name] - base[name]
            for name in ("time_to_solution_s", "factorize_s")
            if name in base and name in traced
        }
        layers[workload] = entry
        trace = load_json(os.path.join(directory, workload + ".trace.json"))
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": workload}})
        for event in trace["traceEvents"]:
            event["pid"] = pid
            events.append(event)
    with open(os.path.join(build, "bench_e2e.layers.json"), "w", encoding="utf-8") as f:
        json.dump({"workloads": layers}, f, indent=1)
        f.write("\n")
    with open(os.path.join(build, "bench_e2e.trace.json"), "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
        f.write("\n")


def check_result_line(path, expected, problems):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        problems.append(f"{path}: no output")
        return
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        problems.append(f"{path}: last line is not JSON ({e})")
        return
    if set(result) != RESULT_KEYS:
        problems.append(f"{path}: result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{path}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    names = set(result["metrics"])
    if names != set(expected):
        problems.append(f"{path}: metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - names)}, extra {sorted(names - set(expected))}")
    for name, metric in result["metrics"].items():
        if name in expected and metric.get("unit") != expected[name]:
            problems.append(f"{path}: {name} unit {metric.get('unit')} != {expected[name]}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{path}: {name} value {metric.get('value')!r} is not a number")


def check_trace(path, problems):
    events = load_json(path).get("traceEvents")
    if not isinstance(events, list) or not events:
        problems.append(f"{path}: traceEvents is not a non-empty array")
        return
    ids = {e.get("args", {}).get("id") for e in events}
    for e in events:
        args = e.get("args", {})
        if not (isinstance(e.get("name"), str) and e.get("ph") == "X"
                and isinstance(e.get("ts"), (int, float)) and isinstance(e.get("dur"), (int, float))
                and e["dur"] >= 0 and isinstance(args.get("id"), int)):
            problems.append(f"{path}: malformed span {e}")
            return
        if args.get("parent", 0) != 0 and args["parent"] not in ids:
            problems.append(f"{path}: span {args['id']} has unknown parent {args['parent']}")
            return


def validate(benchmark_path, directory):
    spec = load_json(benchmark_path)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = os.path.join(directory, workload)
        for suffix in (".trace0.out", ".trace1.out", ".result.json", ".layers.json", ".trace.json"):
            if not os.path.exists(base + suffix):
                problems.append(f"{base}{suffix}: missing")
        if problems:
            continue
        check_result_line(base + ".trace0.out", e2e, problems)
        check_result_line(base + ".trace1.out", layers, problems)
        check_trace(base + ".trace.json", problems)
        if set(load_json(base + ".result.json")["metrics"]) != set(e2e):
            problems.append(f"{base}.result.json: metric set differs from BENCHMARK.json")
        if set(load_json(base + ".layers.json")["per_layer"]) != set(layers):
            problems.append(f"{base}.layers.json: per-layer set differs from BENCHMARK.json")
    for p in problems:
        print(f"results.py: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv):
    if len(argv) == 4 and argv[1] == "merge":
        merge(argv[2], argv[3])
        return 0
    if len(argv) == 4 and argv[1] == "merge-trace":
        merge_trace(argv[2], argv[3])
        return 0
    if len(argv) == 4 and argv[1] == "validate":
        return validate(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
