"""hbasis benchmark: construct, verify, decompose and search, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # the four workloads in one process
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

Run from anywhere; the program is imported from `src/` next to this
directory, never from an installed copy.  A run sets up its workload at
least SETUP_REPEATS times and for at least SETUP_SECONDS (setup_s is the
median), then runs a fixed number of rounds of the workload: its `rounds`
at the manifest's run_seconds, scaled by --seconds / RUN_SECONDS, at least
one.  A fixed count, not a deadline, so that a slow first round cannot
decide how many rounds are taken.  With --trace 1 it then sets up again and
runs the rounds with every layer's entry points wrapped (see tracer.py); the
per-layer metrics come from those rounds and the end-to-end metrics from
the untraced ones.  Every metric is printed as
`name = value unit`; the last line is one JSON object with `correct`,
`attempted`, `failed` and the metrics of the chosen mode.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

from tracer import PER_LAYER, Tracer, instrument
from workloads import WORKLOADS, Log, fresh_import

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
RUN_SECONDS = 8

# (name, unit, better, bound): what every workload reports with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("round_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p99_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("ok_frac", "frac", "higher", 0.001),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

WHY = {
    "construct": "hbasis construct --n 1e7 --h 5: the main user flow; cover and the bitmask decode "
                 "in residue_sumset do ~97% of the work here and none elsewhere",
    "verify": "hbasis verify on a true and a false claim (digit basis h=6, n=22^6-1): pure "
              "big-bitset sumset plus basis-file parsing, no cover",
    "decompose": "one closed-loop caller of decompose: default plan h=6 n=1e7 and the perfect-power "
                 "override h=5 n=1e5 k=2 a=4, which holds the known z=n failure",
    "search": "hbasis search at (h,k) = (2,11) (3,8) (4,7) (6,6): 664k tiny n_of calls per round, "
              "the verify kernel in the opposite regime",
}


def load_program():
    """Import hbasis from ROOT/src, or exit 2 when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "hbasis" / "__init__.py").is_file():
        print(f"error: no hbasis package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import hbasis
    if Path(hbasis.__file__).resolve().parent != (src / "hbasis").resolve():
        print(f"error: imported hbasis from {hbasis.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, ceil(p * len(sorted_values)) - 1)]


def measure(workload, state, rounds: int, log):
    """Run `rounds` rounds; round_s counts only the timed operations."""
    for _ in range(rounds):
        first = len(log.latencies)
        workload.run_round(state, log)
        log.round_s.append(sum(log.latencies[first:]))


def workload_lines(name: str, log) -> list[tuple[str, object, str]]:
    """Metric names that belong to one workload, for the printed report."""
    med = {k: statistics.median(v) for k, v in log.extra.items()}
    if name == "construct":
        return [("construct_s", med["construct_s"], "s"),
                ("basis_size", log.info["basis_size"], "count"),
                ("payload_sha256", log.info["payload_sha256"], ""),
                ("payload_matches_reference", log.info["payload_matches_reference"], "")]
    if name == "verify":
        return [(k, med[k], "s") for k in ("verify_s", "verify_true_s", "verify_false_s")]
    if name == "decompose":
        lat = sorted(log.latencies)
        out = [("decompose_qps", len(lat) / sum(lat), "1/s"),
               ("decompose_p50_us", statistics.median(lat) * 1e6, "us"),
               ("decompose_p99_us", nearest_rank(lat, 0.99) * 1e6, "us")]
        for part in ("a", "b"):
            part_lat = sorted(log.extra[f"decompose_{part}_lat"])
            out += [(f"decompose_{part}_p50_us", statistics.median(part_lat) * 1e6, "us"),
                    (f"decompose_{part}_p99_us", nearest_rank(part_lat, 0.99) * 1e6, "us"),
                    (f"decompose_{part}_first_call_s", log.info[f"decompose_{part}_first_call_s"], "s")]
        return out
    return ([("search_s", med["search_s"], "s")]
            + [(k, v, "s") for k, v in med.items() if k.startswith("search_h")]
            + [("search_nodes", log.info["search_nodes"], "count")])


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (JSON result, printed report lines)."""
    workload = WORKLOADS[name]
    rounds = max(1, round(workload.rounds * seconds / RUN_SECONDS))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        start = perf_counter()
        fresh_import(ROOT)
        state = workload.setup(seed, OUT_DIR)
        setups.append(perf_counter() - start)
    log = Log()
    measure(workload, state, rounds, log)
    del state  # the traced set-up below builds its own

    lat = sorted(log.latencies)
    attempted, failed = len(lat), log.errors + log.wrong
    units = {m: u for m, u, _, _ in END_TO_END}
    e2e = {"setup_s": statistics.median(setups),
           "round_s": statistics.median(log.round_s),
           "op_p50_ms": statistics.median(lat) * 1e3,
           "op_p99_ms": nearest_rank(lat, 0.99) * 1e3,
           "ops_per_s": attempted / sum(lat),
           "ok_frac": (attempted - failed) / attempted,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    lines = [(m, v, units[m]) for m, v in e2e.items()]
    lines += [("fail_frac", failed / attempted, f"({failed} of {attempted} failed)"),
              ("rounds", len(log.round_s), "count")]
    lines += workload_lines(name, log)
    metrics = {m: {"value": v, "unit": units[m]} for m, v in e2e.items()}
    messages = list(log.messages)
    correct = log.wrong == 0

    if trace:
        tracer = Tracer()
        tlog = Log()
        with instrument(tracer):
            tstate = workload.setup(seed, OUT_DIR)
            first = tracer.mark()
            measure(workload, tstate, rounds, tlog)
        del tstate
        layer = tracer.per_layer(first, len(tlog.round_s))
        layer["trace.overhead_frac"] = statistics.median(tlog.round_s) / e2e["round_s"] - 1
        tracer.write(OUT_DIR / f"trace-{name}.npz")
        lines += [(m, layer[m], u) for m, u in PER_LAYER]
        metrics = {m: {"value": layer[m], "unit": u} for m, u in PER_LAYER}
        attempted += len(tlog.latencies)
        failed += tlog.errors + tlog.wrong
        messages += tlog.messages
        correct = correct and tlog.wrong == 0

    for message in messages:
        print(f"{name}: {message}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "higher" if u == "1/s" else "lower"}
                      for n, u in PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    load_program()

    names = list(WHY) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"# workload {name}, seed {args.seed}, trace {args.trace}")
        for metric, value, unit in lines:
            print(f"{name}.{metric} = {value} {unit}".rstrip())
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
