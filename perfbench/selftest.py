"""Tests of the benchmark itself: its checks, its counters and its manifest.

    python3 perfbench/selftest.py

Runs about two minutes (one traced round of every workload under two
seeds).  Exits 1 if any test fails.  Not collected by the repository's
pytest run, which stays fast.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import traceback

import run
from tracer import BINDINGS, DETERMINISTIC, Tracer, instrument
from workloads import WORKLOADS, Log, check_witness, parse_payload, reach

run.load_program()


def test_reach_matches_program_on_small_sets():
    from hbasis.sumset import BasisSet, n_of
    rng = random.Random(7)
    for _ in range(300):
        h = rng.randint(1, 4)
        elems = sorted({0} | set(rng.sample(range(1, 30), rng.randint(1, 6))))
        assert reach(elems, h) == n_of(BasisSet(tuple(elems)), h), (elems, h)
    assert reach([1, 2, 3], 2) is None


def test_checks_reject_wrong_outputs():
    basis = frozenset({0, 1, 3, 4})
    assert check_witness((0, 1, 4), 5, 3, basis)
    assert not check_witness((1, 4), 5, 3, basis)         # too few addends
    assert not check_witness((0, 1, 3), 5, 3, basis)      # wrong sum
    assert not check_witness((0, 2, 3), 5, 3, basis)      # 2 not in the basis
    assert reach([0, 1, 3, 4], 2) == 8 and reach([0, 1, 3, 5], 2) != 8
    fields = parse_payload("ok = true\nfirst_gap = 1\nelements = 0 2 3\n")
    assert fields == {"ok": "true", "first_gap": "1", "elements": "0 2 3"}


def test_nearest_rank():
    values = sorted(float(v) for v in range(1, 101))
    assert run.nearest_rank(values, 0.5) == 50.0
    assert run.nearest_rank(values, 0.99) == 99.0
    assert run.nearest_rank([3.0], 0.99) == 3.0


def test_instrument_restores_bindings():
    import importlib
    before = [getattr(importlib.import_module(m), a) for m, a, _ in BINDINGS]
    with instrument(Tracer()):
        assert [getattr(importlib.import_module(m), a) for m, a, _ in BINDINGS] != before
    assert [getattr(importlib.import_module(m), a) for m, a, _ in BINDINGS] == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(200_000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    first = tracer.mark()
    outer()
    own, calls = tracer.self_times(first)
    total = tracer.end[first] - tracer.start[first]
    assert calls == {"inner": 2, "outer": 1}
    assert abs(own["outer"] + own["inner"] - total) < 1e-9
    assert 0 <= own["outer"] < own["inner"]


def test_manifest_is_current():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest()


def test_refuses_checkout_without_program():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc


def _traced_round(name: str, seed: int):
    workload, tracer, log = WORKLOADS[name], Tracer(), Log()
    with instrument(tracer):
        state = workload.setup(seed, run.OUT_DIR)
        first = tracer.mark()
        workload.run_round(state, log)
    layer = tracer.per_layer(first, 1)
    return {k: layer[k] for k in DETERMINISTIC}, log


def test_deterministic_counts_repeat_across_seeds():
    """No deterministic count depends on the seed in any workload, so two
    seeds must give identical counts; outputs must also check out."""
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        first, log1 = _traced_round(name, 1)
        second, log2 = _traced_round(name, 2)
        assert first == second, (name, first, second)
        assert log1.wrong == log2.wrong == 0, (name, log1.messages, log2.messages)
        print(f"  {name}: " + ", ".join(f"{k}={v:g}" for k, v in first.items() if v))


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
