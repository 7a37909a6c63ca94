"""The four benchmark workloads: construct, verify, decompose and search.

Each workload has `setup(seed, out_dir)`, whose state the measured rounds
share, `run_round(state, log)`, one pass over the workload's fixed list of
operations, and `rounds`, how many rounds one run takes at the default
--seconds: at least one, and enough for a steady median on the machine
named in README.md.  Only the program call sits inside an operation's timer;
every output is checked after it, against `reference.json` (recorded at the
commit that introduced this benchmark) or against an independent check in
this file.  A failed check counts toward the failed operations and never
aborts the run.  README.md gives the reason for each workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import SEARCH_LADDER

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


@dataclass
class Log:
    """Per-operation latencies and outcomes, plus named extra timings."""

    latencies: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    errors: int = 0
    wrong: int = 0
    extra: dict[str, list[float]] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    def op(self, seconds: float, ok: bool, what: str = ""):
        self.latencies.append(seconds)
        if not ok:
            self.wrong += 1
            self.note(f"wrong output: {what}")

    def error(self, seconds: float, exc: Exception, what: str):
        self.latencies.append(seconds)
        self.errors += 1
        self.note(f"{what}: {type(exc).__name__}: {exc}")

    def add(self, name: str, seconds: float):
        self.extra.setdefault(name, []).append(seconds)

    def note(self, message: str):
        if len(self.messages) < 20:
            self.messages.append(message)


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run `hbasis <argv>` in process; returns (exit code, payload, seconds)."""
    import hbasis.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = hbasis.cli.main(argv)
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


def parse_payload(text: str) -> dict[str, str]:
    """`key = value` lines to a dict; independent of hbasis.basisfile."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return fields


def reach(elements: list[int], h: int) -> int | None:
    """Largest n with [0, n] in the exactly-h sumset, by a coin-change table.

    Independent of hbasis.sumset: with 0 in the set, exactly-h sums are the
    sums of at most h nonzero elements, so m is covered iff its fewest-parts
    count is at most h.  None when 0 is missing.
    """
    if 0 not in elements:
        return None
    parts = sorted(set(e for e in elements if e > 0))
    limit = h * max(elements)
    fewest = [0] + [h + 1] * limit
    for m in range(1, limit + 1):
        fewest[m] = min([fewest[m - a] + 1 for a in parts if a <= m] or [h + 1])
        if fewest[m] > h:
            return m - 1
    return limit


def check_witness(addends, z: int, h: int, basis: frozenset) -> bool:
    """Exactly h addends, each in the basis, summing to z."""
    return len(addends) == h and sum(addends) == z and all(a in basis for a in addends)


class Construct:
    """`hbasis construct --n 10000000 --h 5`: plan (k=2, a=3), q = 456,976, |G| = 273."""

    name = "construct"
    rounds = 1
    argv = ["construct", "--n", "10000000", "--h", "5"]

    def setup(self, seed: int, out_dir: Path):
        return None

    def run_round(self, state, log: Log):
        code, payload, seconds = call_cli(self.argv)
        ref = REFERENCE["construct"]
        fields = parse_payload(payload)
        elements = fields.get("elements", "")
        digest = hashlib.sha256(payload.encode()).hexdigest()
        ok = (code == 0 and fields.get("verified") == "true"
              and fields.get("sizes.G") == str(ref["basis_size"])
              and len(elements.split()) == ref["basis_size"]
              and hashlib.sha256(elements.encode()).hexdigest() == ref["elements_sha256"])
        log.op(seconds, ok, f"construct exit={code} verified={fields.get('verified')} "
                            f"size={fields.get('sizes.G')}")
        log.add("construct_s", seconds)
        log.info["basis_size"] = len(elements.split())
        log.info["payload_sha256"] = digest
        log.info["payload_matches_reference"] = digest == ref["payload_sha256"]


class Verify:
    """`hbasis verify --set FILE` on a true claim and a false one, written by setup.

    The true claim is the digit basis {j * 22^i} (h = 6, n = 22^6 - 1) plus
    seeded extra elements; the false claim drops element 1, so its least gap
    is 1.  Pure big-bitset shift-OR plus basis-file parsing.
    """

    name = "verify"
    rounds = 1
    base, h, extras = 22, 6, 8

    def setup(self, seed: int, out_dir: Path):
        n = self.base ** self.h - 1
        digits = {j * self.base ** i for j in range(self.base) for i in range(self.h)}
        rng = random.Random(seed)
        elements = set(digits)
        # Extras below base^(h-1) keep each shift-OR operand, so time and
        # memory, nearly independent of the seed.
        while len(elements) < len(digits) + self.extras:
            elements.add(rng.randrange(2, self.base ** (self.h - 1)))
        claims = []
        for label, elems, ok, gap in (("true", sorted(elements), True, None),
                                      ("false", sorted(elements - {1}), False, 1)):
            path = out_dir / f"verify-{label}.txt"
            path.write_text(f"h = {self.h}\nn = {n}\nelements = {' '.join(map(str, elems))}\n")
            claims.append((label, str(path), elems, ok, gap))
        return claims

    def run_round(self, claims, log: Log):
        total = 0.0
        for label, path, elems, ok, gap in claims:
            code, payload, seconds = call_cli(["verify", "--set", path])
            fields = parse_payload(payload)
            good = (code == (0 if ok else 1)
                    and fields.get("ok") == ("true" if ok else "false")
                    and fields.get("first_gap") == (None if gap is None else str(gap))
                    and fields.get("elements") == " ".join(map(str, elems)))
            log.op(seconds, good, f"verify {label} exit={code} ok={fields.get('ok')} "
                                  f"first_gap={fields.get('first_gap')}")
            log.add(f"verify_{label}_s", seconds)
            total += seconds
        log.add("verify_s", total)


class Decompose:
    """Closed-loop `construct.decompose(z, result)` queries from one caller.

    Part a: the default plan (h = 6, n = 1e7) on seeded random z plus the top
    window [n - 999, n].  Part b: the perfect-power override (h = 5, n = 1e5,
    k = 2, a = 4) on every z <= n, which holds the known failure at z = n.
    """

    name = "decompose"
    rounds = 3
    random_queries = 20_000
    window = 1000

    def setup(self, seed: int, out_dir: Path):
        import hbasis.construct as hc
        rng = random.Random(seed)
        parts = []
        for label, plan in (("a", hc.plan_params(10 ** 7, 6)),
                            ("b", hc.plan_params(10 ** 5, 5, 2, 4))):
            result = hc.build_theorem1(plan)
            if not result.verified:
                raise RuntimeError(f"decompose setup: part {label} basis not verified")
            n = plan.n
            if label == "a":
                zs = [rng.randint(0, n) for _ in range(self.random_queries)]
                zs += range(n - self.window + 1, n + 1)
            else:
                zs = list(range(n + 1))
            start = perf_counter()
            hc.decompose(zs[0], result)  # builds the lazy decomposition context
            parts.append((label, result, zs, frozenset(result.basis.elements),
                          perf_counter() - start))
        return parts

    def run_round(self, parts, log: Log):
        import hbasis.construct as hc
        for label, result, zs, basis, first_call_s in parts:
            h = result.plan.h
            lat = []
            for z in zs:
                start = perf_counter()
                try:
                    w = hc.decompose(z, result)
                except Exception as exc:  # a failed query is counted, not fatal
                    log.error(perf_counter() - start, exc, f"decompose part {label} z={z}")
                    continue
                seconds = perf_counter() - start
                lat.append(seconds)
                log.op(seconds, check_witness(w.addends, z, h, basis),
                       f"decompose part {label} z={z} addends={w.addends}")
            log.extra.setdefault(f"decompose_{label}_lat", []).extend(lat)
            log.info[f"decompose_{label}_first_call_s"] = first_call_s


class Search:
    """`hbasis search` over the ladder (h, k) = (2,11), (3,8), (4,7), (6,6)."""

    name = "search"
    rounds = 2

    def setup(self, seed: int, out_dir: Path):
        return None

    def run_round(self, state, log: Log):
        total = 0.0
        nodes = 0
        for h, k in SEARCH_LADDER:
            code, payload, seconds = call_cli(["search", "--h", str(h), "--k", str(k)])
            fields = parse_payload(payload)
            try:
                value = int(fields["value"])
                witness = [int(v) for v in fields["elements"].split()]
                nodes += int(fields["nodes_explored"])
            except (KeyError, ValueError):
                value, witness = None, []
            expected = REFERENCE["search"][f"{h},{k}"]
            ok = (code == 0 and fields.get("optimal") == "true" and value == expected
                  and len(witness) == k == len(set(witness)) and reach(witness, h) == value)
            log.op(seconds, ok, f"search h={h} k={k} exit={code} value={value} "
                                f"optimal={fields.get('optimal')} witness={witness}")
            log.add(f"search_h{h}k{k}_s", seconds)
            total += seconds
        log.add("search_s", total)
        log.info["search_nodes"] = nodes


WORKLOADS = {w.name: w for w in (Construct(), Verify(), Decompose(), Search())}


def fresh_import(root: Path):
    """A fresh interpreter importing the CLI: the set-up every CLI user pays."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", "import hbasis.cli"], env=env, check=True,
                   cwd=root, timeout=60)
