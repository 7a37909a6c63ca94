"""CLI surface: subcommands, exit codes, file formats, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import hbasis
from hbasis import arith, construct, sidon, sumset
from hbasis.basisfile import (format_document, parse_document,
                              read_basis_document, read_residue_document)
from hbasis.cli import emit_table, main
from hbasis.construct import plan_params
from hbasis.cover import gains_bytes


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture()
def basis_file(tmp_path):
    path = tmp_path / "basis.txt"
    path.write_text("h = 2\nn = 8\nelements = 0 1 3 4\n")
    return str(path)


@pytest.fixture()
def residue_file(tmp_path):
    path = tmp_path / "rset.txt"
    path.write_text("q = 8\nmembers = 0 1 2 3\n")
    return str(path)


class TestVerify:
    def test_ok(self, basis_file):
        code, out = run_cli(["verify", "--h", "2", "--n", "8", "--set", basis_file])
        assert code == 0
        assert "ok = true" in out

    def test_gap(self, basis_file):
        code, out = run_cli(["verify", "--h", "2", "--n", "9", "--set", basis_file])
        assert code == 1
        assert "first_gap = 9" in out

    def test_oversized_window_exit_3(self, basis_file):
        # a 1e12-bit window would need ~125 GB; the guard refuses it first
        code, out = run_cli(["verify", "--h", "2", "--n", "1000000000000",
                             "--set", basis_file])
        assert code == 3
        assert out == ""

    def test_window_guard_before_any_layer(self, tmp_path):
        # one layer shift by 2**31 would already take 256 MB
        path = tmp_path / "wide.txt"
        path.write_text("elements = 0 2147483648 4294967295\n")
        tracemalloc.start()
        try:
            code, out = run_cli(["verify", "--h", "2", "--n", "4294967296",
                                 "--set", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert peak < 64 * 2 ** 20

    def test_params_from_file(self, basis_file):
        code, out = run_cli(["verify", "--set", basis_file])
        assert code == 0

    def test_output_reparses(self, basis_file):
        _, out = run_cli(["verify", "--h", "2", "--n", "8", "--set", basis_file])
        h, n, elements = read_basis_document(out)
        assert (h, n, elements) == (2, 8, (0, 1, 3, 4))

    def test_digit_basis_claims_at_h6(self, tmp_path):
        # the digit basis {j 22^i} at h = 6, n = 22^6 - 1, plus 8 seeded
        # extras below 22^5; with element 1 dropped the least gap is 1
        base, h = 22, 6
        elements = {j * base ** i for j in range(base) for i in range(h)}
        rng, digits = random.Random(11), len(elements)
        while len(elements) < digits + 8:
            elements.add(rng.randrange(2, base ** (h - 1)))
        for drop, code, lines in ((set(), 0, ["ok = true"]),
                                  ({1}, 1, ["ok = false", "first_gap = 1"])):
            path = tmp_path / f"claim{len(drop)}.txt"
            path.write_text(f"h = {h}\nn = {base ** h - 1}\nelements = "
                            + " ".join(map(str, sorted(elements - drop))) + "\n")
            got, out = run_cli(["verify", "--set", str(path)])
            assert got == code
            assert all(line in out.splitlines() for line in lines), out


class TestConstruct:
    def test_small_run(self, tmp_path):
        emit = tmp_path / "out.txt"
        code, _ = run_cli(["construct", "--n", "5000", "--h", "3",
                           "--k", "1", "--a", "2", "--emit", str(emit)])
        assert code == 0
        doc = parse_document(emit.read_text())
        assert doc["verified"] == "true"
        assert "ledger.size_ratio" in doc
        assert "plan.q" in doc

    def test_infeasible_exit_2(self):
        code, _ = run_cli(["construct", "--n", "100", "--h", "2"])
        assert code == 2

    def test_override_without_headroom_exit_2(self):
        code, out = run_cli(["construct", "--n", "2000", "--h", "6", "--k", "1", "--a", "3"])
        assert (code, out) == (2, "")

    def test_incomplete_complement_exit_1(self, monkeypatch):
        real = construct.k_complement
        monkeypatch.setattr(construct, "k_complement",
                            lambda A, k: dataclasses.replace(real(A, k), complete=False))
        code, out = run_cli(["construct", "--n", "5000", "--h", "3", "--k", "1", "--a", "2"])
        doc = parse_document(out)
        assert code == 1 and doc["verified"] == "false" and "first_gap" not in doc

    @pytest.mark.parametrize("n", [10 ** 12, 10 ** 400])
    def test_oversized_n_exit_3(self, n):
        # refused by plan_params before any window or Z_q array is allocated
        code, out = run_cli(["construct", "--n", str(n), "--h", "5"])
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("h", [1023, 1024])
    def test_grid_past_the_float_range(self, h):
        # the grid's largest q passes the float range (about 1.8e308) here, and
        # its size bound used to refuse the whole grid; the pair chosen has q = 8
        code, out = run_cli(["construct", "--n", "2", "--h", str(h)])
        assert code == 0
        doc = parse_document(out)
        assert (doc["plan.k"], doc["plan.a"], doc["plan.q"]) == ("1", str(h - 2), "8")
        assert doc["verified"] == "true"

    def test_emitted_basis_reverifies(self, tmp_path):
        emit = tmp_path / "g.txt"
        run_cli(["construct", "--n", "5000", "--h", "3",
                 "--k", "1", "--a", "2", "--emit", str(emit)])
        code, _ = run_cli(["verify", "--set", str(emit)])
        assert code == 0


class TestSidon:
    def test_searches_field_once(self, monkeypatch):
        calls = []
        walk = sidon._power_walk

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(sidon, "_power_walk", counted)
        sidon.bose_chowla(7, 2)
        one_search = len(calls)
        calls.clear()
        assert run_cli(["sidon", "--p", "7", "--k", "2"])[0] == 0
        assert len(calls) == one_search

    def test_check_refused_before_the_walk(self, monkeypatch):
        # is_bk's layers over [0, 2 (7^2 - 2)]: one byte short is refused with
        # no field walk, and the model itself is enough
        calls = []
        walk = sidon._power_walk
        monkeypatch.setattr(sidon, "_power_walk", lambda *args: calls.append(args) or walk(*args))
        need = sumset.layers_bytes(2, 2 * (7 ** 2 - 2))
        monkeypatch.setattr(arith, "MAX_BYTES", need - 1)
        assert run_cli(["sidon", "--p", "7", "--k", "2"]) == (3, "")
        assert calls == []
        monkeypatch.setattr(arith, "MAX_BYTES", need)
        assert run_cli(["sidon", "--p", "7", "--k", "2"])[0] == 0
        assert calls

    def test_provenance_and_status(self):
        code, out = run_cli(["sidon", "--p", "3", "--k", "2"])
        assert code == 0
        doc = parse_document(out)
        assert doc["provenance.modulus"] == "2 1 1"
        assert doc["elements"] == "1 6 7"
        assert doc["bk_ok_mod"] == "true"
        assert doc["bk_ok_int"] == "true"


class TestComplement:
    def test_run(self, residue_file):
        code, out = run_cli(["complement", "--k", "1", "--set", residue_file])
        assert code == 0
        doc = parse_document(out)
        assert doc["family.1"] == "0 4"
        assert doc["complete"] == "true"
        assert doc["over_budget"] == "false"
        assert int(doc["total_shifts"]) <= int(doc["bound"])

    def test_q_mismatch_exit_2(self, residue_file):
        code, _ = run_cli(["complement", "--q", "16", "--k", "1",
                           "--set", residue_file])
        assert code == 2

    @pytest.mark.parametrize("members", ["0 1 8", "-1 0 1"])
    def test_out_of_range_member_exit_2(self, tmp_path, members):
        path = tmp_path / "bad.txt"
        path.write_text(f"q = 8\nmembers = {members}\n")
        code, out = run_cli(["complement", "--k", "1", "--set", str(path)])
        assert code == 2
        assert out == ""

    def test_oversized_fft_exit_3(self, tmp_path):
        # q = 2**26 + 1: the gains model passes MAX_BYTES, refused before any array
        path = tmp_path / "huge.txt"
        path.write_text(f"q = {(1 << 26) + 1}\nmembers = 0\n")
        code, out = run_cli(["complement", "--k", "1", "--set", str(path)])
        assert code == 3
        assert out == ""

    def test_huge_q_refused_before_allocation(self, tmp_path):
        # a mask of all of Z_q at q = 2**32 would take ~1 GB of Python ints
        path = tmp_path / "huge.txt"
        path.write_text(f"q = {1 << 32}\nmembers = 0 1 2\n")
        tracemalloc.start()
        try:
            code, out = run_cli(["complement", "--k", "1", "--set", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert peak < 64 * 2 ** 20


def traced_cli(argv):
    """(exit code, payload, tracemalloc peak in bytes) of one CLI run."""
    tracemalloc.start()
    try:
        code, out = run_cli(argv)
        return code, out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    def test_construct_refused_by_its_plan(self):
        # plan_params refuses each first, so no case below builds anything
        for n, h in ((1000, 40), (10 ** 6, 30), (100, 1000), (100, 10 ** 5),
                     (2 ** 32 - 1, 12)):
            with pytest.raises(arith.GuardError):
                plan_params(n, h)
            code, out, peak = traced_cli(["construct", "--n", str(n), "--h", str(h)])
            assert (code, out) == (3, ""), (n, h)
            assert peak < 64 * 2 ** 20, (n, h)

    def test_verify_refused(self, basis_file):
        # 13 layers over [0, 2**32 - 1] (~8.6 GB modelled), then 1e9 layers
        # over [0, 8] (~44 GB); {0, 1, 3, 4} keeps the first cheap without a guard
        for h, n in ((12, 2 ** 32 - 1), (10 ** 9, 8)):
            code, out, peak = traced_cli(["verify", "--h", str(h), "--n", str(n),
                                          "--set", basis_file])
            assert (code, out) == (3, ""), (h, n)
            assert peak < 64 * 2 ** 20, (h, n)

    def test_complement_refused_before_the_base_mask(self, tmp_path):
        q = 1 << 28
        path = tmp_path / "wide.txt"
        path.write_text(f"q = {q}\nmembers = {q - 1}\n")
        code, out, peak = traced_cli(["complement", "--k", "1", "--set", str(path)])
        assert (code, out) == (3, "")
        assert peak < 16 * 2 ** 20

    def test_family_combos_refused_before_the_first(self, monkeypatch):
        # (1e4, 8, 7, 7) builds families of sizes (6, 6, 6, 6, 6, 2, 1): 15,552
        # combos, whose model is the largest the build checks
        argv = ["construct", "--n", "10000", "--h", "8", "--k", "7", "--a", "7"]
        plan = plan_params(10 ** 4, 8, 7, 7)
        sizes = construct.build_theorem1(plan).complement.family_sizes
        need = construct._combos_bytes(plan.q, sizes)
        assert need > gains_bytes(plan.q)
        calls = []
        combos = construct._family_combos
        monkeypatch.setattr(construct, "_family_combos",
                            lambda families: calls.append(families) or combos(families))
        monkeypatch.setattr(arith, "MAX_BYTES", need - 1)
        assert run_cli(argv) == (3, "")
        assert calls == []
        monkeypatch.setattr(arith, "MAX_BYTES", need)
        assert run_cli(argv)[0] == 0
        assert len(calls) == 1

    def test_search_root_layers_refused(self, monkeypatch):
        # a budget one byte short of h = 1e5 root layers shows the check
        # without the 8 GB tuple of h = 1e9; then the real budget refuses h = 1e9
        monkeypatch.setattr(arith, "MAX_BYTES", 8 * 10 ** 5 - 1)
        code, out, peak = traced_cli(["search", "--h", str(10 ** 5), "--k", "1"])
        assert (code, out) == (3, "")
        assert peak < 64 * 2 ** 20
        monkeypatch.undo()
        code, out, peak = traced_cli(["search", "--h", str(10 ** 9), "--k", "1"])
        assert (code, out) == (3, "")
        assert peak < 64 * 2 ** 20


class TestBounds:
    def test_text(self):
        code, out = run_cli(["bounds", "--h", "2", "--k", "4"])
        assert code == 0
        doc = parse_document(out)
        assert doc["bound.rohrbach_lower.value"] == "4"
        assert doc["bound.rohrbach_upper.value"] == "15"

    def test_csv(self):
        code, out = run_cli(["bounds", "--h", "3", "--n", "1000",
                             "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("name,")
        assert len(lines) == 3

    def test_requires_one_of_k_n(self):
        code, _ = run_cli(["bounds", "--h", "2"])
        assert code == 2

    def test_unprintable_rational_exit_2(self, capsys):
        # (5/2000)**2000 has a 5,205-digit denominator; h = 1e7 would take minutes;
        # at (1369, 1) rohrbach's bounds print but Hofmeister's denominator does not
        limit = f"{sys.get_int_max_str_digits()}-digit limit"
        for argv in (["bounds", "--h", "2000", "--k", "5"],
                     ["bounds", "--h", "1369", "--k", "1"],
                     ["table", "--h", "2000", "--k-max", "5"],
                     ["bounds", "--h", str(10 ** 7), "--k", "5"]):
            code, out = run_cli(argv)
            assert (code, out) == (2, ""), argv
            assert limit in capsys.readouterr().err, argv


class TestSearchAndTable:
    def test_search(self):
        code, out = run_cli(["search", "--h", "2", "--k", "4"])
        assert code == 0
        doc = parse_document(out)
        assert doc["value"] == "8"
        assert doc["elements"] == "0 1 3 4"

    def test_search_deeper_than_recursion_limit(self):
        code, out = run_cli(["search", "--h", "1", "--k", "1000"])
        assert code == 0
        doc = parse_document(out)
        assert doc["value"] == "999"
        assert doc["optimal"] == "true"

    def test_search_h1_budget_runs_out_at_once(self):
        # at h = 1 the reach bound is closed-form; a loop of up to k steps per
        # node kept this running for minutes
        start = time.perf_counter()
        code, out = run_cli(["search", "--h", "1", "--k", "1000000000", "--budget", "1000"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert parse_document(out)["optimal"] == "false"

    def test_budget_below_one_exit_2(self, capsys):
        # a search that may explore no node proves nothing: invalid, not exit 1
        for argv in (["search", "--h", "2", "--k", "3", "--budget", "-1"],
                     ["search", "--h", "2", "--k", "3", "--budget", "0"],
                     ["table", "--h", "2", "--k-max", "3", "--budget", "0"]):
            assert run_cli(argv) == (2, ""), argv
            assert "node_budget >= 1" in capsys.readouterr().err, argv

    def test_search_budget_below_one_exit_2_on_both_paths(self, capsys):
        # the oracle path does not search, but its manifest records the budget
        for path in ([], ["--oracle"]):
            for budget in ("-1", "0"):
                argv = ["search", "--h", "2", "--k", "3", "--budget", budget, *path]
                assert run_cli(argv) == (2, ""), argv
                assert "error: need node_budget >= 1" in capsys.readouterr().err, argv

    def test_search_oracle(self):
        code, out = run_cli(["search", "--h", "2", "--k", "3", "--oracle"])
        assert code == 0
        assert parse_document(out)["value"] == "4"

    def test_table_two_line(self):
        code, out = run_cli(["table", "--h", "2", "--k-min", "3", "--k-max", "3"])
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_table_rows_inside_their_bounds(self):
        # the search's k counts 0 and Rohrbach's does not, so every printed
        # row must bracket the proven value: lower <= value <= upper
        for h in range(2, 5):
            code, out = run_cli(["table", "--h", str(h), "--k-max", "6"])
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert [int(row[1]) for row in rows] == list(range(1, 7))
            for _, k, value, lower, upper, _ in rows:
                assert Fraction(lower) <= int(value) <= int(upper), (h, k)

    def test_table_empty_range(self):
        code, out = run_cli(["table", "--h", "2", "--k-min", "5", "--k-max", "4"])
        assert code == 0
        assert out.splitlines() == ["h,k,value,rohrbach_lower,rohrbach_upper,witness"]


class TestEmitTable:
    def test_rejects_mixed_rows(self):
        with pytest.raises(ValueError):
            emit_table([{"a": 1}, {"b": 2}])

    def test_single_row(self):
        out = emit_table([{"h": 2, "k": 3, "value": 4}])
        assert out == "h,k,value\n2,3,4\n"


class TestDeterminism:
    MATRIX = [
        ["verify", "--h", "2", "--n", "8"],
        ["search", "--h", "2", "--k", "4"],
        ["bounds", "--h", "2", "--k", "4"],
        ["sidon", "--p", "5", "--k", "2"],
        ["table", "--h", "2", "--k-max", "4"],
    ]

    def test_reruns_byte_identical(self, basis_file):
        for argv in self.MATRIX:
            full = argv + (["--set", basis_file] if argv[0] == "verify" else [])
            _, first = run_cli(list(full))
            _, second = run_cli(list(full))
            assert first == second

    def test_thread_flag_does_not_change_payload(self, basis_file):
        for argv in self.MATRIX:
            full = argv + (["--set", basis_file] if argv[0] == "verify" else [])
            _, t1 = run_cli(full + ["--threads", "1"])
            _, t8 = run_cli(full + ["--threads", "8"])
            assert t1 == t8


class TestPinnedPayloads:
    """SHA-256 of each acceptance-criterion-8 payload, so that a change to any
    payload byte fails; the temporary directory reads "<DIR>"."""

    PINNED = [
        (["verify", "--h", "2", "--n", "8", "--set", "<DIR>/basis.txt"],
         "e93e640f8b68d20bb2811c791bc3b964be04b919e145e1c243e97cdcf67dde97"),
        (["construct", "--n", "5000", "--h", "3", "--k", "1", "--a", "2"],
         "cbca0a28ee61790ecc9a6342b99b63aa956f3715a9547d11e1ec3befe109ce8a"),
        (["sidon", "--p", "7", "--k", "2"],
         "4d5a521b0eeaf0b8fc61cbe9d30836ce72db3f713678c4fc14e52fd2aea2e683"),
        (["complement", "--k", "2", "--set", "<DIR>/rset.txt"],
         "d85c0917700475550abe5b5be7f50df87f554df573e805707f607f61db542ddb"),
        (["bounds", "--h", "2", "--k", "4"],
         "7cd3035c745228abea614a3946047703e3f5c8a6bdfd489d65aa82ddfdb91c6c"),
        (["bounds", "--h", "3", "--n", "1000", "--format", "csv"],
         "d083ff6ce7e7c9b1084f584918101eec77e66dd8af684b649a36948d40fabec0"),
        (["search", "--h", "2", "--k", "5"],
         "53489baa1dfd35b112b4a03a48116716ba900b21a5390b45dcff96d3532b0400"),
        (["table", "--h", "2", "--k-max", "4"],
         "d7794a6a36c26afc3c85ec3b9dee92f4d13f63340aadb96219d864db54dffe55"),
    ]

    def test_payload_hashes(self, tmp_path):
        (tmp_path / "basis.txt").write_text("h = 2\nn = 8\nelements = 0 1 3 4\n")
        (tmp_path / "rset.txt").write_text(
            "q = 64\nmembers = " + " ".join(str(x) for x in range(0, 64, 3)) + "\n")
        for argv, digest in self.PINNED:
            argv = [a.replace("<DIR>", str(tmp_path)) for a in argv]
            code, out = run_cli(argv)
            assert code == 0, argv
            out = out.replace(str(tmp_path), "<DIR>")
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


class TestExports:
    def test_star_import_resolves_every_name_once(self):
        namespace = {}
        exec("from hbasis import *", namespace)  # AttributeError on a stale name
        assert len(set(hbasis.__all__)) == len(hbasis.__all__)
        assert all(name in namespace for name in hbasis.__all__)


class TestBasisFile:
    def test_roundtrip(self):
        text = format_document([("h", 3), ("n", 10), ("elements", (0, 1, 4))])
        assert read_basis_document(text) == (3, 10, (0, 1, 4))

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\nq = 4\nmembers = 0 2\n"
        assert read_residue_document(text) == (4, (0, 2))

    def test_float_formatting(self):
        assert format_document([("x", 0.8414056604369478)]) == "x = 0.841405660437\n"

    def test_missing_elements_rejected(self):
        with pytest.raises(ValueError):
            read_basis_document("h = 2\n")
