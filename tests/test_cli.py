import hashlib
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from itertools import islice

import pytest

from quadnorm import cli, cyclicext, formclass, harness, intmath, normtest, quadfield
from quadnorm.cli import main
from quadnorm.harness import scan_one
from quadnorm.intmath import is_prime
from quadnorm.transfer import FiniteGroup

from test_harness import GOLDEN
from test_transfer import symmetric


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the classgroup text at five fields, both flavours, and the SHA-256 of
# f"{exit code}\n{stdout}\n{stderr}" of normindex at split, inert and
# ramified q, detect, and verify thm14
CLASSGROUP_SHA256 = GOLDEN["classgroup"]["stdout_sha256"]
CONDUCTOR_SHA256 = GOLDEN["conductor_layer"]["sha256"]


class TestBasicCommands:
    def test_field(self, capsys):
        code, out, _ = run(capsys, "field", "--d", "79")
        assert code == 0 and "disc=316" in out

    def test_unit(self, capsys):
        code, out, _ = run(capsys, "unit", "--d", "79")
        assert code == 0 and "(80+9*sqrt(79))" in out and "norm=1" in out

    def test_classgroup_both_flavors(self, capsys):
        code, out, _ = run(capsys, "classgroup", "--d", "79")
        assert code == 0 and "h=3" in out
        code, out, _ = run(capsys, "classgroup", "--d", "79", "--narrow")
        assert code == 0 and "h=6" in out

    @pytest.mark.parametrize("args", CLASSGROUP_SHA256)
    def test_classgroup_output_is_pinned(self, capsys, args):
        # the order, divisors and generators, to fields near 10^8
        code, out, err = run(capsys, "classgroup", "--d", *args.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == CLASSGROUP_SHA256[args]

    @pytest.mark.parametrize("argv", CONDUCTOR_SHA256)
    def test_conductor_layer_output_is_pinned(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        digest = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()
        assert digest == CONDUCTOR_SHA256[argv]

    def test_ext(self, capsys):
        code, out, _ = run(capsys, "ext", "--q", "7", "--p", "3")
        assert code == 0 and "-1 -2 1 1" in out and "power_basis_index=1" in out

    def test_normindex(self, capsys):
        code, out, _ = run(capsys, "normindex", "--d", "79", "--q", "7", "--p", "3")
        assert code == 0 and "index=3" in out

    def test_detect_no_witness(self, capsys):
        code, out, _ = run(capsys, "detect", "--d", "79", "--p", "3", "--qmax", "50")
        assert code == 0 and "witness=none" in out

    @pytest.mark.parametrize("p, qmax, code_want, text", [
        ("9", "1000", 2, "error: 9 is not an odd prime"),
        ("2", "100", 2, "error: 2 is not an odd prime"),
        ("9", "50", 2, "error: 9 is not an odd prime"),
        ("9", "100", 2, "error: 9 is not an odd prime"),
        ("4", "10", 2, "error: 4 is not an odd prime"),
        ("1", "50", 2, "error: 1 is not an odd prime"),
        ("0", "50", 2, "error: 0 is not an odd prime"),
        ("-3", "50", 2, "error: -3 is not an odd prime"),
        ("3", "200", 0, "d=79 p=3 qmax=200 witness=none checked=19,37,109,163"),
    ])
    def test_detect_outcomes(self, capsys, p, qmax, code_want, text):
        # a bad p fails before any conductor, also when none would be scanned
        code, out, err = run(capsys, "detect", "--d", "79", "--p", p, "--qmax", qmax)
        assert code == code_want
        assert (out if code == 0 else err).strip() == text

    def test_scan_with_composite_p_is_2(self, capsys):
        code, _, err = run(capsys, "scan", "--dmax", "50", "--p", "9", "--qmax", "1000")
        assert code == 2 and "9 is not an odd prime" in err
        # refused before any field, though no conductor below 50 is 1 mod 81
        code, out, err = run(capsys, "scan", "--dmax", "10", "--p", "9", "--qmax", "50")
        assert (code, out) == (2, "") and "9 is not an odd prime" in err

    @pytest.mark.parametrize("p", ["9", "15"])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_scan_refuses_composite_p_before_any_field(
        self, capsys, monkeypatch, tmp_path, p, from_file
    ):
        # the config check refuses it: no field is computed, no pool starts
        def unreachable(*args, **kwargs):
            raise AssertionError("scan started")

        monkeypatch.setattr(harness, "scan_one", unreachable)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", unreachable)
        if from_file:
            cfg = tmp_path / "scan.conf"
            cfg.write_text(f"dmax=6\nqmax=0\np={p}\nworkers=2\n")
            argv = ("--config", str(cfg), "scan")
        else:
            argv = ("scan", "--dmax", "6", "--qmax", "0", "--p", p, "--workers", "2")
        assert run(capsys, *argv) == (2, "", f"error: {p} is not an odd prime\n")

    @pytest.mark.parametrize("from_file", [False, True])
    def test_scan_refuses_a_repeated_p(self, capsys, monkeypatch, tmp_path, from_file):
        # a repeated p wrote each per_p entry, and each CSV column group, twice
        monkeypatch.delenv("QUADNORM_CONFIG", raising=False)
        if from_file:
            cfg = tmp_path / "scan.conf"
            cfg.write_text("dmax=6\nqmax=0\np=3,3\n")
            argv = ("--config", str(cfg), "scan")
        else:
            argv = ("scan", "--dmax", "6", "--p", "3", "--p", "3", "--qmax", "0")
        assert run(capsys, *argv) == (2, "", "error: p is repeated in 3,3\n")


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run(capsys, "field")[0] == 2  # missing --d
        assert run(capsys, "nonsense")[0] == 2

    def test_domain_error_is_2(self, capsys):
        code, _, err = run(capsys, "field", "--d", "12")
        assert code == 2 and "squarefree" in err

    def test_unknown_config_key_is_2(self, capsys, tmp_path):
        cfg = tmp_path / "scan.conf"
        cfg.write_text("dmax=10\nsearch_bound=2\n")
        code, out, err = run(capsys, "--config", str(cfg), "scan")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "search_bound" in err

    @pytest.mark.parametrize("value", ["ture", "2", ""])
    def test_oracle_check_typo_is_2(self, capsys, tmp_path, value):
        cfg = tmp_path / "scan.conf"
        cfg.write_text(f"dmax=10\noracle_check={value}\n")
        code, out, err = run(capsys, "--config", str(cfg), "scan")
        assert (code, out) == (2, "")
        assert err == f"error: bad value for oracle_check: {value!r}\n"

    @pytest.mark.parametrize("value", ["1", "true", "YES", "0", "False", "no"])
    def test_oracle_check_values_in_any_case(self, capsys, tmp_path, value):
        cfg = tmp_path / "scan.conf"
        cfg.write_text(f"dmax=10\noracle_check={value}\n")
        code, out, _ = run(capsys, "--config", str(cfg), "scan")
        assert code == 0
        assert ('"h_oracle"' in out) == (value.lower() in ("1", "true", "yes"))

    @pytest.mark.parametrize("edit, message", [
        (lambda r: {}, "missing key 'eps'"),
        (lambda r: [1, 2], "record is not a JSON object"),
        (lambda r: {**r, "eps": 5}, "key 'eps' is not of type dict"),
        (lambda r: {**r, "h": "3"}, "key 'h' is not of type int"),
        (lambda r: {**r, "h": True}, "key 'h' is not of type int"),
        (lambda r: {**r, "per_p": None}, "key 'per_p' is not of type list"),
        (lambda r: {**r, "h_oracle": 1.5}, "key 'h_oracle' is not of type int"),
        (lambda r: {**r, "eps": {"a": 3, "b": 1, "norm": -1}}, "missing key 'eps.den'"),
    ], ids=["empty", "list", "eps-int", "h-str", "h-bool", "per_p-null", "h_oracle-float",
            "no-eps.den"])
    def test_malformed_stats_record_is_2(self, capsys, tmp_path, edit, message):
        good = scan_one(10, (3,), 0, False).to_json_line()
        bad = json.dumps(edit(json.loads(good)))
        path = tmp_path / "scan.jsonl"
        path.write_text(f"{good}\n\n{bad}\n")
        code, out, err = run(capsys, "stats", "--in", str(path), "--p", "3")
        assert (code, out) == (2, "")
        assert err == f"error: {path} line 3: {message}\n"

    def test_stats_line_that_is_not_json_is_2(self, capsys, tmp_path):
        path = tmp_path / "scan.jsonl"
        path.write_text("{\"d\": 2,\n")
        code, out, err = run(capsys, "stats", "--in", str(path), "--p", "3")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} line 1: ") and "Traceback" not in err

    @pytest.mark.parametrize("p", ["0", "1", "-3"])
    def test_stats_p_below_2_is_2_before_reading(self, capsys, tmp_path, p):
        missing = tmp_path / "absent.jsonl"
        code, out, err = run(capsys, "stats", "--in", str(missing), "--p", "3", "--p", p)
        assert (code, out, err) == (2, "", "error: --p must be at least 2\n")

    def test_reduction_past_step_cap_is_2(self, capsys, monkeypatch):
        # the principal triple (1, 0, -94) is two rho steps from reduced
        monkeypatch.setattr(formclass, "_MAX_REDUCE_STEPS", 1)
        code, out, err = run(capsys, "classgroup", "--d", "94")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("field",),
            ("unit",),
            ("classgroup",),
            ("normindex", "--q", "7", "--p", "3"),
            ("detect", "--p", "3", "--qmax", "50"),
            ("verify", "thm14", "--l", "3", "--p", "3", "--qmax", "50"),
        ],
    )
    def test_radicand_above_ceiling_is_2(self, capsys, monkeypatch, argv):
        # trial division costs O(sqrt(d)): it must not start above the ceiling
        def no_factoring(d):
            raise AssertionError("squarefreeness tested above the radicand ceiling")

        monkeypatch.setattr(quadfield, "is_squarefree", no_factoring)
        d = quadfield.MAX_RADICAND + 1
        code, out, err = run(capsys, *argv, "--d", str(d))
        assert (code, out) == (2, "")
        assert err == f"error: radicand {d} is above the radicand ceiling 100000000000000\n"

    def test_radicand_ceiling_is_inclusive(self, capsys):
        # 10^14 = 2^14 * 5^14 reaches the squarefree test, which refuses it
        code, out, err = run(capsys, "field", "--d", str(quadfield.MAX_RADICAND))
        assert (code, out) == (2, "") and "not squarefree" in err

    @pytest.mark.parametrize("from_file", [False, True])
    def test_scan_dmax_above_radicand_ceiling_is_2(
        self, capsys, monkeypatch, tmp_path, from_file
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("scan started")

        monkeypatch.delenv("QUADNORM_CONFIG", raising=False)
        monkeypatch.setattr(harness, "scan_one", unreachable)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", unreachable)
        dmax = quadfield.MAX_RADICAND + 1
        if from_file:
            cfg = tmp_path / "scan.conf"
            cfg.write_text(f"dmax={dmax}\n")
            argv = ("--config", str(cfg), "scan")
        else:
            argv = ("scan", "--dmax", str(dmax))
        expected = "error: dmax is above the radicand ceiling 100000000000000\n"
        assert run(capsys, *argv) == (2, "", expected)

    def test_ext_above_table_ceiling_is_2(self, capsys, monkeypatch):
        def no_table(self):
            raise AssertionError("period table built above the ceiling")

        monkeypatch.setattr(cyclicext.CyclicExtensionDescriptor, "_build_struct", no_table)
        q = cyclicext.MAX_TABLE_CONDUCTOR + 1
        while not (q % 3 == 1 and is_prime(q)):
            q += 1
        code, out, err = run(capsys, "ext", "--q", str(q), "--p", "3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "ceiling" in err
        # the ceiling is the table's: a descriptor without a table still works
        code, out, _ = run(capsys, "normindex", "--d", "10", "--q", str(q), "--p", "3")
        assert code == 0 and "index=" in out

    def test_ext_above_degree_ceiling_is_2(self, capsys, monkeypatch):
        def no_table(self):
            raise AssertionError("period table built above the ceiling")

        monkeypatch.setattr(cyclicext.CyclicExtensionDescriptor, "_build_struct", no_table)
        assert cyclicext.MAX_TABLE_DEGREE >= 49  # the largest degree of the tests
        p = cyclicext.MAX_TABLE_DEGREE + 1
        while not is_prime(p):
            p += 1
        q = p + 1
        while not (q % p == 1 and is_prime(q)):
            q += p
        code, out, err = run(capsys, "ext", "--q", str(q), "--p", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert f"degree {p} is above the period-table ceiling" in err
        # the ceiling is the table's: a descriptor without a table still works
        code, out, _ = run(capsys, "normindex", "--d", "10", "--q", str(q), "--p", str(p))
        assert code == 0 and "index=" in out

    def test_conductor_above_ceiling_is_2(self, capsys, monkeypatch):
        def no_factoring(q):
            raise AssertionError("primitive root sought above the conductor ceiling")

        monkeypatch.setattr(cyclicext, "_primitive_root", no_factoring)
        q = cyclicext.MAX_CONDUCTOR + 1
        while not (q % 3 == 1 and is_prime(q)):
            q += 1
        for argv in (
            ("normindex", "--d", "10", "--q", str(q), "--p", "3"),
            ("ext", "--q", str(q), "--p", "3"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1
            assert f"conductor {q} is above the conductor ceiling" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("detect", "--d", "79", "--p", "3"),
            ("verify", "thm14", "--d", "10", "--l", "3", "--p", "3"),
            ("scan", "--dmax", "10"),
        ],
    )
    def test_qmax_above_ceiling_is_2(self, capsys, monkeypatch, argv):
        def no_sieve(n):
            raise AssertionError("sieved above the qmax ceiling")

        monkeypatch.delenv("QUADNORM_CONFIG", raising=False)
        monkeypatch.setattr(intmath, "primes_up_to", no_sieve)
        monkeypatch.setattr(normtest, "primes_up_to", no_sieve)
        monkeypatch.setattr(cyclicext, "_primitive_root", no_sieve)
        code, out, err = run(capsys, *argv, "--qmax", str(normtest.MAX_QMAX + 1))
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "qmax" in err and str(normtest.MAX_QMAX) in err

    @pytest.mark.parametrize(
        "argv", [("ext", "--q", "7", "--p", "3"), ("normindex", "--d", "79", "--q", "7", "--p", "3")]
    )
    def test_huge_exponent_is_2_with_a_short_line(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--n", "1000000")
        assert code == 2 and out == ""
        assert err == "error: 7 is not 1 mod 3^1000000\n" and len(err) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ("ext", "--q", "7", "--p", "3"),
            ("normindex", "--d", "79", "--q", "7", "--p", "3"),
            ("verify", "thm14", "--d", "10", "--l", "3", "--p", "3", "--qmax", "200"),
        ],
    )
    def test_exponent_1e9_is_2(self, capsys, argv):
        # 3^(10^9) has 477 million digits: no command may compute it
        code, out, err = run(capsys, *argv, "--n", "1000000000")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_verify_ex79_records_discrepancy(self, capsys):
        code, out, _ = run(capsys, "verify", "ex79")
        assert code == 1
        assert "FAIL norm_index_q37" in out

    def test_verify_appendixa_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "appendixa")
        assert code == 0 and "overall: PASS" in out

    def test_verify_thm14_agreement(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm14", "--d", "10", "--l", "3", "--p", "3",
            "--qmax", "200",
        )
        assert code == 0 and "agreement=True" in out
        lines = out.splitlines()
        assert lines[0] == "d=10 l=3 class_order=2 p_part=1" and len(lines) == 23
        assert [l for l in lines if " proper " in l] == [
            f"q={q} proper index=1" for q in (19, 109, 127, 181)
        ]

    def test_verify_thm14_disagreement(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm14", "--d", "79", "--l", "3", "--p", "3",
            "--qmax", "50",
        )
        assert code == 1 and "agreement=False" in out

    def test_verify_thm14_at_a_large_split_prime_returns(self):
        # a split class prime near 10^12 must be cheap: the form above l
        # takes b from two square roots mod l; the timeout fails, not hangs
        src = os.path.dirname(os.path.dirname(cli.__file__))
        argv = ["verify", "thm14", "--d", "10", "--l", "1000000000039", "--p", "3",
                "--qmax", "200"]
        out = subprocess.run(
            [sys.executable, "-m", "quadnorm.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == "d=10 l=1000000000039 class_order=1 p_part=1"

    def test_verify_thm14_missing_args(self, capsys):
        assert run(capsys, "verify", "thm14", "--d", "79")[0] == 2

    @pytest.mark.parametrize("p", ["1", "4"])
    def test_verify_thm14_refuses_a_bad_p_before_the_class_group(self, capsys, monkeypatch, p):
        # p = 1 made the p-part of the class order loop for ever
        def no_class_group(*args):
            raise AssertionError("class group computed before p was checked")

        monkeypatch.setattr(normtest, "class_group", no_class_group)
        code, out, err = run(
            capsys, "verify", "thm14", "--d", "10", "--l", "3", "--p", p, "--qmax", "50"
        )
        assert (code, out, err) == (2, "", f"error: {p} is not an odd prime\n")

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_verify_thm14_refuses_an_exponent_below_1(self, capsys, n):
        # n = 0 reported no proper conductor, n < 0 took p to a negative power
        code, out, err = run(
            capsys, "verify", "thm14", "--d", "10", "--l", "3", "--p", "3", "--n", n,
            "--qmax", "200",
        )
        assert (code, out, err) == (2, "", "error: exponent must be >= 1\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("detect", "--d", "79", "--p", "3"),
            ("verify", "thm14", "--d", "10", "--l", "3", "--p", "3"),
        ],
    )
    def test_negative_qmax_is_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--qmax", "-5")
        assert (code, out, err) == (2, "", "error: qmax -5 is negative\n")

    def test_scan_states_a_negative_qmax_as_detect_does(self, capsys, monkeypatch):
        monkeypatch.delenv("QUADNORM_CONFIG", raising=False)
        scan = run(capsys, "scan", "--dmax", "10", "--qmax", "-1")
        detect = run(capsys, "detect", "--d", "79", "--p", "3", "--qmax", "-1")
        assert scan == detect == (2, "", "error: qmax -1 is negative\n")


class PrimitiveRootSought(Exception):
    pass


class TestLazyDescriptors:
    def test_only_ext_seeks_a_primitive_root(self, capsys, monkeypatch):
        def no_root(q):
            raise PrimitiveRootSought(q)

        monkeypatch.setattr(cyclicext, "_primitive_root", no_root)
        for argv in (
            ("normindex", "--d", "79", "--q", "7", "--p", "3"),
            ("detect", "--d", "79", "--p", "3", "--qmax", "200"),
            ("verify", "thm14", "--d", "10", "--l", "3", "--p", "3", "--qmax", "200"),
        ):
            assert run(capsys, *argv)[0] == 0, argv
        with pytest.raises(PrimitiveRootSought):
            run(capsys, "ext", "--q", "7", "--p", "3")

    def test_normindex_at_a_safe_prime_near_the_ceiling(self, capsys):
        # q = 2p + 1: a discrete-log table of the degree-p subgroup would
        # have 5 * 10^13 entries
        code, out, _ = run(
            capsys, "normindex", "--d", "10", "--q", "99999998000003", "--p", "49999999000001"
        )
        assert code == 0 and "index=" in out


class TestScanStreaming:
    @pytest.mark.parametrize("to_file", [True, False])
    def test_each_record_is_written_as_it_arrives(self, capsys, monkeypatch, tmp_path, to_file):
        out_path, csv_path = tmp_path / "scan.jsonl", tmp_path / "scan.csv"
        stdout = []

        def lines_written():
            if to_file:
                return out_path.read_text().count("\n")
            stdout.append(capsys.readouterr().out)
            return "".join(stdout).count("\n")

        expected = []

        def streamed_scan(cfg):
            for k, record in enumerate(harness.scan(cfg)):
                assert lines_written() == k
                assert csv_path.read_text().count("\n") == k + 1  # and the header
                expected.append(record.to_json_line() + "\n")
                yield record

        monkeypatch.setattr(cli, "scan", streamed_scan)
        argv = ["scan", "--dmax", "30", "--csv", str(csv_path)]
        if to_file:
            argv += ["--out", str(out_path)]
        assert main(argv) == 0
        stdout.append(capsys.readouterr().out)
        written = out_path.read_text() if to_file else "".join(stdout)
        assert len(expected) == 18 and written == "".join(expected)

    def test_a_failing_scan_leaves_the_records_before_it(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "scan.jsonl"

        def failing_scan(cfg):
            yield from islice(harness.scan(cfg), 3)
            raise ArithmeticError("failed at the fourth record")

        monkeypatch.setattr(cli, "scan", failing_scan)
        code, _, err = run(capsys, "scan", "--dmax", "30", "--out", str(out_path))
        assert code == 2 and "fourth record" in err
        assert [json.loads(line)["d"] for line in out_path.read_text().splitlines()] == [2, 3, 5]


class TestScanSettings:
    """Each key of ``harness.SETTINGS`` is a config key and the dest of its
    ``scan`` flag; a flag left out is None, so the file value stands."""

    # key: (file text, its value, flags, their value, a file text the flags beat)
    CASES = {
        "dmax": ("7", 7, ["--dmax", "9"], 9, "7"),
        "qmax": ("50", 50, ["--qmax", "60"], 60, "50"),
        "p": ("5,3", (5, 3), ["--p", "5", "--p", "7"], (5, 7), "5,3"),
        "workers": ("2", 2, ["--workers", "3"], 3, "2"),
        "out": ("a.jsonl", "a.jsonl", ["--out", "b.jsonl"], "b.jsonl", "a.jsonl"),
        "oracle_check": ("yes", True, ["--oracle-check"], True, "no"),
    }

    @staticmethod
    def _config(monkeypatch, argv):
        """The RunConfig that ``scan`` runs for argv; no field is computed."""
        seen = []
        monkeypatch.setattr(cli, "scan", lambda cfg: seen.append(cfg) or [])
        assert main(list(argv)) == 0
        (cfg,) = seen
        return cfg

    def test_dests_are_the_settings(self):
        args = vars(cli.build_parser().parse_args(["scan"]))
        assert set(args) - {"command", "config", "csv"} == set(harness.SETTINGS)
        assert {key: args[key] for key in harness.SETTINGS} == dict.fromkeys(harness.SETTINGS)

    @pytest.mark.parametrize("key", list(CASES))
    def test_each_key_from_file_environment_and_flag(self, monkeypatch, tmp_path, key):
        text, value, flags, flag_value, beaten = self.CASES[key]
        name = harness.SETTINGS[key][0]
        monkeypatch.chdir(tmp_path)  # where the out files land
        monkeypatch.delenv("QUADNORM_CONFIG", raising=False)
        cfg = tmp_path / "scan.conf"
        cfg.write_text(f"{key}={text}\n")
        expected = replace(harness.RunConfig(), **{name: value})
        assert expected != harness.RunConfig()
        assert self._config(monkeypatch, ["--config", str(cfg), "scan"]) == expected
        monkeypatch.setenv("QUADNORM_CONFIG", str(cfg))
        assert self._config(monkeypatch, ["scan"]) == expected
        monkeypatch.delenv("QUADNORM_CONFIG")
        expected = replace(harness.RunConfig(), **{name: flag_value})
        assert self._config(monkeypatch, ["scan", *flags]) == expected
        cfg.write_text(f"{key}={beaten}\n")
        assert self._config(monkeypatch, ["--config", str(cfg), "scan", *flags]) == expected


class TestScanStats:
    def test_scan_stdout(self, capsys):
        code, out, _ = run(capsys, "scan", "--dmax", "15")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["d"] for r in recs] == [2, 3, 5, 6, 7, 10, 11, 13, 14, 15]

    def test_scan_files_and_stats(self, capsys, tmp_path):
        out_path = tmp_path / "scan.jsonl"
        csv_path = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "scan", "--dmax", "120", "--p", "3", "--p", "5",
            "--out", str(out_path), "--csv", str(csv_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == len([1 for line in lines])
        assert csv_path.read_text().startswith("d,delta,h,h_plus")
        code, out, _ = run(capsys, "stats", "--in", str(out_path), "--p", "3")
        assert code == 0 and "reference 0.125740" in out

    def test_scan_with_config_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "scan.conf"
        cfg.write_text("dmax=10\n")
        monkeypatch.setenv("QUADNORM_CONFIG", str(cfg))
        code, out, _ = run(capsys, "scan")
        assert code == 0
        assert out.strip().splitlines()[-1].startswith('{"d":10')

    def test_scan_config_flag_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "scan.conf"
        cfg.write_text("dmax=10\nqmax=5\n")
        code, out, _ = run(capsys, "--config", str(cfg), "scan", "--dmax", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith('{"d":6')  # flag beats file value


@contextmanager
def no_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestLargeUnits:
    """Units with more digits than Python's default int-to-str limit."""

    def test_unit_prints_and_the_limit_is_restored(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "unit", "--d", "1000000007")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        m = re.fullmatch(r"d=(\d+) eps=\((\d+)([+-]\d+)\*sqrt\(\d+\)\)/(\d+) norm=-?1\n", out)
        assert len(m.group(2)) > 4300
        with no_int_digit_limit():
            d, a, b, den = (int(m.group(i)) for i in range(1, 5))
        assert a * a - d * b * b in (den * den, -den * den)

    def test_stats_reads_back_a_large_unit(self, capsys, tmp_path):
        with no_int_digit_limit():
            line = scan_one(1000000007, (3,), 0, False).to_json_line()
        assert len(line) > 8600
        path = tmp_path / "scan.jsonl"
        path.write_text(line + "\n")
        code, out, err = run(capsys, "stats", "--in", str(path), "--p", "3")
        assert (code, err) == (0, "")
        assert out.startswith("p=3: 0/1 = 0.000000")


# ``transfer`` on the group's table and the subgroup of the given labels:
# S4 over its Klein four subgroup (normal, but not containing A4), S3 over
# A3, and C2 x C4 over <(0, 2)>, where the diagram runs; the SHA-256 of
# f"{exit code}\n{stdout}\n{stderr}" of each is in the golden file
TRANSFER_CASES = {
    "S4/V4": (lambda: symmetric(4), ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))),
    "S3/A3": (lambda: symmetric(3), ((0, 1, 2), (1, 2, 0), (2, 0, 1))),
    "C2xC4/C2": (lambda: FiniteGroup.cyclic_product([2, 4]), ((0, 0), (0, 2))),
}


class TestTransferCommand:
    @pytest.mark.parametrize("case", list(TRANSFER_CASES))
    def test_output_is_pinned(self, capsys, tmp_path, case):
        build, labels = TRANSFER_CASES[case]
        want = GOLDEN["transfer"]["sha256"][case]
        G = build()
        table = tmp_path / "g.table"
        table.write_text("\n".join(" ".join(str(x) for x in row) for row in G.table) + "\n")
        H = ",".join(str(G.element_labels.index(lab)) for lab in labels)
        code, out, err = run(capsys, "transfer", "--table-file", str(table), "--subgroup", H)
        assert hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest() == want

    def test_c4_discrepancy_exit_code(self, capsys, tmp_path):
        C4 = FiniteGroup.cyclic_product([4])
        table = tmp_path / "c4.table"
        table.write_text(
            "\n".join(" ".join(str(x) for x in row) for row in C4.table) + "\n"
        )
        code, out, _ = run(
            capsys, "transfer", "--table-file", str(table), "--subgroup", "0,2"
        )
        assert code == 1
        assert out == (
            "|G|=4 |H|=2 index=2\n"
            "well_defined=True hypothesis_holds=True vanishes=False\n"
            "Ver(0) = 0\n"
            "Ver(1) = 2\n"
            "diagram_commutes=True\n"
            "discrepancy: hypothesis holds but the transfer does not vanish\n"
        )

    def test_s3_output_is_pinned(self, capsys, tmp_path):
        S3 = symmetric(3)
        table = tmp_path / "s3.table"
        table.write_text(
            "\n".join(" ".join(str(x) for x in row) for row in S3.table) + "\n"
        )
        A3 = ",".join(str(S3.element_labels.index(c)) for c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        assert A3 == "0,3,4"
        code, out, err = run(capsys, "transfer", "--table-file", str(table), "--subgroup", A3)
        assert code == 0 and err == ""
        assert out == (
            "|G|=6 |H|=3 index=2\n"
            "well_defined=True hypothesis_holds=False vanishes=True\n"
            "Ver(0) = 0\n"
            "Ver(1) = 0\n"
        )
        # {id, (1 2)} is a subgroup but not normal
        code, out, err = run(capsys, "transfer", "--table-file", str(table), "--subgroup", "0,1")
        assert code == 2 and out == ""
        assert err == "error: H must be normal\n"

    def test_out_of_range_subgroup_is_a_usage_error(self, capsys, tmp_path):
        C4 = FiniteGroup.cyclic_product([4])
        table = tmp_path / "c4.table"
        table.write_text(
            "\n".join(" ".join(str(x) for x in row) for row in C4.table) + "\n"
        )
        for sub, bad in (("0,9", "9"), ("0,-1", "-1")):
            code, out, err = run(
                capsys, "transfer", "--table-file", str(table), "--subgroup", sub
            )
            assert code == 2 and out == ""
            assert err == f"error: element {bad} outside 0..3\n"

    def test_klein_four_passes(self, capsys, tmp_path):
        V4 = FiniteGroup.cyclic_product([2, 2])
        table = tmp_path / "v4.table"
        table.write_text(
            "\n".join(" ".join(str(x) for x in row) for row in V4.table) + "\n"
        )
        code, out, _ = run(
            capsys, "transfer", "--table-file", str(table), "--subgroup", "0,1"
        )
        assert code == 0 and "vanishes=True" in out
