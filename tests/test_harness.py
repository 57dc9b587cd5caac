import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import quadnorm
from quadnorm import cli, formclass, harness
from quadnorm.normtest import MAX_QMAX
from quadnorm.quadfield import MAX_RADICAND, make_field
from quadnorm.harness import (
    MAX_WORKERS,
    EmptyInputError,
    InvalidConfigError,
    RunConfig,
    ScanRecord,
    abelian_group_types,
    config_from_sources,
    csv_header,
    detection_sweep,
    reproduce_appendix_a,
    scan,
    stats,
    transfer_survey,
    verify_example_79,
)

# the canonical outputs' SHA-256, each with the command that prints it
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


def golden_argv(name: str) -> list[str]:
    return GOLDEN[name]["command"].split()[1:]


class TestVerifyScenarios:
    def test_ex79_passing_claims(self):
        rep = verify_example_79()
        assert rep.claim("class_number_wide").passed
        assert rep.claim("fundamental_unit").passed
        assert rep.claim("descriptor_q37_proper").passed
        assert rep.claim("conductor37_defines_reference_cubic_field").passed
        assert rep.claim("class_order_above_3").passed

    def test_ex79_documents_the_index_gap(self):
        rep = verify_example_79()
        idx = rep.claim("norm_index_q37")
        assert idx.expected == 3 and idx.computed == 1 and not idx.passed
        assert not rep.claim("order_equals_index_q37").passed
        assert not rep.passed

    def test_appendixa_passes(self):
        rep = reproduce_appendix_a()
        assert rep.passed
        assert rep.claim("reference_cubic_disc").computed == 49
        assert rep.claim("norm_index_q7").computed == 3
        assert rep.claim("inert_conductor_condition_fails_for_q7").computed is True

    def test_report_text_has_one_line_per_claim(self):
        rep = reproduce_appendix_a()
        lines = rep.to_text().splitlines()
        assert len(lines) == len(rep.claims) + 2  # title and overall
        assert all(l.startswith(("PASS", "FAIL")) for l in lines[1:-1])
        assert lines[-1] == "overall: PASS"


class TestScan:
    def test_stream_contents(self):
        cfg = RunConfig(dmax=90, qmax=0, p_list=(3,))
        recs = list(scan(cfg))
        by_d = {r.d: r for r in recs}
        assert 12 not in by_d  # not squarefree
        assert by_d[79].h == 3 and by_d[79].delta == 316
        assert by_d[79].per_p[0]["divides_h"] is True
        ds = [r.d for r in recs]
        assert ds == sorted(ds)

    def test_byte_identity(self):
        cfg = RunConfig(dmax=60, qmax=30, p_list=(3, 5))
        a = [r.to_json_line() for r in scan(cfg)]
        b = [r.to_json_line() for r in scan(cfg)]
        assert a == b

    def test_worker_count_does_not_change_output(self):
        serial = [r.to_json_line() for r in scan(RunConfig(dmax=60, workers=1))]
        parallel = [r.to_json_line() for r in scan(RunConfig(dmax=60, workers=2))]
        assert serial == parallel

    def test_serial_scan_memory_is_flat_in_dmax(self, monkeypatch):
        # stubs for the per-d work leave the scan's own allocations, which
        # must not grow with the number of fields
        monkeypatch.setattr(harness, "scan_one", lambda d, p_list, qmax, oracle: d)
        monkeypatch.setattr(harness, "is_squarefree", lambda d: d % 4 != 0)
        peaks = []
        for dmax in (2000, 8000, 80000):
            tracemalloc.start()
            try:
                for _ in scan(RunConfig(dmax=dmax)):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[-1] <= peaks[0] + 1024, peaks

    def test_import_does_not_load_the_process_pool(self):
        # the pool is imported only when a scan starts workers
        src = os.path.dirname(os.path.dirname(quadnorm.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import quadnorm, sys; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_round_trip_and_csv(self):
        cfg = RunConfig(dmax=40, qmax=20, p_list=(3,))
        recs = list(scan(cfg))
        for r in recs:
            assert ScanRecord.from_json_line(r.to_json_line()).to_json_line() == (
                r.to_json_line()
            )
        header = csv_header(cfg.p_list)
        rows = [r.csv_row(cfg.p_list) for r in recs]
        assert all(len(row) == len(header) for row in rows)
        assert header[:2] == ["d", "delta"] and "p3_witness_q" in header

    def test_oracle_check_field(self):
        recs = list(scan(RunConfig(dmax=30, oracle_check=True)))
        assert all(r.h_oracle == r.h for r in recs)
        assert '"h_oracle"' in recs[0].to_json_line()

    def test_timing_not_serialized(self):
        rec = next(iter(scan(RunConfig(dmax=5))))
        assert "timing" not in rec.to_json_line()

    def test_witness_scan_output_is_pinned(self, tmp_path):
        # SHA-256 of the --out file as the residue-test search wrote it,
        # before the search decided its conductors by the inert lemma
        out = tmp_path / "scan.jsonl"
        code = cli.main(golden_argv("scan_oracle_check") + ["--out", str(out)])
        data = out.read_bytes()
        assert code == 0
        assert len(data.splitlines()) == 1214
        assert hashlib.sha256(data).hexdigest() == GOLDEN["scan_oracle_check"]["sha256"]

    def test_canonical_scan_output_is_pinned(self, capsys):
        # in process, with one worker
        assert cli.main(golden_argv("scan")) == 0
        data = capsys.readouterr().out.encode()
        assert len(data.splitlines()) == 3041
        assert hashlib.sha256(data).hexdigest() == GOLDEN["scan"]["sha256"]

    @staticmethod
    def two_worker_scan(name: str) -> subprocess.CompletedProcess:
        src = os.path.dirname(os.path.dirname(quadnorm.__file__))
        return subprocess.run(
            [sys.executable, "-m", "quadnorm.cli", *golden_argv(name), "--workers", "2"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
        )

    def test_two_worker_scan_output_is_pinned(self):
        # the worker pool must write the one-worker bytes, in d order
        out = self.two_worker_scan("scan")
        assert out.returncode == 0 and out.stderr == b""
        assert hashlib.sha256(out.stdout).hexdigest() == GOLDEN["scan"]["sha256"]

    def test_two_worker_witness_scan_output_is_pinned(self):
        out = self.two_worker_scan("scan_oracle_check")
        assert out.returncode == 0 and out.stderr == b""
        assert hashlib.sha256(out.stdout).hexdigest() == GOLDEN["scan_oracle_check"]["sha256"]

    @pytest.mark.parametrize("name", ["verify_ex79", "verify_appendixa"])
    def test_verify_output_is_pinned(self, capsys, name):
        code = cli.main(golden_argv(name))
        out = capsys.readouterr()
        assert code == GOLDEN[name]["exit_code"]
        assert hashlib.sha256(out.out.encode()).hexdigest() == GOLDEN[name]["stdout_sha256"]
        assert hashlib.sha256(out.err.encode()).hexdigest() == GOLDEN[name]["stderr_sha256"]

    def test_record_needs_no_basis_and_no_class_names(self, monkeypatch):
        # h, h+ and the divisors come from the table's power relations
        ds = (5, 79, 130, 399, 4002, 9994)
        want = [harness.scan_one(d, (3, 5), 0, False).to_json_line() for d in ds]

        def refuse(*args):
            raise AssertionError("a scan record reads no basis and no class names")

        monkeypatch.setattr(formclass, "_abelian_basis", refuse)
        monkeypatch.setattr(formclass, "_class_key", refuse)
        assert [harness.scan_one(d, (3, 5), 0, False).to_json_line() for d in ds] == want
        groups = [formclass.class_data(make_field(d))[1] for d in ds]
        monkeypatch.undo()
        for d, group in zip(ds, groups):
            assert group.generators == formclass.class_group(make_field(d), "wide").generators


class TestConfig:
    def test_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.conf"
        cfg_file.write_text("dmax=120\nqmax=40\np=3,5\nworkers=2\n# comment\n")
        cfg = config_from_sources(str(cfg_file), {"qmax": 77})
        assert cfg.dmax == 120 and cfg.qmax == 77
        assert cfg.p_list == (3, 5) and cfg.workers == 2

    def test_env_var(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "env.conf"
        cfg_file.write_text("dmax=33\n")
        monkeypatch.setenv("QUADNORM_CONFIG", str(cfg_file))
        assert config_from_sources(None, {}).dmax == 33

    def test_invalid_values(self, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("dmax=nope\n")
        with pytest.raises(InvalidConfigError):
            config_from_sources(str(bad), {})
        with pytest.raises(InvalidConfigError):
            RunConfig(dmax=1).validate()
        with pytest.raises(InvalidConfigError):
            RunConfig(p_list=(2,)).validate()

    def test_workers_ceiling(self, tmp_path, monkeypatch):
        # validation only: no test may start an over-ceiling pool
        monkeypatch.delenv("QUADNORM_CONFIG", raising=False)
        assert RunConfig(workers=MAX_WORKERS).validate().workers == MAX_WORKERS
        many = tmp_path / "many.conf"
        for workers in (MAX_WORKERS + 1, 100_000):
            with pytest.raises(InvalidConfigError, match=f"workers must be <= {MAX_WORKERS}"):
                RunConfig(workers=workers).validate()
            with pytest.raises(InvalidConfigError, match=f"workers must be <= {MAX_WORKERS}"):
                config_from_sources(None, {"workers": workers})
            many.write_text(f"workers={workers}\n")
            with pytest.raises(InvalidConfigError, match=f"workers must be <= {MAX_WORKERS}"):
                config_from_sources(str(many), {})

    def test_qmax_ceiling(self, monkeypatch):
        monkeypatch.delenv("QUADNORM_CONFIG", raising=False)
        assert RunConfig(qmax=MAX_QMAX).validate().qmax == MAX_QMAX
        with pytest.raises(InvalidConfigError, match=f"conductor-search ceiling {MAX_QMAX}$"):
            RunConfig(qmax=MAX_QMAX + 1).validate()
        with pytest.raises(InvalidConfigError, match=f"conductor-search ceiling {MAX_QMAX}$"):
            config_from_sources(None, {"qmax": 10**9})

    def test_dmax_radicand_ceiling(self, monkeypatch):
        monkeypatch.delenv("QUADNORM_CONFIG", raising=False)
        assert RunConfig(dmax=MAX_RADICAND).validate().dmax == MAX_RADICAND
        for make in (lambda: RunConfig(dmax=MAX_RADICAND + 1).validate(),
                     lambda: config_from_sources(None, {"dmax": 10**18})):
            with pytest.raises(InvalidConfigError, match=f"radicand ceiling {MAX_RADICAND}$"):
                make()

    def test_unknown_key_message_lists_the_keys_in_order(self, tmp_path):
        stale = tmp_path / "stale.conf"
        stale.write_text("zeta=1\ndmax=50\nalpha=2\n")
        with pytest.raises(InvalidConfigError) as info:
            config_from_sources(str(stale), {})
        assert str(info.value) == (
            "unknown config key(s) alpha, zeta; known: dmax, qmax, p, workers, out, oracle_check"
        )

    def test_removed_key_rejected(self, tmp_path):
        stale = tmp_path / "stale.conf"
        stale.write_text("dmax=50\ngroup_cap=64\n")
        with pytest.raises(InvalidConfigError, match="group_cap"):
            config_from_sources(str(stale), {})

    def test_misspelt_key_rejected(self, tmp_path):
        typo = tmp_path / "typo.conf"
        typo.write_text("qmx=40\n")
        with pytest.raises(InvalidConfigError, match="qmx"):
            config_from_sources(str(typo), {})


class TestStats:
    def test_exact_fraction(self):
        recs = list(scan(RunConfig(dmax=200)))
        rep = stats(recs, 3)
        assert rep.fraction == Fraction(rep.divisible, rep.total)
        assert 0 <= rep.fraction <= 1
        assert rep.reference_percent == Fraction("12.574")
        assert "reference" in rep.to_text()

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            stats([], 3)

    def test_unknown_p_has_no_reference(self):
        recs = list(scan(RunConfig(dmax=40)))
        rep = stats(recs, 11)
        assert rep.reference_percent is None


class TestSurveyHelpers:
    def test_abelian_type_counts(self):
        types = abelian_group_types(36)
        by_order = {}
        for t in types:
            o = 1
            for x in t:
                o *= x
            by_order.setdefault(o, []).append(t)
        assert len(by_order[16]) == 5
        assert len(by_order[32]) == 7
        assert len(by_order[36]) == 4
        assert len(by_order[30]) == 1

    def test_small_survey_matches_known_verdicts(self):
        inst = {(s.group, s.subgroup): s for s in transfer_survey(8)}
        c4 = inst[("C4", (0, 2))]
        assert c4.hypothesis_holds and not c4.vanishes and c4.vanishing_discrepancy
        assert c4.diagram_commutes
        v4_halves = [
            s for (g, _), s in inst.items() if g == "C2xC2" and s.subgroup_order == 2
        ]
        assert v4_halves and all(s.vanishes for s in v4_halves)
        assert all(s.oracle_agrees for s in inst.values())

    def test_full_survey_is_pinned(self):
        survey = transfer_survey(36)
        assert len(survey) == 1113
        assert sum(1 for s in survey if s.vanishing_discrepancy) == 32
        assert hashlib.sha256(repr(survey).encode()).hexdigest() == (
            "19a8c4f9f5cdfbfbd5eebffae12b19d3179f3e07b08e8e386b969557f1d8ae18"
        )


class TestDetectionSweep:
    def test_small_sweep_records_misses(self):
        sweep = detection_sweep(120, (3,), 150)
        assert sweep.unsound == ()
        assert (79, 3) in sweep.missed  # 3 | h(79) with no witness found
