import json
import os
from fractions import Fraction

import pytest

from quadnorm.harness import (
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
        parsed = json.loads(rep.to_json())
        assert parsed["overall"] is True


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


class TestDetectionSweep:
    def test_small_sweep_records_misses(self):
        sweep = detection_sweep(120, (3,), 150)
        assert sweep.unsound == ()
        assert (79, 3) in sweep.missed  # 3 | h(79) with no witness found
