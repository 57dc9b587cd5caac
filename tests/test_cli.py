import json

from quadnorm import formclass
from quadnorm.cli import main
from quadnorm.transfer import FiniteGroup


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_ext(self, capsys):
        code, out, _ = run(capsys, "ext", "--q", "7", "--p", "3")
        assert code == 0 and "-1 -2 1 1" in out and "power_basis_index=1" in out

    def test_normindex(self, capsys):
        code, out, _ = run(capsys, "normindex", "--d", "79", "--q", "7", "--p", "3")
        assert code == 0 and "index=3" in out

    def test_detect_no_witness(self, capsys):
        code, out, _ = run(capsys, "detect", "--d", "79", "--p", "3", "--qmax", "50")
        assert code == 0 and "witness=none" in out


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

    def test_cycle_walk_past_step_cap_is_2(self, capsys, monkeypatch):
        # both rho cycles of discriminant 376 have 16 reduced forms
        monkeypatch.setattr(formclass, "_MAX_REDUCE_STEPS", 4)
        code, out, err = run(capsys, "classgroup", "--d", "94")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

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

    def test_verify_thm14_disagreement(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm14", "--d", "79", "--l", "3", "--p", "3",
            "--qmax", "50",
        )
        assert code == 1 and "agreement=False" in out

    def test_verify_thm14_missing_args(self, capsys):
        assert run(capsys, "verify", "thm14", "--d", "79")[0] == 2


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


class TestTransferCommand:
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
        assert "vanishes=False" in out and "discrepancy" in out

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
