import json

import pytest

from gbsn.cli import run

from conftest import DATA

SPEC_A = str(DATA / "specA.gog")
SPEC_B = str(DATA / "specB.gog")
BS12 = str(DATA / "bs12.gog")
ASCEND2 = str(DATA / "ascend2.gog")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = invoke(capsys, "validate", SPEC_A)
        assert code == 0 and out.strip() == "OK"

    def test_violations_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.gog"
        bad.write_text("rank 2\nvertex X\nedge h: X -> X alpha [[1,0],[0,0]] omega [[1,0],[0,1]]\n")
        code, out, _ = invoke(capsys, "validate", str(bad))
        assert code == 1
        assert "not injective" in out

    def test_parse_error_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.gog"
        bad.write_text("vertex X\n")
        code, _, err = invoke(capsys, "validate", str(bad))
        assert code == 1
        assert "missing rank declaration" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "validate", "no-such-file.gog")
        assert code == 1 and "error" in err


class TestReports:
    def test_presentation_text(self, capsys):
        code, out, _ = invoke(capsys, "presentation", SPEC_A)
        assert code == 0
        assert out.strip() == (
            "< a, b, h, p | a b = b a, h^-1 a h = a^2, h^-1 b^2 h = b, "
            "p^-1 a p = a, p^-1 b p = a b >"
        )

    def test_holonomy_text(self, capsys):
        code, out, _ = invoke(capsys, "holonomy", SPEC_A)
        assert code == 0
        assert "hol(h) = [2, 0; 0, 1/2]" in out
        assert "hol(p) = [1, 1; 0, 1]" in out

    def test_classify_text_ends_with_headline(self, capsys):
        code, out, _ = invoke(capsys, "classify", SPEC_A)
        assert code == 0
        assert out.strip().splitlines()[-1] == (
            "Whyte case: 2c; Haagerup: yes; weakly amenable: yes; Λ_cb = 1"
        )

    def test_compare_text(self, capsys):
        code, out, _ = invoke(capsys, "compare", SPEC_A, SPEC_B)
        assert code == 0
        assert out.strip().splitlines()[-1] == "quasi-isometric"

    def test_compression_zero(self, capsys):
        code, out, _ = invoke(capsys, "compression", SPEC_B, "--p", "2")
        assert code == 0
        assert "α_2 = 0" in out

    def test_free_pair_across_quadratic_fields(self, capsys, tmp_path):
        spec = tmp_path / "sqrt2_sqrt3.gog"
        spec.write_text(
            "rank 2\nvertex X\n"
            "edge s: X -> X alpha [[1,0],[0,1]] omega [[2,1],[1,1]]\n"
            "edge u: X -> X alpha [[1,0],[0,1]] omega [[3,2],[1,1]]\n"
        )
        code, out, _ = invoke(capsys, "classify", str(spec))
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("Whyte case: 2a; Haagerup: no")
        code, out, _ = invoke(capsys, "compression", str(spec), "--p", "3/2")
        assert code == 0
        assert "α_3/2 = 0" in out

    def test_compression_undetermined_exit_two(self, capsys):
        code, out, _ = invoke(capsys, "compression", SPEC_B, "--p", "3")
        assert code == 2
        assert "undetermined" in out

    def test_compression_rational_p(self, capsys):
        code, out, _ = invoke(capsys, "compression", SPEC_A, "--p", "3/2")
        assert code == 0
        assert "α_3/2 = 2/3" in out

    def test_distortion(self, capsys):
        code, out, _ = invoke(
            capsys, "distortion", SPEC_A, "--element", "a", "--max-power", "8"
        )
        assert code == 0
        assert "max ratio over the window" in out


class TestJson:
    def test_classify_json_fields(self, capsys):
        code, out, _ = invoke(capsys, "classify", BS12, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["whyte_case"] == "2b"
        assert payload["haagerup"] == "yes"
        assert payload["cowling_haagerup"] == "1"
        assert any(ev["label"].startswith("tits-certificate") for ev in payload["evidence"])

    def test_free_pair_certificate_serialized(self, capsys):
        code, out, _ = invoke(capsys, "classify", SPEC_B, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        certs = [
            ev["payload"]
            for ev in payload["evidence"]
            if ev["payload"] and ev["payload"].get("type") == "FreePairCertificate"
        ]
        assert certs, "free pair certificate missing from the machine report"
        cert = certs[0]
        assert {"word_x", "word_y", "domain_x", "domain_y", "traps_x", "traps_y"} <= set(cert)

    def test_deterministic_output(self, capsys):
        _, first, _ = invoke(capsys, "classify", SPEC_A, "--format", "json")
        _, second, _ = invoke(capsys, "classify", SPEC_A, "--format", "json")
        assert first == second

    def test_compare_json(self, capsys):
        code, out, _ = invoke(capsys, "compare", ASCEND2, SPEC_A, "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "not-quasi-isometric"


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert run([]) == 1

    def test_decided_undetermined_error_trichotomy(self, capsys, tmp_path):
        assert invoke(capsys, "classify", SPEC_A)[0] == 0
        assert invoke(capsys, "compression", SPEC_B, "--p", "3")[0] == 2
        bad = tmp_path / "bad.gog"
        bad.write_text("rank -1\n")
        assert invoke(capsys, "validate", str(bad))[0] == 1
