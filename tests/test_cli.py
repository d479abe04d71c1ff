import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gbsn.cli import build_parser, run

from conftest import DATA

SPEC_A = str(DATA / "specA.gog")
SPEC_B = str(DATA / "specB.gog")
BS12 = str(DATA / "bs12.gog")
ASCEND2 = str(DATA / "ascend2.gog")

# (golden file name, CLI arguments, exit code): tests/golden/<name>.json is
# the exact --format json stdout of the command
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_RUNS = [
    entry
    for spec in ("specA", "specB", "bs12", "ascend2")
    for entry in (
        (f"holonomy_{spec}", ["holonomy", f"data/{spec}.gog"], 0),
        (f"classify_{spec}", ["classify", f"data/{spec}.gog"], 0),
        (
            f"compression_3-2_{spec}",
            ["compression", f"data/{spec}.gog", "--p", "3/2"],
            2 if spec == "bs12" else 0,
        ),
    )
] + [
    ("compare_specA_specB", ["compare", "data/specA.gog", "data/specB.gog"], 0),
    # ranks 1 and 2: amenability is yes against no
    ("compare_bs12_specA", ["compare", "data/bs12.gog", "data/specA.gog"], 0),
] + [
    # exact lengths up to 12 letters, and up to 10 on specB: there a power
    # with upper bound 12 searches to radius 11, which forces the
    # 143,001-state ball of depth ceil(11/2) = 6
    (f"distortion_{spec}",
     ["distortion", f"data/{spec}.gog", "--element", element, "--max-power", top,
      "--bfs-cap", cap], 0)
    for spec, element, top, cap in (("bs12", "a", "64", "12"), ("ascend2", "b", "64", "12"),
                                    ("specA", "a", "16", "12"), ("specB", "a", "64", "10"))
] + [
    # exact lengths up to 12 letters, every one the spelled bound; on a
    # fresh store, 12 of the 51 powers are settled from the lengths of
    # longer powers, not searched
    ("distortion_specA_b",
     ["distortion", "data/specA.gog", "--element", "b", "--max-power", "64", "--bfs-cap", "12"], 0),
] + [
    # no stable letter scales (1, 1) in ascend2, so only direct spellings
    ("distortion_ascend2_ab",
     ["distortion", "data/ascend2.gog", "--element", "a b", "--max-power", "32", "--bfs-cap", "8"], 0),
    # scaling factor 8: powers m < 8 are spelled h^-1 a h a^(m - 8) too
    ("distortion_compression_cyclic",
     ["distortion", "tests/specs/compression_cyclic.gog", "--element", "a", "--max-power", "64",
      "--bfs-cap", "8"], 0),
    # scaling factor -2: base -2 spellings, exact length 6 at m = 8
    ("distortion_bs1_minus2",
     ["distortion", "tests/specs/bs1_minus2.gog", "--element", "a", "--max-power", "64",
      "--bfs-cap", "10"], 0),
    # a is outside t's lattice 2Z, and t doubles 2a: base-2 spellings of
    # the even part, exact length 6 at m = 8
    ("distortion_bs24",
     ["distortion", "tests/specs/bs24.gog", "--element", "a", "--max-power", "64",
      "--bfs-cap", "10"], 0),
    # t scales 9a by 8 and s scales 4a by 2: base-2 digits through s cost
    # at most 2 + 4 letters a factor 2, base-8 ones through t up to 2 + 36 a
    # factor 8, so the window spells through s: max ratio 5.051, not 11.505
    ("distortion_rank1_cyclic",
     ["distortion", "tests/specs/rank1_cyclic.gog", "--element", "a", "--max-power", "200",
      "--bfs-cap", "10"], 0),
]
# tests/specs/<name>.gog holds one shape of certificate each: an irrational
# invariant line, a real and a complex invariant pair, a rational invariant
# pair first found at word length 2, an irrational line and pair whose
# discriminants have a square factor, contraction eigenbases with b != 0 and
# b = 0, rank-1 value groups and compression value groups, and stable-letter
# relations of rank 1 and 3; the exit codes are those of holonomy, classify
# and compression --p 3/2
CERTIFICATE_SPECS = {
    "irrational_line": (0, 0, 2),
    "real_pair": (0, 2, 2),
    "complex_pair": (0, 2, 2),
    "swap_pair": (0, 2, 2),
    "square_radicand_line": (0, 2, 2),
    "square_radicand_pair": (0, 2, 2),
    "basis_b_nonzero": (0, 0, 0),
    "basis_b_zero": (0, 0, 2),
    "rank1_dense": (0, 0, 2),
    "rank1_cyclic": (0, 0, 2),
    "compression_cyclic": (0, 2, 0),
    "compression_dense": (0, 0, 2),
    "rank1_relation": (0, 2, 2),
    "rank3_relation": (0, 2, 2),
}
GOLDEN_RUNS += [
    (f"{tag}_{spec}", [command, f"tests/specs/{spec}.gog", *extra], code)
    for spec, codes in CERTIFICATE_SPECS.items()
    for (tag, command, extra), code in zip(
        (("holonomy", "holonomy", []), ("classify", "classify", []),
         ("compression_3-2", "compression", ["--p", "3/2"])),
        codes,
    )
]
# invalid specs, each with one kind of violation: an edge to an undeclared
# vertex (and no tree line), a disconnected graph, a tree that does not span
GOLDEN_RUNS += [
    (f"validate_{spec}", ["validate", f"tests/specs/{spec}.gog"], 1)
    for spec in ("undeclared_vertex", "disconnected", "tree_not_spanning")
]


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

    def test_spanning_tree_edge_listed_twice(self, capsys, tmp_path):
        bad = tmp_path / "twice.gog"
        bad.write_text(
            "rank 1\nvertex X\nvertex Y\n"
            "edge e: X -> Y alpha [[1]] omega [[1]]\n"
            "edge t: X -> X alpha [[1]] omega [[2]]\n"
            "tree e e\n"
        )
        code, out, _ = invoke(capsys, "validate", str(bad))
        assert (code, out) == (1, "violation: spanning tree lists an edge twice\n")

    def test_parse_error_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.gog"
        bad.write_text("vertex X\n")
        code, _, err = invoke(capsys, "validate", str(bad))
        assert code == 1
        assert "missing rank declaration" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "validate", "no-such-file.gog")
        assert code == 1 and "error" in err

    def test_module_entry_point(self):
        src = str(DATA.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "gbsn", "validate", SPEC_A],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "OK"

    def test_sweep_keeps_invalid_specs(self):
        """``tests/cli_sweep.py`` picks its compare and distortion runs from
        the parsed documents, so the specs that fail validation still get
        them, and their error path stays in the byte-identity check."""
        import cli_sweep

        argvs = list(cli_sweep.runs(cli_sweep.spec_texts()))
        compared = {path for argv in argvs if argv[0] == "compare" for path in argv[1:3]}
        for name in ("undeclared_vertex", "disconnected", "tree_not_spanning"):
            assert f"specs/{name}.gog" in compared
        assert any(argv[:2] == ["distortion", "specs/undeclared_vertex.gog"] for argv in argvs)


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

    def test_discrete_cyclic_holonomy_exit_two(self, capsys, tmp_path):
        # holonomy diag(1002/1001, 1001/1002) and its square: the generator
        # lies within 1/1000 of I, but the image is discrete and cyclic
        spec = tmp_path / "cyclic.gog"
        spec.write_text(
            "rank 2\nvertex X\n"
            "edge s: X -> X alpha [[1001,0],[0,1002]] omega [[1002,0],[0,1001]]\n"
            "edge u: X -> X alpha [[1002001,0],[0,1004004]] omega [[1004004,0],[0,1002001]]\n"
        )
        code, out, _ = invoke(capsys, "classify", str(spec), "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["whyte_case"] == "undetermined"
        assert payload["haagerup"] == "yes"

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

    def test_edited_file_is_read_again(self, capsys, tmp_path):
        # the parse and the analysis are kept per spec text, and the file is
        # read on every call, so an edit between two runs is seen
        spec = tmp_path / "edited.gog"
        spec.write_text(Path(ASCEND2).read_text())
        code, out, _ = invoke(capsys, "classify", str(spec), "--format", "json")
        assert (code, json.loads(out)["whyte_case"]) == (0, "2b")
        spec.write_text(Path(SPEC_B).read_text())
        code, out, _ = invoke(capsys, "classify", str(spec), "--format", "json")
        assert (code, json.loads(out)["whyte_case"], json.loads(out)["haagerup"]) == (0, "2c", "no")
        spec.write_text("rank 2\nvertex X\nedge t: X -> X alpha [[1,0]] omega [[1]]\n")
        code, out, err = invoke(capsys, "classify", str(spec))
        assert (code, out) == (1, "") and err.startswith("error: line 3")


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

    @pytest.mark.parametrize("name, argv, code", GOLDEN_RUNS, ids=[r[0] for r in GOLDEN_RUNS])
    def test_deterministic_output(self, capsys, monkeypatch, name, argv, code):
        # run from the repository root, so the report names data/<spec>.gog
        monkeypatch.chdir(DATA.parent)
        got_code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert (got_code, out) == (code, (GOLDEN / f"{name}.json").read_text())

    @pytest.mark.parametrize(
        "name", [name for name, _, code in GOLDEN_RUNS if code == 0]
    )
    def test_decided_golden_reports_carry_no_sampled_evidence(self, name):
        def walk(node):
            if isinstance(node, dict):
                assert node.get("sampled") is not True
                for key in ("method", "label"):
                    assert "sampled" not in str(node.get(key, ""))
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        walk(json.loads((GOLDEN / f"{name}.json").read_text()))

    def test_compare_json(self, capsys):
        code, out, _ = invoke(capsys, "compare", ASCEND2, SPEC_A, "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "not-quasi-isometric"


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert run([]) == 1

    def test_compare_without_sl2_closure_exit_two(self, capsys, tmp_path):
        # specB with holonomy det 2 on h: the closure argument does not apply,
        # and sampled Cartan distances decide nothing
        det_two = tmp_path / "det_two.gog"
        det_two.write_text(
            Path(SPEC_B).read_text().replace("omega [[2,0],[0,1]]", "omega [[4,0],[0,1]]")
        )
        code, out, _ = invoke(capsys, "compare", SPEC_B, str(det_two), "--format", "json")
        report = json.loads(out)
        assert (code, report["verdict"], report["sampled"]) == (2, "undetermined", False)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compression", BS12, "--p", "1/0"],
            ["distortion", SPEC_A, "--element", "a", "--max-power", "0"],
            ["distortion", SPEC_A, "--element", "a", "--bfs-cap", "-1"],
        ],
        ids=["p-zero-denominator", "max-power-zero", "bfs-cap-negative"],
    )
    def test_numeric_input_error_exit_one(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_one_parser_serves_every_call(self, capsys):
        calls = [
            ["compression", SPEC_B],  # no --p: a usage error
            ["compression", SPEC_B, "--p", "2"],
            ["compression", SPEC_B, "--p", "3"],
        ]
        alone = []
        for argv in calls:
            build_parser.cache_clear()
            alone.append(invoke(capsys, *argv))
        build_parser.cache_clear()
        together = [invoke(capsys, *argv) for argv in calls]
        assert build_parser() is build_parser()
        assert [code for code, _, _ in together] == [1, 0, 2]
        assert together == alone

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["-h"],
            ["classify", "-h"],
            ["compression", SPEC_B],
            ["classify", SPEC_B, "extra"],
            ["classify", SPEC_B, "--format", "xml"],
            ["--format", "xml"],
            ["distortion", SPEC_A, "--element", "a", "--max-power", "x"],
        ],
        ids=["no-arguments", "unknown-command", "help", "command-help", "missing-option",
             "extra-argument", "bad-choice", "option-before-command", "bad-integer"],
    )
    def test_usage_ends_as_the_full_parser_ends(self, capsys, argv):
        """A help request or usage error prints what the whole tree's
        ``parse_args`` prints, and exits 0 after help and 1 otherwise."""
        got = invoke(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert got == ({0: 0, 2: 1}[exc.value.code], *capsys.readouterr())

    def test_compression_checks_rank_before_the_holonomy(self, capsys, monkeypatch, tmp_path):
        def no_holonomy(spec):
            raise AssertionError("holonomy computed for a rank-1 compression")

        # the package rebinds gbsn.classify to the function of that name
        module = importlib.import_module("gbsn.classify")
        monkeypatch.setattr(module, "compute_holonomy", no_holonomy)
        monkeypatch.chdir(DATA.parent)
        argv = ["compression", "data/bs12.gog", "--p", "3/2", "--format", "json"]
        got = invoke(capsys, *argv)[:2]
        assert got == (2, (GOLDEN / "compression_3-2_bs12.json").read_text())
        monkeypatch.undo()
        bad = tmp_path / "bad.gog"
        for rank, alpha, omega in ((1, "[[0]]", "[[1]]"), (2, "[[1,0],[0,0]]", "[[1,0],[0,1]]")):
            bad.write_text(f"rank {rank}\nvertex X\nedge t: X -> X alpha {alpha} omega {omega}\n")
            code, out, err = invoke(capsys, "compression", str(bad), "--p", "3/2")
            assert (code, out) == (1, "")
            assert err == "error: edge t: edge inclusion not injective (alpha)\n"

    def test_decided_undetermined_error_trichotomy(self, capsys, tmp_path):
        assert invoke(capsys, "classify", SPEC_A)[0] == 0
        assert invoke(capsys, "compression", SPEC_B, "--p", "3")[0] == 2
        bad = tmp_path / "bad.gog"
        bad.write_text("rank -1\n")
        assert invoke(capsys, "validate", str(bad))[0] == 1
