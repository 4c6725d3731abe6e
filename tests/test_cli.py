"""Tests for the command-line tools."""

import json

import pytest

from repro.tools import batch_cli, parse_cli, report_cli


@pytest.fixture()
def source_tree(tmp_path):
    (tmp_path / "include").mkdir()
    (tmp_path / "include" / "util.h").write_text(
        "#ifndef UTIL_H\n#define UTIL_H\n"
        "#define DOUBLE(x) ((x) * 2)\n#endif\n")
    main = tmp_path / "main.c"
    main.write_text(
        "#include <util.h>\n"
        "#ifdef CONFIG_FAST\n"
        "int speed = DOUBLE(21);\n"
        "#else\n"
        "int speed = 21;\n"
        "#endif\n"
        "int main(void) { return speed; }\n")
    return tmp_path


class TestParseCli:
    def test_parse_ok(self, source_tree, capsys):
        code = parse_cli.main([str(source_tree / "main.c"),
                               "-I", str(source_tree / "include")])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out
        assert "subparsers (max)" in out

    def test_missing_file(self, tmp_path, capsys):
        code = parse_cli.main([str(tmp_path / "nope.c")])
        assert code == 2

    def test_preprocess_only(self, source_tree, capsys):
        code = parse_cli.main([str(source_tree / "main.c"),
                               "-I", str(source_tree / "include"),
                               "--preprocess-only"])
        out = capsys.readouterr().out
        assert code == 0
        assert "#[defined:CONFIG_FAST]" in out
        # The macro is expanded (not evaluated): ((21) * 2).
        assert "( ( 21 ) * 2 )" in out

    def test_dump_ast(self, source_tree, capsys):
        code = parse_cli.main([str(source_tree / "main.c"),
                               "-I", str(source_tree / "include"),
                               "--dump-ast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "StaticChoice" in out

    def test_stats(self, source_tree, capsys):
        code = parse_cli.main([str(source_tree / "main.c"),
                               "-I", str(source_tree / "include"),
                               "--stats"])
        out = capsys.readouterr().out
        assert "macro_definitions" in out

    def test_projection(self, source_tree, capsys):
        code = parse_cli.main([str(source_tree / "main.c"),
                               "-I", str(source_tree / "include"),
                               "--project", "defined:CONFIG_FAST"])
        out = capsys.readouterr().out
        assert code == 0
        assert "projection [defined:CONFIG_FAST]" in out
        assert "* 2" in out or "*2" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        # Broken in every configuration: a hard parse failure.
        bad = tmp_path / "bad.c"
        bad.write_text("int x = ;\nint y;\n")
        code = parse_cli.main([str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out

    def test_degraded_exit_code(self, tmp_path, capsys):
        # Broken only under A: the other configurations still parse,
        # so the result is partial ("degraded", exit 2).
        bad = tmp_path / "partial.c"
        bad.write_text("#ifdef A\nint x = ;\n#endif\nint y;\n")
        code = parse_cli.main([str(bad)])
        out = capsys.readouterr().out
        assert code == 2
        assert "degraded" in out

    def test_define_option(self, tmp_path, capsys):
        src = tmp_path / "d.c"
        src.write_text("int v = VALUE;\n")
        code = parse_cli.main([str(src), "-D", "VALUE=7"])
        assert code == 0

    def test_mapr_option(self, source_tree, capsys):
        code = parse_cli.main([str(source_tree / "main.c"),
                               "-I", str(source_tree / "include"),
                               "--optimization", "MAPR"])
        assert code == 0

    def test_json_output(self, source_tree, capsys):
        code = parse_cli.main([str(source_tree / "main.c"),
                               "-I", str(source_tree / "include"),
                               "--json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["status"] == "ok"
        assert record["unit"].endswith("main.c")
        assert set(record["timing"]) == {"lex", "preprocess", "parse",
                                         "total"}
        assert record["subparsers"]["max"] >= 1
        assert record["preprocessor"]["macro_definitions"] >= 1

    def test_json_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int x = ;\nint y;\n")
        code = parse_cli.main([str(bad), "--json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 1
        assert record["status"] == "parse-failed"
        assert record["failures"]

    def test_json_degraded(self, tmp_path, capsys):
        bad = tmp_path / "partial.c"
        bad.write_text("#ifdef A\nint x = ;\n#endif\nint y;\n")
        code = parse_cli.main([str(bad), "--json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 2
        assert record["status"] == "degraded"
        assert record["invalid_configs"]

    def test_json_guarded_error_diagnostics(self, tmp_path, capsys):
        src = tmp_path / "guarded.c"
        src.write_text('#ifdef BROKEN\n#error "no BROKEN builds"\n'
                       "#endif\nint fine;\n")
        code = parse_cli.main([str(src), "--json"])
        record = json.loads(capsys.readouterr().out)
        assert code == 2
        assert record["status"] == "degraded"
        diags = record["diagnostics"]
        assert diags and diags[0]["severity"] == "config-error"
        assert "defined:BROKEN" in record["invalid_configs"]

    def test_preprocessor_error_exit_code(self, tmp_path, capsys):
        src = tmp_path / "pperr.c"
        src.write_text("#if (\nint z;\n#endif\n")
        code = parse_cli.main([str(src)])
        err = capsys.readouterr().err
        assert code == 3
        assert "error:" in err


class TestBatchCli:
    def test_tree_run(self, source_tree, tmp_path, capsys):
        code = batch_cli.main([str(source_tree), "-I", "include",
                               "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "units: 1  ok: 1" in out
        assert "subparsers:" in out

    def test_warm_run_hits_cache(self, source_tree, tmp_path, capsys):
        argv = [str(source_tree), "-I", "include",
                "--cache-dir", str(tmp_path / "cache")]
        batch_cli.main(argv)
        capsys.readouterr()
        code = batch_cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert "1 hit / 0 miss" in out

    def test_json_report(self, source_tree, tmp_path, capsys):
        code = batch_cli.main([str(source_tree), "-I", "include",
                               "--cache-dir", str(tmp_path / "cache"),
                               "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["by_status"] == {"ok": 1}
        assert "latency" in payload and "subparsers" in payload

    def test_metrics_file(self, source_tree, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        code = batch_cli.main([str(source_tree), "-I", "include",
                               "--cache-dir", str(tmp_path / "cache"),
                               "--metrics", str(metrics)])
        assert code == 0
        events = [json.loads(line)
                  for line in metrics.read_text().splitlines()]
        assert events[0]["event"] == "run-start"
        assert events[-1]["event"] == "run-end"

    def test_parallel_workers(self, source_tree, tmp_path, capsys):
        code = batch_cli.main([str(source_tree), "-I", "include",
                               "--cache-dir", str(tmp_path / "cache"),
                               "--workers", "2"])
        assert code == 0

    def test_failure_exit_code(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "bad.c").write_text("int x = ;\nint y;\n")
        code = batch_cli.main([str(tree),
                               "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 1
        assert "parse-failed: 1" in out

    def test_degraded_counts_as_coverage(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "partial.c").write_text(
            "#ifdef A\nint x = ;\n#endif\nint y;\n")
        code = batch_cli.main([str(tree),
                               "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "degraded: 1" in out

    def test_empty_tree(self, tmp_path, capsys):
        tree = tmp_path / "empty"
        tree.mkdir()
        code = batch_cli.main([str(tree)])
        assert code == 2

    def test_no_input(self, capsys):
        assert batch_cli.main([]) == 2


class TestReportCli:
    def test_report(self, source_tree, capsys):
        code = report_cli.main([str(source_tree),
                                "-I", "include"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 2a" in out
        assert "Table 2b" in out
        assert "Table 3" in out
        assert "Macro Definitions" in out

    def test_skip_tools_view(self, source_tree, capsys):
        code = report_cli.main([str(source_tree), "--skip-tools-view"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 3" not in out

    def test_empty_tree(self, tmp_path, capsys):
        code = report_cli.main([str(tmp_path)])
        assert code == 2

    def test_one_unit_span_per_parsed_unit(self, tmp_path, capsys):
        # Table 3's statistics and Table 2b's read-sets come from one
        # parse per unit: the trace holds one unit span for each, and
        # Table 2b reads as when every C file is preprocessed for it.
        from repro.corpus import KernelSpec, generate_kernel
        corpus = generate_kernel(KernelSpec(seed=2012, subsystems=1,
                                            drivers_per_subsystem=2))
        corpus.write_to_directory(str(tmp_path / "tree"))
        trace = tmp_path / "trace.json"
        code = report_cli.main([str(tmp_path / "tree"), "-I", "include",
                                "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"over {len(corpus.units)} unit(s)" in out
        events = json.loads(trace.read_text())["traceEvents"]
        spans = [event["args"]["file"] for event in events
                 if event["name"] == "unit" and event["ph"] == "X"]
        assert sorted(spans) == sorted(corpus.units)

        def table2b(text):
            return text.split("Table 2b")[1].split("Table 3")[0].strip()

        report_cli.main([str(tmp_path / "tree"), "-I", "include",
                         "--skip-tools-view"])
        assert table2b(out) == table2b(capsys.readouterr().out)

    def test_table2b_uses_include_paths(self, tmp_path, capsys):
        # Headers under inc/, reached only through -I inc; broken.c
        # fails to preprocess and is left out of Table 2b.
        (tmp_path / "inc").mkdir()
        (tmp_path / "inc" / "hdr.h").write_text("int shared;\n")
        (tmp_path / "a.c").write_text("#include <hdr.h>\nint a;\n")
        (tmp_path / "broken.c").write_text("#include <hdr.h>\n#if (\n")
        code = report_cli.main([str(tmp_path), "-I", "inc",
                                "--skip-tools-view"])
        captured = capsys.readouterr()
        assert code == 0
        assert "inc/hdr.h" in captured.out
        assert "1 C files (100%)" in captured.out
        assert "(skipping broken.c:" in captured.err


class TestFuzzCli:
    def test_clean_run(self, capsys):
        from repro.tools import fuzz_cli
        code = fuzz_cli.main(["--units", "3", "--seed", "0",
                              "--timeout", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "units: 3  ok: 3" in out

    def test_json_output(self, capsys):
        from repro.tools import fuzz_cli
        code = fuzz_cli.main(["--units", "2", "--seed", "5",
                              "--timeout", "60", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["units"] == 2
        assert payload["counterexamples"] == []

    def test_metrics_stream(self, tmp_path, capsys):
        from repro.tools import fuzz_cli
        path = tmp_path / "fuzz.jsonl"
        code = fuzz_cli.main(["--units", "2", "--seed", "0",
                              "--timeout", "60",
                              "--metrics", str(path)])
        assert code == 0
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        kinds = {event["event"] for event in events}
        assert {"run-start", "unit", "run-end"} <= kinds

    def test_bad_weight(self, capsys):
        from repro.tools import fuzz_cli
        with pytest.raises(SystemExit):
            fuzz_cli.main(["--weight", "nonsense=3"])

    def test_weight_override(self, capsys):
        from repro.tools import fuzz_cli
        code = fuzz_cli.main(["--units", "2", "--seed", "1",
                              "--timeout", "60", "--no-shrink",
                              "--weight", "variadic=10",
                              "--weight", "plain_function=0"])
        assert code == 0
