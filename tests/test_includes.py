"""Unit tests for include resolution and guard detection."""

import os

import pytest

from repro.corpus import KernelSpec, generate_kernel
from repro.cpp import includes, preprocessor
from repro.cpp.includes import (DictFileSystem, IncludeResolver,
                                RealFileSystem, detect_guard)
from repro.errors import (PHASE_INCLUDE, PHASE_LEX, SEVERITY_CONFIG,
                          ResourceBudget)


class TestDictFileSystem:
    def test_read_and_exists(self):
        fs = DictFileSystem({"a/b.h": "x"})
        assert fs.read("a/b.h") == "x"
        assert fs.exists("a/b.h")
        assert fs.read("a/c.h") is None
        assert not fs.exists("a/c.h")

    def test_paths_normalized(self):
        fs = DictFileSystem({"a/./b.h": "x"})
        assert fs.read("a/b.h") == "x"
        assert fs.read("a/sub/../b.h") == "x"


class TestRealFileSystem:
    def test_read(self, tmp_path):
        target = tmp_path / "real.h"
        target.write_text("content")
        fs = RealFileSystem()
        assert fs.read(str(target)) == "content"
        assert fs.exists(str(target))
        assert fs.read(str(tmp_path / "nope.h")) is None


class TestResolver:
    FILES = {
        "src/main.c": "",
        "src/local.h": "local",
        "include/linux/shared.h": "shared",
        "include/local.h": "include-local",
    }

    def resolver(self):
        return IncludeResolver(DictFileSystem(self.FILES), ["include"])

    def test_quoted_prefers_includer_directory(self):
        path = self.resolver().resolve("local.h", True, "src/main.c")
        assert path == "src/local.h"

    def test_quoted_falls_back_to_include_paths(self):
        path = self.resolver().resolve("linux/shared.h", True,
                                       "src/main.c")
        assert path == "include/linux/shared.h"

    def test_angle_skips_includer_directory(self):
        path = self.resolver().resolve("local.h", False, "src/main.c")
        assert path == "include/local.h"

    def test_unresolvable(self):
        assert self.resolver().resolve("missing.h", False,
                                       "src/main.c") is None


class TestGuardDetection:
    def test_classic_guard(self):
        text = ("#ifndef FOO_H\n#define FOO_H\nint x;\n#endif\n")
        assert detect_guard(text) == "FOO_H"

    def test_if_not_defined_form(self):
        text = ("#if !defined(FOO_H)\n#define FOO_H\nint x;\n#endif\n")
        assert detect_guard(text) == "FOO_H"

    def test_if_not_defined_no_parens(self):
        text = ("#if !defined FOO_H\n#define FOO_H\n#endif\n")
        assert detect_guard(text) == "FOO_H"

    def test_leading_comment_allowed(self):
        text = ("/* header comment */\n"
                "#ifndef G_H\n#define G_H\nint x;\n#endif\n")
        assert detect_guard(text) == "G_H"

    def test_no_guard_plain_header(self):
        assert detect_guard("int x;\n") is None

    def test_wrong_define_name(self):
        text = ("#ifndef FOO_H\n#define BAR_H\n#endif\n")
        assert detect_guard(text) is None

    def test_content_after_endif_breaks_guard(self):
        text = ("#ifndef FOO_H\n#define FOO_H\n#endif\nint leak;\n")
        assert detect_guard(text) is None

    def test_early_closing_endif_breaks_guard(self):
        text = ("#ifndef FOO_H\n#define FOO_H\n#endif\n"
                "#ifdef X\n#endif\n")
        assert detect_guard(text) is None

    def test_nested_conditionals_inside_guard_ok(self):
        text = ("#ifndef FOO_H\n#define FOO_H\n"
                "#ifdef X\nint x;\n#endif\n"
                "#endif\n")
        assert detect_guard(text) == "FOO_H"

    def test_unbalanced_returns_none(self):
        assert detect_guard("#ifndef A\n#define A\n") is None

    def test_define_must_follow_immediately(self):
        text = ("#ifndef FOO_H\n#ifdef OTHER\n#endif\n"
                "#define FOO_H\n#endif\n")
        assert detect_guard(text) is None

    def test_lexer_error_returns_none(self):
        assert detect_guard('#ifndef A\n#define A\n"open\n#endif\n') is None


class TestLexOncePerInclusion:
    """Each inclusion of a file is lexed exactly once: a header's first
    inclusion reads its guard from the lines it hands to processing."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Preprocess a unit while counting lexer and file calls."""
        counts = {"lex": 0, "guard_lex": 0, "files": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper

        # Patched by module attribute, as perfbench's --trace wraps it.
        monkeypatch.setattr(preprocessor, "lex_logical_lines",
                            counting("lex", preprocessor.lex_logical_lines))
        monkeypatch.setattr(includes, "lex_logical_lines",
                            counting("guard_lex", includes.lex_logical_lines))
        monkeypatch.setattr(
            preprocessor.Preprocessor, "_process_file",
            counting("files", preprocessor.Preprocessor._process_file))

        def run(fs, path, include_paths, **options):
            for name in counts:
                counts[name] = 0
            cpp = preprocessor.Preprocessor(fs, include_paths=include_paths,
                                            **options)
            unit = cpp.preprocess_file(path)
            return cpp, unit, dict(counts)
        return run

    def test_mousedev(self, counted):
        root = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                            "examples")
        cpp, _, counts = counted(RealFileSystem(),
                                 os.path.join(root, "mousedev.c"),
                                 [os.path.join(root, "include")])
        assert counts == {"lex": 2, "guard_lex": 0, "files": 2}
        assert cpp.guard_macros == {"_MAJOR_H"}
        assert cpp.stats.reincluded_headers == 0

    def test_kernel_unit_reincluding_unguarded_header(self, counted):
        corpus = generate_kernel(KernelSpec(seed=1))
        cpp, _, counts = counted(corpus.filesystem(),
                                 "drivers/input/input_drv0.c",
                                 corpus.include_paths)
        # 16 distinct files plus the unit; the unguarded
        # include/linux/unguarded_ids.h is lexed again when re-included.
        assert counts == {"lex": 18, "guard_lex": 0, "files": 18}
        assert len(cpp.guard_macros) == 15
        assert cpp.stats.reincluded_headers == 1

    def test_broken_header_under_condition(self, counted):
        files = {"include/broken.h": 'int a;\nconst char *s = "open;\n',
                 "unit.c": '#ifdef CONFIG_A\n#include "broken.h"\n#endif\n'
                           '#ifdef CONFIG_B\n#include "broken.h"\n#endif\n'
                           "int y;\n"}
        cpp, unit, counts = counted(DictFileSystem(files), "unit.c",
                                    ["include"])
        message = ("broken include file 'broken.h': include/broken.h:2:17: "
                   "unterminated string constant")
        assert [(d.phase, d.severity, d.message) for d in unit.diagnostics] \
            == [(PHASE_LEX, SEVERITY_CONFIG, f"unit.c:2:2: {message}"),
                (PHASE_LEX, SEVERITY_CONFIG, f"unit.c:5:2: {message}")]
        # The broken header counts as included (unguarded), so its
        # second inclusion is a re-inclusion that fails the same way.
        assert cpp.stats.reincluded_headers == 1
        assert cpp.guard_macros == set()
        # Both inclusions lex it once; the first fails before its file
        # is processed, the re-inclusion inside processing.
        assert counts == {"lex": 3, "guard_lex": 0, "files": 2}

    def test_depth_budget_error_wins_over_broken_header(self, counted):
        # Processing checks the depth before it lexes, so a broken
        # header past the budget reports the budget, not its lexer error.
        files = {f"include/d{i}.h": f'#include "d{i + 1}.h"\n'
                 for i in range(4)}
        files["include/d4.h"] = '"open\n'
        files["unit.c"] = ('#ifdef CONFIG_DEEP\n#include "d0.h"\n#endif\n'
                           "int y;\n")
        _, unit, _ = counted(DictFileSystem(files), "unit.c", ["include"],
                             budget=ResourceBudget(max_include_depth=4))
        assert [(d.phase, d.message) for d in unit.diagnostics] == [
            (PHASE_INCLUDE, "include depth exceeds 4 (cycle?) "
                            "at include/d4.h")]
