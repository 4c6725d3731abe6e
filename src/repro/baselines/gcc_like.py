"""The gcc-like single-configuration baseline (§6.3's performance
floor).

gcc preprocesses and parses exactly one configuration at a time; the
paper measures it with ``-ftime-report`` under ``allyesconfig`` to
provide a latency baseline (50th/90th/100th percentiles of 0.18, 0.24,
0.87 seconds, a 12-32x speedup over SuperC, reflecting that it keeps
no static conditionals).

Here the same pipeline is: single-configuration oracle preprocessor +
plain LR parsing with the (unconditional) lexer-hack symbol table.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.bdd import BDDManager
from repro.cgrammar import c_tables, classify, make_context_factory
from repro.cpp import FileSystem, SimplePreprocessor
from repro.lexer.tokens import Token
from repro.parser.lr import LRParser
from repro.superc import STATUS_OK, Timing


class GccLikeResult:
    """One single-configuration compile front-end run.

    Implements the uniform Result protocol (:mod:`repro.api`):
    construction implies a successful parse (failures raise), so
    ``status`` is always ``ok``; phase times are ``timing.*``.
    """

    def __init__(self, tokens: List[Token], ast, lex_seconds: float,
                 preprocess_seconds: float, parse_seconds: float,
                 profile=None):
        self.tokens = tokens
        self.ast = ast
        self.timing = Timing(lex_seconds, preprocess_seconds,
                             parse_seconds)
        self.profile = profile

    status = STATUS_OK
    ok = True
    degraded = False

    @property
    def diagnostics(self) -> list:
        return []

    @property
    def failures(self) -> list:
        return []


class GccLike:
    """Single-configuration preprocess + parse."""

    def __init__(self, fs: Optional[FileSystem] = None,
                 include_paths: Sequence[str] = (),
                 config: Optional[Dict[str, str]] = None,
                 builtins: Optional[Dict[str, str]] = None):
        self.fs = fs
        self.include_paths = list(include_paths)
        self.config = dict(config or {})
        self.builtins = builtins
        self.tables = c_tables()

    def compile_source(self, text: str,
                       filename: str = "<input>") -> GccLikeResult:
        preprocessor = SimplePreprocessor(
            self.fs, include_paths=self.include_paths,
            config=self.config, builtins=self.builtins)
        pp_start = time.perf_counter()
        tokens = preprocessor.preprocess(text, filename)
        pp_seconds = time.perf_counter() - pp_start
        manager = BDDManager()
        parser = LRParser(self.tables, classify,
                          context_factory=make_context_factory(manager),
                          condition=manager.true)
        parse_start = time.perf_counter()
        ast = parser.parse(tokens)
        parse_seconds = time.perf_counter() - parse_start
        return GccLikeResult(tokens, ast, 0.0, pp_seconds,
                             parse_seconds)

    def compile_file(self, path: str) -> GccLikeResult:
        text = self.fs.read(path)
        if text is None:
            raise FileNotFoundError(path)
        return self.compile_source(text, path)


def allyesconfig(variables: Sequence[str]) -> Dict[str, str]:
    """Enable every boolean configuration variable (the paper's
    maximal configuration; covers <80%% of conditional blocks [37])."""
    return {name: "1" for name in variables}
