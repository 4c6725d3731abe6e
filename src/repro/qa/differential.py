"""Per-configuration differential checking (the repro.qa oracle).

The configuration-preserving pipeline (``repro.superc``) and the
single-configuration baseline (``repro.baselines.gcc_like``) implement
the same language twice, with almost no shared preprocessing code.
This module closes the loop: for a sampled set of concrete
configurations it demands, per configuration, that

* both pipelines agree on *whether* the unit preprocesses at all
  (``error-agreement``),
* the configuration-preserving token tree, projected onto the
  configuration, matches the oracle's token stream token-for-token
  (``tokens``),
* both parsers agree on parseability (``parse-agreement``) and on the
  structure of the AST after :class:`StaticChoice` resolution
  (``ast``), and
* — independently of either pipeline — every string/character literal
  in the raw source is properly terminated whenever the shared lexer
  accepts it (``invariant``; the lexer is the one component both
  pipelines share, so its bugs are invisible to differencing and need
  their own validator).

A unit known to be valid-by-construction (the fuzz generator's output)
can additionally be checked with ``expect_parseable=True``: if *both*
pipelines reject it the harness still reports a finding
(``unparseable``) instead of treating the agreement as a pass — this is
what catches bugs mirrored into both implementations.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.bdd import BDDManager
from repro.cgrammar import c_tables, classify, make_context_factory
from repro.cpp import (DictFileSystem, PreprocessorError,
                       SimplePreprocessor)
from repro.cpp.expression import ExprError
from repro.lexer import lex
from repro.lexer.lexer import LexerError
from repro.parser.lr import LRParser, ParseError
from repro.qa.configs import (ConfigSampler, assignment_for,
                              bdd_guided_configs, lexical_config_variables,
                              variable_base_names)
from repro.qa.projector import (ast_signature, diff_tokens, project_ast,
                                project_tokens, tokens_match)
from repro.superc import SuperC

DEFAULT_BUILTINS = {"__STDC__": "1"}


class Disagreement:
    """One configuration on which the two pipelines differ."""

    def __init__(self, kind: str, config: Dict[str, str], detail: str,
                 filename: str = "<input>"):
        self.kind = kind
        self.config = dict(config)
        self.detail = detail
        self.filename = filename

    def to_record(self) -> Dict[str, object]:
        return {"kind": self.kind, "config": self.config,
                "detail": self.detail, "file": self.filename}

    def __repr__(self) -> str:
        config = " ".join(f"-D{k}={v}" for k, v in
                          sorted(self.config.items())) or "<empty>"
        return f"Disagreement({self.kind}, {config}: {self.detail})"


class CheckOutcome:
    """Result of differentially checking one unit."""

    def __init__(self, filename: str, configs_checked: int,
                 disagreements: List[Disagreement],
                 superc_ok: bool, superc_error: Optional[str],
                 superc_status: Optional[str] = None):
        self.filename = filename
        self.configs_checked = configs_checked
        self.disagreements = disagreements
        self.superc_ok = superc_ok
        self.superc_error = superc_error
        # The config-preserving pipeline's own verdict ("ok",
        # "degraded", "parse-failed"), or None when it raised.
        self.superc_status = superc_status

    @property
    def ok(self) -> bool:
        return not self.disagreements


def unterminated_literal(text: str) -> Optional[str]:
    """Independent literal-termination validator.

    A character-level scan (sharing no code with the lexer) that
    reports the first string/character literal left open at end of
    line or end of file.  Returns a description or None.
    """
    # Splice line continuations the way translation phase 2 does.
    text = text.replace("\\\r\n", "").replace("\\\n", "")
    i = 0
    length = len(text)
    line = 1
    while i < length:
        char = text[i]
        if char == "\n":
            line += 1
            i += 1
            continue
        if text.startswith("//", i):
            stop = text.find("\n", i)
            i = length if stop < 0 else stop
            continue
        if text.startswith("/*", i):
            stop = text.find("*/", i + 2)
            if stop < 0:
                return None  # unterminated comment: not our invariant
            line += text.count("\n", i, stop + 2)
            i = stop + 2
            continue
        if char in "'\"":
            quote = char
            j = i + 1
            closed = False
            while j < length and text[j] != "\n":
                if text[j] == "\\":
                    j += 2  # escape consumes the next char, even EOF
                    continue
                if text[j] == quote:
                    closed = True
                    break
                j += 1
            if not closed:
                what = "character" if quote == "'" else "string"
                return (f"line {line}: {what} literal opened at "
                        f"offset {i} never closes")
            i = j + 1
            continue
        i += 1
    return None


def check_lexer_invariant(text: str,
                          filename: str = "<input>") -> Optional[str]:
    """The shared lexer must reject exactly the literals the
    independent scan rejects.  Returns a violation description."""
    open_literal = unterminated_literal(text)
    try:
        lex(text, filename)
        lexed_ok = True
        lex_error = None
    except LexerError as error:
        lexed_ok = False
        lex_error = str(error)
    if lexed_ok and open_literal is not None:
        return ("lexer accepted source with an unterminated literal: "
                + open_literal)
    if not lexed_ok and open_literal is None and \
            "constant" in (lex_error or ""):
        return f"lexer rejected terminated literals: {lex_error}"
    return None


class DifferentialChecker:
    """Cross-checks both pipelines on sampled configurations.

    Construction is expensive (LALR table build) — reuse one checker
    across many units; per-unit state lives in :meth:`check_source`.
    """

    def __init__(self, files: Optional[Dict[str, str]] = None,
                 include_paths: Sequence[str] = ("include",),
                 builtins: Optional[Dict[str, str]] = None,
                 parse: bool = True, max_configs: int = 16,
                 tables=None):
        self.files = dict(files or {})
        self.include_paths = list(include_paths)
        self.builtins = dict(DEFAULT_BUILTINS if builtins is None
                             else builtins)
        self.parse = parse
        self.max_configs = max_configs
        self.tables = tables if tables is not None else c_tables()
        self.superc = SuperC(DictFileSystem(self.files),
                             include_paths=self.include_paths,
                             builtins=self.builtins, tables=self.tables)

    # -- single-configuration oracle ----------------------------------

    def _oracle_tokens(self, text: str, filename: str,
                       config: Dict[str, str]):
        pp = SimplePreprocessor(DictFileSystem(self.files),
                                include_paths=self.include_paths,
                                config=config, builtins=self.builtins)
        return pp.preprocess(text, filename)

    def _oracle_parse(self, tokens):
        manager = BDDManager()
        parser = LRParser(self.tables, classify,
                          context_factory=make_context_factory(manager),
                          condition=manager.true)
        return parser.parse(tokens)

    # -- configuration choice -----------------------------------------

    def _configs_for(self, text: str, result, seed: int,
                     configs: Optional[Sequence[Dict[str, str]]]):
        if configs is not None:
            return [dict(c) for c in configs]
        if result is not None:
            variables = variable_base_names(result.unit.manager)
        else:
            variables = lexical_config_variables(text, self.files)
        variables = [name for name in variables
                     if name not in self.builtins]
        sampler = ConfigSampler(variables, seed=seed)
        chosen = sampler.configs(self.max_configs)
        if result is not None and sampler.space_size > self.max_configs:
            # Top up with BDD-guided samples so rarely-true presence
            # conditions still get exercised.
            rng = random.Random(seed + 1)
            extra = bdd_guided_configs(result.unit.feasible_condition,
                                       rng, max(2, self.max_configs // 4))
            seen = {tuple(sorted(c.items())) for c in chosen}
            for config in extra:
                key = tuple(sorted(config.items()))
                if key not in seen:
                    seen.add(key)
                    chosen.append(config)
        return chosen

    # -- the check ----------------------------------------------------

    def check_source(self, text: str, filename: str = "fuzz.c",
                     seed: int = 0,
                     configs: Optional[Sequence[Dict[str, str]]] = None,
                     expect_parseable: bool = False) -> CheckOutcome:
        disagreements: List[Disagreement] = []

        violation = check_lexer_invariant(text, filename)
        if violation is not None:
            disagreements.append(
                Disagreement("invariant", {}, violation, filename))

        result = None
        superc_error: Optional[str] = None
        try:
            result = self.superc.parse_source(text, filename)
        except (LexerError, PreprocessorError, ExprError,
                RecursionError) as error:
            superc_error = f"{type(error).__name__}: {error}"

        chosen = self._configs_for(text, result, seed, configs)
        any_parsed = False
        for config in chosen:
            found = self._check_config(text, filename, result,
                                       superc_error, config)
            if found is None:
                any_parsed = True
            else:
                disagreements.extend(found)

        if expect_parseable and not any_parsed and chosen:
            detail = ("unit is valid by construction but no sampled "
                      "configuration preprocessed and parsed cleanly")
            if superc_error:
                detail += f" (config-preserving: {superc_error})"
            disagreements.append(
                Disagreement("unparseable", chosen[0], detail, filename))

        # Every pipeline result implements the repro.api Result
        # protocol, so status is an attribute, not a maybe.
        return CheckOutcome(filename, len(chosen), disagreements,
                            result is not None and result.ok,
                            superc_error,
                            result.status if result is not None
                            else None)

    def _check_config(self, text, filename, result, superc_error,
                      config) -> Optional[List[Disagreement]]:
        """Check one configuration.

        Returns None when the configuration preprocessed and parsed
        cleanly in both pipelines (used for ``expect_parseable``), or
        a (possibly empty) list of disagreements otherwise.
        """
        oracle_error: Optional[str] = None
        oracle_tokens = None
        try:
            oracle_tokens = self._oracle_tokens(text, filename, config)
        except (LexerError, PreprocessorError, ExprError,
                RecursionError) as error:
            oracle_error = f"{type(error).__name__}: {error}"

        if result is None:
            # The config-preserving pipeline failed outright, i.e. in
            # every configuration; the oracle must fail everywhere too.
            if oracle_error is None:
                return [Disagreement(
                    "error-agreement", config,
                    "config-preserving preprocessor rejected the unit "
                    f"({superc_error}) but the single-configuration "
                    "oracle accepted this configuration", filename)]
            return []

        assignment = assignment_for(result.unit, config)
        feasible = result.unit.feasible_condition.evaluate(assignment)
        if not feasible:
            # A conditional #error (or guarded hard error) covers this
            # configuration: the oracle must reject it.
            if oracle_error is None:
                matching = [c.to_expr_string()
                            for c, _m in result.unit.error_conditions
                            if c.evaluate(assignment)]
                conditions = ", ".join(
                    matching or [c.to_expr_string() for c, _m in
                                 result.unit.error_conditions]) or "?"
                return [Disagreement(
                    "error-agreement", config,
                    "config-preserving pipeline marks this "
                    f"configuration infeasible (error under {conditions})"
                    " but the oracle accepted it", filename)]
            return []
        if oracle_error is not None:
            return [Disagreement(
                "error-agreement", config,
                "single-configuration oracle rejected a configuration "
                f"the config-preserving pipeline accepts: {oracle_error}",
                filename)]

        projected = project_tokens(result.unit, config)
        if not tokens_match(projected, oracle_tokens):
            return [Disagreement(
                "tokens", config,
                diff_tokens(projected, oracle_tokens), filename)]

        if not self.parse:
            return None

        degraded = [diag for diag in result.parse.diagnostics
                    if diag.condition.evaluate(assignment)]
        if degraded:
            # The parser degraded this configuration away (kill-switch
            # shedding or a resource-budget trip).  The projected
            # tokens above are still authoritative, but there is no
            # parse claim left to cross-check — agreement by absence,
            # though not a clean parse.
            return []

        accepted = [cond for cond, _v in result.parse.accepted
                    if cond.evaluate(assignment)]
        failed = [f for f in result.parse.failures
                  if f.condition.evaluate(assignment)]
        try:
            oracle_ast = self._oracle_parse(oracle_tokens)
        except ParseError as error:
            if accepted and not failed:
                return [Disagreement(
                    "parse-agreement", config,
                    "FMLR accepted this configuration but the plain LR "
                    f"parser rejected it: {error}", filename)]
            # Both reject: agreement, but not a clean parse.
            return []
        if failed or not accepted:
            first = failed[0] if failed else None
            detail = ("plain LR parser accepted this configuration but "
                      "FMLR recorded "
                      + (f"a failure at {first.token!r}" if first
                         else "no accepting subparser"))
            return [Disagreement("parse-agreement", config, detail,
                                 filename)]

        projected_ast = project_ast(result, config)
        if ast_signature(projected_ast) != ast_signature(oracle_ast):
            return [Disagreement(
                "ast", config,
                "projected StaticChoice AST differs structurally from "
                "the plain single-configuration parse", filename)]
        return None
