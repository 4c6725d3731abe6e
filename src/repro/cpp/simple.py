"""A plain single-configuration C preprocessor.

This is the differential oracle: for any total configuration, the
configuration-preserving preprocessor's output *projected* onto that
configuration must equal this preprocessor's output token-for-token.
It mirrors the paper's validation of SuperC against ``gcc -E`` under
``allyesconfig`` (§6.3).

It is implemented independently of the configuration-preserving
machinery (no BDDs, no hoisting, no conditional macro table) so that a
bug in the shared code cannot hide in both sides of the comparison.
Only the lexer, the expression parser, and the include resolver are
shared — they are configuration-agnostic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.cpp.errors import PreprocessorError
from repro.cpp.expression import evaluate_int, parse_expression
from repro.cpp.includes import FileSystem, IncludeResolver
from repro.lexer import lex_logical_lines
from repro.lexer.tokens import Token, TokenKind


class SimpleMacro:
    """One live definition in the single-configuration table."""

    __slots__ = ("name", "params", "variadic", "body", "va_name")

    def __init__(self, name: str, body: Sequence[Token],
                 params: Optional[Sequence[str]] = None,
                 variadic: bool = False, va_name: Optional[str] = None):
        self.name = name
        self.body = list(body)
        self.params = list(params) if params is not None else None
        self.variadic = variadic
        self.va_name = va_name

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


class SimplePreprocessor:
    """Preprocesses one configuration (a concrete set of -D defines)."""

    def __init__(self, fs: Optional[FileSystem] = None,
                 include_paths: Sequence[str] = (),
                 defines: Optional[Dict[str, str]] = None,
                 config: Optional[Dict[str, str]] = None,
                 builtins: Optional[Dict[str, str]] = None):
        from repro.cpp.preprocessor import DEFAULT_BUILTINS
        self.fs = fs
        self.resolver = IncludeResolver(fs, include_paths) if fs else None
        # Versioned events per name: (version, SimpleMacro or None).
        self._events: Dict[str, List[Tuple[int, Optional[SimpleMacro]]]] = {}
        self._version = 0
        builtin_map = DEFAULT_BUILTINS if builtins is None else builtins
        for name, body in builtin_map.items():
            self._define_text(name, body)
        for name, body in (defines or {}).items():
            self._define_text(name, body)
        # Configuration variables: *free* macros in SuperC's model.
        # They answer defined()/#if with the given values but are never
        # expanded in program text (the paper's config macros come from
        # autoconf.h inclusion, not -D command lines; a free macro's
        # occurrence stays an identifier in every configuration).
        self._config = dict(config or {})
        self._collected: List[Token] = []
        self._skip_stack: List[Tuple[bool, bool, bool]] = []
        self._file_stack: List[str] = []

    # -- public --------------------------------------------------------------

    def preprocess(self, text: str,
                   filename: str = "<input>") -> List[Token]:
        """Preprocess to the flat token list of this configuration."""
        self._process_file(filename, text)
        if self._skip_stack:
            raise PreprocessorError("unterminated conditional")
        return self._expand(self._collected)

    def preprocess_file(self, path: str) -> List[Token]:
        text = self.fs.read(path)
        if text is None:
            raise PreprocessorError(f"cannot read {path!r}")
        return self.preprocess(text, path)

    # -- table ----------------------------------------------------------------

    def _define_text(self, name: str, body_text: str) -> None:
        body = [t for line in lex_logical_lines(body_text,
                                                f"<define:{name}>")
                for t in line]
        self._version += 1
        self._events.setdefault(name, []).append(
            (self._version, SimpleMacro(name, body)))

    def _lookup(self, name: str,
                version: Optional[int] = None) -> Optional[SimpleMacro]:
        events = self._events.get(name)
        if not events:
            return None
        if version is None:
            version = self._version
        for event_version, macro in reversed(events):
            if event_version <= version:
                return macro
        return None

    def is_defined(self, name: str) -> bool:
        events = self._events.get(name)
        if events:
            # Source-level defines/undefs shadow the configuration.
            return self._lookup(name) is not None
        return name in self._config

    def config_value(self, name: str) -> int:
        """The #if value of a surviving identifier: its configuration
        value when set, else 0 (plain C semantics)."""
        body = self._config.get(name, "").strip()
        if not body:
            return 0
        from repro.cpp.expression import ExprError, parse_int
        try:
            return parse_int(body)
        except ExprError:
            return 0

    # -- processing ---------------------------------------------------------------

    def _active(self) -> bool:
        return all(active for active, _, _ in self._skip_stack)

    def _process_file(self, filename: str, text: str) -> None:
        if len(self._file_stack) > 200:
            raise PreprocessorError(f"include depth exceeded at {filename}")
        self._file_stack.append(filename)
        entry_depth = len(self._skip_stack)
        for line in lex_logical_lines(text, filename):
            if not line:
                continue
            if line[0].kind is TokenKind.HASH:
                self._directive(line, filename)
            elif self._active():
                for token in line:
                    token.version = self._version
                    self._collected.append(token)
        if len(self._skip_stack) != entry_depth:
            raise PreprocessorError(
                f"conditional opened in {filename} is not closed there")
        self._file_stack.pop()

    def _directive(self, line: List[Token], filename: str) -> None:
        if len(line) < 2:
            return
        keyword = line[1].text
        rest = line[2:]
        # Conditional structure is always tracked, even when skipping.
        if keyword == "if":
            value = self._eval(rest) if self._active() else False
            self._skip_stack.append((bool(value), bool(value), False))
            return
        if keyword in ("ifdef", "ifndef"):
            # Like #if/#elif nesting, the name is validated even in
            # skipped groups (gcc: "no macro name given in #ifdef").
            if not rest or rest[0].kind is not TokenKind.IDENTIFIER:
                raise PreprocessorError(
                    "#ifdef/#ifndef requires a name", line[1])
            defined = self.is_defined(rest[0].text)
            value = self._active() and \
                (defined if keyword == "ifdef" else not defined)
            self._skip_stack.append((bool(value), bool(value), False))
            return
        if keyword == "elif":
            if not self._skip_stack:
                raise PreprocessorError("#elif without #if")
            active, taken, seen_else = self._skip_stack.pop()
            if seen_else:
                raise PreprocessorError("#elif after #else")
            if taken or not self._active():
                self._skip_stack.append((False, taken, False))
            else:
                value = bool(self._eval(rest))
                self._skip_stack.append((value, value, False))
            return
        if keyword == "else":
            if not self._skip_stack:
                raise PreprocessorError("#else without #if")
            active, taken, seen_else = self._skip_stack.pop()
            if seen_else:
                raise PreprocessorError("duplicate #else")
            value = not taken and self._active()
            self._skip_stack.append((value, taken or value, True))
            return
        if keyword == "endif":
            if not self._skip_stack:
                raise PreprocessorError("#endif without #if")
            self._skip_stack.pop()
            return
        if not self._active():
            return
        if keyword == "define":
            self._do_define(rest)
        elif keyword == "undef":
            if not rest or rest[0].kind is not TokenKind.IDENTIFIER:
                raise PreprocessorError("#undef requires a name")
            self._version += 1
            self._events.setdefault(rest[0].text, []).append(
                (self._version, None))
        elif keyword == "include":
            self._do_include(line[1], rest, filename)
        elif keyword == "error":
            message = " ".join(t.text for t in rest)
            raise PreprocessorError(f"#error {message}", line[0])
        # warning/pragma/line are ignored in the oracle.

    def _do_define(self, rest: List[Token]) -> None:
        if not rest or rest[0].kind is not TokenKind.IDENTIFIER:
            raise PreprocessorError("#define requires a name")
        name = rest[0].text
        if len(rest) > 1 and rest[1].is_punctuator("(") and \
                not rest[1].has_space_before:
            params: List[str] = []
            variadic = False
            va_name: Optional[str] = None
            index = 2
            while index < len(rest) and not rest[index].is_punctuator(")"):
                token = rest[index]
                if token.is_punctuator("..."):
                    variadic = True
                elif token.kind is TokenKind.IDENTIFIER:
                    if index + 1 < len(rest) and \
                            rest[index + 1].is_punctuator("..."):
                        variadic = True
                        va_name = token.text
                        index += 1
                    else:
                        params.append(token.text)
                index += 1
            macro = SimpleMacro(name, rest[index + 1:], params, variadic,
                                va_name=va_name)
        else:
            macro = SimpleMacro(name, rest[1:])
        self._version += 1
        self._events.setdefault(name, []).append((self._version, macro))

    def _do_include(self, origin: Token, rest: List[Token],
                    filename: str) -> None:
        if self.resolver is None:
            raise PreprocessorError("no file system for #include", origin)
        name, quoted = self._header_name(rest, origin)
        path = self.resolver.resolve(name, quoted, filename)
        if path is None:
            raise PreprocessorError(f"cannot find include file {name!r}",
                                    origin)
        self._process_file(path, self.fs.read(path))

    def _header_name(self, rest: List[Token],
                     origin: Token) -> Tuple[str, bool]:
        if rest and rest[0].kind is TokenKind.STRING and len(rest) == 1:
            return rest[0].text[1:-1], True
        if rest and rest[0].is_punctuator("<"):
            parts = []
            for token in rest[1:]:
                if token.is_punctuator(">"):
                    return "".join(parts), False
                parts.append(token.text)
        # Computed include: expand then retry.
        for token in rest:
            token.version = self._version
        expanded = self._expand(list(rest), protect_defined=False)
        if expanded and (expanded[0].kind is TokenKind.STRING
                         or expanded[0].is_punctuator("<")):
            return self._header_name(expanded, origin)
        raise PreprocessorError("malformed #include", origin)

    # -- expression evaluation ------------------------------------------------------

    def _eval(self, tokens: List[Token]) -> int:
        for token in tokens:
            token.version = self._version
        expanded = self._expand(list(tokens), protect_defined=True)
        expr = parse_expression(expanded)
        return evaluate_int(expr, self.is_defined, self.config_value)

    # -- expansion -------------------------------------------------------------------

    def _expand(self, tokens: List[Token],
                protect_defined: bool = False) -> List[Token]:
        work: Deque[Token] = deque(tokens)
        out: List[Token] = []
        while work:
            token = work.popleft()
            if token.kind is not TokenKind.IDENTIFIER:
                out.append(token)
                continue
            if protect_defined and token.text == "defined":
                out.append(token)
                self._pass_operand(work, out)
                continue
            if token.text in token.no_expand:
                out.append(token)
                continue
            macro = self._lookup(token.text, token.version)
            if macro is None:
                out.append(token)
                continue
            if not macro.is_function_like:
                work.extendleft(reversed(self._subst_object(macro, token)))
                continue
            consumed = self._scan_invocation(work)
            if consumed is None:
                out.append(token)
                continue
            flat = [work.popleft() for _ in range(consumed)]
            args = self._parse_args(macro, token, flat)
            body = self._subst_function(macro, token, args)
            work.extendleft(reversed(body))
        return out

    @staticmethod
    def _pass_operand(work: Deque[Token], out: List[Token]) -> None:
        if work and work[0].is_punctuator("("):
            out.append(work.popleft())
            if work:
                out.append(work.popleft())
            if work and work[0].is_punctuator(")"):
                out.append(work.popleft())
        elif work and work[0].kind is TokenKind.IDENTIFIER:
            out.append(work.popleft())

    @staticmethod
    def _scan_invocation(work: Deque[Token]) -> Optional[int]:
        if not work or not work[0].is_punctuator("("):
            return None
        depth = 0
        for index, token in enumerate(work):
            if token.is_punctuator("("):
                depth += 1
            elif token.is_punctuator(")"):
                depth -= 1
                if depth == 0:
                    return index + 1
        return None

    def _parse_args(self, macro: SimpleMacro, head: Token,
                    flat: List[Token]) -> List[List[Token]]:
        args: List[List[Token]] = []
        current: List[Token] = []
        depth = 0
        for token in flat:
            if token.is_punctuator("("):
                depth += 1
                if depth == 1:
                    continue
            elif token.is_punctuator(")"):
                depth -= 1
                if depth == 0:
                    break
            elif token.is_punctuator(",") and depth == 1:
                args.append(current)
                current = []
                continue
            current.append(token)
        args.append(current)
        params = macro.params or []
        if len(args) == 1 and not args[0] and not params and \
                not macro.variadic:
            args = []
        if macro.variadic:
            if len(args) < len(params):
                args = args + [[] for _ in range(len(params) - len(args))]
        elif len(args) != len(params):
            if len(params) == 0 and len(args) == 1 and not args[0]:
                args = []
            else:
                raise PreprocessorError(
                    f"macro {macro.name!r} expects {len(params)} "
                    f"argument(s), got {len(args)}", head)
        return args

    def _subst_object(self, macro: SimpleMacro,
                      head: Token) -> List[Token]:
        hide = head.no_expand | {macro.name}
        body = []
        for index, token in enumerate(macro.body):
            clone = token.copy()
            clone.no_expand = clone.no_expand | hide
            clone.version = head.version
            if index == 0:
                clone.layout = head.layout
            body.append(clone)
        return self._resolve_pastes(macro, body, {}, head, hide)

    def _subst_function(self, macro: SimpleMacro, head: Token,
                        args: List[List[Token]]) -> List[Token]:
        params = macro.params or []
        raw = {name: args[i] for i, name in enumerate(params)}
        if macro.variadic:
            va: List[Token] = []
            for index in range(len(params), len(args)):
                if index > len(params):
                    va.append(Token(TokenKind.PUNCTUATOR, ",", head.file,
                                    head.line, head.col))
                va.extend(args[index])
            raw[macro.va_name or "__VA_ARGS__"] = va
        hide = head.no_expand | {macro.name}
        body = []
        for token in macro.body:
            clone = token.copy()
            clone.version = head.version
            if token.kind is not TokenKind.IDENTIFIER or \
                    token.text not in raw:
                clone.no_expand = clone.no_expand | hide
            body.append(clone)
        return self._resolve_pastes(macro, body, raw, head, hide)

    def _resolve_pastes(self, macro: SimpleMacro, body: List[Token],
                        raw: Dict[str, List[Token]], head: Token,
                        hide: frozenset) -> List[Token]:
        va_param = (macro.va_name or "__VA_ARGS__") if macro.variadic \
            else None
        fragments: List[List[Token]] = []
        index = 0
        while index < len(body):
            token = body[index]
            nxt = body[index + 1] if index + 1 < len(body) else None
            # GNU comma deletion: `, ## __VA_ARGS__` drops the comma
            # when the variadic argument is empty and pastes nothing
            # (tokens are placed verbatim) when it is not.
            if va_param is not None and token.is_punctuator(",") and \
                    nxt is not None and nxt.kind is TokenKind.HASHHASH \
                    and index + 2 < len(body) \
                    and body[index + 2].kind is TokenKind.IDENTIFIER \
                    and body[index + 2].text == va_param \
                    and va_param in raw:
                va_tokens = raw[va_param]
                if va_tokens:
                    fragments.append([token])
                    clones = []
                    for arg_token in va_tokens:
                        clone = arg_token.copy()
                        clone.version = head.version
                        clones.append(clone)
                    fragments.append(clones)
                index += 3
                continue
            if token.kind is TokenKind.HASH and nxt is not None and \
                    nxt.kind is TokenKind.IDENTIFIER and nxt.text in raw:
                fragments.append([_stringify(raw[nxt.text], head)])
                index += 2
                continue
            if token.kind is TokenKind.HASHHASH:
                fragments.append([token])
                index += 1
                continue
            if token.kind is TokenKind.IDENTIFIER and token.text in raw:
                prev_hash = index > 0 and \
                    body[index - 1].kind is TokenKind.HASHHASH
                next_hash = nxt is not None and \
                    nxt.kind is TokenKind.HASHHASH
                if prev_hash or next_hash:
                    clones = []
                    for arg_token in raw[token.text]:
                        clone = arg_token.copy()
                        clone.version = head.version
                        clones.append(clone)
                    fragments.append(clones)
                else:
                    fragments.append(self._expand(
                        [t.copy() for t in raw[token.text]]))
                index += 1
                continue
            fragments.append([token])
            index += 1
        result: List[Token] = []
        i = 0
        while i < len(fragments):
            fragment = fragments[i]
            if (len(fragment) == 1
                    and fragment[0].kind is TokenKind.HASHHASH
                    and result and i + 1 < len(fragments)):
                right_fragment = list(fragments[i + 1])
                left = result.pop() if result else None
                right = right_fragment.pop(0) if right_fragment else None
                pasted = self._paste(left, right, head, hide)
                if pasted is not None:
                    result.append(pasted)
                result.extend(right_fragment)
                i += 2
                continue
            result.extend(fragment)
            i += 1
        return result

    @staticmethod
    def _paste(left: Optional[Token], right: Optional[Token],
               head: Token, hide: frozenset) -> Optional[Token]:
        if left is None or left.text == "":
            return right
        if right is None or right.text == "":
            return left
        text = left.text + right.text
        lexed = [t for line in lex_logical_lines(text, head.file)
                 for t in line]
        if len(lexed) != 1:
            raise PreprocessorError(
                f"pasting {left.text!r} and {right.text!r} does not form "
                "a valid token", head)
        token = lexed[0]
        token.no_expand = left.no_expand | right.no_expand | hide
        token.version = head.version
        token.layout = left.layout
        return token


def _stringify(tokens: List[Token], head: Token) -> Token:
    parts: List[str] = []
    for index, token in enumerate(tokens):
        if index > 0 and token.has_space_before:
            parts.append(" ")
        text = token.text
        if token.kind in (TokenKind.STRING, TokenKind.CHARACTER):
            text = text.replace("\\", "\\\\").replace('"', '\\"')
        parts.append(text)
    literal = '"' + "".join(parts) + '"'
    return Token(TokenKind.STRING, literal, head.file, head.line,
                 head.col, head.layout)
