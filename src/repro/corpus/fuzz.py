"""Randomized adversarial unit generator for differential fuzzing.

Where :mod:`repro.corpus.generator` emits a realistic kernel-shaped
tree, this module emits small, hostile, *valid-by-construction*
translation units that concentrate on the preprocessor behaviors where
the two pipelines (configuration-preserving vs. single-configuration)
are most likely to diverge:

* token pasting whose operands come from conditionally defined macros
  (Figure 5's pasting-over-conditionals);
* variadic macros, including GNU ``, ## __VA_ARGS__`` comma deletion
  with empty, single, and multiple argument call sites;
* arithmetic ``#if`` expressions guarded by short-circuit operators
  (``defined(A) && VALUE/A_DIV`` style) where the dead operand is not
  evaluable;
* string/character literals with escape sequences, including escaped
  quotes adjacent to line ends;
* conditionally defined typedefs and objects referenced below.

Every generated unit is valid C in *every* configuration over its
variables, so a fuzz harness may run with ``expect_parseable=True``:
any configuration in which both pipelines reject the unit is itself a
finding, which is what exposes bugs mirrored into both pipelines.
Generation is deterministic in the seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence


class FuzzSpec:
    """Shape knobs and feature weights for one generated unit.

    ``weights`` maps feature name to relative probability mass; a
    feature with weight 0 never appears.  The default weighting is
    adversarial: heavy on the paster/variadic/guard features.
    """

    FEATURES = ("paste_conditional", "variadic", "guarded_arith",
                "escaped_literal", "conditional_typedef",
                "conditional_function", "plain_function",
                "guarded_error", "guarded_missing_include")

    def __init__(self, variables: int = 3, items: int = 8,
                 weights: Optional[Dict[str, int]] = None):
        self.variables = max(1, variables)
        self.items = max(1, items)
        # The guarded-failure features (a conditional #error / missing
        # include) are weight 0 by default: they make units that are
        # deliberately *invalid* in some configurations, which the
        # robustness smoke run opts into to exercise confinement.
        base = {"paste_conditional": 3, "variadic": 3,
                "guarded_arith": 2, "escaped_literal": 2,
                "conditional_typedef": 1, "conditional_function": 2,
                "plain_function": 1, "guarded_error": 0,
                "guarded_missing_include": 0}
        if weights:
            base.update(weights)
        self.weights = {name: base.get(name, 0)
                        for name in self.FEATURES}


class FuzzUnit:
    """One generated unit plus its configuration variables."""

    def __init__(self, seed: int, text: str, variables: List[str]):
        self.seed = seed
        self.text = text
        self.variables = variables
        self.filename = f"fuzz_{seed}.c"


def _pick(rng: random.Random, spec: FuzzSpec) -> str:
    names = [n for n in spec.FEATURES if spec.weights[n] > 0]
    total = sum(spec.weights[n] for n in names)
    shot = rng.randrange(total)
    for name in names:
        shot -= spec.weights[name]
        if shot < 0:
            return name
    return names[-1]


def generate_fuzz_unit(seed: int,
                       spec: Optional[FuzzSpec] = None) -> FuzzUnit:
    """Deterministically generate one adversarial unit."""
    spec = spec or FuzzSpec()
    rng = random.Random(seed)
    variables = [f"CFG_{chr(ord('A') + i)}" for i in range(spec.variables)]
    counter = iter(range(10000))
    lines: List[str] = []
    emitted_types: List[str] = ["int", "unsigned", "long"]

    lines.append("typedef unsigned int u32;")
    lines.append("int sink(int first, ...);")
    lines.append("")

    for _ in range(spec.items):
        feature = _pick(rng, spec)
        builder = _BUILDERS[feature]
        lines.extend(builder(rng, variables, counter, emitted_types))
        lines.append("")
    return FuzzUnit(seed, "\n".join(lines) + "\n", variables)


# ---------------------------------------------------------------------------
# feature builders — each returns complete, every-config-valid lines
# ---------------------------------------------------------------------------

def _var(rng: random.Random, variables: Sequence[str]) -> str:
    return rng.choice(list(variables))


def _paste_conditional(rng, variables, counter, types) -> List[str]:
    """Token pasting whose right operand is a conditionally defined
    macro (Figure 5 shape)."""
    n = next(counter)
    var = _var(rng, variables)
    suffix_a = rng.choice(["lo", "hi"])
    suffix_b = "alt"
    out = [
        f"#ifdef {var}",
        f"#define W{n} {suffix_a}",
        "#else",
        f"#define W{n} {suffix_b}",
        "#endif",
        f"#define GLUE{n}_(a, b) a ## b",
        f"#define GLUE{n}(a, b) GLUE{n}_(a, b)",
        f"static int GLUE{n}(field_, W{n}) = {rng.randrange(100)};",
        f"static int use_{n}(void)",
        "{",
        f"    return GLUE{n}(field_, W{n}) + {n};",
        "}",
    ]
    return out


def _variadic(rng, variables, counter, types) -> List[str]:
    """Variadic macro with GNU comma deletion, called with 0, 1, and
    2 variadic arguments (plus, sometimes, a conditional body)."""
    n = next(counter)
    var = _var(rng, variables)
    named = rng.random() < 0.3
    params = "args..." if named else "fmt, ..."
    va = "args" if named else "__VA_ARGS__"
    head = "" if named else "fmt"
    lines: List[str] = []
    if rng.random() < 0.5:
        lines += [f"#ifdef {var}",
                  f"#define LOG{n}({params}) sink(1{'' if named else ', ' + head}, ## {va})",
                  "#else",
                  f"#define LOG{n}({params}) sink(0{'' if named else ', ' + head}, ## {va})",
                  "#endif"]
    else:
        lines.append(f"#define LOG{n}({params}) "
                     f"sink(2{'' if named else ', ' + head}, ## {va})")
    if named:
        calls = [f"LOG{n}()", f"LOG{n}({n})", f"LOG{n}({n}, {n + 1})"]
    else:
        calls = [f"LOG{n}(7)", f"LOG{n}(7, {n})",
                 f"LOG{n}(7, {n}, {n + 1})"]
    lines.append(f"static int vlog_{n}(void)")
    lines.append("{")
    for call in calls:
        lines.append(f"    {call};")
    lines.append(f"    return {n};")
    lines.append("}")
    return lines


def _guarded_arith(rng, variables, counter, types) -> List[str]:
    """#if arithmetic where short-circuiting protects a division (or
    modulo) by a possibly-zero or undefined quantity."""
    n = next(counter)
    var = _var(rng, variables)
    divisor = f"{var}"
    op = rng.choice(["/", "%"])
    shape = rng.randrange(6)
    if shape == 0:
        guard = f"defined({var}) && (8 {op} {divisor} > 0)"
    elif shape == 1:
        guard = f"!defined({var}) || (8 {op} {divisor} > 0)"
    elif shape == 2:
        guard = f"defined({var}) ? (8 {op} {divisor}) : {n % 2}"
    elif shape == 3:
        # Constant-false guard: the dead operand is a constant
        # division by zero gcc never evaluates.
        guard = f"0 && (8 {op} 0)"
    elif shape == 4:
        guard = f"1 || (8 {op} 0)"
    else:
        guard = f"defined({var}) || 1 ? {n % 2} : (8 {op} 0)"
    return [
        f"#if {guard}",
        f"static int guard_{n} = 1;",
        "#else",
        f"static int guard_{n} = 0;",
        "#endif",
    ]


def _escaped_literal(rng, variables, counter, types) -> List[str]:
    """String/char literals stressing escape handling, ending in
    escaped quotes and backslashes."""
    n = next(counter)
    var = _var(rng, variables)
    literals = [r'"esc \" quote"', r'"tail backslash \\"',
                r'"\x41\n\t"', r"'\\'", r"'\''", r'"\""',
                r'L"wide \" one"']
    text = rng.choice(literals)
    char = text.startswith("'") or text.startswith("L'")
    decl_type = "int" if char else "const char *"
    out = [
        f"#ifdef {var}",
        f"#define S{n} {text}",
        "#else",
        f"#define S{n} " + (r"'\n'" if char else r'"plain \\ text"'),
        "#endif",
        f"static {decl_type} lit_{n} = S{n};",
    ]
    return out


def _conditional_typedef(rng, variables, counter, types) -> List[str]:
    n = next(counter)
    var = _var(rng, variables)
    name = f"fz{n}_t"
    types.append(name)
    return [
        f"#ifdef {var}",
        f"typedef unsigned long {name};",
        "#else",
        f"typedef int {name};",
        "#endif",
        f"static {name} obj_{n};",
        # An unconditional alias used at once: its name is the lookahead
        # of its own typedef's reduction, so the parser must classify it
        # again after that reduction (the lexer hack).
        f"typedef {name} fz{n}_alias_t;",
        f"fz{n}_alias_t alias_{n};",
    ]


def _conditional_function(rng, variables, counter, types) -> List[str]:
    """A function whose body (and sometimes a trailing parameter) is
    conditional — Figure 1's partial-construct bracketing."""
    n = next(counter)
    var = _var(rng, variables)
    t = rng.choice(types)
    out = [
        f"static int cond_{n}(int x)",
        "{",
        f"    {t} local = ({t})x;",
        f"#ifdef {var}",
        "    if (x > 0)",
        "        local = local + 1;",
        "    else",
        "#endif",
        "    local = local - 1;",
        "    return (int)local;",
        "}",
    ]
    return out


def _plain_function(rng, variables, counter, types) -> List[str]:
    n = next(counter)
    limit = rng.randrange(3, 9)
    return [
        f"static int plain_{n}(int v)",
        "{",
        "    int i;",
        "    int acc = 0;",
        f"    for (i = 0; i < {limit}; i++)",
        f"        acc += (v >> i) & {limit};",
        "    return acc;",
        "}",
    ]


def _guarded_error(rng, variables, counter, types) -> List[str]:
    """A conditional ``#error`` — invalid in the guarded
    configurations, clean everywhere else.  Exercises error
    confinement (the branch must come back pruned, not crashed)."""
    n = next(counter)
    var = _var(rng, variables)
    return [
        f"#ifdef {var}",
        f'#error "fuzz: configuration {var} unsupported ({n})"',
        "#else",
        f"static int safe_{n} = {n};",
        "#endif",
    ]


def _guarded_missing_include(rng, variables, counter, types) -> List[str]:
    """A conditional ``#include`` of a header that does not exist —
    the include failure must be confined to the guard's condition."""
    n = next(counter)
    var = _var(rng, variables)
    return [
        f"#ifdef {var}",
        f'#include "no_such_header_{n}.h"',
        "#else",
        f"static int fallback_{n} = {n};",
        "#endif",
    ]


_BUILDERS = {
    "paste_conditional": _paste_conditional,
    "variadic": _variadic,
    "guarded_arith": _guarded_arith,
    "escaped_literal": _escaped_literal,
    "conditional_typedef": _conditional_typedef,
    "conditional_function": _conditional_function,
    "plain_function": _plain_function,
    "guarded_error": _guarded_error,
    "guarded_missing_include": _guarded_missing_include,
}
