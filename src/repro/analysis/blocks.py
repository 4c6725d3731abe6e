"""Conditional-block analyses over configuration-preserving output.

These are the downstream analyses the paper motivates (§1, §8): once a
compilation unit carries presence conditions everywhere, questions
that would otherwise need exponentially many compiler runs become BDD
queries:

* :func:`collect_blocks` — every conditional code block with its full
  presence condition;
* :func:`configuration_coverage` — which fraction of blocks one
  configuration enables (the paper's intro cites Tartler et al. [37]:
  Linux ``allyesconfig`` covers less than 80% of conditional blocks);
* :func:`dead_blocks` — blocks infeasible under given constraints;
* :func:`mutually_exclusive` / :func:`always_together` — relations
  between blocks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.cpp.conditions import defined_var
from repro.cpp.tree import Conditional, TokenTree
from repro.lexer.tokens import Token


class Block:
    """One conditional code block: tokens under a presence condition."""

    __slots__ = ("condition", "tokens", "depth")

    def __init__(self, condition: Any, tokens: List[Token], depth: int):
        self.condition = condition
        self.tokens = tokens
        self.depth = depth

    @property
    def first_line(self) -> Optional[int]:
        return self.tokens[0].line if self.tokens else None

    @property
    def file(self) -> Optional[str]:
        return self.tokens[0].file if self.tokens else None

    def preview(self, width: int = 6) -> str:
        return " ".join(t.text for t in self.tokens[:width])

    def __repr__(self) -> str:
        where = f"{self.file}:{self.first_line}" if self.tokens else "?"
        return f"Block({where}, {self.condition.to_expr_string()})"


def collect_blocks(tree: TokenTree, enclosing: Any) -> List[Block]:
    """All conditional blocks with their *full* (conjoined) presence
    conditions, in document order."""
    blocks: List[Block] = []

    def walk(subtree: TokenTree, condition: Any, depth: int) -> None:
        for item in subtree:
            if isinstance(item, Conditional):
                for branch_cond, branch in item.branches:
                    joint = condition & branch_cond
                    if joint.is_false():
                        continue
                    tokens = [t for t in branch
                              if isinstance(t, Token)]
                    blocks.append(Block(joint, tokens, depth + 1))
                    walk(branch, joint, depth + 1)

    walk(tree, enclosing, 0)
    return blocks


def configuration_coverage(blocks: Sequence[Block],
                           assignment: Dict[str, bool]) -> float:
    """Fraction of conditional blocks enabled by one configuration."""
    if not blocks:
        return 1.0
    enabled = sum(1 for block in blocks
                  if block.condition.evaluate(assignment))
    return enabled / len(blocks)


def allyes_assignment(config_variables: Sequence[str]) \
        -> Dict[str, bool]:
    """The allyesconfig analogue: every defined:VAR true."""
    return {defined_var(name): True for name in config_variables}


def dead_blocks(blocks: Sequence[Block], constraint: Any) \
        -> List[Block]:
    """Blocks unreachable under a constraint (e.g. an architecture's
    forced configuration choices)."""
    return [block for block in blocks
            if (block.condition & constraint).is_false()]


def mutually_exclusive(left: Block, right: Block) -> bool:
    """No configuration enables both blocks."""
    return (left.condition & right.condition).is_false()


def always_together(left: Block, right: Block) -> bool:
    """Every configuration enables both or neither."""
    return left.condition.equiv(right.condition).is_true()


def block_histogram(blocks: Sequence[Block]) -> Dict[int, int]:
    """Blocks per nesting depth (Table 3's 'Max. depth' context)."""
    histogram: Dict[int, int] = {}
    for block in blocks:
        histogram[block.depth] = histogram.get(block.depth, 0) + 1
    return histogram
