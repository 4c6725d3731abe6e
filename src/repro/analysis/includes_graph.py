"""Include-dependency graph analytics.

Table 2's developer-view observation: "15% of include directives are
in header files, resulting in long chains of dependencies", and "some
headers are directly included in thousands of C files (and
preprocessed for each one)".  This module builds the include graph of
a source tree and answers the associated questions: transitive
inclusion counts, longest dependency chains, redundant direct
includes, and cycle detection (which guard macros usually mask).
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

import networkx as nx

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+[<"]([^>"]+)[>"]',
                         re.MULTILINE)


def build_include_graph(files: Dict[str, str],
                        include_prefix: str = "include/") -> nx.DiGraph:
    """Directed graph: edge A -> B when A includes B.

    Nodes are file paths; include operands are resolved against the
    ``include_prefix`` and against the including file's directory.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(files)
    for path, text in files.items():
        directory = path.rsplit("/", 1)[0] + "/" if "/" in path else ""
        for name in _INCLUDE_RE.findall(text):
            for candidate in (include_prefix + name, directory + name,
                              name):
                if candidate in files:
                    graph.add_edge(path, candidate)
                    break
    return graph


def transitive_inclusion_counts(graph: nx.DiGraph) -> Dict[str, int]:
    """For each header: how many C files reach it (Table 2b)."""
    c_files = [node for node in graph if node.endswith(".c")]
    counts: Dict[str, int] = {}
    for c_file in c_files:
        for reached in nx.descendants(graph, c_file):
            if reached.endswith(".h"):
                counts[reached] = counts.get(reached, 0) + 1
    return counts


def longest_chain(graph: nx.DiGraph) -> List[str]:
    """The longest acyclic include chain ("long chains of
    dependencies")."""
    acyclic = graph
    if not nx.is_directed_acyclic_graph(graph):
        acyclic = nx.condensation(graph)
        path = nx.dag_longest_path(acyclic)
        # Expand condensation members arbitrarily (one per component).
        members = acyclic.nodes(data="members")
        return [sorted(dict(members)[node])[0] for node in path]
    return nx.dag_longest_path(acyclic)


def include_cycles(graph: nx.DiGraph) -> List[List[str]]:
    """Header inclusion cycles (guard macros usually break them at
    preprocessing time, but they still indicate layering problems)."""
    return [sorted(component)
            for component in nx.strongly_connected_components(graph)
            if len(component) > 1]


def redundant_direct_includes(graph: nx.DiGraph) \
        -> List[Tuple[str, str, str]]:
    """Direct includes already implied transitively: (file, header,
    via) triples where file -> via -> ... -> header exists without the
    direct edge."""
    redundant: List[Tuple[str, str, str]] = []
    for source, target in list(graph.edges):
        others = [succ for succ in graph.successors(source)
                  if succ != target]
        for via in others:
            if target == via:
                continue
            if nx.has_path(graph, via, target):
                redundant.append((source, target, via))
                break
    return redundant


def preprocessing_fanout(graph: nx.DiGraph) -> int:
    """Total number of (C file, reachable header) pairs: how many
    header preprocessings a non-caching tool performs for the tree
    (the paper: module.h alone is preprocessed for nearly half of all
    C files)."""
    return sum(transitive_inclusion_counts(graph).values())
