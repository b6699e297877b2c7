"""Digraphs on the nodes 0..n-1 as successor lists, repeats and self-loops
allowed, for the left KL preorder and the inclusion graphs: strongly
connected components (Tarjan, SIAM J. Comput. 1, 1972), reachability as
int bitsets, DAG transitive reduction (Aho-Garey-Ullman, same volume).
"""

from __future__ import annotations

from itertools import count
from typing import Sequence


def components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components in reverse topological order (every
    edge ends in its own component or an earlier one), by iterative Tarjan."""
    n = len(succ)
    index, low, ticket = [-1] * n, [0] * n, count()
    # work holds (node, iterator over its remaining heads) pairs
    stack, work, out = [], [], []

    def enter(v: int) -> None:
        index[v] = low[v] = next(ticket)
        stack.append(v)
        work.append((v, iter(succ[v])))
    for root in range(n):
        if index[root] < 0:
            enter(root)
        while work:
            v, heads = work[-1]
            for w in heads:
                if index[w] < 0:
                    enter(w)
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp: list[int] = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        index[comp[-1]] = n  # emitted: lowers no low-link
                    out.append(comp)
    return out


def reach(succ: Sequence[Sequence[int]]) -> list[int]:
    """Per node v, the bitset of the nodes that v reaches by a path of
    length >= 0 (bit v included), ORed over the condensation."""
    comp_of = [0] * len(succ)
    bits: list[int] = []
    for c, comp in enumerate(components(succ)):
        for v in comp:
            comp_of[v] = c
        here = sum(1 << v for v in comp)
        for v in comp:
            for w in succ[v]:
                if comp_of[w] != c:  # an earlier component, already done
                    here |= bits[comp_of[w]]
        bits.append(here)
    return [bits[c] for c in comp_of]


def reduction(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Transitive reduction of a DAG: v -> w stays unless w is reachable
    from another successor of v.  Repeated edges collapse to one."""
    far = reach(succ)
    out = []
    for heads in succ:
        implied = 0
        for u in heads:
            implied |= far[u] & ~(1 << u)
        out.append([w for w in dict.fromkeys(heads) if not implied >> w & 1])
    return out


def members(bits: int) -> list[int]:
    """The nodes of a bitset, ascending."""
    return [i for i, c in enumerate(reversed(bin(bits))) if c == "1"]
