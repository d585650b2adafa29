"""Local-type symmetry breaking (Theorem 17): a VVc(1) algorithm.

Under a *consistent* port numbering, output port ``i`` and input port ``i`` of
a node are attached to the same neighbour, so after one round in which every
node sends its own port numbers, a node learns its *local type*
``t(v) = (j_1, ..., j_deg(v))``: the port number at the far end of each of its
ports.  In a second round the nodes exchange their local types and a node
outputs 1 exactly when its type is maximal among its neighbours.

Theorem 17 shows that on every connected odd-regular graph without a perfect
matching (the family ``G``; e.g. the Figure 9 graph) a consistent port
numbering forces at least two distinct local types, so the output is
non-constant -- while no Vector algorithm can achieve that under *arbitrary*
port numberings, because Lemma 15 provides an inconsistent numbering that
makes all nodes bisimilar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.machines.algorithm import Output, VectorAlgorithm


@dataclass(frozen=True)
class _TypeState:
    """State after round 1: the node's local type."""

    local_type: tuple[int, ...]


class LocalTypeSymmetryBreaking(VectorAlgorithm):
    """Output 1 iff the node's local type is maximal among its neighbours (2 rounds).

    The algorithm is only guaranteed to solve the symmetry-breaking problem of
    Theorem 17 when the port numbering is consistent, i.e. as a member of the
    class VVc(1); it always halts in exactly two rounds regardless.
    """

    def initial_state(self, degree: int) -> Any:
        return ("collect", degree)

    def send(self, state: Any, port: int) -> Any:
        if isinstance(state, tuple) and state[0] == "collect":
            return port
        return state.local_type

    def transition(self, state: Any, received: tuple) -> Any:
        if isinstance(state, tuple) and state[0] == "collect":
            return _TypeState(local_type=tuple(received))
        own = state.local_type
        neighbour_types = list(received)
        is_maximal = all(own >= neighbour for neighbour in neighbour_types)
        return Output(1 if is_maximal else 0)
