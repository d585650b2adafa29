"""Execution traces and message accounting.

The open question at the end of the paper (Section 5.4) is whether the large
*message-size* overhead of the simulation constructions (Theorems 4, 8, 9) is
necessary.  To be able to measure that overhead, the runner can record a
:class:`Trace`: the full state history, the messages received by every port in
every round, and a size estimate for each message.

The size of a message is its *tree* count: a container shared in several
places counts once per place.  The simulations' messages nest earlier rounds'
messages (Theorem 4's ``beta_t = (beta_{t-1}, B_{t-1})``), so they are small
DAGs whose trees grow exponentially with the round.  The accounting therefore
computes the tree count once per distinct container object, walks iteratively
(no recursion limit, however deep the nesting), and shares one memo across a
whole trace, because round ``t``'s messages are nested inside round ``t+1``'s.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any

from repro.graphs.graph import Node
from repro.machines.multiset import FrozenMultiset


def _parts(message: Any) -> Iterator[tuple[Any, int]] | None:
    """The ``(child, multiplicity)`` pairs of a container, or ``None`` for an atom."""
    if isinstance(message, (tuple, list, set, frozenset)):
        return zip(message, repeat(1))
    if isinstance(message, FrozenMultiset):
        return iter(message.counts().items())
    if isinstance(message, dict):
        return ((part, 1) for item in message.items() for part in item)
    return None


def _tree_size(message: Any, memo: dict[int, tuple[Any, int]]) -> int:
    """The tree count of ``message``, sizing each distinct container once.

    ``memo`` maps ``id(container)`` to ``(container, size)``.  Holding the
    container keeps it alive for as long as the memo lives, so its id cannot
    be recycled by another object.  Keys are identities, not values: tuple
    hashes are not cached, so hashing a nested message costs a full tree walk.
    """
    hit = memo.get(id(message))
    if hit is not None:
        return hit[1]
    parts = _parts(message)
    if parts is None:
        return 1
    # Post-order walk.  A frame is [container, its remaining parts, its count
    # so far, its multiplicity in the parent]; the stack is the current path.
    stack = [[message, parts, 1, 1]]
    on_path = {id(message)}
    while stack:
        frame = stack[-1]
        for child, count in frame[1]:
            hit = memo.get(id(child))
            if hit is not None:
                frame[2] += count * hit[1]
                continue
            child_parts = _parts(child)
            if child_parts is None:
                frame[2] += count
            elif id(child) in on_path:
                raise ValueError("message contains itself; its tree size is infinite")
            else:
                stack.append([child, child_parts, 1, count])
                on_path.add(id(child))
                break
        else:
            node, _, size, count = stack.pop()
            on_path.discard(id(node))
            memo[id(node)] = (node, size)
            if stack:
                stack[-1][2] += count * size
    return memo[id(message)][1]


def message_size(message: Any) -> int:
    """A structural size estimate of a message: the number of atoms it contains.

    Containers (tuples, lists, sets, frozensets, dicts and
    :class:`~repro.machines.multiset.FrozenMultiset`) contribute the sizes of
    their elements plus one; everything else counts as a single atom.  The
    estimate is used to compare message growth between an algorithm and its
    simulation, not as an exact bit count.

    The result is the tree count: a container reachable along several paths
    counts once per path, and a multiset element once per copy.  Each
    distinct container object is nevertheless sized only once, so a message
    whose tree is exponentially larger than its object graph costs time
    linear in the object graph, and nesting depth is not bounded by the
    recursion limit.  A container that contains itself raises
    :class:`ValueError`.
    """
    return _tree_size(message, {})


@dataclass
class Trace:
    """A complete record of one execution.

    Attributes
    ----------
    state_history:
        ``state_history[t][v]`` is the state of node ``v`` at time ``t``
        (``t = 0`` is the initial state).
    received_messages:
        ``received_messages[t][(v, i)]`` is the message received by node ``v``
        through input port ``i`` in round ``t`` (rounds are 1-based; index 0 is
        an empty dict for alignment with ``state_history``).
    """

    state_history: list[dict[Node, Any]] = field(default_factory=list)
    received_messages: list[dict[tuple[Node, int], Any]] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        """The number of communication rounds recorded."""
        return max(0, len(self.state_history) - 1)

    def states_at(self, time: int) -> dict[Node, Any]:
        """The state vector ``x_t``."""
        return self.state_history[time]

    def _message_sizes(self) -> Iterator[int]:
        """:func:`message_size` of every received message, with one memo for the trace."""
        memo: dict[int, tuple[Any, int]] = {}
        for per_round in self.received_messages:
            for message in per_round.values():
                yield _tree_size(message, memo)

    def max_message_size(self) -> int:
        """The largest message (structural size) observed in the execution."""
        return max(self._message_sizes(), default=0)

    def total_message_volume(self) -> int:
        """The sum of all message sizes over the whole execution."""
        return sum(self._message_sizes())

    def messages_received_by(self, node: Node, time: int) -> dict[int, Any]:
        """The messages received by ``node`` in round ``time``, keyed by input port."""
        return {
            port: message
            for (receiver, port), message in self.received_messages[time].items()
            if receiver == node
        }
