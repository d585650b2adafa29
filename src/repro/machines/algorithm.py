"""Ergonomic distributed algorithms.

The paper defines algorithms as state machines ``(Y, Z, z0, M, m0, mu, delta)``
(Section 1.1).  Writing algorithms directly in that form is verbose, so the
library offers :class:`Algorithm`: a small object with an initial-state rule, a
message-construction rule and a transition rule, specialised per model by the
subclasses below.  Halting is expressed by returning an :class:`Output` value
from ``initial_state`` or ``transition``; a halted node no longer sends
messages or changes state, exactly as in the paper.

:func:`repro.machines.state_machine.algorithm_from_machine` runs a machine
given as the formal tuple through this representation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.machines.models import (
    BROADCAST_MODEL,
    MULTISET_BROADCAST_MODEL,
    MULTISET_MODEL,
    SET_BROADCAST_MODEL,
    SET_MODEL,
    VECTOR_MODEL,
    Model,
    SendMode,
)

#: The "no message" symbol ``m0`` of the paper.  Halted nodes send it, and the
#: received message vector is padded with it up to length ``Delta``.
NO_MESSAGE: Any = ("__m0__",)


@dataclass(frozen=True)
class Output:
    """A stopping state carrying the node's local output.

    Returning ``Output(value)`` from :meth:`Algorithm.initial_state` or
    :meth:`Algorithm.transition` halts the node with local output ``value``.
    """

    value: Any


class Algorithm(abc.ABC):
    """Base class for deterministic anonymous distributed algorithms.

    Subclasses choose a model by deriving from one of the six concrete bases
    (:class:`VectorAlgorithm`, :class:`MultisetAlgorithm`,
    :class:`SetAlgorithm`, :class:`BroadcastAlgorithm`,
    :class:`MultisetBroadcastAlgorithm`, :class:`SetBroadcastAlgorithm`) and
    implement:

    * :meth:`initial_state` -- the state of a node given its degree;
    * :meth:`send` (port-addressed models) or :meth:`broadcast` (broadcast
      models) -- the outgoing message(s) of a non-halted node;
    * :meth:`transition` -- the new state given the current state and the
      received messages, presented as a tuple, :class:`FrozenMultiset` or
      frozenset according to the model's receive mode.

    States and messages must be hashable values.
    """

    #: The algorithm model; set by the concrete base classes.
    model: ClassVar[Model]

    @property
    def name(self) -> str:
        """A human-readable name (defaults to the class name)."""
        return type(self).__name__

    # ------------------------------------------------------------------ #
    # The three rules
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def initial_state(self, degree: int) -> Any:
        """The initial state ``z0(degree)`` of a node of the given degree."""

    def initial_state_with_input(self, degree: int, local_input: Any) -> Any:
        """The initial state of a node given its degree and its local input.

        Section 3.4 of the paper extends the models to structures ``(V, E, f)``
        where every node additionally carries a local input ``f(u)``.  The
        default implementation ignores the input, so ordinary (unlabelled)
        algorithms work unchanged; algorithms for labelled graphs override
        this method instead of :meth:`initial_state`.
        """
        return self.initial_state(degree)

    def send(self, state: Any, port: int) -> Any:
        """The message sent to output port ``port`` (port-addressed models).

        Broadcast-model algorithms do not override this; the runner calls
        :meth:`broadcast` for them instead.
        """
        if self.model.send is SendMode.BROADCAST:
            return self.broadcast(state)
        raise NotImplementedError(f"{self.name} must implement send()")

    def broadcast(self, state: Any) -> Any:
        """The single message sent to every output port (broadcast models)."""
        raise NotImplementedError(f"{self.name} must implement broadcast()")

    @abc.abstractmethod
    def transition(self, state: Any, received: Any) -> Any:
        """The new state after receiving ``received`` in the current round."""

    # ------------------------------------------------------------------ #
    # Halting protocol
    # ------------------------------------------------------------------ #

    def is_stopping(self, state: Any) -> bool:
        """Whether ``state`` is a stopping state."""
        return isinstance(state, Output)

    def output(self, state: Any) -> Any:
        """The local output encoded by a stopping state."""
        if isinstance(state, Output):
            return state.value
        raise ValueError(f"{state!r} is not a stopping state of {self.name}")


class VectorAlgorithm(Algorithm):
    """An algorithm in class ``Vector``: port-addressed send, vector receive."""

    model = VECTOR_MODEL


class MultisetAlgorithm(Algorithm):
    """An algorithm in class ``Multiset``: port-addressed send, multiset receive."""

    model = MULTISET_MODEL


class SetAlgorithm(Algorithm):
    """An algorithm in class ``Set``: port-addressed send, set receive."""

    model = SET_MODEL


class BroadcastAlgorithm(Algorithm):
    """An algorithm in class ``Broadcast``: broadcast send, vector receive."""

    model = BROADCAST_MODEL


class MultisetBroadcastAlgorithm(Algorithm):
    """An algorithm in ``Multiset ∩ Broadcast``: broadcast send, multiset receive."""

    model = MULTISET_BROADCAST_MODEL


class SetBroadcastAlgorithm(Algorithm):
    """An algorithm in ``Set ∩ Broadcast``: broadcast send, set receive."""

    model = SET_BROADCAST_MODEL
