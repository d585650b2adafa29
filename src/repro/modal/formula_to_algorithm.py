"""Compiling modal formulas into local algorithms (Theorem 2, parts 1-2).

Given a formula ``psi`` in the logic matching a problem class, the compiled
algorithm evaluates ``psi`` at every node of any port-numbered graph and
outputs 1 exactly on the extension ``||psi||`` of the formula in the
corresponding Kripke encoding.  The algorithm follows the paper's
construction: every node maintains a three-valued assignment (true / false /
undefined) to the subformulas of ``psi``, resolves subformulas of modal depth
``t`` in round ``t``, exchanges the truth values needed by its neighbours'
modal subformulas, and halts once every value is known -- so the running
time is at most ``md(psi) + 1`` rounds and the algorithm is local.

Two implementations share that construction:

* :class:`CompiledFormulaAlgorithm` (the default) compiles the normalised
  formula DAG once into flat position tables over the hash-consed pool
  (:mod:`repro.logic.syntax`): the three-valued assignment is a flat
  ``bytes`` with one byte per distinct subformula (its class docstring
  gives the encoding), the Boolean closure is one ascending pass over
  positions (children come before parents, so no fixpoint loop), and
  messages carry one byte per shipped operand.  States and messages are
  hashable values that cache their hash, so the batch execution engine's
  :class:`~repro.machines.fastpath.FastPathAlgorithm` caches hit across a
  whole adversarial sweep, and formulas with thousands of shared subterms
  (the Table 4/5 output) run without recursion limits.
* :class:`FormulaAlgorithm` is the seed construction -- dict-of-subformula
  states, an iterate-to-fixpoint Boolean pass -- preserved as the
  differential oracle behind ``engine="reference"``.

:func:`algorithm_for_formula` selects between them with the same
``engine="compiled" | "reference"`` knob the execution and logic layers use.
"""

from __future__ import annotations

from typing import Any, ClassVar

from repro.logic.engine import check_engine
from repro.logic.syntax import (
    KIND_AND,
    KIND_BOTTOM,
    KIND_DIAMOND,
    KIND_GRADED,
    KIND_IMPLIES,
    KIND_NOT,
    KIND_OR,
    KIND_PROP,
    KIND_TOP,
    And,
    Bottom,
    Diamond,
    Formula,
    GradedDiamond,
    Not,
    Or,
    Prop,
    Top,
    formula_pool,
    modal_depth,
    tree_size,
)
from repro.machines.algorithm import NO_MESSAGE, Algorithm, Output
from repro.machines.models import Model, ProblemClass, ReceiveMode, SendMode
from repro.modal.encoding import STAR, degree_proposition

#: The three-valued "undefined" marker of the paper's construction.
UNDEFINED = "U"

#: The byte that stands for :data:`UNDEFINED` in a compiled flat state.
_UNKNOWN = 2

#: Formulas with a smaller tree are printed in full in an algorithm's
#: ``name``; larger ones are described by their size.  Printing recurses
#: once per tree level, so a tree this small also prints well within the
#: default recursion limit, while the tree of a Table 4/5 formula can be
#: exponentially larger than its DAG.
_NAME_TREE_LIMIT = 200


def _formula_label(formula: Formula) -> str:
    """The formula as printed in an algorithm name: in full when small."""
    size = tree_size(formula)
    if size < _NAME_TREE_LIMIT:
        return str(formula)
    return f"tree_size={size}, modal_depth={modal_depth(formula)}"


def _normalise(formula: Formula) -> Formula:
    """Rewrite boxes and implications into the And/Or/Not/Diamond core.

    Operates bottom-up over the pool ids of the formula's DAG (children
    before parents), so arbitrarily deep formulas -- the Table 4/5
    conjunction chains run to thousands of levels -- normalise without
    recursion, and shared subterms are rewritten once.
    """
    pool = formula_pool()
    ids = pool.reachable_ids(formula.node_id)
    kinds, kids_of, payloads, nodes = pool.kinds, pool.children, pool.payloads, pool.nodes
    rewritten: dict[int, Formula] = {}
    for i in ids:
        kind = kinds[i]
        kids = kids_of[i]
        if kind in (KIND_PROP, KIND_TOP, KIND_BOTTOM):
            rewritten[i] = nodes[i]
        elif kind == KIND_NOT:
            rewritten[i] = Not(rewritten[kids[0]])
        elif kind == KIND_AND:
            rewritten[i] = And(rewritten[kids[0]], rewritten[kids[1]])
        elif kind == KIND_OR:
            rewritten[i] = Or(rewritten[kids[0]], rewritten[kids[1]])
        elif kind == KIND_IMPLIES:
            rewritten[i] = Or(Not(rewritten[kids[0]]), rewritten[kids[1]])
        elif kind == KIND_DIAMOND:
            rewritten[i] = Diamond(rewritten[kids[0]], index=payloads[i][0])
        elif kind == KIND_GRADED:
            grade, index = payloads[i]
            rewritten[i] = GradedDiamond(rewritten[kids[0]], grade=grade, index=index)
        else:  # KIND_BOX
            rewritten[i] = Not(Diamond(Not(rewritten[kids[0]]), index=payloads[i][0]))
    return rewritten[formula.node_id]


def _ordered_subformulas(formula: Formula) -> list[Formula]:
    """All distinct subformulas, children before parents (pool id order)."""
    pool = formula_pool()
    nodes = pool.nodes
    return [nodes[i] for i in pool.reachable_ids(formula.node_id)]


def _validate_modal_indices(
    modal: list[Formula], problem_class: ProblemClass
) -> None:
    """Reject modality indices (and grades) the class cannot realise."""
    sees_in = problem_class.model.receive is ReceiveMode.VECTOR
    sees_out = problem_class.model.send is SendMode.PORT
    for phi in modal:
        index = phi.index
        if index is None:
            index = (STAR, STAR)
        if not (isinstance(index, tuple) and len(index) == 2):
            raise ValueError(f"modality index {phi.index!r} must be a pair (i, j)")
        in_part, out_part = index
        if sees_in and in_part == STAR and problem_class not in (
            ProblemClass.MV,
            ProblemClass.SV,
        ):
            raise ValueError(
                f"class {problem_class} formulas must name the input port, got {phi.index!r}"
            )
        if not sees_in and in_part != STAR:
            raise ValueError(
                f"class {problem_class} has no input-port information, got index {phi.index!r}"
            )
        if not sees_out and out_part != STAR:
            raise ValueError(
                f"class {problem_class} has no output-port information, got index {phi.index!r}"
            )
        if sees_out and out_part == STAR:
            raise ValueError(
                f"class {problem_class} formulas must name the output port, got {phi.index!r}"
            )
        if (
            isinstance(phi, GradedDiamond)
            and phi.grade > 1
            and problem_class in (ProblemClass.SV, ProblemClass.SB)
        ):
            raise ValueError(
                f"class {problem_class} algorithms cannot count; "
                f"graded diamond {phi} is not allowed"
            )


class FormulaAlgorithm(Algorithm):
    """The seed local algorithm realising a modal formula (reference oracle).

    Parameters
    ----------
    formula:
        The formula to evaluate.  Its modality indices must match the class:
        pairs ``(i, j)`` for VV/VVc, ``('*', j)`` for MV/SV, ``(i, '*')`` for
        VB, and ``('*', '*')`` (or ``None``) for MB/SB.  Graded diamonds are
        only meaningful for the Multiset classes (MV, MB) -- and for the
        port-aware classes where each relation has at most one successor; they
        are rejected for SV and SB, whose algorithms cannot count.
    problem_class:
        The problem class whose model the algorithm must belong to.
    """

    model: ClassVar[Model]  # set per instance below

    def __init__(self, formula: Formula, problem_class: ProblemClass) -> None:
        self._original = formula
        self._formula = _normalise(formula)
        self._class = problem_class
        self.model = problem_class.model
        self._subformulas = _ordered_subformulas(self._formula)
        self._position = {phi: index for index, phi in enumerate(self._subformulas)}
        self._modal = [
            phi for phi in self._subformulas if isinstance(phi, (Diamond, GradedDiamond))
        ]
        # Positions (in the payload) of the operands whose truth values are shipped.
        operand_positions: list[int] = []
        for phi in self._modal:
            position = self._position[phi.operand]
            if position not in operand_positions:
                operand_positions.append(position)
        self._payload_positions = tuple(operand_positions)
        self._payload_slot = {position: slot for slot, position in enumerate(self._payload_positions)}
        _validate_modal_indices(self._modal, self._class)

    # ------------------------------------------------------------------ #
    # Public metadata
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return f"FormulaAlgorithm[{self._class}]({_formula_label(self._original)})"

    @property
    def formula(self) -> Formula:
        return self._original

    @property
    def problem_class(self) -> ProblemClass:
        return self._class

    @property
    def running_time_bound(self) -> int:
        """The guaranteed bound ``md(psi) + 1`` on the number of rounds."""
        return modal_depth(self._formula) + 1

    # ------------------------------------------------------------------ #
    # Three-valued evaluation helpers
    # ------------------------------------------------------------------ #

    def _boolean_fixpoint(self, values: list[Any], degree: int) -> None:
        """Resolve propositional structure as far as possible, in place."""
        changed = True
        while changed:
            changed = False
            for position, phi in enumerate(self._subformulas):
                if values[position] != UNDEFINED:
                    continue
                new_value: Any = UNDEFINED
                if isinstance(phi, Prop):
                    new_value = 1 if phi.name == degree_proposition(degree) else 0
                elif isinstance(phi, Top):
                    new_value = 1
                elif isinstance(phi, Bottom):
                    new_value = 0
                elif isinstance(phi, Not):
                    child = values[self._position[phi.operand]]
                    if child != UNDEFINED:
                        new_value = 1 - child
                elif isinstance(phi, And):
                    left = values[self._position[phi.left]]
                    right = values[self._position[phi.right]]
                    if 0 in (left, right):
                        new_value = 0
                    elif left == 1 and right == 1:
                        new_value = 1
                elif isinstance(phi, Or):
                    left = values[self._position[phi.left]]
                    right = values[self._position[phi.right]]
                    if 1 in (left, right):
                        new_value = 1
                    elif left == 0 and right == 0:
                        new_value = 0
                if new_value != UNDEFINED:
                    values[position] = new_value
                    changed = True

    def _state(self, degree: int, values: list[Any]) -> Any:
        # A node halts only once *every* subformula is resolved (which happens
        # at round md(psi) for every node simultaneously).  Halting as soon as
        # the root value is known would be premature: a halted node sends
        # ``m0``, yet its neighbours may still need their values of deeper
        # subformulas in later rounds.
        if all(value != UNDEFINED for value in values):
            return Output(values[self._position[self._formula]])
        return (degree, tuple(values))

    # ------------------------------------------------------------------ #
    # Algorithm interface
    # ------------------------------------------------------------------ #

    def initial_state(self, degree: int) -> Any:
        values: list[Any] = [UNDEFINED] * len(self._subformulas)
        self._boolean_fixpoint(values, degree)
        return self._state(degree, values)

    def _payload(self, values: tuple[Any, ...]) -> tuple[Any, ...]:
        return tuple(values[position] for position in self._payload_positions)

    def send(self, state: Any, port: int) -> Any:
        degree, values = state
        if self.model.send is SendMode.BROADCAST:
            return self._payload(values)
        return (port, self._payload(values))

    def broadcast(self, state: Any) -> Any:
        _degree, values = state
        return self._payload(values)

    def _payload_value(self, message: Any, operand_position: int) -> Any:
        """Read the operand's truth value out of a received payload."""
        if message == NO_MESSAGE or message is None:
            return 0
        payload = message
        if self.model.send is SendMode.PORT:
            _port, payload = message
        slot = self._payload_slot[operand_position]
        return payload[slot]

    def _message_out_port(self, message: Any) -> int | None:
        if message == NO_MESSAGE or message is None:
            return None
        if self.model.send is SendMode.PORT:
            return message[0]
        return None

    def _resolve_modal(self, phi: Formula, degree: int, previous: tuple[Any, ...], received: Any) -> Any:
        # The gate uses the *previous* state: a modal subformula may only be
        # resolved once its operand was already known in the previous round,
        # because the received payloads carry the senders' previous-round
        # values (this is the paper's condition "f(theta) != U").
        operand_position = self._position[phi.operand]
        if previous[operand_position] == UNDEFINED:
            return UNDEFINED
        grade = phi.grade if isinstance(phi, GradedDiamond) else 1
        index = phi.index if phi.index is not None else (STAR, STAR)
        in_part, out_part = index

        def operand_true(message: Any) -> bool:
            return self._payload_value(message, operand_position) == 1

        receive = self.model.receive
        if receive is ReceiveMode.VECTOR:
            # received is the vector of messages indexed by input port.
            if in_part == STAR:
                candidates = list(received)
            else:
                if in_part > degree:
                    return 1 if grade == 0 else 0
                candidates = [received[in_part - 1]]
            count = 0
            for message in candidates:
                if message == NO_MESSAGE:
                    continue
                if out_part != STAR and self._message_out_port(message) != out_part:
                    continue
                if operand_true(message):
                    count += 1
            return 1 if count >= grade else 0
        if receive is ReceiveMode.MULTISET:
            count = 0
            for message, multiplicity in received.counts().items():
                if message == NO_MESSAGE:
                    continue
                if out_part != STAR and self._message_out_port(message) != out_part:
                    continue
                if operand_true(message):
                    count += multiplicity
            return 1 if count >= grade else 0
        # Set semantics: existence only.
        exists = any(
            message != NO_MESSAGE
            and (out_part == STAR or self._message_out_port(message) == out_part)
            and operand_true(message)
            for message in received
        )
        if grade == 0:
            return 1
        return 1 if exists else 0

    def transition(self, state: Any, received: Any) -> Any:
        degree, previous = state
        values = list(previous)
        for phi in self._modal:
            position = self._position[phi]
            if values[position] != UNDEFINED:
                continue
            values[position] = self._resolve_modal(phi, degree, previous, received)
        self._boolean_fixpoint(values, degree)
        return self._state(degree, values)


# --------------------------------------------------------------------------- #
# The compiled construction
# --------------------------------------------------------------------------- #


class CompiledFormulaAlgorithm(Algorithm):
    """The formula algorithm compiled to flat tables and flat byte states.

    The normalised formula's distinct subformulas (pool DAG nodes) get dense
    positions ``0 .. P-1`` in topological order.  A node's state is
    ``(degree, flat)`` where ``flat`` is a ``bytes`` of length ``P`` and byte
    ``p`` is the value of position ``p``: 0 false, 1 true, 2 unknown -- the
    paper's three-valued assignment, one byte per subformula.  A known value
    never changes, so each transition copies ``flat`` once into a
    ``bytearray``, resolves the modal positions whose operands were known in
    the *previous* ``flat``, and closes the connectives with a single
    ascending sweep over the precompiled schedule: children have smaller
    positions, so one pass reaches the same fixpoint as the seed's
    iterate-until-stable loop.  Messages carry one byte per shipped operand
    in the same encoding, tagged with the out-port under port-addressed
    sending.  Semantics are the seed construction's, state for state: same
    gating of modal subformulas on the previous round, same halting rule
    (no byte unknown), same outputs.
    """

    model: ClassVar[Model]  # set per instance below

    def __init__(self, formula: Formula, problem_class: ProblemClass) -> None:
        self._original = formula
        self._formula = _normalise(formula)
        self._class = problem_class
        self.model = problem_class.model
        pool = formula_pool()
        ids = pool.reachable_ids(self._formula.node_id)
        position_of = {node_id: position for position, node_id in enumerate(ids)}
        self._count = len(ids)
        self._root = position_of[self._formula.node_id]

        atoms: list[tuple[int, int, Any]] = []
        schedule: list[tuple[int, int, tuple[int, ...]]] = []
        modal: list[tuple[int, int, int, Any, Any]] = []
        modal_formulas: list[Formula] = []
        operand_positions: list[int] = []
        for node_id in ids:
            position = position_of[node_id]
            kind = pool.kinds[node_id]
            kids = tuple(position_of[child] for child in pool.children[node_id])
            if kind in (KIND_PROP, KIND_TOP, KIND_BOTTOM):
                payload = pool.payloads[node_id][0] if kind == KIND_PROP else None
                atoms.append((position, kind, payload))
            elif kind in (KIND_NOT, KIND_AND, KIND_OR):
                schedule.append((position, kind, kids))
            else:  # KIND_DIAMOND / KIND_GRADED (boxes/implications normalised away)
                phi = pool.nodes[node_id]
                modal_formulas.append(phi)
                if kind == KIND_GRADED:
                    grade, index = pool.payloads[node_id]
                else:
                    grade, index = 1, pool.payloads[node_id][0]
                in_part, out_part = index if index is not None else (STAR, STAR)
                operand = kids[0]
                if operand not in operand_positions:
                    operand_positions.append(operand)
                modal.append((position, operand, grade, in_part, out_part))
        self._atoms = tuple(atoms)
        self._schedule = tuple(schedule)
        self._modal = tuple(modal)
        self._payload_positions = tuple(operand_positions)
        self._payload_slot = {
            position: slot for slot, position in enumerate(operand_positions)
        }
        _validate_modal_indices(modal_formulas, problem_class)

    # ------------------------------------------------------------------ #
    # Public metadata
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return f"CompiledFormulaAlgorithm[{self._class}]({_formula_label(self._original)})"

    @property
    def formula(self) -> Formula:
        return self._original

    @property
    def problem_class(self) -> ProblemClass:
        return self._class

    @property
    def subformula_count(self) -> int:
        """The number of distinct subformulas (= state width in bytes)."""
        return self._count

    @property
    def running_time_bound(self) -> int:
        """The guaranteed bound ``md(psi) + 1`` on the number of rounds."""
        return modal_depth(self._formula) + 1

    # ------------------------------------------------------------------ #
    # Flat three-valued evaluation
    # ------------------------------------------------------------------ #

    def _boolean_pass(self, buf: bytearray) -> None:
        """One ascending sweep resolving every resolvable connective, in place."""
        for position, kind, kids in self._schedule:
            if buf[position] != _UNKNOWN:
                continue
            if kind == KIND_NOT:
                child = buf[kids[0]]
                if child != _UNKNOWN:
                    buf[position] = 1 - child
            elif kind == KIND_AND:
                left = buf[kids[0]]
                right = buf[kids[1]]
                if left == 0 or right == 0:
                    buf[position] = 0  # Kleene: one false child settles it
                elif left == 1 and right == 1:
                    buf[position] = 1
            else:  # KIND_OR
                left = buf[kids[0]]
                right = buf[kids[1]]
                if left == 1 or right == 1:
                    buf[position] = 1
                elif left == 0 and right == 0:
                    buf[position] = 0

    def _wrap(self, degree: int, buf: bytearray) -> Any:
        if _UNKNOWN in buf:
            return (degree, bytes(buf))
        return Output(buf[self._root])  # every position known -> halt

    # ------------------------------------------------------------------ #
    # Algorithm interface
    # ------------------------------------------------------------------ #

    def initial_state(self, degree: int) -> Any:
        buf = bytearray([_UNKNOWN]) * self._count
        degree_prop = degree_proposition(degree)
        for position, kind, payload in self._atoms:
            true = kind == KIND_TOP or (kind == KIND_PROP and payload == degree_prop)
            buf[position] = 1 if true else 0
        self._boolean_pass(buf)
        return self._wrap(degree, buf)

    def _payload(self, flat: bytes) -> bytes:
        return bytes([flat[position] for position in self._payload_positions])

    def send(self, state: Any, port: int) -> Any:
        _degree, flat = state
        if self.model.send is SendMode.BROADCAST:
            return self._payload(flat)
        return (port, self._payload(flat))

    def broadcast(self, state: Any) -> Any:
        _degree, flat = state
        return self._payload(flat)

    def _operand_true(self, message: Any, slot: int) -> bool:
        """Whether the sender knew the operand true (m0 counts as false)."""
        if message == NO_MESSAGE or message is None:
            return False
        payload = message
        if self.model.send is SendMode.PORT:
            payload = message[1]
        return payload[slot] == 1

    def _message_out_port(self, message: Any) -> int | None:
        if message == NO_MESSAGE or message is None:
            return None
        if self.model.send is SendMode.PORT:
            return message[0]
        return None

    def _resolve_modal(
        self, entry: tuple, degree: int, received: Any
    ) -> int:
        """The 0/1 value of one modal position (its gate already passed)."""
        _position, operand, grade, in_part, out_part = entry
        slot = self._payload_slot[operand]
        receive = self.model.receive
        if receive is ReceiveMode.VECTOR:
            if in_part == STAR:
                candidates = received
            else:
                if in_part > degree:
                    return 1 if grade == 0 else 0
                candidates = (received[in_part - 1],)
            count = 0
            for message in candidates:
                if message == NO_MESSAGE:
                    continue
                if out_part != STAR and self._message_out_port(message) != out_part:
                    continue
                if self._operand_true(message, slot):
                    count += 1
            return 1 if count >= grade else 0
        if receive is ReceiveMode.MULTISET:
            count = 0
            for message, multiplicity in received.counts().items():
                if message == NO_MESSAGE:
                    continue
                if out_part != STAR and self._message_out_port(message) != out_part:
                    continue
                if self._operand_true(message, slot):
                    count += multiplicity
            return 1 if count >= grade else 0
        # Set semantics: existence only.
        if grade == 0:
            return 1
        exists = any(
            message != NO_MESSAGE
            and (out_part == STAR or self._message_out_port(message) == out_part)
            and self._operand_true(message, slot)
            for message in received
        )
        return 1 if exists else 0

    def transition(self, state: Any, received: Any) -> Any:
        degree, flat = state
        buf = bytearray(flat)
        for entry in self._modal:
            # The gate reads the *previous* round's flat: received payloads
            # carry the senders' previous-round values (the paper's condition
            # "f(theta) != U").
            if flat[entry[0]] != _UNKNOWN or flat[entry[1]] == _UNKNOWN:
                continue
            buf[entry[0]] = self._resolve_modal(entry, degree, received)
        self._boolean_pass(buf)
        return self._wrap(degree, buf)


def algorithm_for_formula(
    formula: Formula, problem_class: ProblemClass, engine: str = "compiled"
) -> Algorithm:
    """The local algorithm realising ``formula`` in ``problem_class``.

    ``engine="compiled"`` returns the flat-state
    :class:`CompiledFormulaAlgorithm`; ``engine="reference"`` the seed
    :class:`FormulaAlgorithm`, kept as the differential oracle.
    ``engine="vector"`` shares the compiled realisation: the emitted
    algorithm *is* the per-node scalar form the vector execution kernel
    then runs batched, so there is no separate construction to vectorize.
    Both raise ``ValueError`` on modality indices the class cannot realise.
    """
    engine = check_engine(engine, "algorithm_for_formula")
    if engine == "reference":
        return FormulaAlgorithm(formula, problem_class)
    return CompiledFormulaAlgorithm(formula, problem_class)


__all__ = [
    "CompiledFormulaAlgorithm",
    "FormulaAlgorithm",
    "UNDEFINED",
    "algorithm_for_formula",
]
