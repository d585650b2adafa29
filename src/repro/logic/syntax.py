"""Formula syntax for ML, GML, MML and GMML (Section 4.1) -- hash-consed.

Formulas are immutable values built from propositions, Boolean connectives
and (possibly graded, possibly indexed) diamonds.  The same AST serves all
four logics; :func:`logic_of` reports the smallest logic a given formula
lives in, and :func:`modal_depth` computes the nesting depth of modalities,
which by Theorem 2 corresponds to the running time of the matching local
algorithm.

Every constructor is *interned* into a process-wide :class:`FormulaPool`:
structurally equal formulas are one object, so a formula is a rooted node of
a shared DAG rather than a tree.  Construction assigns dense integer
``node_id``\\s in children-before-parents order (arguments are built before
the enclosing formula), which gives every consumer a topological order for
free: the compiled model checker evaluates a formula in one ascending pass
over ids, and the Theorem 2 construction of Tables 4-5 -- whose
``phi_{z,t}`` / ``theta_{m,j,t}`` subterms repeat combinatorially -- costs
one pool node per *distinct* subterm instead of one tree node per
occurrence.  :func:`dag_size` (distinct reachable nodes), :func:`tree_size`
(fully expanded size, an ``O(1)`` pool lookup maintained incrementally) and
:func:`modal_depth` (also ``O(1)``) quantify the sharing.

The modality index ``alpha`` is an arbitrary hashable value.  The Kripke
encodings of Section 4.3 use pairs such as ``(2, 1)``, ``(2, '*')``,
``('*', 1)`` and ``('*', '*')``; plain ML/GML formulas may leave the index
as ``None``, which the model checker resolves to the unique relation of a
unimodal model.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

# ---------------------------------------------------------------------- #
# Node kinds (pool-level codes; dense small ints so engines dispatch on them)
# ---------------------------------------------------------------------- #

KIND_PROP = 0
KIND_TOP = 1
KIND_BOTTOM = 2
KIND_NOT = 3
KIND_AND = 4
KIND_OR = 5
KIND_IMPLIES = 6
KIND_DIAMOND = 7
KIND_BOX = 8
KIND_GRADED = 9

#: Kinds that bind a modality (contribute to the modal depth).
MODAL_KINDS = frozenset({KIND_DIAMOND, KIND_BOX, KIND_GRADED})


class FormulaPool:
    """The process-wide hash-consing pool behind all formula constructors.

    Per node id (dense ints, assigned in construction = topological order):

    * ``nodes[i]`` -- the unique :class:`Formula` object,
    * ``kinds[i]`` -- one of the ``KIND_*`` codes,
    * ``children[i]`` -- the ids of the immediate subformulas,
    * ``payloads[i]`` -- the non-formula data (``(name,)`` for propositions,
      ``(index,)`` for diamonds/boxes, ``(grade, index)`` for graded
      diamonds, ``()`` otherwise),
    * ``tree_sizes[i]`` / ``modal_depths[i]`` -- incremental DP values
      (children are registered first, so both are one addition/max at
      registration; tree sizes are exact big ints even when the expanded
      tree would have billions of nodes).

    The pool only ever grows: node ids stay valid for the lifetime of the
    process, which is what lets compiled engines key caches by id.  It is
    also why :meth:`dag_size` is memoized per root: the nodes reachable from
    a root never change.
    """

    __slots__ = ("_intern", "nodes", "kinds", "children", "payloads",
                 "tree_sizes", "modal_depths", "_dag_sizes")

    def __init__(self) -> None:
        self._intern: dict[tuple, "Formula"] = {}
        self.nodes: list[Formula] = []
        self.kinds: list[int] = []
        self.children: list[tuple[int, ...]] = []
        self.payloads: list[tuple] = []
        self.tree_sizes: list[int] = []
        self.modal_depths: list[int] = []
        self._dag_sizes: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def _register(
        self, cls: type, key: tuple, kind: int, child_ids: tuple[int, ...],
        payload: tuple, attrs: tuple[tuple[str, Any], ...],
    ) -> "Formula":
        """Intern-or-create the node described by ``key``."""
        existing = self._intern.get(key)
        if existing is not None:
            return existing
        formula = object.__new__(cls)
        for name, value in attrs:
            object.__setattr__(formula, name, value)
        node_id = len(self.nodes)
        object.__setattr__(formula, "node_id", node_id)
        self._intern[key] = formula
        self.nodes.append(formula)
        self.kinds.append(kind)
        self.children.append(child_ids)
        self.payloads.append(payload)
        tree = 1
        depth = 0
        for child in child_ids:
            tree += self.tree_sizes[child]
            child_depth = self.modal_depths[child]
            if child_depth > depth:
                depth = child_depth
        if kind in MODAL_KINDS:
            depth += 1
        self.tree_sizes.append(tree)
        self.modal_depths.append(depth)
        return formula

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def reachable_ids(self, root: int) -> list[int]:
        """The ids reachable from ``root``, ascending (= children first)."""
        seen = {root}
        stack = [root]
        children = self.children
        while stack:
            for child in children[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return sorted(seen)

    def dag_size(self, root: int) -> int:
        """The number of distinct subformulas (shared nodes counted once)."""
        size = self._dag_sizes.get(root)
        if size is None:
            size = self._dag_sizes[root] = len(self.reachable_ids(root))
        return size

    def stats(self) -> dict[str, int]:
        """Pool-wide counters (size, interning table size)."""
        return {"nodes": len(self.nodes), "interned": len(self._intern)}


#: The process-wide pool.  One pool per process: node ids are only
#: meaningful within it, and multiprocessing workers each grow their own.
_POOL = FormulaPool()


def formula_pool() -> FormulaPool:
    """The process-wide hash-consing pool."""
    return _POOL


class Formula:
    """Base class of all formulas.

    Instances are immutable, hashable and *interned*: structurally equal
    formulas constructed anywhere in the process are the same object, so
    equality is identity and ``node_id`` addresses the unique pool node.
    """

    __slots__ = ("node_id",)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    def __str__(self) -> str:
        return _summary(self) or _render(self, _STR_PIECES)

    def __repr__(self) -> str:
        return _summary(self) or _render(self, _REPR_PIECES)


class Prop(Formula):
    """A proposition symbol ``q``."""

    __slots__ = ("name",)

    def __new__(cls, name: Hashable) -> "Prop":
        return _POOL._register(  # type: ignore[return-value]
            cls, (KIND_PROP, (), name), KIND_PROP, (), (name,), (("name", name),)
        )

    def __reduce__(self):
        return (Prop, (self.name,))


class Top(Formula):
    """The constant true."""

    __slots__ = ()

    def __new__(cls) -> "Top":
        return _POOL._register(cls, (KIND_TOP,), KIND_TOP, (), (), ())  # type: ignore

    def __reduce__(self):
        return (Top, ())


class Bottom(Formula):
    """The constant false."""

    __slots__ = ()

    def __new__(cls) -> "Bottom":
        return _POOL._register(cls, (KIND_BOTTOM,), KIND_BOTTOM, (), (), ())  # type: ignore

    def __reduce__(self):
        return (Bottom, ())


class Not(Formula):
    """Negation."""

    __slots__ = ("operand",)

    def __new__(cls, operand: Formula) -> "Not":
        return _POOL._register(  # type: ignore[return-value]
            cls, (KIND_NOT, (operand.node_id,)), KIND_NOT, (operand.node_id,),
            (), (("operand", operand),)
        )

    def __reduce__(self):
        return (Not, (self.operand,))


class _Binary(Formula):
    """Shared machinery of the binary connectives."""

    __slots__ = ("left", "right")
    _kind: int = -1

    def __new__(cls, left: Formula, right: Formula) -> "_Binary":
        return _POOL._register(  # type: ignore[return-value]
            cls,
            (cls._kind, (left.node_id, right.node_id)),
            cls._kind,
            (left.node_id, right.node_id),
            (),
            (("left", left), ("right", right)),
        )

    def __reduce__(self):
        return (type(self), (self.left, self.right))


class And(_Binary):
    """Conjunction."""

    __slots__ = ()
    _kind = KIND_AND


class Or(_Binary):
    """Disjunction (definable as ``~(~a & ~b)``; kept primitive for readability)."""

    __slots__ = ()
    _kind = KIND_OR


class Implies(_Binary):
    """Implication (definable; kept primitive for readability)."""

    __slots__ = ()
    _kind = KIND_IMPLIES


class Diamond(Formula):
    """``<alpha> phi``: some ``alpha``-successor satisfies ``phi``."""

    __slots__ = ("operand", "index")

    def __new__(cls, operand: Formula, index: Hashable = None) -> "Diamond":
        return _POOL._register(  # type: ignore[return-value]
            cls, (KIND_DIAMOND, (operand.node_id,), index), KIND_DIAMOND,
            (operand.node_id,), (index,), (("operand", operand), ("index", index))
        )

    def __reduce__(self):
        return (Diamond, (self.operand, self.index))


class Box(Formula):
    """``[alpha] phi``: every ``alpha``-successor satisfies ``phi``."""

    __slots__ = ("operand", "index")

    def __new__(cls, operand: Formula, index: Hashable = None) -> "Box":
        return _POOL._register(  # type: ignore[return-value]
            cls, (KIND_BOX, (operand.node_id,), index), KIND_BOX,
            (operand.node_id,), (index,), (("operand", operand), ("index", index))
        )

    def __reduce__(self):
        return (Box, (self.operand, self.index))


class GradedDiamond(Formula):
    """``<alpha>_{>=k} phi``: at least ``k`` ``alpha``-successors satisfy ``phi``."""

    __slots__ = ("operand", "grade", "index")

    def __new__(
        cls, operand: Formula, grade: int, index: Hashable = None
    ) -> "GradedDiamond":
        if grade < 0:
            raise ValueError("the grade of a graded diamond must be non-negative")
        return _POOL._register(  # type: ignore[return-value]
            cls, (KIND_GRADED, (operand.node_id,), grade, index), KIND_GRADED,
            (operand.node_id,), (grade, index),
            (("operand", operand), ("grade", grade), ("index", index))
        )

    def __reduce__(self):
        return (GradedDiamond, (self.operand, self.grade, self.index))


# ---------------------------------------------------------------------- #
# Printing (explicit stacks: the Table 4/5 formulas nest far deeper than
# Python's recursion limit)
# ---------------------------------------------------------------------- #

#: Formulas whose expanded tree has more nodes than this print as a one-line
#: summary instead of in full (a two-round Table 4/5 formula can expand to
#: hundreds of millions of nodes).
PRINT_TREE_LIMIT = 1_000_000


def _summary(formula: Formula) -> str | None:
    """The one-line summary of a formula too large to print, else ``None``."""
    node_id = formula.node_id
    tree = _POOL.tree_sizes[node_id]
    if tree <= PRINT_TREE_LIMIT:
        return None
    return (
        f"<{type(formula).__name__}: dag_size={_POOL.dag_size(node_id)}, "
        f"tree_size={tree}, modal_depth={_POOL.modal_depths[node_id]}>"
    )


def _label(index: Any) -> str:
    if index is None:
        return ""
    if isinstance(index, tuple):
        return ",".join(str(part) for part in index)
    return str(index)


def _binary_str(symbol: str):
    return lambda f: ("(", f.left, f" {symbol} ", f.right, ")")


def _binary_repr(f: Formula) -> tuple:
    return (f"{type(f).__name__}(left=", f.left, ", right=", f.right, ")")


def _modal_repr(f: Formula) -> tuple:
    return (f"{type(f).__name__}(operand=", f.operand, f", index={f.index!r})")


#: Per node kind, the pieces of its printed text: strings, and subformulas
#: to print in their place.  ``str`` is infix (``(p & <1,*>>=2 ~q)``),
#: ``repr`` constructor syntax (``Not(operand=Prop(name='q'))``).
_STR_PIECES = {
    KIND_PROP: lambda f: (str(f.name),),
    KIND_TOP: lambda f: ("true",),
    KIND_BOTTOM: lambda f: ("false",),
    KIND_NOT: lambda f: ("~", f.operand),
    KIND_AND: _binary_str("&"),
    KIND_OR: _binary_str("|"),
    KIND_IMPLIES: _binary_str("->"),
    KIND_DIAMOND: lambda f: (f"<{_label(f.index)}>", f.operand),
    KIND_BOX: lambda f: (f"[{_label(f.index)}]", f.operand),
    KIND_GRADED: lambda f: (f"<{_label(f.index)}>>={f.grade} ", f.operand),
}
_REPR_PIECES = {
    KIND_PROP: lambda f: (f"Prop(name={f.name!r})",),
    KIND_TOP: lambda f: ("Top()",),
    KIND_BOTTOM: lambda f: ("Bottom()",),
    KIND_NOT: lambda f: ("Not(operand=", f.operand, ")"),
    KIND_AND: _binary_repr,
    KIND_OR: _binary_repr,
    KIND_IMPLIES: _binary_repr,
    KIND_DIAMOND: _modal_repr,
    KIND_BOX: _modal_repr,
    KIND_GRADED: lambda f: (
        "GradedDiamond(operand=", f.operand, f", grade={f.grade!r}, index={f.index!r})"
    ),
}


def _render(formula: Formula, pieces: dict) -> str:
    """Print ``formula`` with an explicit stack, so the work is linear in the
    printed tree and no depth overflows the recursion limit."""
    kinds = _POOL.kinds
    out: list[str] = []
    stack: list[Any] = [formula]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(pieces[kinds[item.node_id]](item)))
    return "".join(out)


# ---------------------------------------------------------------------- #
# Builders
# ---------------------------------------------------------------------- #


def conjunction(formulas: Iterable[Formula]) -> Formula:
    """The conjunction of the given formulas (``Top()`` for an empty family)."""
    result: Formula | None = None
    for formula in formulas:
        result = formula if result is None else And(result, formula)
    return result if result is not None else Top()


def disjunction(formulas: Iterable[Formula]) -> Formula:
    """The disjunction of the given formulas (``Bottom()`` for an empty family)."""
    result: Formula | None = None
    for formula in formulas:
        result = formula if result is None else Or(result, formula)
    return result if result is not None else Bottom()


# ---------------------------------------------------------------------- #
# Structural queries (pool-backed: O(dag) or O(1), never O(tree))
# ---------------------------------------------------------------------- #


def _require_formula(formula: Formula) -> int:
    if not isinstance(formula, Formula):
        raise TypeError(f"unknown formula type: {formula!r}")
    return formula.node_id


def children(formula: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas."""
    node_id = _require_formula(formula)
    nodes = _POOL.nodes
    return tuple(nodes[child] for child in _POOL.children[node_id])


def subformulas(formula: Formula) -> frozenset[Formula]:
    """All *distinct* subformulas of ``formula``, including itself."""
    node_id = _require_formula(formula)
    nodes = _POOL.nodes
    return frozenset(nodes[i] for i in _POOL.reachable_ids(node_id))


def topological_ids(formula: Formula) -> list[int]:
    """Pool ids of all subformulas, children strictly before parents.

    This is the evaluation order of the compiled engines: one ascending
    pass resolves every node after its children.
    """
    return _POOL.reachable_ids(_require_formula(formula))


def dag_size(formula: Formula) -> int:
    """The number of distinct subformulas -- the size of the shared DAG."""
    return _POOL.dag_size(_require_formula(formula))


def tree_size(formula: Formula) -> int:
    """The size of the fully expanded formula tree (an O(1) pool lookup).

    For the Table 4/5 formulas this can exceed any feasible memory while
    :func:`dag_size` stays small; the exact big-int value is maintained
    incrementally at construction.
    """
    return _POOL.tree_sizes[_require_formula(formula)]


def modal_depth(formula: Formula) -> int:
    """The modal depth ``md(phi)`` of Section 4.1 (an O(1) pool lookup)."""
    return _POOL.modal_depths[_require_formula(formula)]


def propositions(formula: Formula) -> frozenset[Hashable]:
    """The proposition symbols occurring in ``formula``."""
    node_id = _require_formula(formula)
    kinds, payloads = _POOL.kinds, _POOL.payloads
    return frozenset(
        payloads[i][0] for i in _POOL.reachable_ids(node_id) if kinds[i] == KIND_PROP
    )


def modal_indices(formula: Formula) -> frozenset[Hashable]:
    """The modality indices occurring in ``formula`` (``None`` for plain diamonds)."""
    node_id = _require_formula(formula)
    kinds, payloads = _POOL.kinds, _POOL.payloads
    return frozenset(
        payloads[i][-1] for i in _POOL.reachable_ids(node_id) if kinds[i] in MODAL_KINDS
    )


def is_graded(formula: Formula) -> bool:
    """Whether ``formula`` uses a graded diamond."""
    node_id = _require_formula(formula)
    kinds = _POOL.kinds
    return any(kinds[i] == KIND_GRADED for i in _POOL.reachable_ids(node_id))


def logic_of(formula: Formula) -> str:
    """The smallest of ML, GML, MML, GMML containing ``formula``.

    A formula is multimodal when it uses more than one modality index (or any
    explicit index besides ``None``), and graded when it uses a graded
    diamond.
    """
    indices = modal_indices(formula) - {None}
    multimodal = len(indices) > 1 or (len(indices) == 1 and None in modal_indices(formula))
    if len(indices) == 1 and None not in modal_indices(formula):
        # A single explicit index can be read as plain ML/GML over that relation,
        # but we classify it as multimodal because the index is named.
        multimodal = True
    graded = is_graded(formula)
    if multimodal and graded:
        return "GMML"
    if multimodal:
        return "MML"
    if graded:
        return "GML"
    return "ML"
