"""Modal logic substrate: syntax, Kripke semantics, parsing and bisimulation.

The paper characterises the constant-time problem classes with four modal
logics (Section 4.1):

* **ML** -- basic modal logic (one diamond),
* **GML** -- graded modal logic (counting diamonds),
* **MML** -- multimodal logic (one diamond per index), and
* **GMML** -- graded multimodal logic.

This subpackage implements all four over a single formula AST
(:mod:`~repro.logic.syntax`), finite Kripke models
(:mod:`~repro.logic.kripke`), a model checker
(:mod:`~repro.logic.semantics`), a concrete text syntax
(:mod:`~repro.logic.parser`) and the (graded) bisimulation machinery of
Section 4.2 (:mod:`~repro.logic.bisimulation`).

The hot paths -- model checking and partition refinement -- run on the
compiled bitset engine (:mod:`~repro.logic.engine`); the seed
implementations are preserved as differential oracles and every public
entry point takes an ``engine="compiled" | "reference"`` knob.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "And": ".syntax",
        "Bottom": ".syntax",
        "Box": ".syntax",
        "Diamond": ".syntax",
        "Formula": ".syntax",
        "GradedDiamond": ".syntax",
        "Implies": ".syntax",
        "Not": ".syntax",
        "Or": ".syntax",
        "Prop": ".syntax",
        "Top": ".syntax",
        "conjunction": ".syntax",
        "disjunction": ".syntax",
        "logic_of": ".syntax",
        "modal_depth": ".syntax",
        "KripkeModel": ".kripke",
        "CompiledKripke": ".engine",
        "check_many": ".engine",
        "check_sweep": ".engine",
        "compile_kripke": ".engine",
        "equivalent_on": ".semantics",
        "extension": ".semantics",
        "satisfies": ".semantics",
        "parse_formula": ".parser",
        "are_bisimilar": ".bisimulation",
        "bisimilarity_partition": ".bisimulation",
        "bisimilar_within": ".bisimulation",
        "bounded_bisimilarity_partition": ".bisimulation",
        "is_bisimulation": ".bisimulation",
        "is_graded_bisimulation": ".bisimulation",
    },
)

__all__ = [
    "And",
    "Bottom",
    "Box",
    "Diamond",
    "Formula",
    "GradedDiamond",
    "Implies",
    "Not",
    "Or",
    "Prop",
    "Top",
    "conjunction",
    "disjunction",
    "logic_of",
    "modal_depth",
    "KripkeModel",
    "CompiledKripke",
    "check_many",
    "check_sweep",
    "compile_kripke",
    "equivalent_on",
    "extension",
    "satisfies",
    "parse_formula",
    "are_bisimilar",
    "bisimilarity_partition",
    "bisimilar_within",
    "bounded_bisimilarity_partition",
    "is_bisimulation",
    "is_graded_bisimulation",
]
