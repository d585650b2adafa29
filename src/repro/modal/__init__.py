"""The bridge between distributed algorithms and modal logic (Section 4).

* :mod:`~repro.modal.encoding` -- the four Kripke encodings ``K++``, ``K-+``,
  ``K+-`` and ``K--`` of a port-numbered graph (Section 4.3).
* :mod:`~repro.modal.formula_to_algorithm` -- Theorem 2, parts 1-2: every
  formula of the appropriate logic is realised by a local algorithm of the
  matching class, running for ``md(phi) + 1`` rounds; compiled to flat
  position tables over the hash-consed formula pool, with one state byte
  per distinct subformula.
* :mod:`~repro.modal.algorithm_to_formula` -- Theorem 2, parts 3-4: every
  finite-state local algorithm is captured by a formula whose modal depth is
  the running time, emitted as a shared DAG with a fail-fast size budget.
* :mod:`~repro.modal.correspondence` -- the round-trip pipeline
  (machine == formula == recompiled algorithm) behind the tests, experiment
  E4 and the campaign subsystem's ``correspondence`` scenarios.
"""

from repro.modal.encoding import (
    KripkeVariant,
    degree_proposition,
    kripke_encoding,
    signature_indices,
    variant_for_class,
)
from repro.modal.formula_to_algorithm import (
    CompiledFormulaAlgorithm,
    FormulaAlgorithm,
    algorithm_for_formula,
)
from repro.modal.algorithm_to_formula import (
    FormulaSizeError,
    formula_for_machine,
    predict_formula_nodes,
)
from repro.modal.correspondence import (
    RoundTripReport,
    algorithm_matches_formula,
    formula_output,
    machine_roundtrip_report,
)

__all__ = [
    "KripkeVariant",
    "degree_proposition",
    "kripke_encoding",
    "signature_indices",
    "variant_for_class",
    "CompiledFormulaAlgorithm",
    "FormulaAlgorithm",
    "FormulaSizeError",
    "algorithm_for_formula",
    "formula_for_machine",
    "predict_formula_nodes",
    "RoundTripReport",
    "algorithm_matches_formula",
    "formula_output",
    "machine_roundtrip_report",
]
