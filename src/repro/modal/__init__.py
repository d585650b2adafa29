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

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "KripkeVariant": ".encoding",
        "degree_proposition": ".encoding",
        "kripke_encoding": ".encoding",
        "signature_indices": ".encoding",
        "variant_for_class": ".encoding",
        "CompiledFormulaAlgorithm": ".formula_to_algorithm",
        "FormulaAlgorithm": ".formula_to_algorithm",
        "algorithm_for_formula": ".formula_to_algorithm",
        "FormulaSizeError": ".algorithm_to_formula",
        "formula_for_machine": ".algorithm_to_formula",
        "predict_formula_nodes": ".algorithm_to_formula",
        "RoundTripReport": ".correspondence",
        "algorithm_matches_formula": ".correspondence",
        "formula_output": ".correspondence",
        "formula_outputs": ".correspondence",
        "machine_roundtrip_report": ".correspondence",
    },
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
    "formula_outputs",
    "machine_roundtrip_report",
]
