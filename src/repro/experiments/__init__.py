"""The experiment harness: every paper artefact as a paper-vs-measured table.

The experiments are indexed in DESIGN.md (E1-E12); each module's ``run()``
regenerates one figure/theorem/lemma and returns an
:class:`~repro.experiments.report.ExperimentResult`.  Use::

    from repro.experiments import run_all_experiments, format_report
    print(format_report(run_all_experiments()))

to regenerate the whole EXPERIMENTS.md table.
"""

from repro import _lazy_exports

# The registry imports the experiment modules, which in turn import large
# parts of the library; it loads only when one of its names is used.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "ExperimentResult": ".report",
        "Row": ".report",
        "format_report": ".report",
        "EXPERIMENTS": ".registry",
        "run_all_experiments": ".registry",
        "run_experiment": ".registry",
    },
)

__all__ = [
    "ExperimentResult",
    "Row",
    "format_report",
    "EXPERIMENTS",
    "run_all_experiments",
    "run_experiment",
]
