"""Tour of ``engine="vector"``: the NumPy kernel behind the engine registry.

Three stops:

1. the registry -- discovery (`available_engines`), resolution
   (`resolve_engine`) and the capability/availability error taxonomy;
2. a vectorised adversarial sweep -- hundreds of random port numberings of
   one 3-regular graph executed as batched array operations, checked
   node-for-node against the superposed sweep engine and timed;
3. a vectorised ``check_many`` batch -- a modal/graded formula batch over a
   large sparse Kripke model on the CSR kernel, checked bit-for-bit against
   the compiled bitset engine and timed.

Run with ``python examples/vector_kernel.py`` (after ``pip install -e .``
or ``export PYTHONPATH=src``).  NumPy is required here -- that is the point
of the example -- but the library itself treats it as optional: on a box
without it this script exits early, showing exactly the error a user would
see.
"""

from __future__ import annotations

import random
import sys
import time

from repro.engines import available_engines, resolve_engine
from repro.engines.registry import EngineCapabilityError, EngineUnavailableError

# ----------------------------------------------------------------------- #
# 1. The registry: one place to ask what can run here
# ----------------------------------------------------------------------- #

print("available engines:", ", ".join(available_engines()))
print("engines that model-check:", ", ".join(available_engines(requires={"logic"})))

try:
    spec = resolve_engine("vector")
except EngineUnavailableError as err:
    # numpy is missing: the registry degrades to a precise, actionable error
    # (it is both an ImportError and a ValueError).
    print(f"vector engine unavailable: {err}")
    sys.exit(0)

print(f"vector spec: batched={spec.batched}, capabilities={sorted(spec.capabilities)}")

# Capability mismatches are diagnosed at the same choke point: the sweep
# executor has no model checker, and asking for one says so by name.
from repro.logic.engine import check_many  # noqa: E402
from repro.logic.kripke import KripkeModel  # noqa: E402
from repro.logic.syntax import Box, Diamond, GradedDiamond, Prop  # noqa: E402

tiny = KripkeModel(
    worlds=frozenset([0, 1]),
    relations={"a": frozenset([(0, 1)])},
    valuation={"p": frozenset([1])},
)
try:
    check_many(tiny, [Prop("p")], engine="sweep")
except EngineCapabilityError as err:
    print(f"capability error, as expected: {err}")

# ----------------------------------------------------------------------- #
# 2. A vectorised adversarial sweep
# ----------------------------------------------------------------------- #

from repro.execution.engine import compile_instance  # noqa: E402
from repro.execution.sweep import SweepStats, run_sweep  # noqa: E402
from repro.execution.vector import run_vector  # noqa: E402
from repro.graphs.generators import random_regular_graph  # noqa: E402
from repro.graphs.ports import random_port_numbering  # noqa: E402
from repro.machines import MultisetAlgorithm  # noqa: E402
from repro.machines.fastpath import fast_path  # noqa: E402


class CyclicPhase(MultisetAlgorithm):
    """A finite-state machine: a phase counter ticking modulo 5."""

    def initial_state(self, degree):
        return (0, degree)

    def send(self, state, port):
        return (state[0], port)

    def transition(self, state, received):
        return ((state[0] + 1) % 5, state[1])


graph = random_regular_graph(3, 128, seed=1)
rng = random.Random(0)
instances = [
    compile_instance((graph, random_port_numbering(graph, rng=rng)))
    for _ in range(120)
]

# Both engines intern into tables that live on the fast-path wrapper, so they
# share one wrapper; a bare algorithm would get fresh tables on every call.
algorithm = fast_path(CyclicPhase())
run_vector(algorithm, instances, require_halt=False, max_rounds=32)
run_sweep(algorithm, instances, require_halt=False, max_rounds=32)

# The steady state: every configuration is already in the shared table.
vector_stats, sweep_stats = SweepStats(), SweepStats()
tick = time.perf_counter()
vectored = run_vector(
    algorithm, instances, require_halt=False, max_rounds=32, stats=vector_stats
)
vector_s = time.perf_counter() - tick
tick = time.perf_counter()
swept = run_sweep(algorithm, instances, require_halt=False, max_rounds=32, stats=sweep_stats)
sweep_s = time.perf_counter() - tick

assert [r.outputs for r in vectored] == [r.outputs for r in swept]
assert vector_stats.evaluations == sweep_stats.evaluations == 0, "tables are warm"
print(
    f"adversarial sweep ({len(instances)} numberings x 32 rounds): "
    f"sweep {sweep_s * 1000:.0f}ms, vector {vector_s * 1000:.0f}ms "
    f"({sweep_s / vector_s:.1f}x), outputs identical"
)

# ----------------------------------------------------------------------- #
# 3. A vectorised check_many batch
# ----------------------------------------------------------------------- #

world_count = 5000
model_rng = random.Random(7)
edges = frozenset(
    (u, model_rng.randrange(world_count))
    for u in range(world_count)
    for _ in range(6)
)
model = KripkeModel(
    worlds=frozenset(range(world_count)),
    relations={"a": edges},
    valuation={
        "p": frozenset(w for w in range(world_count) if model_rng.random() < 0.5)
    },
)
formulas = [
    Diamond(Prop("p"), index="a"),
    Box(Prop("p"), index="a"),
    GradedDiamond(Prop("p"), 3, index="a"),
    Diamond(Box(Prop("p"), index="a"), index="a"),
]

# Warm the compiled and vector forms (both cached on the model).
check_many(model, formulas, engine="compiled")
check_many(model, formulas, engine="vector")

tick = time.perf_counter()
compiled = check_many(model, formulas, engine="compiled")
compiled_s = time.perf_counter() - tick
tick = time.perf_counter()
vectored = check_many(model, formulas, engine="vector")
vector_s = time.perf_counter() - tick

assert vectored == compiled
print(
    f"check_many ({world_count} worlds x {len(formulas)} formulas): "
    f"compiled {compiled_s * 1000:.1f}ms, vector {vector_s * 1000:.1f}ms "
    f"({compiled_s / vector_s:.1f}x), extensions identical"
)
