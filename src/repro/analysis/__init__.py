"""Static determinism & hot-path invariant analyzer (``repro lint``).

AST-based lint engine specialized to this repository's correctness
contract: the rules, one entry point
(:func:`~repro.analysis.core.run_analysis`) and two reporters (text
and JSON).  Six rule families:

* **DET** — determinism: no wall-clock/entropy at import time, no
  process-global or unseeded RNG, no unordered-set iteration or
  reductions feeding float accumulation (:mod:`.rules_det`).
* **ENV** — environment hygiene: every knob read through the typed
  accessors in :mod:`repro.sim.config`, never at import time, and
  cache-relevant knobs folded into disk-cache keys (:mod:`.rules_env`).
* **PAR** — share-nothing sweep workers: pool-submitted callables
  importable at top level and free of module-state mutation
  (:mod:`.rules_par`).
* **GEN** — codegen audit: the span-kernel generator's exec hygiene and
  the generated kernels' call/attribute/global discipline
  (:mod:`.rules_gen`).
* **COV** — registry coverage: scalar machine state vs the vector
  columns and span-kernel registries, and the harness's declared cache
  key fields vs its disk-cache call sites (:mod:`.rules_cov`).
* **FLO** — seed dataflow: RNG seeds flow from configuration, and no
  RNG is shared across cells or re-seeded inside a loop
  (:mod:`.rules_flo`).

Run it with ``repro lint`` (see :mod:`.cli`), extend it by subclassing
:class:`~repro.analysis.core.Rule` with the
:func:`~repro.analysis.core.register` decorator — see
``docs/static-analysis.md``.
"""

from repro.analysis.core import (
    Finding,
    ProjectRule,
    REGISTRY,
    Rule,
    SourceModule,
    analyze_paths,
    default_rules,
    register,
)
from repro.analysis.cli import run_lint

__all__ = [
    "Finding",
    "ProjectRule",
    "REGISTRY",
    "Rule",
    "SourceModule",
    "analyze_paths",
    "default_rules",
    "register",
    "run_lint",
]
