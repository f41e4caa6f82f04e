"""Static analysis of the repo itself.

* :mod:`repro.analysis.reprolint` — an AST rule framework enforcing the
  determinism / ledger / LDM / environment invariants, with the
  whole-program layer in :mod:`repro.analysis.project` and
  :mod:`repro.analysis.dataflow` (run it as ``python -m repro.analysis``);
* :mod:`repro.analysis.envvars` — the central registry of every
  ``REPRO_*`` environment knob and its typed accessors, which the runtime
  imports; so this ``__init__`` imports nothing.

Model selection and stability scoring (``inertia_sweep``,
``bootstrap_stability``, ...) live in :mod:`repro.core.metrics`.
"""
