"""The deep-copy oracle of the stored-value contract.

A value is immutable once it is in a ``VariableStore`` and every holder
shares it (:meth:`AppStateMachine.execute`), so nothing under ``src/``
copies one; the contract's tests take their "before" through
``copy_value``.  The name is also re-exported by
``repro.smr.statemachine`` and ``repro.core.server``, which used to call
it: the end-to-end benchmark's traced pass patches it there
(``benchmarks/e2e/hostspans.py``, which a ``src/`` change may not edit);
ROADMAP item 2 removes the patch and the two imports with it.
"""

import copy


def copy_value(value):
    """A deep copy of ``value`` that shares no mutable structure with it."""
    return copy.deepcopy(value)
