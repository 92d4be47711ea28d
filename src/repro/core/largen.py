"""``LargeNEngine``: the one-replica engine under its former large-n name.

Runs at ``n = 10^5..10^6`` go through
:class:`~repro.core.vectorized.VectorizedEngine`.  This name stays because
``perfbench``'s ``large-n`` workload builds it and its tracer wraps the
``step`` of each engine class.  ``step`` is bound here, on the class itself,
so that wrapping ``VectorizedEngine.step`` and then ``LargeNEngine.step``
counts one round once, not twice.
"""

from repro.core.vectorized import VectorizedEngine

__all__ = ["LargeNEngine"]


class LargeNEngine(VectorizedEngine):
    """:class:`~repro.core.vectorized.VectorizedEngine`, same arguments."""

    step = VectorizedEngine.step
