"""The content-addressed result store for finished sweep points.

Every finished point lands in a
:class:`~repro.serve.results.ResultStore` under its content address
(:func:`~repro.serve.results.point_key`). A run has one store — its
``--checkpoint-dir``, else ``$REPRO_RESULT_STORE`` — so a repeat
``repro run`` over the same store is a cache hit served without
touching the simulator.
"""

from repro.serve.results import ResultStore, gc_stores, point_key

__all__ = ["ResultStore", "gc_stores", "point_key"]
