"""The content-addressed result store for finished sweep points.

Every finished point lands in a
:class:`~repro.serve.results.ResultStore` under its content address
(:func:`~repro.serve.results.point_key`), so a repeat ``repro run``
over the same ``$REPRO_RESULT_STORE`` (or a ``--resume`` over the same
``--checkpoint-dir``) is a cache hit served without touching the
simulator.
"""

from repro.serve.results import ResultStore, gc_stores, point_key

__all__ = ["ResultStore", "gc_stores", "point_key"]
