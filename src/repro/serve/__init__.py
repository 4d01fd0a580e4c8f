"""The sweep service: job queue, shared worker pool, result cache.

``repro serve`` runs the sweep pipeline as a long-lived daemon.
Clients drop durable jobs into an on-disk queue
(:mod:`repro.serve.queue`), the daemon decomposes every figure job
into per-point tasks and fans them over the worker pool that ``repro
run --workers`` uses (:mod:`repro.exec.parallel`), and every finished
point lands in a content-addressed
:class:`~repro.serve.results.ResultStore` keyed by ``sweep_key`` — so
a repeat request is a cache hit served without touching the simulator.

This is the "millions of users" architecture the roadmap names: most
traffic hits the store, not the engine.
"""

from repro.serve.queue import JobQueue, JobSpec
from repro.serve.results import ResultStore, point_key

__all__ = ["JobQueue", "JobSpec", "ResultStore", "point_key"]
