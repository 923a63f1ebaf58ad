"""Empty remnant of the retired process-sharded engine.

The engine, its process pools and its shared-memory transport are gone:
on the hosts measured they lost to plain ``csr`` (see CHANGES.md).  The
module stays only because ``perfbench/run.py``'s ``stop_workers()``
imports it and iterates over ``_POOLS`` after every benchmark run; it
goes once that import does.
"""

_POOLS: dict = {}
