"""End-to-end benchmark of the repro toolkit: build, verify and serve.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (see ``perfbench/README.md``).
"""
