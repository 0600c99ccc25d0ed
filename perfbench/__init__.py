"""The repository benchmark: workloads, per-layer probes and the gate.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (see ``perfbench/README.md``).
"""
