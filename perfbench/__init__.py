"""Benchmark harness for tentaclelab: closed-loop workloads driven through
`tentaclelab.cli.main`, output checks, and a traced per-layer run.

Run `python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1`
from the repository root; see perfbench/README.md.
"""
