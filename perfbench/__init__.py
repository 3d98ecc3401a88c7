"""Benchmark of cliffkit's pair mining, training and explanation paths.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and reference figures.
"""
