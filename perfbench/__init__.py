"""Benchmark of the mccvc package: workloads, output checks and the traced run."""
