"""Benchmark of the preprank CLI workflows; see README.md."""
