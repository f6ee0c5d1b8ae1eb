"""Benchmark of cuspcal: workloads, reference checks and tracing (see README.md)."""
