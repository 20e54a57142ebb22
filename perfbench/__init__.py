"""Benchmark for fuzzyshadow; see README.md."""
