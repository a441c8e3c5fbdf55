"""Benchmark for the SpiderNet reproduction: live compose latency and
goodput, large-graph composers, and per-layer tracing.  See README.md."""
