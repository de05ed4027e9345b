"""End-to-end serving benchmark: four seeded workloads, a traced per-layer
breakdown, and a comparison rule. See README.md and ``BENCHMARK.json``."""
