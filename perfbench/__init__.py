"""Repository benchmark: seeded VDM/HTAP workloads with a traced per-layer breakdown (see README.md)."""
