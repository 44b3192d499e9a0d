"""The BLEND benchmark's workloads, tracer and per-layer metrics (see ../README.md)."""
