"""Crawl-engine benchmark: closed-loop workloads, oracles and per-layer tracing."""
