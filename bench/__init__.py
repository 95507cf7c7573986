"""End-to-end and per-layer benchmark for debatekd; see bench/README.md."""
