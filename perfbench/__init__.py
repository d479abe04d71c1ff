"""End-to-end and per-layer benchmark for the gbsn package (see README.md)."""
