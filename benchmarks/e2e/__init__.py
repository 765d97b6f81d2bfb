"""End-to-end and per-layer campaign benchmark (see README.md here)."""
