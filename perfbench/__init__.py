"""The repository's end-to-end and per-layer explain benchmark (``run.py``)."""
