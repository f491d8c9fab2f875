"""The repository benchmark (``python -m benchmarks.suite``; see README.md)."""
