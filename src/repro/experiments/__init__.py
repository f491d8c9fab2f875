"""Experiment harness: tables, figures, claims."""
