"""Admission ledger benchmark (see README.md; entry point is run.py)."""
