"""Workload benchmark for the PDS2 marketplace (see README.md)."""
