"""Metric computations for parsed Java classes."""
