"""Adaptive virtual element solver for Steklov eigenvalue problems."""
