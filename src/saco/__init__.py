"""Exemplar selection, spatially aware sparse coding, and classification."""
