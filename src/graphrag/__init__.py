"""Ontology-guided knowledge-graph retrieval with attribute-aware communities."""

__version__ = "0.1.0"
