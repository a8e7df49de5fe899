"""quotematch: near-duplicate canonical-quote detection and sharer/debunker
behavior modeling for Arabic social media corpora."""

__version__ = "0.1.0"
