"""Metric learning for multi-labelled data.

Loss family (contrastive, triplet, averaged group, smooth-bound, overlap-
aware ML2 and its single-label-positive ML2+ variant), anchor/positive/
negative sampling, a small L2-normalized embedding encoder trained from
scratch, and a clustering/retrieval/classification evaluation stack.
"""

__version__ = "0.1.0"
