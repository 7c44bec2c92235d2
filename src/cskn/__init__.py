"""Hierarchical image features from layer-wise kernel approximation.

The package learns a stack of convolutional layers without labels: each
layer fits a finite-dimensional embedding of a Gaussian match kernel on
patches of the layer below, optionally preceded by a sparsity-driven
pretraining pass. Image descriptors come from spatial-pyramid pooling of
the top layer and feed linear classification and retrieval.
"""

__version__ = "0.1.0"
