"""Extended unsupervised random forest with path-based Jaccard proximity."""

from .noise import (
    NOISE_KINDS,
    estimate_noise_children,
    gini,
    gini_gain,
    noise_cdf,
    standardize,
)
from .tree import Tree, path, path_proximity_tree
from .forest import (
    Forest,
    fit,
    load_forest,
    proximity_matrix,
    save_forest,
    tree_rng,
)

__all__ = [
    "NOISE_KINDS",
    "estimate_noise_children",
    "gini",
    "gini_gain",
    "noise_cdf",
    "standardize",
    "Tree",
    "path",
    "path_proximity_tree",
    "Forest",
    "fit",
    "load_forest",
    "proximity_matrix",
    "save_forest",
    "tree_rng",
]
