"""ramseyforge: exact combinatorics for structural Ramsey theory at desk scale."""

from .structures import (
    Language,
    Morphism,
    Structure,
    language,
    verify_morphism,
    enumerate_morphisms,
    copies_of,
    copy_images,
    induced_substructure,
    gaifman_graph,
    is_irreducible,
    connected_components,
    free_amalgamation,
    is_strong_amalgamation,
    are_isomorphic,
)

__all__ = [
    "Language",
    "Morphism",
    "Structure",
    "language",
    "verify_morphism",
    "enumerate_morphisms",
    "copies_of",
    "copy_images",
    "induced_substructure",
    "gaifman_graph",
    "is_irreducible",
    "connected_components",
    "free_amalgamation",
    "is_strong_amalgamation",
    "are_isomorphic",
]

__version__ = "0.1.0"
