"""knowgrow: growth-law fitting and knowledge-graph analysis at desk scale.

The package fits closed-form growth laws (logarithmic-integral and related
quasi-linear families) to monthly corpus series, computes structural metrics
on directed snapshot graphs, generates preferential-attachment baselines,
traverses category hierarchies, and scores citation graphs with the
disruption index.  Everything is deterministic given inputs and seeds.
"""

__version__ = "0.1.0"
