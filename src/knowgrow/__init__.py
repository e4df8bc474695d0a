"""knowgrow: growth-law fitting and knowledge-graph analysis at desk scale.

The package fits closed-form growth laws (logarithmic-integral and related
quasi-linear families) to monthly corpus series, computes structural metrics
on directed snapshot graphs, generates preferential-attachment baselines,
traverses category hierarchies, and scores citation graphs with the
disruption index.  Everything is deterministic given inputs and seeds.
"""
import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """The module ``name``, registered in ``sys.modules`` now and executed on
    its first attribute access.

    A module already in ``sys.modules`` is returned as it is, so a name
    bound here and imported elsewhere is one module object.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        parent, _, child = name.rpartition(".")
        setattr(sys.modules[parent], child, module)
    return module
