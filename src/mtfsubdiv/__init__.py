"""Exact searches around maximal triangle-free graphs: neighborhood
hypergraphs, disjointly witnessed edge families, derived graphs, and
induced subdivisions, with a stage-by-stage pipeline and CLI.

The package re-exports the ``__all__`` of each module below.  ``symmetry``
is imported on first use, so start-up does not compile it, and is not
re-exported.
"""

from . import (
    budget,
    errors,
    formats,
    generators,
    graphs,
    hypergraphs,
    pipeline,
    solvers,
    subdivisions,
)
from .budget import *  # noqa: F403
from .errors import *  # noqa: F403
from .formats import *  # noqa: F403
from .generators import *  # noqa: F403
from .graphs import *  # noqa: F403
from .hypergraphs import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .solvers import *  # noqa: F403
from .subdivisions import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        budget, errors, formats, generators, graphs, hypergraphs, pipeline, solvers, subdivisions
    )
    for name in module.__all__
]
