"""joinscout: discover and execute fuzzy join paths across tabular databases.

The pipeline, end to end:

1. :mod:`joinscout.catalog` loads a multi-database catalog (CSV files plus a
   JSON manifest).
2. :mod:`joinscout.matching` scores cross-database column pairs by name,
   semantics, and token overlap.
3. :mod:`joinscout.validation` checks surviving pairs against actual row
   values and estimates how much of the data the join would retain.
4. :mod:`joinscout.graph` assembles foreign-key and fuzzy edges into a
   weighted join graph and finds cheapest join paths.
5. :mod:`joinscout.executor` materializes a path as a result table.

:mod:`joinscout.fuzzgen` generates synthetic catalogs with known ground
truth for benchmarking, and :mod:`joinscout.cli` wires everything into a
command-line pipeline.

Every name in a library module's ``__all__`` is also importable from the
package itself; :mod:`joinscout.cli` is not re-exported.  ``__all__`` is the
public API.  A name without a leading underscore that is not in ``__all__``
is shared with sibling modules, tests and the benchmark; a ``_`` name stays
in its module.
"""

from . import catalog, errors, executor, fuzzgen, graph, matching, similarity, validation
from .catalog import *
from .errors import *
from .executor import *
from .fuzzgen import *
from .graph import *
from .matching import *
from .similarity import *
from .validation import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (catalog, errors, executor, fuzzgen, graph, matching, similarity, validation)
    for name in module.__all__
]
