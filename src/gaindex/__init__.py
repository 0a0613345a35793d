"""Geometric-arithmetic index of unicyclic graphs.

Library surface: graph construction and unicyclic structure (graph),
GA/AG evaluation (indices), extremal families and closed forms (families),
GA-decreasing rewrites and the reduction pipeline (transforms), rings of
rooted-tree shapes and their edits (rings), exhaustive enumeration and
bound verification (enumeration), CLI (cli).
"""

from .graph import (
    CycleStructure,
    EdgeListError,
    Graph,
    GraphError,
    NotUnicyclicError,
    build_graph,
    canonical_form,
    find_cycle,
    format_edge_list,
    is_connected,
    is_unicyclic,
    parse_edge_list,
    pendant_tree,
)
from .indices import EdgeContribution, ag_index, edge_contribution, f_eval, g_eval, ga_index
from .families import (
    FamilySpec,
    bound_interval,
    classify_family,
    compare_AB,
    compare_CD,
    ga_sn3_closed,
    ga_spq4_closed,
    ga_srk3_closed,
    make_family,
)
from .enumeration import (
    BoundReport,
    MonotonicityReport,
    enumerate_unicyclic,
    verify_bounds,
    verify_monotonicity,
)

__version__ = "0.1.0"

# transforms and these names of it load on first access (PEP 562), so that
# commands that rewrite nothing, `verify` among them, never compile it
_TRANSFORMS_NAMES = frozenset({
    "MonotonicityError",
    "PreconditionError",
    "SmallOrderError",
    "TraceStep",
    "TransformTrace",
    "arc_transform",
    "finish_one_neighbor_deg2",
    "finish_two_neighbors_deg2",
    "reduction_pipeline",
    "relocate_min",
    "set_runtime_checks",
    "star_transform",
})


def __getattr__(name: str):
    if name == "transforms" or name in _TRANSFORMS_NAMES:
        import importlib  # loaded with the interpreter; a relative import would recurse here

        transforms = importlib.import_module(".transforms", __name__)
        return transforms if name == "transforms" else getattr(transforms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
