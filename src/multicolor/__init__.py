"""Online graph multi-coloring with advice: paths, bipartite and hexagonal
graphs, offline oracles, advice tapes, and adversarial instance families."""

from .advice import AdviceTape, dec, enc, enc_len
from .graph import (
    Graph,
    build_bipartite,
    build_hexagonal,
    build_path,
    clique_weight,
    maximal_cliques,
)
from .instance import (
    CancelAction,
    ColorAction,
    ColoringState,
    Instance,
    Request,
    Violation,
    apply_step,
    demand,
    peak_clique_load,
    validate_full,
)
from .oracle import OptWitness, opt_exact, plan_43
from .harness import RunReport, batch, load_instance, run, save_instance

__all__ = [
    "AdviceTape", "enc", "dec", "enc_len",
    "Graph", "build_path", "build_bipartite", "build_hexagonal",
    "maximal_cliques", "clique_weight",
    "Request", "Instance", "ColoringState", "Violation",
    "ColorAction", "CancelAction",
    "apply_step", "validate_full", "demand", "peak_clique_load",
    "OptWitness", "opt_exact", "plan_43",
    "RunReport", "run", "batch", "save_instance", "load_instance",
]
