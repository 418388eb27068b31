"""Exact desk-scale computations for extremal graph counts and edge-query games.

Everything here is exhaustive and exact: branch-and-bound maximizations over
all labeled graphs on up to a word's worth of vertices, explicit extremal
constructions with machine-checked contracts, unique-multiset-partition
search, and a minimax solver for the Questioner/Adversary edge-query game.
"""

from turantools.graphs import (
    Graph,
    make_graph,
    complement,
    disjoint_union,
    turan_graph,
    path_forest,
    encode_graph6,
    decode_graph6,
    check_bipartite,
)
from turantools.counting import (
    strip_isolated,
    automorphism_count,
    count_copies,
    count_family,
)
from turantools.families import GraphFamily, parse_family
from turantools.oracle import (
    OracleResult,
    ex_oracle,
    exa_oracle,
    exa_set_oracle,
    exa_prime_oracle,
    zeta,
)
from turantools.constructions import (
    ConstructionReport,
    build_klikk,
    build_triangle_k,
    build_unique_kab,
    build_star_k,
)
from turantools.partitions import (
    PartitionPair,
    MupResult,
    smallest_nondivisor,
    is_unique_partition,
    mup,
    mup_series_check,
    exa1_kab,
)
from turantools.game import (
    GameState,
    GameValue,
    placements,
    consistent_placements,
    adversary_no_first,
    solve_L,
    solve_x,
    solve_x_prime,
    questioner_extremal_strategy,
    simulate,
)
from turantools.errors import UnsolvedError, AdversaryError

__version__ = "0.1.0"
