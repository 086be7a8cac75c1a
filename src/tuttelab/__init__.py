"""Matchings, quantitative Tutte conditions, and balanced orientations on
finite graph windows, with independent oracles cross-checking each step."""

from .core import (
    Edge,
    Graph,
    InputError,
    Window,
    format_graph,
    format_window,
    parse_window_text,
)
from .generators import (
    ActionSpec,
    GroupSpec,
    SchreierBuild,
    cayley_ball,
    fixture,
    grandparent_window,
    random_regular,
    schreier_graph,
)
from .matching import (
    DeficiencyReport,
    MatchingState,
    has_perfect_matching,
    is_allowed_edge,
    max_matching,
    tutte_berge_deficiency,
)
from .verifier import (
    ExpansionReport,
    TutteReport,
    Violation,
    check_tutte_eps_k,
    epsilon_from_delta,
    expansion_constant,
    verify_expansion_lemma,
)
from .layered import (
    LevelCertificate,
    RunCertificate,
    Schedule,
    build_nets,
    build_schedule,
    run_layered_matching,
)
from .orientation import (
    BalanceReport,
    GadgetHallReport,
    GadgetMatchingError,
    HallSide,
    Orientation,
    balanced_orientation_via_gadget,
    check_gadget_hall_expansion,
    eulerian_orientation,
    verify_balanced,
)

__version__ = "0.1.0"
