"""Byzantine agreement on preference rankings.

A library and simulator for reaching agreement on a full candidate ranking
among n nodes of which up to t < n/3 are Byzantine, with validity guarantees
stated in terms of pairwise preferences and Kemeny-median quality.
"""

from .rankings import (
    Pair,
    ParseError,
    Profile,
    Ranking,
    is_ranking,
    pairs_of,
    parse_profile,
    unanimous_pairs,
    validate_ranking,
)
from .tournament import weight_matrix
from .kemeny import (
    BRUTE_MAX_M,
    EXACT_MAX_M,
    INFINITE,
    ApproxReport,
    CapacityError,
    MedianResult,
    approx_ratio,
    kemeny_brute,
    kemeny_exact,
)
from .protocol import (
    ProtocolConfig,
    adjust_ranking,
    collect_fixed_pairs,
    compute_proposals,
    decide_dictator,
    resolve_acyclic,
    run_algorithm1,
    run_algorithm2,
    run_baseline_stv,
)
from .simnet import (
    AdversaryContext,
    AdversaryStrategy,
    Equivocate,
    Honest,
    IntegrityEvent,
    OppositeMedian,
    RandomRankings,
    RunResult,
    RunStats,
    ScriptedViews,
    SearchReport,
    Silent,
    adversary_search,
    completion_script,
    cycle_lock_attack,
    default_script,
    make_strategy,
    run_sync,
)
from .scenarios import (
    InfeasibleError,
    LowerBoundReport,
    ScenarioSpec,
    appendix_c_search,
    gen_binary_worst,
    gen_cycle_worst,
    measure_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Pair", "ParseError", "Profile", "Ranking", "is_ranking", "pairs_of",
    "parse_profile", "unanimous_pairs", "validate_ranking",
    "weight_matrix",
    "BRUTE_MAX_M", "EXACT_MAX_M", "INFINITE", "ApproxReport", "CapacityError",
    "MedianResult", "approx_ratio", "kemeny_brute", "kemeny_exact",
    "ProtocolConfig",
    "adjust_ranking", "collect_fixed_pairs", "compute_proposals",
    "decide_dictator", "resolve_acyclic", "run_algorithm1", "run_algorithm2",
    "run_baseline_stv",
    "AdversaryContext", "AdversaryStrategy", "Equivocate", "Honest",
    "IntegrityEvent", "OppositeMedian", "RandomRankings", "RunResult",
    "RunStats", "ScriptedViews", "SearchReport", "Silent", "adversary_search",
    "completion_script", "cycle_lock_attack", "default_script", "make_strategy",
    "run_sync",
    "InfeasibleError", "LowerBoundReport", "ScenarioSpec", "appendix_c_search",
    "gen_binary_worst", "gen_cycle_worst",
    "measure_scenario",
    "__version__",
]
