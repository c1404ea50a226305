"""gackit: constraint encoding toolkit with mechanical propagation-strength
checking. Translate cardinality, difference, parity and clause constraints
into CNF or difference networks, then certify by exhaustive small-scale
enumeration whether target propagation reproduces source domain-consistency
deductions."""

__version__ = "0.1.0"

from .model import (
    FALSE, TRUE, AllDiff, Card, ChannelMap, Clause, Constraint, DomainBox,
    Neq, Network, ResourceError, Table, UsageError, Variable, Xor,
    bool_variable, is_restriction, range_variable, restrict, satisfies,
)
from .propagation import (
    CnfFormula, PropagationResult, SolveResult, UnitPropagator, gac_closure,
    gac_filter, gac_oracle, sat_solve, solve_brute_force,
)
from .encoders import (
    Encoding, EncodingStats, build_encoding, compile_network,
    encode_clause_to_neq, encode_exactly_one, identity_encoding,
)
from .gac_check import (
    Counterexample, EnumerationPolicy, Verdict, check_equiconsistency,
    check_gac_reduction, check_soundness, enumerate_knowledge_states,
    map_back, map_knowledge, replay,
)
