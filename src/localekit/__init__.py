"""localekit: machine-checked point-free topology on finite carriers.

Frames (finite bounded distributive lattices with Heyting structure), the
coframe of sublocales, the frame of joins of closed sublocales, separation
axioms and their verified correspondences, finite topological spaces, and
an exact rational-interval calculus on the real line with certificate
replays for the statements that quantify over infinitely many stages.
"""

from .common import (BudgetExceeded, CheckReport, EquivalenceViolation,
                     TheoremViolation)
from .lattice import (BooleanizationView, FiniteFrame, NotALattice,
                      NotDistributive, RegularPairFrame, booleanization,
                      heyting, order_closure, product_frame, pseudocomplement,
                      regular_pair_frame, validate_frame)
from .sublocales import (ClosedJoinFrame, Sublocale, SublocaleLattice, all_sublocales,
                         closed_join_frame, closed_sublocale, dual_booleanization,
                         is_sublocale, open_sublocale, supplement)
from .separation import SeparationReport
from .spaces import FiniteSpace, enumerate_topologies, omega, uc_lattice
from . import realline

__version__ = "0.1.0"
