"""localekit: machine-checked point-free topology on finite carriers.

Frames (finite bounded distributive lattices with Heyting structure), the
coframe of sublocales, the frame of joins of closed sublocales, separation
axioms and their verified correspondences, finite topological spaces, and
an exact rational-interval calculus on the real line with certificate
replays for the statements that quantify over infinitely many stages.

The public surface is the command line (`localekit.cli`) and the batch
entry points below: each decides a whole batch of frames or spaces, and a
single input is a batch of one.
"""

from .common import (BudgetExceeded, CheckReport, EquivalenceViolation,
                     TheoremViolation)
from .lattice import FiniteFrame, NotALattice, NotDistributive, validate_frames
from .sublocales import closed_join_frames, closed_open_outcomes, sublocale_lattices
from .separation import SeparationBattery
from .spaces import FiniteSpace, enumerate_topologies, space_structures
from .checks import frame_structures
from . import realline

__version__ = "0.1.0"
