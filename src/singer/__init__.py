"""Singer groups of projective planes and spaces: classical cyclic
difference sets, a greedy builder for general groups, hyperfield algebra
with its geometry correspondence, and monomial regular actions on fibered
point sets."""

from .errors import SingerError, DomainError, CapError, BoundedFailure
from .groups import (GroupHandle, Cyclic, FieldQuotient, Abelian, Integers,
                     Free, Symmetric, Monomial, parse_group, has_involution)
from .gf import GF, singer_divisibility
from .diffsets import (PartialDifferenceSet, differences, verify_partial,
                       verify_perfect, certify, classical_singer,
                       hughes_step, hughes_build, replay_chain)
from .geometry import (IncidenceStructure, verify_plane,
                       plane_from_difference_set, right_translation_action,
                       pg_space, verify_singer_action)
from .hyper import (HyperTable, check_axioms, krasner, k_algebra,
                    QuotientSpec, quotient_hyperring, field_quotient_table,
                    contains_krasner, hyperfield_to_geometry,
                    geometry_to_hyperfield, classify_extension,
                    tables_isomorphic)
from .f1 import (F1Space, singer_first, singer_general, embed_singer,
                 direct_limit_demo, verify_regular)

__version__ = "1.0.0"
