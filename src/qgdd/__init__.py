"""Constructors and exhaustive verifiers for q-analogs of group divisible
designs, pairwise balanced designs, and subspace 2-designs over GF(q)."""

from .atlas import (GlAtlas, OrbitLabel, OrbitRepresentative, SpanClass,
                    UnclassifiedOrbitError, gl_atlas, gl_order)
from .fields import FieldTower, FiniteField, build_tower, finite_field
from .incidence import (brute_force_matrix, closed_form_matrix,
                        verify_closed_form)
from .designs import (DesignInstance, GddSelection, VerificationReport,
                      block_count, break_blocks, build_gdd, build_pbd,
                      desarguesian_spread, design_from_json_dict,
                      design_to_json_dict, expand_blocks, fill_holes,
                      gdd_lambda, supplementary, verify_design, verify_gdd)
from .singer import (HOrbit, SingerAction, h_incidence_matrix,
                     kramer_mesner_solve, moebius, n_orbits,
                     n_orbits_with_stabilizer, orbit_of,
                     orbit_representatives, singer_action)
from .subspaces import (Subspace, canonicalize, enumerate_subspaces,
                        gaussian_binomial, intersection_dim, superspaces)

__version__ = "0.1.0"
