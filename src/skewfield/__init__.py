"""Exact computational workbench for division-ring Galois theory.

Quaternion algebras over small number fields, their reduced-norm forms,
tensor-product Galois extensions, twisted polynomial and rational function
rings, and finite embedding problems with their commutative transports,
all in certificate-grade exact rational arithmetic.
"""

from .numfield import (FieldElement, FieldMorphism, LevelVerdict,
                       NumberField, OrderCapExceeded, automorphism_group,
                       field_level, fixed_field, is_galois,
                       minimal_polynomial, roots_in_field)
from .qalg import (AlgebraAutomorphism, AnisotropyVerdict, NormForm,
                   QuatElement, QuaternionAlgebra, ZeroNormError, anisotropy,
                   inner_automorphism, inner_order, norm_form, reduced_norm,
                   scalar_extension)
from .ore import (HypothesisFailed, InsufficientPrecision,
                  RecurrenceCertificate, SkewFraction, SkewLaurent,
                  SkewPoly, center_bounded, detect_recurrence, is_central,
                  ore_right_lcm, right_divide, series_expand,
                  tensor_decomposition_check)
from .galois import (CommExtension, GaloisExtension, NoDirectDecomposition,
                     NotAnisotropic, NotGalois, ProductConditionFailed,
                     RestrictionWitness, TwistedExtension, WitnessInvalid,
                     build_comm_extension, build_galois_extension,
                     build_special_case_3, build_twisted_extension,
                     check_product_conditions, converse_check, eq_produit,
                     restriction_map)
from .fep import (EmbeddingProblem, FiniteGroup, GroupHom, NotWeakSolution,
                  SolutionMap, cyclic_group, dihedral_group,
                  fiber_reduction, geometric_problem, hypothesis_report,
                  is_split, quaternion_group, sol_down, sol_up,
                  transport_down, transport_up, verify_solution)

__version__ = '0.1.0'
