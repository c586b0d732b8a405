"""Operads of magma-decorated cliques: construction, bases, subfamilies,
census tools, and embeddings of known operads.

numpy loads with the block engines: each function that works on label,
mask or pattern blocks imports it itself, and no module opens a process
pool.  So importing the package, and the element-level algebra, load
neither numpy nor a pool.
"""

from .magma import (
    MagmaElem, MagmaError, MagmaMorphism, RankFunction, UnitaryMagma,
    automorphisms, has_nontrivial_unit_divisors, is_right_cancelable,
    magma_product, op, parse_magma_spec,
)
from .clique import (
    Clique, CliqueError, arcs_of, clique_from_json, clique_to_json,
    crossing_number, degree, format_clique, generate_cliques, hamming,
    is_acyclic, is_bubble, is_minimal_prime, is_nesting_free, is_noncrossing,
    is_prime, is_triangle, is_white, reflect, relabel, rotate,
    split_along_diagonal,
)
from .operad import (
    LinComb, partial_compose, partial_compose_lin, star_product,
    unzip_clique, zip_cliques,
)
from .bases import (
    below_be, below_d, compose_H, compose_K, compose_in_basis,
    from_H, from_K, to_H, to_K,
)
from .ratfct import (
    IntervalProduct, RatElem, RatFctError, compose_product, interval_map,
    rf_compose, rf_image, rf_is_zero, verify_rf_laws, verify_rf_morphism,
)
from .knownops import (
    ChordDiagram, DoubleMultiTilde, KnownOperadError, MultiTilde,
    chord_compose, dmt_compose, grav_check, grav_compose, gravity_cliques,
    lie_maximal, mt_compose, phi_dmt, phi_grav, phi_mt,
)
from .variants import (
    VariantError, VariantPredicate, variant, variant_compose,
    verify_ideal, verify_inclusions,
)
from .enumeration import (
    BudgetError, ColoredDyckWord, SequenceRecord, count_by_enumeration,
    count_minimal_prime, count_prime, count_white_prime, dim_formula,
    dyck_decode, dyck_encode, export_sequence, narayana, sequence_for,
)
from .verify import (
    is_associative_element, verify_basic_set_operad, verify_cyclic,
    verify_operad_axioms, verify_product_iso, verify_symmetries,
)
from .report import VerifyReport

__version__ = "0.1.0"
