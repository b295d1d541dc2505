"""Exact category-O combinatorics for wreath-product-type skew group rings
over tensor powers of the rank-1 enveloping algebra."""

from .cato_a import (
    CharacterVB,
    ch_simple_A,
    ch_verma,
    dim_simple_A,
    s_sets_A,
    verma_factors_A,
    verma_factors_sl2,
)
from .clifford import (
    SimpleX,
    classify_X_over,
    decompose_induced,
    dim_m,
    duality_F,
    weight_mult,
)
from .pbw import (
    Algebra,
    Element,
    anti_involution,
    cc_equal,
    center_basis_up_to_degree,
    central_character,
    central_character_numeric,
    commutator,
    coproduct_pair,
    hc_projection,
    m_one_S_delta,
    parse_expr,
)
from .obstruction import DeformationSpec, build_deformed_rhs, obstruction_ek, verify_no_go, weight_vector_check
from .skew_o import (
    BlockData,
    block_matrices,
    ch_simple_skew,
    ch_verma_skew,
    dim_simple_skew,
    partial_order_X,
    s3_component,
    s3_product_cover,
    s3_skew,
    s4_skew,
    simples_over_four_setups,
    verma_decompose_skew,
    weight_dims_skew,
)
from .symchars import char_table, char_value, dim_irrep, induce_restrict_mult
from .weights import (
    GammaSpec,
    Weight,
    kostant_p,
    leq,
    parse_gamma,
    parse_weight,
    perm_act,
)

__version__ = "0.1.0"
