"""Ordinal data science kit.

Submodules: order (posets, linear extensions, Pareto), fca (contexts and
concept lattices), scaling (many-valued tables), completion (Dedekind-
MacNeille, order dimension), factors (Boolean/ordinal factorization),
omspace (ordered metric spaces), layout (order-diagram drawing).
"""

import importlib

_EXPORTS = {
    "completion": "Completion DimensionResult Realizer critical_pairs dedekind_macneille "
                  "dimension_bounds order_dimension",
    "errors": "AntisymmetryViolation BudgetExceeded ConceptBudgetExceeded EmptyImage "
              "EmptySet MissingSpec OdskError ParseError UnknownAttribute UnknownValue "
              "UnsupportedKind WrongFactorCount",
    "factors": "Biplot BooleanFactor Factorization OrdinalFactor biplot boolean_greedy "
               "largest_ordinal_factor ordinal_factorization",
    "fca": "ConceptLattice FormalConcept FormalContext GuttmanResult GuttmanWitness "
           "Implication canonical_base clarify concepts entails holds is_guttman "
           "read_cxt write_cxt",
    "layout": "Drawing QualityMetrics dimdraw layered quality render",
    "omspace": "FiniteMetric OmSpace disagreement hausdorff mediated_metric "
               "read_distance_csv relational_distortion valuation_order",
    "order": "LinearExtension OrdinalStructure Poset QuasiOrder Relation close_quasiorder "
             "close_relation intersect_linear_orders pareto_maxima poset_from_tsv "
             "product_order product_quasiorder",
    "scaling": "ManyValuedTable ScaleSpec apply_scaling read_table_csv read_scaling_spec "
               "standard_scale to_ordinal_structure",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):  # PEP 562: import a public name's module on first use
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
