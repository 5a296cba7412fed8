"""The package surface: what `import odsk` exports, and what start-up loads."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import odsk
import odsk.cli
import odsk.fca

# every public name, by the module it comes from
EXPORTS = {
    "completion": ("Completion", "DimensionResult", "Realizer", "critical_pairs",
                   "dedekind_macneille", "dimension_bounds", "order_dimension"),
    "errors": ("AntisymmetryViolation", "BudgetExceeded", "ConceptBudgetExceeded",
               "EmptyImage", "EmptySet", "MissingSpec", "OdskError", "ParseError",
               "UnknownAttribute", "UnknownValue", "UnsupportedKind", "WrongFactorCount"),
    "factors": ("Biplot", "BooleanFactor", "Factorization", "OrdinalFactor", "biplot",
                "boolean_greedy", "largest_ordinal_factor", "ordinal_factorization"),
    "fca": ("ConceptLattice", "FormalConcept", "FormalContext", "GuttmanResult",
            "GuttmanWitness", "Implication", "canonical_base", "clarify", "concepts",
            "entails", "holds", "is_guttman", "read_cxt", "write_cxt"),
    "layout": ("Drawing", "QualityMetrics", "dimdraw", "layered", "quality", "render"),
    "omspace": ("FiniteMetric", "OmSpace", "disagreement", "hausdorff", "mediated_metric",
                "read_distance_csv", "relational_distortion", "valuation_order"),
    "order": ("LinearExtension", "OrdinalStructure", "Poset", "QuasiOrder", "Relation",
              "close_quasiorder", "close_relation", "intersect_linear_orders",
              "pareto_maxima", "poset_from_tsv", "product_order", "product_quasiorder"),
    "scaling": ("ManyValuedTable", "ScaleSpec", "apply_scaling", "read_table_csv",
                "read_scaling_spec", "standard_scale", "to_ordinal_structure"),
}


def test_all_lists_every_export_once():
    expected = sorted(name for names in EXPORTS.values() for name in names)
    assert len(expected) == 74
    assert sorted(odsk.__all__) == expected


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_are_the_home_modules_objects(module):
    home = importlib.import_module(f"odsk.{module}")
    for name in EXPORTS[module]:
        assert getattr(odsk, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from odsk import *", namespace)
    assert all(namespace[name] is getattr(odsk, name) for name in odsk.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        odsk.no_such_name
    with pytest.raises(AttributeError):
        odsk.cli.no_such_name
    assert not hasattr(odsk.cli, "__path__")  # cli is a module, not a package


def test_cli_reads_public_names_from_the_package():
    assert odsk.cli.concepts is odsk.fca.concepts


def test_cli_start_up_loads_no_algorithm_module():
    code = ("import sys, odsk.cli\n"
            "odsk.cli.build_parser()\n"
            "assert odsk.cli.run(['--help']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'odsk'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=Path(odsk.__file__).parents[1], timeout=60, check=True)
    assert proc.stdout.splitlines()[-1] == "['odsk', 'odsk.cli', 'odsk.errors']"
